"""Spans around the calls `cmd_analyze` makes into each layer.

While a ``Tracer`` is installed, the module attributes listed in ``PATCHES``
are replaced by wrappers that record a span per call: name, start, end,
parent span and op id.  Spans stay in memory until the run ends.  Nothing in
the program is edited; the original functions are put back when tracing
stops.  A layer's self time is its span's duration minus that of its direct
child spans.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

# (module, attribute, span name, extractor of per-call data from the result)
PATCHES = (
    ("sasakit.cli", "load_diagram", "serialize.load", None),
    ("sasakit.serialize", "validate_diagram", "cones.validate", None),
    ("sasakit.cli", "is_good", "cones.is_good", None),
    ("sasakit.cones", "enumerate_faces_3d", "cones.faces", len),
    ("sasakit.cli", "compute_gamma", "cy.gamma", None),
    ("sasakit.cli", "normalize_height", "cy.normalize", None),
    ("sasakit.cli", "kernel_lattice", "cy.kernel", None),
    ("sasakit.cy", "smith_normal_form", "lattice.snf", None),
    ("sasakit.topology", "smith_normal_form", "lattice.snf", None),
    ("sasakit.cli", "topology_report", "topology.report", None),
    ("sasakit.cli", "minimize_volume", "reeb.minimize",
     lambda r: [r.iterations, r.converged]),
    ("sasakit.cli", "eval_potential", "potentials.grid", None),
    ("sasakit.cli", "legendre_roundtrip_error", "potentials.grid", None),
)

ROOT_SPAN = "cli.analyze"

# per-op self time, median over the ops that enter the layer
LAYER_MS = (
    "serialize.load", "cones.validate", "cones.faces", "cones.is_good",
    "lattice.snf", "cy.gamma", "cy.normalize", "cy.kernel",
    "topology.report", "potentials.grid",
)


class Tracer:
    """Spans as lists [name, start_ns, end_ns, parent, op, data]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def _wrap(self, name, fn, extract):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), None,
                          stack[-1] if stack else None, self.op, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()
            if extract is not None:
                spans[idx][5] = extract(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, name, extract in PATCHES:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, extract))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    @contextmanager
    def op_span(self, op_id):
        """The root span of one op; layer spans inside it get its op id."""
        self.op = op_id
        idx = len(self.spans)
        self.spans.append([ROOT_SPAN, time.perf_counter_ns(), None, None, op_id, None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()
            self.op = None

    def extend(self, spans, op_id):
        """Adopt spans recorded by another process, renumbering parents."""
        base = len(self.spans)
        for name, start, end, parent, _, data in spans:
            self.spans.append(
                [name, start, end, None if parent is None else parent + base, op_id, data]
            )


def self_times(spans):
    """Self time in ns of every span, in span order."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(spans, scale):
    """Per-layer metrics and a table of self time by span name.

    ``scale`` maps op id to the factor that brings its times to the
    reference speed (see speed.py).
    """
    own = [ns * scale[s[4]] for s, ns in zip(spans, self_times(spans))]
    per_op: dict = {}
    by_name: dict = {}
    calls = []
    faces = {}
    for s, ns in zip(spans, own):
        name, op, data = s[0], s[4], s[5]
        per_op.setdefault(name, {}).setdefault(op, 0)
        per_op[name][op] += ns
        by_name[name] = by_name.get(name, 0) + ns
        if name == "reeb.minimize":
            calls.append((ns, *(data or (0, False))))  # no data: the call raised
        elif name == "cones.faces" and op not in faces:
            faces[op] = data
    ops = len(per_op.get(ROOT_SPAN, {}))
    metrics = {}
    for name in LAYER_MS:
        vals = list(per_op.get(name, {}).values())
        metrics[f"{name}_ms"] = (statistics.median(vals) / 1e6 if vals else 0.0, "ms")
    metrics["cones.faces_count"] = (
        statistics.median(faces.values()) if faces else 0, "count")
    metrics["reeb.minimize_ms"] = (
        statistics.median(c[0] for c in calls) / 1e6 if calls else 0.0, "ms")
    metrics["reeb.newton_iters"] = (
        sum(c[1] for c in calls) / len(calls) if calls else 0.0, "count")
    metrics["reeb.not_converged"] = (sum(1 for c in calls if not c[2]), "count")
    metrics["trace.ops"] = (ops, "count")
    total = sum(by_name.values())
    table = [
        (name, ns / 1e6 / max(ops, 1), ns / total if total else 0.0)
        for name, ns in sorted(by_name.items(), key=lambda kv: -kv[1])
    ]
    return metrics, table

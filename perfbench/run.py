"""Benchmark of `sasakit analyze`, end to end and layer by layer.

    python3 perfbench/run.py --workload analyze-large-d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is a closed loop with one client: ops run one after another,
in whole rounds of the same make-up, until ``--seconds`` have passed.  Every
op's output is checked against the oracles in ``oracle.py``.  The last line
of stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
(from spans around the calls into each layer) with ``--trace 1``.  See
README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import csv
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracle
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PROBES = 7
SMALL_D_GRID = 12
# per round of analyze-small-d: fast entries of each kind, slow entries, faults
SMALL_D_KINDS = ("lens", "z5-lens", "main4-even", "main4-odd", "polygon")
SMALL_D_FAST_PER_KIND = 8
SMALL_D_SLOW = 2
REEB_FLAGS = ["--cy", "--topo", "--reeb"]


class Workload:
    """Rounds of (label, normals) with a fixed make-up, and how to run them."""

    in_process = True
    grid = False
    max_rounds = float("inf")

    def __init__(self, seed: int):
        self.seed = seed

    def flags(self, work: Path):
        if self.grid:
            return REEB_FLAGS + ["--potential-grid", str(SMALL_D_GRID),
                                 "--grid-out", str(work / "grid.csv")]
        return list(REEB_FLAGS)


class LargeD(Workload):
    tail = 90

    def round(self, index):
        return gen.large_d_round(self.seed, index)

    def warmup(self):
        rng = random.Random(f"large-d:{self.seed}:warmup")
        return gen.apply(gen.random_shear(rng), gen.main4_even(18, 3))


class SmallD(Workload):
    tail = 95
    grid = True

    def __init__(self, seed: int):
        super().__init__(seed)
        entries = json.loads((HERE / "small_d.json").read_text())["entries"]
        rng = random.Random(f"small-d:{seed}")
        self.fast = {}
        for kind in SMALL_D_KINDS:
            pool = [e["normals"] for e in entries if e["class"] == "fast" and e["kind"] == kind]
            rng.shuffle(pool)
            self.fast[kind] = pool
        # slow entries and faults are used in catalogue order, whatever the
        # seed: their cost varies tenfold from one to the next, and a few per
        # round carry most of the round's time
        self.slow = [e["normals"] for e in entries if e["class"] == "slow"]
        self.faults = [e["normals"] for e in entries if e["class"] == "fault"]
        self.order = rng
        self.warm = self.fast["main4-odd"].pop()
        self.max_rounds = min(
            min(len(p) for p in self.fast.values()) // SMALL_D_FAST_PER_KIND,
            len(self.slow) // SMALL_D_SLOW,
            len(self.faults),
        )

    def round(self, index):
        f, s = SMALL_D_FAST_PER_KIND, SMALL_D_SLOW
        items = [(kind, n) for kind in SMALL_D_KINDS
                 for n in self.fast[kind][index * f:(index + 1) * f]]
        items += [("slow", n) for n in self.slow[index * s:(index + 1) * s]]
        items.append(("fault", self.faults[index]))
        self.order.shuffle(items)
        return items

    def warmup(self):
        return self.warm


class CliCold(Workload):
    tail = 80
    in_process = False

    def round(self, index):
        return gen.cli_cold_round(self.seed, index)

    def warmup(self):
        return gen.lens(2)


WORKLOADS = {
    "analyze-large-d": LargeD,
    "analyze-small-d": SmallD,
    "cli-cold": CliCold,
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SASAKIT_SEED"] = "0"
    return env


def write_diagram(path: Path, normals):
    path.write_text(json.dumps({"rank": 3, "normals": [list(v) for v in normals]}))


def setup_probe(diagram: Path, flags) -> float:
    """Import plus one warm-up op, in a fresh interpreter (seconds)."""
    res = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "probe", str(diagram), *flags],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
    probe = json.loads(res.stdout)
    return probe["import_s"] + probe["warmup_s"]


def wall_of(argv, work: Path) -> float:
    code, _, elapsed, _ = run_subprocess(argv, work)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return elapsed


def run_subprocess(argv, work: Path):
    """(exit code, stdout, seconds, peak RSS in KiB) of one child process.

    Waits with a blocking wait4: subprocess's wait with a timeout polls in
    steps of up to 50 ms, which would quantize the measured times.
    """
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text()
    if stderr:
        raise RuntimeError(f"child wrote to stderr: {stderr[-2000:]}")
    return proc.returncode, out.decode(), elapsed, usage.ru_maxrss


class Runner:
    def __init__(self, workload: Workload, work: Path, trace: bool):
        self.w = workload
        self.work = work
        self.trace = trace
        self.flags = workload.flags(work)
        self.tracer = tracing.Tracer() if trace else None
        # op times are scaled to a reference speed (speed.py): in-process by
        # a kernel run in this process, child ops by a bare interpreter start
        self.gauge = speed.Gauge() if workload.in_process else speed.Gauge(
            lambda: wall_of([sys.executable, "-c", "pass"], work),
            speed.CHILD_REFERENCE_S, every=0)
        self.times = []          # untraced op seconds, scaled (speed.py)
        self.raw_times = []      # the same, as measured
        self.traced_times = []
        self.factors = {}        # op id -> scale factor
        self.attempted = 0
        self.failed = 0
        self.errors = []         # wrong answers
        self.crashes = []
        self.child_rss = 0
        if workload.in_process:
            from sasakit import cli

            self.cli = cli

    def op(self, label, normals, traced: bool):
        e = oracle.expect(normals)
        path = self.work / "diagram.json"
        write_diagram(path, normals)
        argv = ["analyze", str(path), *self.flags]
        op_id = self.attempted
        self.attempted += 1
        factor = self.factors[op_id] = self.gauge.factor()
        try:
            if self.w.in_process:
                code, out, elapsed = self._in_process(argv, op_id, traced)
            else:
                code, out, elapsed = self._child(argv, op_id, traced)
            result = json.loads(out)
            grid = None
            if self.w.grid and code == 0:
                with open(self.work / "grid.csv", newline="") as fh:
                    grid = list(csv.reader(fh))
            fault = oracle.check_analyze(e, code, result, grid)
        except oracle.CheckError as exc:
            self.errors.append(f"{label} {list(map(list, normals))}: {exc}")
            fault = False
        except Exception as exc:  # the op crashed: count it, keep running
            self.crashes.append(f"{label} {list(map(list, normals))}: {exc!r}")
            self.failed += 1
            return
        if traced:
            self.traced_times.append(elapsed * factor)
        else:
            self.times.append(elapsed * factor)
            self.raw_times.append(elapsed)
        self.failed += fault

    def _in_process(self, argv, op_id, traced):
        buf = io.StringIO()
        spans = self._spans(op_id) if traced else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf), spans:
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
        return code, buf.getvalue(), elapsed

    @contextlib.contextmanager
    def _spans(self, op_id):
        with self.tracer.installed(), self.tracer.op_span(op_id):
            yield

    def _child(self, argv, op_id, traced):
        if traced:
            spans_path = self.work / "spans.json"
            cmd = [sys.executable, str(HERE / "child.py"), "trace", str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "sasakit.cli", *argv]
        code, out, elapsed, rss = run_subprocess(cmd, self.work)
        if traced:
            self.tracer.extend(json.loads(spans_path.read_text()), op_id)
        else:
            self.child_rss = max(self.child_rss, rss)
        return code, out, elapsed

    def run(self, seconds: float, probe=None):
        """Whole rounds until `seconds` have passed; returns the round count.

        `probe`, if given, is called PROBES times, spread over the run: the
        host's speed drifts over seconds, and probes of fresh interpreters
        taken back to back would all sample the same moment of it.
        """
        t0 = time.perf_counter()
        index = 0
        min_rounds = 2 if self.trace else 1
        probes = 0
        while index < self.w.max_rounds and (
            index < min_rounds or time.perf_counter() - t0 < seconds
        ):
            if probe is not None and time.perf_counter() - t0 >= probes * seconds / PROBES:
                probe()
                probes += 1
            traced = self.trace and index % 2 == 1
            for label, normals in self.w.round(index):
                self.op(label, normals, traced)
            index += 1
        while probe is not None and probes < PROBES:
            probe()
            probes += 1
        return index


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(runner: Runner, setup_s: float):
    times = runner.times
    ok = runner.attempted - runner.failed
    if runner.w.in_process:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kib = runner.child_rss
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (percentile(times, runner.w.tail) * 1e3, "ms"),
        "ops_per_s": (ok / sum(times), "1/s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }


def per_layer(runner: Runner, workload: str, seed: int, samples):
    metrics, table = tracing.summarize(runner.tracer.spans, runner.factors)
    metrics["cli.interp_ms"] = (statistics.median(samples["interp"]) * 1e3, "ms")
    metrics["cli.import_ms"] = (statistics.median(samples["import"]) * 1e3, "ms")
    overhead = statistics.median(runner.traced_times) / statistics.median(runner.times) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    own = tracing.self_times(runner.tracer.spans)
    trace_path.write_text(json.dumps({
        "fields": ["name", "start_ns", "end_ns", "parent", "op", "data", "self_ns"],
        "spans": [s + [ns] for s, ns in zip(runner.tracer.spans, own)],
    }))
    print(f"# {workload} seed {seed}: self time per traced op "
          f"({metrics['trace.ops'][0]} ops; spans in {trace_path.relative_to(ROOT)})")
    for name, ms, share in table:
        print(f"#   {name:18s} {ms:10.3f} ms {100 * share:6.1f}%")
    print(f"#   tracing overhead {overhead * 100:+.1f}% on the median op")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them, one process each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sasakit" / "__init__.py").is_file():
        print(f"no sasakit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # byte-compile once, as an install would: a user does not pay compilation
    # on every start, and with PYTHONDONTWRITEBYTECODE set no child would
    # ever write the cache itself
    compileall.compile_dir(str(SRC / "sasakit"), quiet=1)
    os.environ["SASAKIT_SEED"] = "0"  # the seed of analyze's Reeb restarts
    workload = WORKLOADS[args.workload](args.seed)
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        warm = work / "warmup.json"
        write_diagram(warm, workload.warmup())
        flags = workload.flags(work)
        samples = {"interp": [], "setup": [], "import": []}

        def probe():
            if args.trace:
                samples["interp"].append(wall_of([sys.executable, "-c", "pass"], work))
                samples["import"].append(
                    wall_of([sys.executable, "-c", "import sasakit"], work))
            else:
                # as measured: neither the speed kernel nor `python -c pass`
                # followed the host when it got a third slower at set-up
                samples["setup"].append(setup_probe(warm, flags))
        sys.path.insert(0, str(SRC))
        if workload.in_process:
            from sasakit import cli

            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["analyze", str(warm), *flags])
        runner = Runner(workload, work, bool(args.trace))
        rounds = runner.run(args.seconds, probe)
        metrics = per_layer(runner, args.workload, args.seed, samples) if args.trace \
            else end_to_end(runner, statistics.median(samples["setup"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()
    for err in runner.errors[:10]:
        print(f"# check failed: {err}", file=sys.stderr)
    for err in runner.crashes[:10]:
        print(f"# op crashed: {err}", file=sys.stderr)
    print(f"# {args.workload}: {rounds} rounds, {runner.attempted} ops, "
          f"{runner.failed} failed, {len(runner.errors)} wrong answers")
    if not args.trace:
        reference = speed.REFERENCE_S if workload.in_process else speed.CHILD_REFERENCE_S
        print(f"# as measured, before scaling: op p50 "
              f"{statistics.median(runner.raw_times) * 1e3:.2f} ms; speed reference median "
              f"{statistics.median(runner.gauge.samples) * 1e3:.3f} ms "
              f"(scaled to {reference * 1e3:.1f} ms)")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:20s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in turn, each in its own process; one JSON line per workload."""
    results = {}
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            return res.returncode
        results[name] = json.loads(res.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every attribute the benchmark's tracer patches must still exist.

perfbench/tracing.py wraps module attributes by name; a refactor that moves
or renames one of them would make `--trace 1` fail or silently miss a layer.
Its extractors read fields of the results, so each one also runs on a real
result.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sasakit import compute_gamma, lens, main4_even
from sasakit.cli import main
from sasakit.serialize import dumps

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patches():
    return _tracing().PATCHES


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _patches()])
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


# arguments for each traced function whose result an extractor reads
SAMPLE_ARGS = {
    "enumerate_faces_3d": lambda d: (d,),
    "minimize_volume": lambda d: (d, compute_gamma(d)),
}


@pytest.mark.parametrize(
    "module, attr, extract", [(m, a, e) for m, a, _, e in _patches() if e is not None]
)
def test_traced_extractor_reads_a_real_result(module, attr, extract):
    fn = getattr(importlib.import_module(module), attr)
    assert extract(fn(*SAMPLE_ARGS[attr](lens(2))))


def test_traced_analyze_summarizes_without_a_face_list(tmp_path, capsys):
    # analyze reads the skeleton's edges, so the face-list span never fires:
    # its count reads 0, and the skeleton's time is is_good's own
    tracing = _tracing()
    path = tmp_path / "d.json"
    path.write_text(dumps({"normals": [list(v) for v in main4_even(8, 3).normals]}))
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op_span(0):
        assert main(["analyze", str(path), "--cy", "--topo", "--reeb"]) == 0
    capsys.readouterr()
    metrics, _ = tracing.summarize(tracer.spans, {0: 1.0})
    assert metrics["cones.faces_count"] == (0, "count")
    assert metrics["cones.is_good_ms"][0] > 0
    assert metrics["trace.ops"] == (1, "count")

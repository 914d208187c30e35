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

from sasakit import compute_gamma, lens

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


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

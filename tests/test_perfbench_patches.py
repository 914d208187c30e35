"""Every attribute the benchmark's tracer patches must still exist.

perfbench/tracing.py wraps module attributes by name; a refactor that moves
or renames one of them would make `--trace 1` fail or silently miss a layer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _patches()])
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))

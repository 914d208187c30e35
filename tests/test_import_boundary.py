"""numpy loads only where a potential is evaluated.

`check`, `analyze --cy --topo --reeb` and `--scan` are exact or plain-float
work; importing numpy would be most of a cold process.  Each command runs in
a fresh interpreter, which then reports whether numpy was imported.  The
lazily bound names must still be the `sasakit.potentials` objects, and the
grid path must call them through `sasakit.cli`'s attributes, where
perfbench/tracing.py puts its wrappers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sasakit
from sasakit import cli, lens, potentials
from sasakit.cli import main
from sasakit.serialize import dumps

SRC = Path(__file__).resolve().parents[1] / "src"

# runs cli.main on argv, then prints whether numpy is in sys.modules
SCRIPT = """
import sys
from sasakit import cli
code = cli.main(sys.argv[1:])
print()
print(code, "numpy" in sys.modules)
"""


def _fresh_cli(argv):
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv], capture_output=True, text=True, env=env
    )
    assert proc.stderr == ""
    code, loaded = proc.stdout.splitlines()[-1].split()
    return int(code), loaded == "True"


@pytest.mark.parametrize(
    "flags, numpy_loaded",
    [
        (["check"], False),
        (["analyze", "--cy", "--topo", "--reeb"], False),
        (["analyze", "--reeb", "--scan", "1,2,3", "--scan-out", "{tmp}/scan.csv"], False),
        (["analyze", "--potential-grid", "4", "--grid-out", "{tmp}/grid.csv"], True),
    ],
    ids=["check", "analyze", "scan", "potential-grid"],
)
def test_numpy_loads_only_for_potentials(tmp_path, flags, numpy_loaded):
    path = tmp_path / "lens2.json"
    path.write_text(dumps({"rank": 3, "normals": [list(v) for v in lens(2).normals]}))
    argv = [flags[0], str(path)] + [f.format(tmp=tmp_path) for f in flags[1:]]
    assert _fresh_cli(argv) == (0, numpy_loaded)


def test_lazy_names_are_the_potentials_objects():
    assert sasakit.potentials is potentials
    for name in sasakit._POTENTIALS:
        assert name in sasakit.__all__
        assert getattr(sasakit, name) is getattr(potentials, name)
    for name in cli._POTENTIALS:
        assert getattr(cli, name) is getattr(potentials, name)
    with pytest.raises(AttributeError):
        sasakit.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_grid_calls_the_potentials_through_cli(tmp_path, capsys, monkeypatch):
    calls = {"eval_potential": 0, "legendre_roundtrip_error": 0}

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    path = tmp_path / "lens2.json"
    path.write_text(dumps({"rank": 3, "normals": [list(v) for v in lens(2).normals]}))
    grid = tmp_path / "grid.csv"
    code = main(["analyze", str(path), "--potential-grid", "12", "--grid-out", str(grid)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["stages"]["potential_grid"]["points"] == 12
    assert calls == {"eval_potential": 12, "legendre_roundtrip_error": 12}

"""numpy loads only where a potential is evaluated, and a cold process loads
no module it does not use.

`check`, `analyze --cy --topo --reeb` and `--scan` are exact or plain-float
work; importing numpy would be most of a cold process.  No command loads
`dataclasses` (with `inspect`, which numpy alone brings in) or `csv`: both
CSV writers format their rows themselves.  Each command runs in a fresh
interpreter, which then reports which of these modules were imported.  The lazily bound names must still be the `sasakit.potentials`
objects, and the grid path must call them through `sasakit.cli`'s
attributes, where perfbench/tracing.py puts its wrappers.
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

WATCHED = ("numpy", "dataclasses", "inspect", "csv")

# runs cli.main on argv, then prints which WATCHED modules are in sys.modules
SCRIPT = f"""
import sys
from sasakit import cli
code = cli.main(sys.argv[1:])
print()
print(code, *(name for name in {WATCHED!r} if name in sys.modules))
"""


def _fresh_cli(argv):
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv], capture_output=True, text=True, env=env
    )
    assert proc.stderr == ""
    code, *loaded = proc.stdout.splitlines()[-1].split()
    return int(code), set(loaded)


@pytest.mark.parametrize(
    "flags, loaded",
    [
        (["check"], set()),
        (["analyze", "--cy", "--topo", "--reeb"], set()),
        (["analyze", "--reeb", "--scan", "1,2,3", "--scan-out", "{tmp}/scan.csv"], set()),
        (["analyze", "--potential-grid", "4", "--grid-out", "{tmp}/grid.csv"], {"numpy"}),
    ],
    ids=["check", "analyze", "scan", "potential-grid"],
)
def test_numpy_loads_only_for_potentials(tmp_path, flags, loaded):
    path = tmp_path / "lens2.json"
    path.write_text(dumps({"rank": 3, "normals": [list(v) for v in lens(2).normals]}))
    argv = [flags[0], str(path)] + [f.format(tmp=tmp_path) for f in flags[1:]]
    code, found = _fresh_cli(argv)
    if "numpy" in found:
        found.discard("inspect")  # numpy itself imports it
    assert (code, found) == (0, loaded)


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
    # the 12 points are one stack: one call of each name, both through cli
    assert calls == {"eval_potential": 1, "legendre_roundtrip_error": 1}

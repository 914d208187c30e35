"""numpy loads only where a potential is evaluated, and a cold process loads
no module it does not use.

`check`, `analyze --cy --topo --reeb` and `--scan` are exact or plain-float
work; importing numpy would be most of a cold process.  No command loads
`dataclasses` (with `inspect`, which numpy alone brings in) or `csv`: both
CSV writers format their rows themselves.  No plain command line loads
`argparse`, `gettext` or `locale`: `sasakit.cli` reads it from its own
option table, and argparse is imported only for help, version and usage
errors.  Each command runs in a fresh interpreter, which then reports which
of these modules were imported.  The lazily bound names must still be the
`sasakit.potentials` objects, and the grid path must call them through
`sasakit.cli`'s attributes, where perfbench/tracing.py puts its wrappers.
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

WATCHED = ("numpy", "dataclasses", "inspect", "csv", "argparse", "gettext", "locale")

# runs cli.main on argv, then prints which WATCHED modules are in sys.modules
SCRIPT = f"""
import sys
from sasakit import cli
code = cli.main(sys.argv[1:])
print()
print(code, *(name for name in {WATCHED!r} if name in sys.modules))
"""


def _fresh_python(script, *argv):
    """The stdout of `script` in a fresh interpreter that finds this sasakit."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
    )
    assert proc.stderr == ""
    return proc.stdout


def _fresh_cli(argv):
    code, *loaded = _fresh_python(SCRIPT, *argv).splitlines()[-1].split()
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
    assert sasakit.eval_potential is potentials.eval_potential
    with pytest.raises(AttributeError):
        sasakit.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_first_read_of_a_lazy_name_loads_the_potentials():
    # perfbench/tracing.py reads cli.eval_potential before any grid has run:
    # cli's module __getattr__ then imports numpy and binds the potentials
    script = """
import sys
from sasakit import cli
before = "numpy" in sys.modules
fn = getattr(cli, "eval_potential")
from sasakit import potentials
print(before, "numpy" in sys.modules, fn is potentials.eval_potential)
"""
    assert _fresh_python(script).split() == ["False", "True", "True"]


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

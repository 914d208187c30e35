"""Golden stdout bytes and exit codes of `sasakit check` and `sasakit analyze`.

Each file in tests/golden/ holds one input diagram with the exact stdout and
exit code of `check` and of `analyze --cy --topo --reeb` on it.  The files
pin the output bytes across refactors; regenerate them only for an intended
change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from sasakit import families
from sasakit.cli import main
from sasakit.serialize import dumps

GOLDEN = Path(__file__).with_name("golden")

# subcommand -> flags after the input path
COMMANDS = {
    "check": [],
    "analyze": ["--cy", "--topo", "--reeb"],
}

# a fixed element of SL(3, Z) acting on the normals
SHEAR = ((1, 0, 0), (1, 1, 0), (2, -1, 1))


def _base_cases():
    return {
        "lens1": families.lens(1).normals,
        "lens2": families.lens(2).normals,
        "lens5": families.lens(5).normals,
        "z5-lens": families.z5_lens().normals,
        "non-cy2": families.non_cy(2).normals,
        # coprimality fails on the edge between the first two normals
        "not-good": ((1, 0, 0), (1, 2, 4), (1, 1, 4)),
        # (1,1,0) grazes the ray (0,0,1): three normals on one edge, not good
        "grazing-edge": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)),
        # (1,1,1) vanishes on no face; good, but no gamma pairs to -1 with it
        "empty-normal": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
        "main4-even-2-1": families.main4_even(2, 1).normals,
        "main4-even-8-3": families.main4_even(8, 3).normals,
        "main4-odd-3-2": families.main4_odd(3, 2).normals,
        "main4-odd-19-4": families.main4_odd(19, 4).normals,
    }


def _sheared(normals):
    return [tuple(sum(a * x for a, x in zip(row, v)) for row in SHEAR) for v in normals]


def cases() -> dict:
    base = _base_cases()
    out = {name: [list(v) for v in normals] for name, normals in base.items()}
    for name, normals in base.items():
        out[f"{name}-sheared"] = [list(v) for v in _sheared(normals)]
    return out


def run_command(path: Path, command: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([command, str(path), *COMMANDS[command]])
    return code, buf.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(cases()))
def test_golden_bytes(name, command, tmp_path, monkeypatch):
    monkeypatch.delenv("SASAKIT_SEED", raising=False)
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    path = tmp_path / "diagram.json"
    path.write_text(dumps({"rank": 3, "normals": golden["normals"]}))
    code, out = run_command(path, command)
    assert code == golden[command]["exit"]
    assert out == golden[command]["stdout"]


def regenerate(tmp: Path) -> None:
    os.environ.pop("SASAKIT_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    for name, normals in cases().items():
        path = tmp / "diagram.json"
        path.write_text(dumps({"rank": 3, "normals": normals}))
        record = {"normals": normals}
        for command in COMMANDS:
            code, out = run_command(path, command)
            record[command] = {"exit": code, "stdout": out}
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    sys.exit(0)

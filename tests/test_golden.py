"""Golden stdout bytes and exit codes of `sasakit check` and `sasakit analyze`,
and golden bytes of the float potential outputs.

Each file in tests/golden/ holds one input diagram with the exact stdout and
exit code of `check` and of `analyze --cy --topo --reeb` on it.  Each file in
tests/golden_potentials/ holds one diagram with the exact stdout, exit code
and grid CSV of `analyze --cy --topo --reeb --potential-grid 12`, and the
exact stdout and exit code of `geodesic-test`.  The files pin the output
bytes across refactors; regenerate them only for an intended change of
output, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

from sasakit import families
from sasakit.cli import main
from sasakit.serialize import dumps

_builtin_sum = builtins.sum

GOLDEN = Path(__file__).with_name("golden")
GOLDEN_POTENTIALS = Path(__file__).with_name("golden_potentials")

# subcommand -> flags after the input path
COMMANDS = {
    "check": [],
    "analyze": ["--cy", "--topo", "--reeb"],
}

# the potential commands, run in the diagram's directory so that the grid's
# relative path, and so the stdout that names it, is the same in every run
POTENTIAL_COMMANDS = {
    "analyze": ["--cy", "--topo", "--reeb", "--potential-grid", "12", "--grid-out", "grid.csv"],
    "geodesic-test": [],
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


def _with_shears(base: dict) -> dict:
    out = {name: [list(v) for v in normals] for name, normals in base.items()}
    for name, normals in base.items():
        out[f"{name}-sheared"] = [list(v) for v in _sheared(normals)]
    return out


def cases() -> dict:
    return _with_shears(_base_cases())


def potential_cases() -> dict:
    base = _base_cases()
    out = _with_shears({name: base[name] for name in ("lens2", "z5-lens", "main4-odd-3-2")})
    # entry 48 of perfbench/small_d.json: a sheared main4-odd diagram, d = 10
    out["small-d-48"] = [
        [1, -2, 0], [1, -1, 1], [3, -4, 3], [7, -11, 6], [17, -30, 12],
        [27, -54, 13], [33, -70, 12], [19, -41, 6], [11, -24, 3], [5, -11, 1],
    ]
    return out


def run_command(path: Path, command: str, commands: dict = COMMANDS) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([command, str(path), *commands[command]])
    return code, buf.getvalue()


def potential_record(directory: Path, normals) -> dict:
    """Each potential command's exit and stdout, and the grid's bytes."""
    path = directory / "diagram.json"
    path.write_text(dumps({"rank": 3, "normals": normals}))
    record = {"normals": normals}
    old = os.getcwd()
    os.chdir(directory)  # contextlib.chdir needs Python 3.11
    try:
        for command in POTENTIAL_COMMANDS:
            code, out = run_command(path, command, POTENTIAL_COMMANDS)
            record[command] = {"exit": code, "stdout": out}
    finally:
        os.chdir(old)
    grid = directory / "grid.csv"
    record["analyze"]["csv"] = grid.read_bytes().decode("utf-8")
    grid.unlink()
    return record


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(cases()))
def test_golden_bytes(name, command, tmp_path):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    path = tmp_path / "diagram.json"
    path.write_text(dumps({"rank": 3, "normals": golden["normals"]}))
    code, out = run_command(path, command)
    assert code == golden[command]["exit"]
    assert out == golden[command]["stdout"]


@pytest.mark.parametrize("name", sorted(potential_cases()))
def test_golden_potential_bytes(name, tmp_path):
    path = GOLDEN_POTENTIALS / f"{name}.json"
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert potential_record(tmp_path, golden["normals"]) == golden


def _sum_out_of_order(iterable, /, start=0):
    """builtins.sum, except that a sum of plain ints and floats with a float
    among them is math.fsum's correctly rounded one.  Like sum() from Python
    3.12 on, which adds floats with compensation, it does not add left to
    right."""
    items = [start, *iterable]
    types = set(map(type, items))
    if float in types and types <= {int, float}:
        return math.fsum(items)
    return _builtin_sum(items[1:], start)


def test_golden_bytes_do_not_depend_on_the_order_of_float_sums(tmp_path, monkeypatch):
    # every analyze output of tests/golden and every analyze stdout and grid
    # CSV of tests/golden_potentials, replayed with sum() adding floats out of
    # order: the printed bytes must not rest on how sum() adds
    monkeypatch.setattr(builtins, "sum", _sum_out_of_order)
    mismatches = []
    path = tmp_path / "diagram.json"
    for name in sorted(cases()):
        golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        path.write_text(dumps({"rank": 3, "normals": golden["normals"]}))
        code, out = run_command(path, "analyze")
        if (code, out) != (golden["analyze"]["exit"], golden["analyze"]["stdout"]):
            mismatches.append(f"golden/{name}")
    monkeypatch.chdir(tmp_path)  # the grid's relative path is printed
    for name in sorted(potential_cases()):
        golden = json.loads((GOLDEN_POTENTIALS / f"{name}.json").read_text(encoding="utf-8"))
        path.write_text(dumps({"rank": 3, "normals": golden["normals"]}))
        code, out = run_command(path, "analyze", POTENTIAL_COMMANDS)
        if (code, out) != (golden["analyze"]["exit"], golden["analyze"]["stdout"]):
            mismatches.append(f"golden_potentials/{name} (analyze stdout)")
        # as bytes: read_text() would fold the CSV's CRLF
        if (tmp_path / "grid.csv").read_bytes() != golden["analyze"]["csv"].encode("utf-8"):
            mismatches.append(f"golden_potentials/{name} (grid CSV)")
    assert not mismatches, "bytes changed: " + ", ".join(mismatches)


def _write(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def regenerate(tmp: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, normals in cases().items():
        path = tmp / "diagram.json"
        path.write_text(dumps({"rank": 3, "normals": normals}))
        record = {"normals": normals}
        for command in COMMANDS:
            code, out = run_command(path, command)
            record[command] = {"exit": code, "stdout": out}
        _write(GOLDEN / f"{name}.json", record)
    GOLDEN_POTENTIALS.mkdir(exist_ok=True)
    for name, normals in potential_cases().items():
        _write(GOLDEN_POTENTIALS / f"{name}.json", potential_record(tmp, normals))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    sys.exit(0)

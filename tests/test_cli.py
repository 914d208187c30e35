import argparse
import contextlib
import csv
import errno
import gc
import io
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sasakit
from sasakit import cli, cones, cy as cy_module, reeb
from sasakit.cli import main
from sasakit.cones import ToricDiagram
from sasakit.cy import compute_gamma, kernel_lattice, normalize_height
from sasakit.errors import DiagramError, SasakitError
from sasakit.reeb import MinimizationResult, minimize_volume, volume
from sasakit.serialize import diagram_to_dict, dumps, format_float, load_diagram
from sasakit.topology import topology_report
from sasakit import lattice, lens, main4_even, main4_odd, non_cy, z5_lens

from helpers import check_canonical_grid, random_sl3


def write_diagram(tmp_path, name, normals):
    path = tmp_path / name
    path.write_text(dumps({"rank": 3, "normals": [list(v) for v in normals]}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_good_diagram(tmp_path, capsys):
    path = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    code, out = run(capsys, ["check", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["good"] is True
    assert payload["faces"] == {"facets": 3, "edges": 3}


def test_check_duplicate_normal_is_input_error(tmp_path, capsys):
    path = write_diagram(tmp_path, "dup.json", [(1, 0, 0), (0, 1, 0), (1, 0, 0)])
    code, out = run(capsys, ["check", path])
    assert code == 1
    assert "duplicates" in json.loads(out)["error"]


def test_check_not_good_exit_code_and_certificate(tmp_path, capsys):
    # coprimality fails on the edge between the first two normals
    path = write_diagram(tmp_path, "bad.json", [(1, 0, 0), (1, 2, 4), (1, 1, 4)])
    code, out = run(capsys, ["check", path])
    assert code == 2
    cert = json.loads(out)["certificate"]
    assert sorted(cert["failing_face"]) == [0, 1]


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run(capsys, ["check", str(path)])
    assert code == 1


def test_check_non_integer_entries(tmp_path, capsys):
    path = tmp_path / "floaty.json"
    path.write_text(json.dumps({"rank": 3, "normals": [[1, 0, 0.5], [0, 1, 0], [0, 0, 1]]}))
    code, out = run(capsys, ["check", str(path)])
    assert code == 1
    assert "integer" in json.loads(out)["error"]


def test_analyze_cy_topo_lens2(tmp_path, capsys):
    path = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    code, out = run(capsys, ["analyze", path, "--cy", "--topo"])
    assert code == 0
    stages = json.loads(out)["stages"]
    assert stages["cy"]["gamma"] == ["-1", "-1", "1/2"]
    assert stages["cy"]["height"] == 2
    assert stages["cy"]["normalized_normals"] == [[2, 0, 1], [2, 1, 0], [2, 1, 1]]
    assert stages["topology"]["pi1"] == [2]
    assert stages["topology"]["label"] == "lens-type: pi1 = Z_2"


def test_analyze_reeb_octant(tmp_path, capsys):
    path = write_diagram(tmp_path, "octant.json", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    code, out = run(capsys, ["analyze", path, "--reeb"])
    assert code == 0
    reeb = json.loads(out)["stages"]["reeb"]
    xi = [float(x) for x in reeb["xi"]]
    assert max(abs(x - 1.0) for x in xi) < 1e-9
    assert abs(float(reeb["volume"]) - 1 / 6) < 1e-12
    assert float(reeb["grad_norm"]) < 1e-8


def test_analyze_reeb_scan_csv(tmp_path, capsys):
    path = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    scan = tmp_path / "scan.csv"
    code, out = run(
        capsys, ["analyze", path, "--reeb", "--scan", "2,2,2", "--scan-out", str(scan)]
    )
    assert code == 0
    rows = scan.read_text().strip().splitlines()
    assert rows[0] == "ray,tau,xi1,xi2,xi3,volume"
    assert json.loads(out)["stages"]["reeb"]["scan_points"] == len(rows) - 1 == 41


# a non-number, too few and too many coordinates, nan and inf
@pytest.mark.parametrize("scan", ["a,b,c", "1,2", "1,2,3,4", "nan,1,1", "inf,1,1"])
def test_analyze_malformed_scan_is_input_error(tmp_path, capsys, scan):
    path = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    out_csv = tmp_path / "scan.csv"
    code = main(["analyze", path, "--reeb", "--scan", scan, "--scan-out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 1
    assert "--scan" in json.loads(captured.out)["error"]
    assert captured.err == ""
    assert not out_csv.exists()


def test_analyze_reeb_scan_csv_bytes(tmp_path, capsys):
    # the CSV as the numpy formula (1 - tau) xi* + tau v wrote it: one full
    # ray and one that leaves the Reeb cone after 29 points
    diagram = main4_odd(3, 2)
    directions = ["3,1,20", "3,6,0"]
    path = write_diagram(tmp_path, "m4.json", diagram.normals)
    scan = tmp_path / "scan.csv"
    argv = ["analyze", path, "--reeb", "--scan-out", str(scan)]
    code, _ = run(capsys, argv + [arg for raw in directions for arg in ("--scan", raw)])
    assert code == 0

    xi_star = np.array(minimize_volume(diagram, compute_gamma(diagram)).xi.xi)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["ray", "tau", "xi1", "xi2", "xi3", "volume"])
    lengths = []
    for ridx, raw in enumerate(directions):
        v = np.asarray([float(x) for x in raw.split(",")], dtype=float)
        for k in range(41):
            tau = k / 40 * 0.95
            xi = (1 - tau) * xi_star + tau * v
            try:
                vol = volume(diagram, tuple(float(x) for x in xi))
            except SasakitError:
                break
            writer.writerow(
                [ridx, format_float(tau)] + [format_float(x) for x in xi] + [format_float(vol)]
            )
        lengths.append(k)
    assert lengths == [40, 29]
    assert scan.read_bytes() == expected.getvalue().encode()


def _restarts_fail(monkeypatch):
    minimize = cli.minimize_volume

    def restarts_fail(diagram, cy, start_offset=None):
        res = minimize(diagram, cy, start_offset=start_offset)
        return MinimizationResult(
            res.xi, res.volume, res.grad_norm, res.iterations, converged=start_offset is None
        )

    monkeypatch.setattr(cli, "minimize_volume", restarts_fail)


def test_analyze_reeb_checks_every_start(tmp_path, capsys, monkeypatch):
    _restarts_fail(monkeypatch)
    path = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    code, out = run(capsys, ["analyze", path, "--reeb"])
    assert code == 4
    assert "volume minimization did not converge" in json.loads(out)["error"]


@pytest.mark.parametrize("flags, timed", [([], False), (["--timings"], True)])
def test_analyze_failures_report_timing_only_when_asked(
    tmp_path, capsys, monkeypatch, flags, timed
):
    path = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    # exit 1: a malformed --scan
    code, out = run(capsys, ["analyze", path, "--reeb", "--scan", "1,2"] + flags)
    assert code == 1
    assert ("timing_seconds" in json.loads(out)) == timed
    # exit 1: an unreadable input file
    code, out = run(capsys, ["analyze", str(tmp_path / "missing.json")] + flags)
    assert code == 1
    assert ("timing_seconds" in json.loads(out)) == timed
    # exit 4: restarts that do not converge
    _restarts_fail(monkeypatch)
    code, out = run(capsys, ["analyze", path, "--reeb"] + flags)
    assert code == 4
    payload = json.loads(out)
    assert "volume minimization did not converge" in payload["error"]
    assert ("timing_seconds" in payload) == timed


def test_analyze_reeb_without_gamma_exits_3(tmp_path, capsys):
    path = write_diagram(tmp_path, "noncy.json", non_cy(2).normals)
    code, out = run(capsys, ["analyze", path, "--reeb"])
    assert code == 3
    assert "c1(D) = 0 fails" in json.loads(out)["stages"]["reeb"]["error"]


def test_analyze_not_good_exits_2(tmp_path, capsys):
    path = write_diagram(tmp_path, "bad.json", [(1, 0, 0), (1, 2, 4), (1, 1, 4)])
    code, out = run(capsys, ["analyze", path, "--topo"])
    assert code == 2


@pytest.mark.parametrize("flags, timed", [([], False), (["--timings"], True)])
def test_analyze_not_good_reports_timing_only_when_asked(tmp_path, capsys, flags, timed):
    path = write_diagram(tmp_path, "bad.json", [(1, 0, 0), (1, 2, 4), (1, 1, 4)])
    code, out = run(capsys, ["analyze", path, "--topo"] + flags)
    assert code == 2
    assert ("timing_seconds" in json.loads(out)) == timed


def test_analyze_deterministic_bytes(tmp_path, capsys):
    path = write_diagram(tmp_path, "lens3.json", lens(3).normals)
    _, first = run(capsys, ["analyze", path, "--cy", "--topo", "--reeb"])
    _, second = run(capsys, ["analyze", path, "--cy", "--topo", "--reeb"])
    assert first == second
    assert "timing_seconds" not in json.loads(first)


def test_analyze_potential_grid_csv(tmp_path, capsys):
    path = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    out_csv = tmp_path / "grid.csv"
    code, out = run(
        capsys, ["analyze", path, "--potential-grid", "5", "--grid-out", str(out_csv)]
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].split(",") == [
        "y1", "y2", "y3", "G", "x1", "x2", "x3", "F", "roundtrip_residual",
    ]
    assert len(lines) == 6
    assert all(abs(float(row.split(",")[-1])) < 1e-9 for row in lines[1:])


def test_potential_grid_matches_closed_forms_on_sheared_diagrams(tmp_path, capsys):
    rng = random.Random(13)
    bases = [lens(2).normals, z5_lens().normals, main4_even(2, 1).normals, main4_odd(3, 2).normals]
    shears = [random_sl3(rng) for _ in bases]
    for normals in bases + [[m.mul_vector(v) for v in b] for m, b in zip(shears, bases)]:
        path = write_diagram(tmp_path, "sheared.json", normals)
        grid = tmp_path / "grid.csv"
        code, _ = run(capsys, ["analyze", path, "--potential-grid", "7", "--grid-out", str(grid)])
        assert code == 0
        with open(grid, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 7
        check_canonical_grid(normals, rows)


def test_potential_grid_solves_do_not_grow_with_points(tmp_path, capsys, monkeypatch):
    # the grid is one batched Newton inversion: one solve per step, whatever N
    calls = []
    solve = np.linalg.solve

    def counted(*args):
        calls.append(args[0].shape)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    shear = random_sl3(random.Random(4))
    normals = [shear.mul_vector(v) for v in main4_odd(3, 2).normals]
    path = write_diagram(tmp_path, "m4.json", normals)
    counts = []
    for n in (12, 48):
        calls.clear()
        code, _ = run(capsys, ["analyze", path, "--potential-grid", str(n), "--grid-out",
                               str(tmp_path / "grid.csv")])
        assert code == 0
        assert all(len(shape) == 3 for shape in calls)  # stacks of Hessians
        counts.append(len(calls))
    assert 0 < counts[1] <= counts[0]


# numpy raises MemoryError for a grid it cannot allocate, and ValueError for
# one beyond its largest array size
@pytest.mark.parametrize("error", [MemoryError, ValueError], ids=["memory", "max-size"])
def test_potential_grid_too_large_for_memory_is_input_error(tmp_path, capsys, monkeypatch, error):
    def refuse(*args, **kwargs):
        raise error("Unable to allocate the grid")

    monkeypatch.setattr(np, "full", refuse)
    path = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    grid = tmp_path / "grid.csv"
    code = main(["analyze", path, "--potential-grid", "12", "--grid-out", str(grid)])
    captured = capsys.readouterr()
    assert code == 1
    assert "--potential-grid 12" in json.loads(captured.out)["error"]
    assert captured.err == ""
    assert not grid.exists()


def test_analyze_svg(tmp_path, capsys):
    path = write_diagram(tmp_path, "z5.json", [(1, 0, 0), (1, 2, 1), (1, 3, 4)])
    svg = tmp_path / "z5.svg"
    code, _ = run(capsys, ["analyze", path, "--emit-svg", str(svg)])
    assert code == 0
    body = svg.read_text()
    assert "<svg" in body and "polygon" in body


# each output path is in a missing directory; a grid needs at least one point
@pytest.mark.parametrize(
    "flags",
    [
        ["--reeb", "--scan", "2,2,2", "--scan-out", "missing/scan.csv"],
        ["--potential-grid", "3", "--grid-out", "missing/grid.csv"],
        ["--emit-svg", "missing/z5.svg"],
        ["--potential-grid", "-3", "--grid-out", "grid.csv"],
        ["--potential-grid", "0", "--grid-out", "grid.csv"],
    ],
    ids=["scan-out", "grid-out", "emit-svg", "grid-negative", "grid-zero"],
)
def test_analyze_output_boundary_is_input_error(tmp_path, capsys, flags):
    path = write_diagram(tmp_path, "z5.json", z5_lens().normals)
    flags = [str(tmp_path / f) if f.endswith((".csv", ".svg")) else f for f in flags]
    code = main(["analyze", path, *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"]
    assert captured.err == ""
    assert not (tmp_path / "grid.csv").exists()


# each file analyze writes: its flags, with {out} for the path
OUTPUTS = {
    "grid": ["--potential-grid", "12", "--grid-out", "{out}"],
    "scan": ["--reeb", "--scan", "2,2,2", "--scan-out", "{out}"],
    "svg": ["--emit-svg", "{out}"],
}


def _analyze_into(tmp_path, capsys, output, out):
    """analyze on z5-lens writing `output` to `out`: the exit code and the
    captured streams."""
    path = write_diagram(tmp_path, "z5.json", z5_lens().normals)
    code = main(["analyze", path, *(f.format(out=out) for f in OUTPUTS[output])])
    return code, capsys.readouterr()


@pytest.mark.parametrize("output", OUTPUTS)
def test_output_overwrites_a_longer_file_in_place(tmp_path, capsys, output):
    # a shorter output over an existing file keeps none of its old bytes and
    # equals the output to a fresh path; the file keeps its mode
    fresh = tmp_path / "fresh"
    assert _analyze_into(tmp_path, capsys, output, fresh)[0] == 0
    new = fresh.read_bytes()
    old = tmp_path / "old"
    old.write_bytes(b"\xff" * (3 * len(new)))
    old.chmod(0o600)
    assert _analyze_into(tmp_path, capsys, output, old)[0] == 0
    assert old.read_bytes() == new
    assert stat.S_IMODE(old.stat().st_mode) == 0o600


@pytest.mark.parametrize("output", OUTPUTS)
def test_output_is_cut_only_when_left_longer(tmp_path, capsys, monkeypatch, output):
    # a fresh file and one shorter than the output end at the bytes written
    # with no ftruncate; only a file left longer is cut
    fresh = tmp_path / "fresh"
    assert _analyze_into(tmp_path, capsys, output, fresh)[0] == 0
    new = fresh.read_bytes()
    cuts = []
    real_ftruncate = os.ftruncate
    monkeypatch.setattr(
        os, "ftruncate", lambda fd, n: (cuts.append(n), real_ftruncate(fd, n))[1]
    )
    again = tmp_path / "again"
    shorter = tmp_path / "shorter"
    shorter.write_bytes(b"\xff" * (len(new) // 2))
    longer = tmp_path / "longer"
    longer.write_bytes(b"\xff" * (len(new) + 1))
    for target, expected in ((again, []), (shorter, []), (longer, [len(new)])):
        cuts.clear()
        assert _analyze_into(tmp_path, capsys, output, target)[0] == 0
        assert (target.read_bytes(), cuts) == (new, expected)


@pytest.mark.parametrize("output", OUTPUTS)
def test_output_to_a_target_that_refuses_truncation(tmp_path, capsys, output):
    # /dev/null and a pipe refuse ftruncate with EINVAL: they take none, and
    # the pipe's reader gets the bytes a fresh file holds
    fresh = tmp_path / "fresh"
    assert _analyze_into(tmp_path, capsys, output, fresh)[0] == 0
    code, captured = _analyze_into(tmp_path, capsys, output, os.devnull)
    assert (code, captured.err) == (0, "")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open returns
    try:
        code, captured = _analyze_into(tmp_path, capsys, output, fifo)
        assert (code, captured.err) == (0, "")
        assert os.read(reader, 1 << 16) == fresh.read_bytes()
    finally:
        os.close(reader)


def _recorded_opens(monkeypatch):
    """A list that gets the path, flags and fd of every os.open from now on."""
    opened = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        opened.append((os.fspath(path), flags, fd))
        return fd

    monkeypatch.setattr(os, "open", recording_open)
    return opened


def test_outputs_open_without_truncation(tmp_path, capsys, monkeypatch):
    # every file analyze writes is opened once through os.open, and no open
    # for writing asks the kernel to truncate
    outs = {name: tmp_path / name for name in OUTPUTS}
    for out in outs.values():
        out.write_bytes(b"old")
    path = write_diagram(tmp_path, "z5.json", z5_lens().normals)
    flags = [f.format(out=outs[name]) for name in OUTPUTS for f in OUTPUTS[name]]
    opened = _recorded_opens(monkeypatch)
    assert main(["analyze", path, *flags]) == 0
    writes = [(p, f) for p, f, _ in opened if f & (os.O_WRONLY | os.O_RDWR)]
    assert sorted(p for p, _ in writes) == sorted(map(str, outs.values()))
    assert [f & os.O_TRUNC for _, f in writes] == [0, 0, 0]


def _writes_to(path, monkeypatch, write):
    """Route every os.write to the file opened at `path` through
    `write(real_write, fd, data)`."""
    opened = _recorded_opens(monkeypatch)
    real_write = os.write

    def routed(fd, data):
        if (str(path), fd) in ((p, f) for p, _, f in opened):
            return write(real_write, fd, data)
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", routed)


def test_partial_writes_are_resumed(tmp_path, capsys, monkeypatch):
    fresh = tmp_path / "fresh.csv"
    assert _analyze_into(tmp_path, capsys, "grid", fresh)[0] == 0
    grid = tmp_path / "grid.csv"
    sizes = []

    def short_write(real_write, fd, data):
        sizes.append(real_write(fd, bytes(data[:7])))
        return sizes[-1]

    _writes_to(grid, monkeypatch, short_write)
    assert _analyze_into(tmp_path, capsys, "grid", grid)[0] == 0
    assert grid.read_bytes() == fresh.read_bytes()
    assert len(sizes) == -(-len(fresh.read_bytes()) // 7)


def test_failed_write_leaves_a_prefix_of_the_new_bytes(tmp_path, capsys, monkeypatch):
    # the first write takes one chunk, the next fails: exit 1 with error JSON,
    # and the file holds that chunk and no byte of its old content
    fresh = tmp_path / "fresh.csv"
    assert _analyze_into(tmp_path, capsys, "grid", fresh)[0] == 0
    new = fresh.read_bytes()
    grid = tmp_path / "grid.csv"
    grid.write_bytes(b"\xff" * (3 * len(new)))
    calls = []

    def failing_write(real_write, fd, data):
        calls.append(fd)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, bytes(data[:100]))

    _writes_to(grid, monkeypatch, failing_write)
    code, captured = _analyze_into(tmp_path, capsys, "grid", grid)
    assert (code, captured.err) == (1, "")
    assert json.loads(captured.out)["error"] == f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert len(calls) == 2
    assert grid.read_bytes() == new[:100]


@pytest.mark.parametrize("output", OUTPUTS)
def test_new_output_mode_follows_umask(tmp_path, capsys, output):
    out = tmp_path / "out"
    umask = os.umask(0o002)
    try:
        code, _ = _analyze_into(tmp_path, capsys, output, out)
    finally:
        os.umask(umask)
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o002 == 0o664


def test_analyze_svg_requires_height1(tmp_path, capsys):
    path = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    code, _ = run(capsys, ["analyze", path, "--emit-svg", str(tmp_path / "x.svg")])
    assert code == 1


def test_analyze_height1_diagram_with_an_implied_normal(tmp_path, capsys):
    # good and of height 1, but (1, 0, 0) lies inside the other three's
    # triangle: the topology stage has no area, and no polygon can be drawn
    path = write_diagram(tmp_path, "h1.json", [(1, -1, -1), (1, 1, 0), (1, 0, 1), (1, 0, 0)])
    code, out = run(capsys, ["analyze", path, "--topo"])
    assert code == 0 and json.loads(out)["stages"]["topology"]["area2"] is None
    svg = tmp_path / "h1.svg"
    code, out = run(capsys, ["analyze", path, "--emit-svg", str(svg)])
    assert code == 1 and not svg.exists()
    assert json.loads(out)["error"] == "normals are not in strictly convex position"


def test_family_lens_emits_printed_normals(tmp_path, capsys):
    code, out = run(capsys, ["family", "lens", "--l", "3"])
    assert code == 0
    assert json.loads(out)["normals"] == [[1, 0, 0], [0, 1, 0], [1, 1, 3]]


def test_family_main4_even(tmp_path, capsys):
    code, out = run(capsys, ["family", "main4-even", "--r", "1", "--s", "0"])
    assert code == 0
    assert len(json.loads(out)["normals"]) == 5


def test_family_bad_parameters(tmp_path, capsys):
    code, _ = run(capsys, ["family", "main4-odd", "--r", "0", "--s", "0"])
    assert code == 1
    code, _ = run(capsys, ["family", "lens"])
    assert code == 1


def test_family_error_carries_the_tool_block(capsys):
    # a missing option and a builder's own ValueError, like every other error
    missing = {"error": "main4-even requires --r and --s", "tool": cli._tool_block()}
    assert run(capsys, ["family", "main4-even", "--r", "2"]) == (1, dumps(missing))
    code, out = run(capsys, ["family", "main4-odd", "--r", "0", "--s", "0"])
    assert code == 1 and json.loads(out)["tool"] == cli._tool_block()


def test_family_deterministic_bytes(capsys):
    a = run(capsys, ["family", "main4-odd", "--r", "2", "--s", "4"])[1]
    b = run(capsys, ["family", "main4-odd", "--r", "2", "--s", "4"])[1]
    assert a == b


def test_geodesic_test_subcommand(tmp_path, capsys):
    path = write_diagram(tmp_path, "octant.json", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    code, out = run(capsys, ["geodesic-test", path])
    assert code == 0
    payload = json.loads(out)
    assert float(payload["reeb_invariance_residual_bump"]) < 1e-6
    assert float(payload["convergence_order"]) > 1.8
    assert float(payload["linear_shift_residual"]) < 1e-6


def test_geodesic_test_bump_domain_is_basis_free(tmp_path, capsys):
    # lens 2 in a basis where y1 + y2 + y3 < 0 on the whole cone, then random shears
    rng = random.Random(9)
    sheared = [[(1, 0, -2), (0, 1, -2), (1, 1, -2)]]
    shears = [random_sl3(rng) for _ in range(5)]
    sheared += [[m.mul_vector(v) for v in lens(2).normals] for m in shears]
    for normals in sheared:
        path = write_diagram(tmp_path, "sheared.json", normals)
        code, out = run(capsys, ["geodesic-test", path])
        assert code == 0, out
        payload = json.loads(out)
        assert float(payload["reeb_invariance_residual_bump"]) < 1e-9
        # the bump's numerator pairs two facet normals, so it is positive at every
        # interior sample point and the residual ladder is never vacuous
        assert float(payload["convergence_order"]) > 1.8


def test_geodesic_test_prints_no_order_at_the_rounding_floor(tmp_path, capsys):
    # main4-odd entry 48 of perfbench/small_d.json: its residual at h = 1e-2 is
    # already about 2e-10, the rounding floor of F's second t-difference, so the
    # h-ladder halves nothing (the order read -0.08)
    normals = [
        (1, -2, 0), (1, -1, 1), (3, -4, 3), (7, -11, 6), (17, -30, 12),
        (27, -54, 13), (33, -70, 12), (19, -41, 6), (11, -24, 3), (5, -11, 1),
    ]
    path = write_diagram(tmp_path, "entry48.json", normals)
    code, out = run(capsys, ["geodesic-test", path])
    assert code == 0, out
    payload = json.loads(out)
    assert payload["convergence_order"] is None
    assert all(float(v) < 1e-9 for v in payload["geodesic_residuals"].values())


SHEAR_ENTRIES = st.sampled_from([0, 1, -2, 10**200, -(10**200), 10**400]) | st.integers(-1000, 1000)


@st.composite
def sheared_normals(draw):
    """Small good diagrams under unimodular shears with entries up to 1e400."""
    a, b, c, e, f, g = (draw(SHEAR_ENTRIES) for _ in range(6))
    octant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    base = draw(st.sampled_from([octant, lens(2).normals, z5_lens().normals]))
    lower = lattice.IntMatrix.from_rows([[1, 0, 0], [a, 1, 0], [b, c, 1]])
    upper = lattice.IntMatrix.from_rows([[1, e, f], [0, 1, g], [0, 0, 1]])
    return {"normals": [list((lower @ upper).mul_vector(v)) for v in base]}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["rank", "normals", "gamma", "height"]), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(JSON_VALUES | sheared_normals())
@example({"normals": [[1, 10**200, 0], [0, 1, 10**200 + 1], [0, 0, 1]]})
@example({"normals": [[1, 0, 0], [0, 1, 0], [1, 1, 10**200]]})
def test_cli_boundary_fuzz(value):
    """Exit 0-4 with one JSON document and nothing on stderr, warnings included.

    The examples: the octant sheared by [[1,0,0],[N,1,0],[0,N+1,1]] at N = 1e200
    (an OverflowError in the grid), and a lens whose third normal has a 1e200
    entry (NaN and numpy warnings in the grid and in geodesic-test).
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/input.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(value, fh)
        for argv in (
            ["check", path],
            ["analyze", path, "--cy", "--topo", "--reeb"],
            ["analyze", path, "--potential-grid", "3", "--grid-out", f"{tmp}/grid.csv"],
            ["geodesic-test", path],
        ):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            assert code in range(5), argv
            json.loads(out.getvalue())
            assert err.getvalue() == "" and not caught, (argv, caught)


GOLDEN = Path(__file__).resolve().parent / "golden"

# each exit code, as (argv with {lens2}, {non_cy2}, {sheared} and {missing} for paths,
# code); sheared: the octant under [[1,0,0],[30,1,0],[0,31,1]], whose inversion stalls
PROCESS_CASES = [
    (["check", "{lens2}"], 0),
    (["analyze", "{lens2}", "--cy", "--topo", "--reeb"], 0),
    (["family", "lens", "--l", "3"], 0),
    (["check", "{missing}"], 1),
    (["analyze", "{lens2}", "--potential-grid", "abc"], 1),
    (["check", str(GOLDEN / "not-good.json")], 2),
    (["analyze", "{non_cy2}", "--reeb"], 3),
    (["geodesic-test", "{sheared}"], 4),
]


def _process_argv(tmp_path, argv):
    paths = {
        "lens2": write_diagram(tmp_path, "lens2.json", lens(2).normals),
        "non_cy2": write_diagram(tmp_path, "non-cy2.json", non_cy(2).normals),
        "sheared": write_diagram(tmp_path, "sheared.json", [(1, 30, 0), (0, 1, 31), (0, 0, 1)]),
        "missing": str(tmp_path / "missing.json"),
    }
    return [a.format(**paths) for a in argv]


@pytest.mark.parametrize(
    "argv, code",
    PROCESS_CASES,
    ids=["check", "analyze", "family", "missing", "usage", "not-good", "no-cy", "numerical"],
)
def test_console_entry_point_subprocess(tmp_path, capsys, argv, code):
    # the process entry prints and exits as main does in-process
    argv = _process_argv(tmp_path, argv)
    proc = subprocess.run(
        [sys.executable, "-m", "sasakit.cli", *argv],
        capture_output=True,
        text=True,
    )
    [(in_process, out, err)] = _outputs(capsys, [argv])
    assert in_process in (code, ("SystemExit", code))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_main_alone_prints_one_document(tmp_path, capsys, monkeypatch):
    # the handlers return their output and main prints it, once per call:
    # every PROCESS_CASES argv and each kind of error output.  A usage error
    # is argparse's, which exits before any handler and prints no JSON.
    prints = []

    def counted(*args, **kwargs):
        prints.append(args)
        print(*args, **kwargs)

    monkeypatch.setattr(cli, "print", counted, raising=False)
    rank4 = tmp_path / "rank4.json"
    rank4.write_text(dumps({"normals": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}))
    errors = [
        (["analyze", "{missing}"], 1),
        (["analyze", "{lens2}", "--potential-grid", "3", "--grid-out", str(tmp_path / "no" / "g.csv")], 1),
        (["analyze", "{lens2}", "--potential-grid", "0"], 1),
        (["analyze", "{lens2}", "--reeb", "--scan", "1,2"], 1),
        (["family", "main4-odd", "--r", "2"], 1),
        (["check", str(rank4)], 1),
        (["geodesic-test", "{lens2}", "--t", "2"], 1),
    ]
    for argv, code in PROCESS_CASES + errors:
        prints.clear()
        [(returned, out, _)] = _outputs(capsys, [_process_argv(tmp_path, argv)])
        if returned == ("SystemExit", code):
            assert prints == [] and out == "", argv
        else:
            assert returned == code and prints == [(out,)], argv
            json.loads(out)


def test_timings_reach_every_analyze_exit(tmp_path, capsys, monkeypatch):
    # --timings appends timing_seconds to the output of each exit code and
    # changes nothing else in it
    lens2 = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    bad = write_diagram(tmp_path, "bad.json", [(1, 0, 0), (1, 2, 4), (1, 1, 4)])
    non_cy2 = write_diagram(tmp_path, "non-cy2.json", non_cy(2).normals)
    cases = [
        ([lens2, "--cy"], 0),
        ([str(tmp_path / "missing.json")], 1),
        ([bad, "--topo"], 2),
        ([non_cy2, "--reeb"], 3),
        ([lens2, "--reeb"], 4),
    ]
    for flags, code in cases:
        if code == 4:
            _restarts_fail(monkeypatch)
        plain, timed = (run(capsys, ["analyze", *flags, *extra]) for extra in ([], ["--timings"]))
        assert plain[0] == timed[0] == code
        payload = json.loads(timed[1])
        assert payload.pop("timing_seconds") >= 0
        assert payload == json.loads(plain[1])


# a small output, a large one, and argparse's help and version
STDOUT_ARGV = pytest.mark.parametrize(
    "argv",
    [
        ["check", "{lens2}"],
        ["family", "main4-even", "--r", "300", "--s", "0"],
        ["-h"],
        ["--version"],
    ],
    ids=["check", "large", "help", "version"],
)


def _run_into(tmp_path, argv, unbuffered, stdout):
    """The process entry on `argv` with stdout on `stdout` and
    PYTHONUNBUFFERED set to `unbuffered` (unset when empty)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update({"PYTHONUNBUFFERED": unbuffered} if unbuffered else {})
    return subprocess.run(
        [sys.executable, "-m", "sasakit.cli", *_process_argv(tmp_path, argv)],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@STDOUT_ARGV
def test_closed_stdout_exits_141_quietly(tmp_path, argv, unbuffered):
    # the reader of stdout is gone before the process starts: the write (of
    # a large output, or of any output when unbuffered, argparse's help and
    # version included) or the flush (of a small one) meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_into(tmp_path, argv, unbuffered, write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, "")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@STDOUT_ARGV
def test_full_stdout_exits_5_with_one_line(tmp_path, argv, unbuffered):
    # a stdout that refuses the write for another reason than a closed
    # reader: one line on stderr, no traceback
    with open("/dev/full", "w") as full:
        proc = _run_into(tmp_path, argv, unbuffered, full)
    assert (proc.returncode, proc.stderr) == (
        cli.EXIT_STDOUT,
        f"sasakit: error: cannot write stdout: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n",
    )


def test_run_freezes_once_and_main_never(tmp_path, capsys, monkeypatch):
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    lens2 = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    assert main(["check", lens2]) == 0
    assert freezes == []
    assert cli.run(["check", lens2]) == 0
    assert cli.run(["check", str(GOLDEN / "not-good.json")]) == 2
    assert len(freezes) == 2
    with pytest.raises(SystemExit) as exc:
        cli.run(["family", "help"])
    assert exc.value.code == 1
    assert len(freezes) == 3


def test_module_entry_freezes_before_exit(tmp_path):
    # `python -m sasakit.cli` goes through run: a hook at exit sees the frozen objects
    script = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "runpy.run_module('sasakit.cli', run_name='__main__', alter_sys=True)\n"
    )
    lens2 = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    proc = subprocess.run(
        [sys.executable, "-c", script, "check", lens2], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "True\n")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_installed_script_is_the_process_entry():
    import tomllib

    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["sasakit"] == "sasakit.cli:run"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{lens2}", "--potential-grid", "abc"],
        ["analyze"],
        ["analyze", "{lens2}", "--bogus"],
    ],
    ids=["bad-int", "no-path", "unknown-flag"],
)
def test_usage_error_is_input_error(tmp_path, capsys, monkeypatch, argv):
    # exit 1, not argparse's 2 (which reads as "not good"), with argparse's stderr
    argv = _process_argv(tmp_path, argv)
    [(code, out, err)] = _outputs(capsys, [argv])
    assert code == ("SystemExit", 1) and out == ""
    monkeypatch.setattr(cli._parser_class(), "error", argparse.ArgumentParser.error)
    assert _outputs(capsys, [argv]) == [(("SystemExit", 2), "", err)]


# sasakit's help and version bytes at 80 columns, as argparse prints them
HELP = {
    "": """\
usage: sasakit [-h] [--version] {check,analyze,family,geodesic-test} ...

Good cones, toric diagrams, topology invariants, and Reeb volume minimization
from facet-normal data.

positional arguments:
  {check,analyze,family,geodesic-test}
    check               validate a diagram and decide goodness
    analyze             run the full pipeline on a diagram
    family              emit a built-in diagram family member
    geodesic-test       run the potential residual suite on a diagram

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "check": """\
usage: sasakit check [-h] path

positional arguments:
  path

options:
  -h, --help  show this help message and exit
""",
    "analyze": """\
usage: sasakit analyze [-h] [--cy] [--topo] [--reeb] [--potential-grid N]
                       [--grid-out PATH] [--scan X1,X2,X3] [--scan-out PATH]
                       [--emit-svg PATH] [--timings]
                       path

positional arguments:
  path

options:
  -h, --help          show this help message and exit
  --cy                height structure stage
  --topo              topology stage
  --reeb              volume minimization stage
  --potential-grid N
  --grid-out PATH
  --scan X1,X2,X3
  --scan-out PATH
  --emit-svg PATH
  --timings
""",
    "family": """\
usage: sasakit family [-h] [--l L] [--r R] [--s S] FAMILY

positional arguments:
  FAMILY

options:
  -h, --help  show this help message and exit
  --l L
  --r R
  --s S
""",
    "geodesic-test": """\
usage: sasakit geodesic-test [-h] [--t T] path

positional arguments:
  path

options:
  -h, --help  show this help message and exit
  --t T
""",
}


@pytest.mark.parametrize("command", HELP, ids=["sasakit", *list(HELP)[1:]])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_bytes(capsys, monkeypatch, command, flag):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, flag] if command else [flag]
    assert _outputs(capsys, [argv]) == [(("SystemExit", 0), HELP[command], "")]


def test_version_bytes(capsys):
    version = f"sasakit {sasakit.__version__}\n"
    assert _outputs(capsys, [["--version"]]) == [(("SystemExit", 0), version, "")]


OPTION_NAMES = sorted({name for _, _, args in cli._COMMANDS.values() for name in args if name[0] == "-"})
VALUES = ["3", "0", "nan", "abc", "", "1,2,3", "lens", "main4-even", "help", "x.json", "a b.json"]
ARGV_TOKENS = st.sampled_from(
    [*cli._COMMANDS, *OPTION_NAMES, *VALUES, "-5", "-0.5", " -5", "-x y", "dir/x.json"]
    + ["-h", "--help", "--version", "--", "-"]
    + sorted({name[:k] for name in OPTION_NAMES for k in range(3, len(name))})
) | st.builds("{}={}".format, st.sampled_from(OPTION_NAMES), st.sampled_from(VALUES))


@st.composite
def argvs(draw):
    """A command, its positionals and some of its options, each a value from
    VALUES where it takes one, in any order; then up to two tokens of the
    whole alphabet put anywhere."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    arguments = cli._COMMANDS[command][2]
    options = [name for name in arguments if name[0] == "-"]
    units = [[draw(st.sampled_from(VALUES))] for name in arguments if name[0] != "-"]
    for name in draw(st.lists(st.sampled_from(options), max_size=4)) if options else ():
        flag = arguments[name].get("action") == "store_true"
        units.append([name] if flag else [name, draw(st.sampled_from(VALUES))])
    argv = [command, *(token for unit in draw(st.permutations(units)) for token in unit)]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(ARGV_TOKENS))
    return argv


def _comparable(namespace):
    """vars(namespace), with floats by repr: nan != nan."""
    return {k: repr(v) if isinstance(v, float) else v for k, v in vars(namespace).items()}


def _argparse_vars(argv):
    """_comparable of a fresh argparse parse of argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _comparable(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(argvs())
@example(["analyze", "x.json", "--cy", "--scan", "1,2,3", "--scan", "abc", "--potential-grid", "3"])
@example(["family", "--l", "3", "lens", "--s", "0", "--l", "-5"])
@example(["geodesic-test", "a b.json", "--t", "nan"])
def test_reader_agrees_with_argparse(argv):
    # the plain-argv reader returns argparse's namespace or leaves argv to it
    read = cli._read_argv(argv)
    if read is not None:
        assert _comparable(read) == _argparse_vars(argv)


def _readme_commands():
    """The `sasakit ...` lines of README.md's command-line block, as argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#")[0].split(">")[0] for line in block.splitlines()]
    return [line.split()[1:] for line in lines if line.startswith("sasakit ")]


def test_documented_and_benchmark_argv_build_no_parser(tmp_path, capsys, monkeypatch):
    def refuse():
        raise AssertionError("argparse's parser was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.chdir(tmp_path)
    write_diagram(tmp_path, "lens2.json", lens(2).normals)
    write_diagram(tmp_path, "z5.json", z5_lens().normals)
    readme = _readme_commands()
    assert len(readme) == 7
    benchmark = [
        ["analyze", "lens2.json", "--cy", "--topo", "--reeb"],
        ["analyze", "lens2.json", "--cy", "--topo", "--reeb", "--potential-grid", "12",
         "--grid-out", "grid.csv"],
        ["analyze", "lens2.json", "--reeb", "--scan", "1,2,3", "--scan-out", "scan.csv"],
        ["family", "main4-even", "--r", "2", "--s", "1"],
    ]
    for argv in readme + benchmark:
        assert main(argv) == 0, argv


def test_diagram_roundtrip_through_json(tmp_path):
    d = lens(4)
    path = tmp_path / "d.json"
    path.write_text(dumps(diagram_to_dict(d)))
    loaded, cy = load_diagram(str(path))
    assert loaded.normals == d.normals
    assert cy is None


def test_load_diagram_checks_gamma_and_height(tmp_path):
    path = tmp_path / "d.json"
    lens2 = compute_gamma(lens(2))
    path.write_text(json.dumps({**diagram_to_dict(lens(2)), "gamma": ["-1", "-1", "1/2"], "height": 2}))
    assert load_diagram(str(path))[1] == lens2
    octant = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for gamma, height in [
        (["5"], -3),  # wrong length, pairing and height
        (["-1", "-1", "1"], 1),  # pairs to 1 with the last normal
        (["-1", "-1", "-1"], 2),  # right covector, wrong height
    ]:
        path.write_text(json.dumps({"normals": octant, "gamma": gamma, "height": height}))
        with pytest.raises(DiagramError, match='"gamma" and "height" must be'):
            load_diagram(str(path))
    path.write_text(json.dumps({**diagram_to_dict(non_cy(2)), "gamma": ["-1", "-1", "-1"]}))
    with pytest.raises(DiagramError, match="no covector"):
        load_diagram(str(path))


def test_load_diagram_checks_a_lone_height(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({**diagram_to_dict(lens(2)), "height": 7}))
    with pytest.raises(DiagramError, match='"height" must be 2'):
        load_diagram(str(path))
    path.write_text(json.dumps({**diagram_to_dict(lens(2)), "height": 2}))
    assert load_diagram(str(path))[1] == compute_gamma(lens(2))
    path.write_text(json.dumps({**diagram_to_dict(non_cy(2)), "height": 1}))
    with pytest.raises(DiagramError, match='"height" given, but no covector'):
        load_diagram(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("5", "must be an object"),
        ('{"normals": 5}', '"normals" must be a list'),
        ('{"normals": [[1, 0, 0], 5, [0, 0, 1]]}', '"normals" must be a list'),
        ('{"normals": [[true, 0, 0], [0, 1, 0], [0, 0, 1]]}', "exact integers, got True"),
        ('{"rank": "3", "normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}', '"rank" must be'),
        ('{"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "gamma": ["1/0"]}', "'1/0'"),
        ('{"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "gamma": ["x", "1", "1"]}', "'x'"),
        ('{"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "gamma": "-1"}', '"gamma" must be'),
        (
            '{"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], '
            '"gamma": ["-1", "-1", "-1"], "height": "1"}',
            '"height" must be',
        ),
        (
            '{"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "gamma": ["5"], "height": -3}',
            '"gamma" and "height" must be',
        ),
        # refused before Fraction would build 10 ** 100000000
        (
            '{"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], '
            '"gamma": ["1e100000000", "-1", "-1"]}',
            "'1e100000000'",
        ),
    ],
    ids=[
        "top-level-int", "normals-int", "row-int", "bool-entry", "rank-str",
        "gamma-zero-denominator", "gamma-garbage", "gamma-str", "height-str",
        "gamma-mismatch", "gamma-exponent",
    ],
)
def test_check_malformed_diagram_json_is_input_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out = run(capsys, ["check", str(path)])
    assert code == 1
    assert message in json.loads(out)["error"]


@pytest.mark.parametrize("command", ["check", "analyze", "geodesic-test"])
@pytest.mark.parametrize(
    "normals",
    [
        [(1, 0), (0, 1), (1, 2)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0)],
    ],
    ids=["rank-2", "rank-4"],
)
def test_other_ranks_are_refused_before_validation(
    tmp_path, capsys, monkeypatch, command, normals
):
    # neither input has a height covector, so validating it would run the
    # Gordan witness's simplex at its own rank; the command line refuses it first
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(cones, "elimination", counted("elimination", cones.elimination))
    monkeypatch.setattr(cones, "_gordan_witness", counted("gordan", cones._gordan_witness))
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"normals": normals}))
    code, out = run(capsys, [command, str(path)])
    assert code == 1
    assert json.loads(out)["error"] == "the command line pipeline handles rank-3 diagrams only"
    assert calls == []
    # the library loads the same file, validating it in full
    assert load_diagram(str(path))[0].rank == len(normals[0])
    assert "gordan" in calls


@pytest.mark.parametrize("t", ["0", "1"])
def test_geodesic_test_t_outside_open_interval_is_input_error(tmp_path, capsys, t):
    path = write_diagram(tmp_path, "octant.json", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    code, out = run(capsys, ["geodesic-test", path, "--t", t])
    assert code == 1
    assert "--t must lie in (0, 1)" in json.loads(out)["error"]


def test_family_help_is_an_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "help"])
    assert exc.value.code == 1
    assert "invalid choice" in capsys.readouterr().err


def test_analyze_runs_no_transform_snf(tmp_path, capsys, monkeypatch):
    # the lattice verdicts are transform-free, and the normalizer is one Euclid
    # pass on the column l*gamma: no Smith transform at all
    shapes = []
    snf = lattice.smith_normal_form

    def counted(m):
        shapes.append((m.rows, m.cols))
        return snf(m)

    for module in ("sasakit.lattice", "sasakit.cy", "sasakit.topology"):
        monkeypatch.setattr(f"{module}.smith_normal_form", counted)
    path = write_diagram(tmp_path, "m4.json", main4_even(8, 3).normals)
    code, _ = run(capsys, ["analyze", path, "--cy", "--topo", "--reeb"])
    assert code == 0
    assert shapes == []


def test_analyze_runs_no_normalizer_inverse_at_rank_3(tmp_path, capsys, monkeypatch):
    # at rank 3, A^-T is A's cofactor matrix: no elimination inverts A
    calls = []
    inverse = lattice.IntMatrix.inverse_unimodular

    def counted(m):
        calls.append(m.entries)
        return inverse(m)

    monkeypatch.setattr(lattice.IntMatrix, "inverse_unimodular", counted)
    path = write_diagram(tmp_path, "m4.json", main4_even(8, 3).normals)
    code, _ = run(capsys, ["analyze", path, "--cy", "--topo", "--reeb"])
    assert code == 0
    assert calls == []


def _record(monkeypatch, owner, name):
    """Wrap owner.name so that each call's arguments are appended to the returned list."""
    calls, fn = [], getattr(owner, name)

    def recorded(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def _analyze_reeb(tmp_path, capsys, normals):
    path = write_diagram(tmp_path, "d.json", normals)
    code, _ = run(capsys, ["analyze", path, "--cy", "--topo", "--reeb"])
    assert code == 0


def test_check_builds_no_face_list(tmp_path, capsys, monkeypatch):
    # the face counts and the goodness verdict read the skeleton's rays and
    # edges: every normal is one facet, so no face list is built
    calls = _record(monkeypatch, cones, "enumerate_faces_3d")
    not_good = [(1, 0, 0), (1, 2, 4), (1, 1, 4)]
    for exit_code, normals in ((0, main4_even(8, 3).normals), (2, not_good)):
        code, _ = run(capsys, ["check", write_diagram(tmp_path, "d.json", normals)])
        assert code == exit_code
    assert calls == []


def test_analyze_builds_one_reeb_frame(tmp_path, capsys, monkeypatch):
    # the three Newton starts read one frame kept on the diagram, so its
    # Lagrange-Gauss reduction runs once
    calls = _record(monkeypatch, reeb, "_reduced_basis")
    _analyze_reeb(tmp_path, capsys, main4_even(8, 3).normals)
    assert len(calls) == 1


def test_analyze_maps_the_normals_by_the_normalizer_once(tmp_path, capsys, monkeypatch):
    # the cy stage and the Reeb frame share one A^-T N (sheared, so that A^-T
    # is not the identity)
    shear = lattice.IntMatrix.from_rows([[1, 0, 0], [1, 1, 0], [2, -1, 1]])
    normals = [shear.mul_vector(v) for v in main4_even(8, 3).normals]
    d = cones.validate_diagram(normals)
    at_inv = normalize_height(d, compute_gamma(d))[0].inverse_unimodular().transpose()
    calls = _record(monkeypatch, cy_module, "_map_normals")
    _analyze_reeb(tmp_path, capsys, normals)
    assert [cof for cof, _ in calls] == [at_inv.entries]
    assert list(calls[0][1]) == normals


def test_analyze_builds_no_kernel_basis(tmp_path, capsys, monkeypatch):
    # analyze --cy prints the kernel rank, d minus the pivots, not the basis
    calls = _record(monkeypatch, cy_module, "kernel_basis_from_rref")
    _analyze_reeb(tmp_path, capsys, main4_even(8, 3).normals)
    assert calls == []


def test_analyze_checks_integers_only_at_the_input(tmp_path, capsys, monkeypatch):
    # validation checks each of the d normals once; past that boundary the
    # rays, edges and normalized normals are not checked again, so the
    # remaining count is the same at d = 19 and d = 159
    calls = []
    as_int_vector = lattice._as_int_vector

    def counted(v):
        calls.append(v)
        return as_int_vector(v)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("sasakit") and (
            getattr(module, "_as_int_vector", None) is as_int_vector
        ):
            monkeypatch.setattr(module, "_as_int_vector", counted)
    past_input = []
    for d in (main4_even(8, 3), main4_even(78, 3)):
        calls.clear()
        _analyze_reeb(tmp_path, capsys, d.normals)
        past_input.append(len(calls) - d.d)
    assert past_input[0] == past_input[1]


def _outputs(capsys, calls):
    """(exit code, stdout, stderr) of each main call in turn; argparse exits included."""
    out = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_argparse_fallback_leaves_no_state(tmp_path, capsys, monkeypatch):
    # each call argparse reads builds its own parser, and an append action, a
    # switch of subcommand and an argparse exit leave no state behind for the
    # next call: the calls give the same bytes in either order.  Each argv is
    # one the plain reader leaves to argparse: --opt=value, an abbreviation,
    # a usage error.
    path = write_diagram(tmp_path, "m4.json", main4_even(2, 1).normals)
    scan = ["--scan=1,0,0", "--scan=0,1,0", "--scan-out", str(tmp_path / "scan.csv")]
    calls = [
        ["analyze", path, "--reeb", *scan],
        ["analyze", path, "--ree"],
        ["family", "main4-even", "--r=2", "--s", "1"],
        ["geodesic-test", path, "--t=0.4"],
        ["family", "help"],
        ["analyze", path, "--cy", "--to"],
    ]
    assert [cli._read_argv(argv) for argv in calls] == [None] * len(calls)
    parsers = []
    build_parser = cli.build_parser

    def counted():
        parsers.append(build_parser())
        return parsers[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    outputs = _outputs(capsys, calls)
    assert len(set(map(id, parsers))) == len(parsers) == len(calls)
    assert _outputs(capsys, calls[::-1]) == outputs[::-1]
    assert [code for code, _, _ in outputs] == [0, 0, 0, 0, ("SystemExit", 1), 0]
    assert "scan_points" in outputs[0][1] and "scan_points" not in outputs[1][1]


def test_smith_diagonal_runs_only_without_a_saturated_edge(tmp_path, capsys, monkeypatch):
    # a good diagram's pi1 and kernel component group are Z/g off one saturated
    # edge: analyze runs no diagonal.  A diagram with no saturated edge has a
    # group that need not be cyclic, and both read one diagonal kept on it.
    shapes = []
    invariant_factors = lattice.invariant_factors

    def counted(m):
        shapes.append((m.rows, m.cols))
        return invariant_factors(m)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("sasakit") and (
            getattr(module, "invariant_factors", None) is invariant_factors
        ):
            monkeypatch.setattr(module, "invariant_factors", counted)
    path = write_diagram(tmp_path, "m4.json", main4_even(8, 3).normals)
    code, _ = run(capsys, ["analyze", path, "--cy", "--topo", "--reeb"])
    assert code == 0
    assert shapes == []
    no_saturated_edge = cones.validate_diagram([(1, 0, 0), (1, 2, 0), (1, 0, 2)])
    assert topology_report(no_saturated_edge).pi1_invariant_factors == (2, 2)
    assert kernel_lattice(no_saturated_edge).component_group == (2, 2)
    assert shapes == [(3, 3)]


def test_analyze_runs_no_rref_wider_than_three_columns(tmp_path, capsys, monkeypatch):
    # at rank 3 the rank, gamma, the interior witness and the kernel rank
    # come from cross products of the first independent normals, with no
    # rref of [N | I]; the normalizer is inverted by cofactors, not by an
    # augmented [A | I], and its determinant is the one 3 x 3 rref left; a
    # diagram with a height covector never runs the Gordan witness's simplex
    shear = lattice.IntMatrix.from_rows([[1, 0, 0], [1, 1, 0], [2, -1, 1]])
    normals = [shear.mul_vector(v) for v in main4_odd(19, 0).normals]
    shapes, systems = [], []
    rref, gordan_witness = lattice.rref, cones._gordan_witness

    def counted_rref(rows, ncols):
        rows = [list(r) for r in rows]
        shapes.append((len(rows), len(rows[0]), ncols))
        return rref(rows, ncols)

    def counted_gordan(normals, rank):
        systems.append(len(normals))
        return gordan_witness(normals, rank)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("sasakit") and getattr(module, "rref", None) is rref:
            monkeypatch.setattr(module, "rref", counted_rref)
    monkeypatch.setattr(cones, "_gordan_witness", counted_gordan)
    path = write_diagram(tmp_path, "m4.json", normals)
    code, _ = run(capsys, ["analyze", path, "--cy", "--topo", "--reeb"])
    assert code == 0
    assert shapes == [(3, 3, 3)]
    assert systems == []


def test_analyze_keeps_no_diagram_alive(tmp_path, capsys):
    # results are kept on their diagram, not in a module cache, so no
    # diagram outlives the analyze call that loaded it
    def alive():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, ToricDiagram)]

    before = alive()  # held, so no new diagram can reuse one of their ids
    known = {id(o) for o in before}
    rng = random.Random(8)
    path = tmp_path / "d.json"
    for k in range(300):
        shear = random_sl3(rng)
        path.write_text(dumps({"normals": [shear.mul_vector(v) for v in lens(1 + k % 6).normals]}))
        code, _ = run(capsys, ["analyze", str(path), "--cy", "--topo", "--reeb"])
        assert code == 0
    assert [o.normals for o in alive() if id(o) not in known] == []


def test_reeb_restart_offsets_are_fixed(tmp_path, capsys, monkeypatch):
    # the two perturbed starts are the draws of random.Random(0), and no
    # environment variable moves them: SASAKIT_SEED, unset or set to
    # anything, leaves every byte as it is
    rng = random.Random(0)
    assert cli.RESTART_OFFSETS == tuple(
        tuple(rng.uniform(-0.5, 0.5) for _ in range(2)) for _ in range(2)
    )
    path = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    monkeypatch.delenv("SASAKIT_SEED", raising=False)
    outputs = [run(capsys, ["analyze", path, "--reeb"])]
    for seed in ["abc", " 7 "]:
        monkeypatch.setenv("SASAKIT_SEED", seed)
        outputs.append(run(capsys, ["analyze", path, "--reeb"]))
    assert outputs[0][0] == 0 and "xi" in json.loads(outputs[0][1])["stages"]["reeb"]
    assert outputs == [outputs[0]] * 3


@pytest.mark.parametrize("command", ["check", "analyze", "geodesic-test"])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, command):
    # json.load recurses once per bracket; past the recursion limit that is
    # a DiagramError, exit 1, not a RecursionError traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(DiagramError, match="nested too deeply"):
        load_diagram(str(path))
    code, out = run(capsys, [command, str(path)])
    assert code == 1
    assert json.loads(out)["error"] == "diagram JSON is nested too deeply to parse"


def test_analyze_work_counts_of_a_good_main4_odd(tmp_path, capsys, monkeypatch):
    # deterministic work of one analyze --cy --topo --reeb at d = 40: no
    # rref of [N | I] and one determinant of the normalizer (its sign fix
    # implies the second); no _saturated call in is_good, whose two-normal
    # edges read the skeleton's kept gcds; no Fraction in the Reeb frame.
    d = main4_odd(19, 1)
    assert d.d == 40
    rref = lattice.rref
    counts = {"rref": 0, "saturated": 0, "fraction": 0}
    inside = set()

    def counted_rref(rows, ncols):
        counts["rref"] += 1
        return rref(rows, ncols)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("sasakit") and getattr(module, "rref", None) is rref:
            monkeypatch.setattr(module, "rref", counted_rref)

    def within(name, fn):
        def wrapped(*args, **kwargs):
            inside.add(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.discard(name)
        return wrapped

    saturated = cones._saturated

    def counted_saturated(cols):
        counts["saturated"] += "is_good" in inside
        return saturated(cols)

    monkeypatch.setattr(cli, "is_good", within("is_good", cli.is_good))
    monkeypatch.setattr(cones, "_saturated", counted_saturated)
    monkeypatch.setattr(reeb, "_reduced_frame", within("frame", reeb._reduced_frame))
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        counts["fraction"] += "frame" in inside
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    _analyze_reeb(tmp_path, capsys, d.normals)
    assert counts == {"rref": 1, "saturated": 0, "fraction": 0}

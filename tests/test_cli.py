import contextlib
import csv
import gc
import io
import json
import random
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sasakit import cli, cones, cy as cy_module, reeb
from sasakit.cli import main
from sasakit.cones import ToricDiagram
from sasakit.cy import compute_gamma, kernel_lattice
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


def test_analyze_svg_requires_height1(tmp_path, capsys):
    path = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    code, _ = run(capsys, ["analyze", path, "--emit-svg", str(tmp_path / "x.svg")])
    assert code == 1


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


def test_console_entry_point_subprocess(tmp_path):
    path = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    proc = subprocess.run(
        [sys.executable, "-m", "sasakit.cli", "check", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["good"] is True


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
    path.write_text(dumps(diagram_to_dict(lens(2), lens2)))
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
    assert exc.value.code == 2
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
    at_inv = compute_gamma(cones.validate_diagram(normals)).normalizer.inverse_unimodular().transpose()
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


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    # one parser serves every call with the bytes a fresh one gives: an
    # append action, a switch of subcommand and an argparse exit leave no
    # state behind for the next call
    path = write_diagram(tmp_path, "m4.json", main4_even(2, 1).normals)
    scan = ["--scan", "1,0,0", "--scan", "0,1,0", "--scan-out", str(tmp_path / "scan.csv")]
    calls = [
        ["analyze", path, "--reeb", *scan],
        ["analyze", path, "--reeb"],
        ["family", "main4-even", "--r", "2", "--s", "1"],
        ["geodesic-test", path],
        ["family", "help"],
        ["analyze", path, "--cy", "--topo"],
    ]
    assert cli._parser() is cli._parser() is not cli.build_parser()
    reused = _outputs(capsys, calls)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == _outputs(capsys, calls)
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, ("SystemExit", 2), 0]
    assert "scan_points" in reused[0][1] and "scan_points" not in reused[1][1]


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


def test_analyze_runs_one_elimination_of_the_normals(tmp_path, capsys, monkeypatch):
    # rank, gamma, the interior witness and the kernel basis all read one
    # rref of [N | I]: gamma costs no solve of its own, the normalizer is
    # inverted by cofactors, not by an augmented [A | I], and the rest are
    # determinants of 3 x 3 or smaller; a diagram with a height covector
    # never runs the Gordan witness's simplex
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
    d = len(normals)
    assert [s for s in shapes if s[1] > s[2]] == [(3, d + 3, d)]
    assert all(s[2] <= 3 for s in shapes if s[1] == s[2])
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
    # deterministic work of one analyze --cy --topo --reeb at d = 40: one
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
    assert counts == {"rref": 2, "saturated": 0, "fraction": 0}

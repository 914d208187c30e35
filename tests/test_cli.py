import json
import subprocess
import sys
from dataclasses import replace

import pytest

from sasakit import cli
from sasakit.cli import main
from sasakit.cy import compute_gamma
from sasakit.errors import DiagramError
from sasakit.serialize import diagram_to_dict, dumps, load_diagram
from sasakit import lattice, lens, main4_even, non_cy


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


def test_analyze_reeb_checks_every_start(tmp_path, capsys, monkeypatch):
    minimize = cli.minimize_volume

    def restarts_fail(diagram, cy, start_offset=None):
        res = minimize(diagram, cy, start_offset=start_offset)
        return replace(res, converged=start_offset is None)

    monkeypatch.setattr(cli, "minimize_volume", restarts_fail)
    path = write_diagram(tmp_path, "lens2.json", lens(2).normals)
    code, out = run(capsys, ["analyze", path, "--reeb"])
    assert code == 4
    assert "volume minimization did not converge" in json.loads(out)["error"]


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


def test_analyze_svg(tmp_path, capsys):
    path = write_diagram(tmp_path, "z5.json", [(1, 0, 0), (1, 2, 1), (1, 3, 4)])
    svg = tmp_path / "z5.svg"
    code, _ = run(capsys, ["analyze", path, "--emit-svg", str(svg)])
    assert code == 0
    body = svg.read_text()
    assert "<svg" in body and "polygon" in body


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
    ],
    ids=[
        "top-level-int", "normals-int", "row-int", "bool-entry", "rank-str",
        "gamma-zero-denominator", "gamma-garbage", "gamma-str", "height-str",
        "gamma-mismatch",
    ],
)
def test_check_malformed_diagram_json_is_input_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out = run(capsys, ["check", str(path)])
    assert code == 1
    assert message in json.loads(out)["error"]


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


def test_analyze_runs_one_transform_snf(tmp_path, capsys, monkeypatch):
    # the lattice verdicts are transform-free; only complete_to_unimodular,
    # in normalize_height, needs U, on the 3x1 column of l*gamma
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
    assert shapes == [(3, 1)]

"""tools/replay_golden.py runs each tests/golden case as `python -m sasakit.cli`
and reports the files whose exit code or stdout bytes differ."""

import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "replay_golden.py"
_spec = importlib.util.spec_from_file_location("replay_golden", TOOL)
replay_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay_golden)


def test_every_golden_file_matches_on_this_interpreter(capsys):
    assert replay_golden.main([]) == 0
    version = ".".join(map(str, sys.version_info[:3]))
    assert capsys.readouterr().out == f"24 of 24 golden files match on Python {version}\n"


def test_a_changed_stdout_is_named_and_exits_1(tmp_path, capsys):
    for name in ("lens1.json", "not-good.json"):
        (tmp_path / name).write_bytes((replay_golden.GOLDEN / name).read_bytes())
    case = json.loads((tmp_path / "lens1.json").read_text())
    case["analyze"]["stdout"] = case["analyze"]["stdout"].replace("\n", "\r\n")
    (tmp_path / "lens1.json").write_text(json.dumps(case))
    assert replay_golden.main([sys.executable], golden=tmp_path) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lens1.json"
    assert lines[1].startswith("1 of 2 golden files match")


def test_an_interpreter_that_does_not_run_exits_2(tmp_path, capsys):
    assert replay_golden.main([str(tmp_path / "no-python")]) == 2
    assert "does not run" in capsys.readouterr().err

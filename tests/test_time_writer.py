"""tools/time_writer.py times cli._write_file, an O_TRUNC write and
open(path, "w") on a rewrite and on a fresh path of a potential-grid CSV."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "time_writer.py"
_spec = importlib.util.spec_from_file_location("time_writer", TOOL)
time_writer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_writer)


def test_every_writer_leaves_the_grid_bytes(tmp_path):
    text = time_writer.grid_text(3, tmp_path)
    assert text.startswith("y1,y2,y3,G,x1,x2,x3,F,roundtrip_residual\r\n")
    assert text.count("\r\n") == 4 and not list(tmp_path.iterdir())
    results = time_writer.time_writers(text, tmp_path, number=2, repeat=2)
    assert list(results) == ["in_place", "o_trunc", "open_w"]
    assert all(rewrite > 0 and fresh > 0 for rewrite, fresh in results.values())
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == sorted(
        f"{name}-{kind}.csv" for name in results for kind in ("rewrite", "fresh-0", "fresh-1")
    )
    assert all(p.read_bytes() == text.encode("utf-8") for p in tmp_path.iterdir())


def test_main_prints_one_line_per_writer(tmp_path, capsys):
    argv = ["--points", "2", "--number", "2", "--repeat", "1", "--dir", str(tmp_path)]
    assert time_writer.main(argv) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    assert head.endswith(" bytes, best of 1 x 2 calls")
    fields = [row.split() for row in rows]
    assert [(f[0], f[1], f[3]) for f in fields] == [
        (name, "rewrite", "fresh") for name in ("in_place", "o_trunc", "open_w")
    ]
    assert all(float(f[2]) > 0 and float(f[4]) > 0 for f in fields)
    assert not list(tmp_path.iterdir())

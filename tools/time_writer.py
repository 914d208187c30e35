"""Time `sasakit.cli`'s file writer in-process against two stock writers.

The text written is a potential-grid CSV, the file that `analyze
--potential-grid N --grid-out PATH` writes: lens(2)'s grid of N points
(default 12, the grid of the benchmark's analyze-small-d workload).  Each
writer writes it NUMBER times over one existing file of the same bytes (a
rewrite) and NUMBER times on a fresh path (a new name per call, removed
between runs and outside the timing); the best of REPEAT such runs is
printed per call.

  in_place  cli._write_file: overwrite in place, then cut any excess
  o_trunc   os.open(path, O_WRONLY | O_CREAT | O_TRUNC) and os.write
  open_w    open(path, "w", newline="") and one write

What a writer costs depends on the file system of DIR (default: a new
temporary directory).

Usage: python tools/time_writer.py [--points N] [--number K] [--repeat R] [--dir DIR]
Prints "<bytes> bytes, best of R x K calls" and then, per writer,
"<writer> rewrite <us> fresh <us>" in microseconds per call.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sasakit import cli, lens  # noqa: E402


def _o_trunc(path: str, text: str) -> None:
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        os.close(fd)


def _open_w(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


WRITERS = {"in_place": cli._write_file, "o_trunc": _o_trunc, "open_w": _open_w}


def grid_text(points: int, directory: Path) -> str:
    """The bytes `analyze --potential-grid points` writes for lens(2), as text."""
    path = directory / "grid.csv"
    cli._write_grid_csv(lens(2), points, str(path))
    text = path.read_bytes().decode("utf-8")
    path.unlink()
    return text


def _best_us(write, paths: list[str], text: str, repeat: int, fresh: bool) -> float:
    """Fastest of `repeat` runs of write(path, text) over `paths`, in µs per call."""
    best = float("inf")
    for _ in range(repeat):
        if fresh:
            for path in paths:
                if os.path.exists(path):
                    os.unlink(path)
        start = time.perf_counter_ns()
        for path in paths:
            write(path, text)
        best = min(best, (time.perf_counter_ns() - start) / len(paths))
    return best / 1e3


def time_writers(text: str, directory: Path, number: int, repeat: int) -> dict:
    """{writer: (rewrite µs, fresh µs)}; each writer leaves its files holding `text`."""
    results = {}
    for name, write in WRITERS.items():
        rewrite = str(directory / f"{name}-rewrite.csv")
        write(rewrite, text)
        fresh = [str(directory / f"{name}-fresh-{i}.csv") for i in range(number)]
        results[name] = (
            _best_us(write, [rewrite] * number, text, repeat, fresh=False),
            _best_us(write, fresh, text, repeat, fresh=True),
        )
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=12, help="grid points (default 12)")
    ap.add_argument("--number", type=int, default=200, help="calls per run (default 200)")
    ap.add_argument("--repeat", type=int, default=7, help="runs, best taken (default 7)")
    ap.add_argument("--dir", help="directory to write in (default: a new temporary one)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(dir=args.dir) as tmp:
        text = grid_text(args.points, Path(tmp))
        results = time_writers(text, Path(tmp), args.number, args.repeat)
    print(f"{len(text.encode('utf-8'))} bytes, best of {args.repeat} x {args.number} calls")
    for name, (rewrite, fresh) in results.items():
        print(f"{name} rewrite {rewrite:.1f} fresh {fresh:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

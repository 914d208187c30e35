"""Run the benchmark in alternating pairs: a parent tree against this one.

Each pair runs the two trees' own `perfbench/run.py` on one workload and
seed, the change (this checkout) first on odd seeds and the parent first on
even ones, and reads each run's last line of stdout, its JSON result.  Seeds
1..N make the N pairs; seed N+1 is run as one more pair, the held-out seed,
which the medians, quartiles and win counts leave out.

--parent is a git revision of this repository, which `git archive` writes
into a temporary directory (no worktree is added and nothing is fetched), or
a directory that holds a checkout.  The output file records the machine
(nproc, platform, Python and numpy versions), both trees' commits, a digest
of each tree's benchmark (its perfbench/ and BENCHMARK.json) and whether the
two agree, the seeds, every run's metrics, and for each end-to-end metric
of BENCHMARK.json each side's median and quartiles, the win counts and a
verdict:

  better       the change won at least 9 in 10 pairs (ties count for
               neither) and its median beats the parent's by more than the
               parent's interquartile range;
  worse        the change's median is worse than the parent's by more than
               the metric's bound;
  unresolved   neither, the parent's interquartile range is wider than the
               bound, and some parent run reads better than some change run;
  held         none of these.

Usage: python tools/bench_pairs.py --parent REV|DIR --workload W [--workload W ...]
           --pairs N --seconds S --out BENCH_<n>.json
Prints one `#` warning line to stderr when the two trees' benchmarks
differ, as their runs then time different programs.  Exits 1 if a run
fails or prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
WIN_SHARE = 0.9
# what compiling and running the benchmark leave in perfbench/ (all in .gitignore)
RUN_OUTPUTS = {"__pycache__", ".work", "out"}


def _git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                          check=True).stdout.strip()


def _digest(tree: Path, paths) -> str:
    """sha256 over the paths (relative to tree) and bytes of the given files."""
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _describe(tree: Path, commit: str | None = None) -> dict:
    """The commit a tree was made from, whether its tracked files differ from
    it, a digest of its src/ and perfbench/ Python files, and one of its
    benchmark: every perfbench/ file outside `RUN_OUTPUTS`, and BENCHMARK.json."""
    dirty = None
    if commit is None and (tree / ".git").exists():
        commit = _git(tree, "rev-parse", "HEAD")
        dirty = bool(_git(tree, "status", "--porcelain", "--untracked-files=no"))
    source = sorted((tree / "src").rglob("*.py")) + sorted((tree / "perfbench").rglob("*.py"))
    harness = tree / "perfbench"
    benchmark = sorted(p for p in harness.rglob("*")
                       if p.is_file() and not RUN_OUTPUTS & set(p.relative_to(harness).parts))
    return {"commit": commit, "dirty": dirty, "source_sha256": _digest(tree, source),
            "benchmark_sha256": _digest(tree, benchmark + [tree / "BENCHMARK.json"])}


def same_benchmark(parent: dict, change: dict) -> bool:
    """Whether both sides run the same benchmark; one `#` warning line on stderr if not."""
    same = parent["benchmark_sha256"] == change["benchmark_sha256"]
    if not same:
        print("# the trees' perfbench/ or BENCHMARK.json differ: their runs time "
              "different benchmarks", file=sys.stderr, flush=True)
    return same


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in `tree`: its JSON result (RuntimeError if none)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, timeout=10 * seconds + 600,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {done.returncode}: "
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def run_pair(trees: dict, workload: str, seed: int, seconds: float) -> dict:
    order = ("change", "parent") if seed % 2 else ("parent", "change")
    pair = {"seed": seed, "first": order[0]}
    for side in order:
        pair[side] = run_once(trees[side], workload, seed, seconds)
    return pair


def _quartiles(values: list) -> list:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list) -> dict:
    """Per end-to-end metric: each side's quartiles, the wins and the verdict."""
    out = {}
    for name, spec in METRICS.items():
        lower = spec["better"] == "lower"
        sides = {side: [p[side]["metrics"][name] for p in pairs] for side in ("parent", "change")}
        q = {side: _quartiles(v) for side, v in sides.items()}
        diffs = [c - p for p, c in zip(sides["parent"], sides["change"])]
        wins = sum(d < 0 if lower else d > 0 for d in diffs)
        losses = sum(d > 0 if lower else d < 0 for d in diffs)
        parent_median, change_median = q["parent"][1], q["change"][1]
        iqr = q["parent"][2] - q["parent"][0]
        gain = parent_median - change_median if lower else change_median - parent_median
        if wins >= WIN_SHARE * len(pairs) and gain > iqr:
            verdict = "better"
        elif -gain > spec["bound"] * abs(parent_median):
            verdict = "worse"
        elif iqr > spec["bound"] * abs(parent_median) and not (
                max(sides["change"]) < min(sides["parent"]) if lower
                else min(sides["change"]) > max(sides["parent"])):
            verdict = "unresolved"
        else:
            verdict = "held"
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": sides["parent"], "change": sides["change"],
            "parent_quartiles": q["parent"], "change_quartiles": q["change"],
            "parent_median": parent_median, "change_median": change_median,
            "parent_iqr": iqr,
            "change_pct": 100 * (change_median - parent_median) / parent_median
            if parent_median else None,
            "change_wins": wins, "parent_wins": losses, "ties": len(diffs) - wins - losses,
            "verdict": verdict,
        }
    return out


def bench(trees: dict, workloads: list, pairs: int, seconds: float) -> dict:
    results = {}
    for workload in workloads:
        runs = []
        for seed in range(1, pairs + 2):
            runs.append(run_pair(trees, workload, seed, seconds))
            p, c = runs[-1]["parent"]["metrics"], runs[-1]["change"]["metrics"]
            print(f"# {workload} seed {seed}: op_p50_ms {p['op_p50_ms']:.4f} -> "
                  f"{c['op_p50_ms']:.4f}", file=sys.stderr, flush=True)
        results[workload] = {
            "all_correct": all(r[s]["correct"] and not r[s]["failed"]
                               for r in runs for s in ("parent", "change")),
            "pairs": runs[:-1],
            "held_out": runs[-1],
            "metrics": summarize(runs[:-1]),
        }
    return results


def _machine() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="a git revision, or a checkout's directory")
    ap.add_argument("--workload", required=True, action="append",
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    change = _describe(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        if Path(args.parent).is_dir():
            parent_tree = Path(args.parent).resolve()
            parent = _describe(parent_tree)
        else:
            parent_tree = Path(tmp)
            commit = _git(ROOT, "rev-parse", "--verify", args.parent + "^{commit}")
            archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            parent = _describe(parent_tree, commit)
        same = same_benchmark(parent, change)
        try:
            results = bench({"parent": parent_tree, "change": ROOT},
                            args.workload, args.pairs, args.seconds)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(exc, file=sys.stderr)
            return 1
    doc = {
        "machine": _machine(),
        "parent": parent, "change": change, "same_benchmark": same,
        "seconds": args.seconds,
        "seeds": list(range(1, args.pairs + 1)), "held_out_seed": args.pairs + 1,
        "workloads": results,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

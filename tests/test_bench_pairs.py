"""tools/bench_pairs.py runs the benchmark in alternating parent/change pairs
and writes one JSON file of every run, the medians, the wins and a verdict."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SIDE_FIELDS = {"commit", "dirty", "source_sha256"}
SUMMARY_FIELDS = {
    "unit", "better", "bound", "parent", "change", "parent_quartiles", "change_quartiles",
    "parent_median", "change_median", "parent_iqr", "change_pct", "change_wins",
    "parent_wins", "ties", "verdict",
}


def test_smoke_pair_with_this_tree_on_both_sides(tmp_path):
    out = tmp_path / "bench.json"
    argv = ["--parent", str(ROOT), "--workload", "analyze-large-d", "--pairs", "1",
            "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"machine", "parent", "change", "seconds", "seeds", "held_out_seed",
                        "workloads"}
    assert set(doc["machine"]) == {"nproc", "platform", "python", "numpy"}
    assert set(doc["parent"]) == set(doc["change"]) == SIDE_FIELDS
    assert doc["parent"] == doc["change"]
    assert (doc["seconds"], doc["seeds"], doc["held_out_seed"]) == (1, [1], 2)
    result = doc["workloads"]["analyze-large-d"]
    assert result["all_correct"] is True
    runs = result["pairs"] + [result["held_out"]]
    assert [(r["seed"], r["first"]) for r in runs] == [(1, "change"), (2, "parent")]
    for run in runs:
        for side in ("parent", "change"):
            assert run[side]["correct"] is True and run[side]["failed"] == 0
            assert set(run[side]["metrics"]) == set(bench_pairs.METRICS)
    assert set(result["metrics"]) == set(bench_pairs.METRICS)
    for name, summary in result["metrics"].items():
        assert set(summary) == SUMMARY_FIELDS
        assert summary["parent"] == [result["pairs"][0]["parent"]["metrics"][name]]
        assert summary["verdict"] in {"better", "worse", "unresolved", "held"}


def _pairs(parent, change, name="op_p50_ms"):
    # every end-to-end metric reads 1.0 except `name`
    base = {m: 1.0 for m in bench_pairs.METRICS}
    return [{"parent": {"metrics": {**base, name: p}}, "change": {"metrics": {**base, name: c}}}
            for p, c in zip(parent, change)]


@pytest.mark.parametrize("parent, change, verdict", [
    # 9 wins of 10 and a gain beyond the parent's IQR
    ([2.0] * 5 + [2.1] * 5, [1.9] * 9 + [2.2], "better"),
    # 8 wins of 10 are too few
    ([2.0] * 10, [1.9] * 8 + [2.1] * 2, "held"),
    # every pair won, but by less than the parent's IQR
    ([1.0, 1.1, 1.2, 1.3], [0.99, 1.09, 1.19, 1.29], "held"),
    # worse by more than the 20% bound
    ([1.0] * 10, [1.3] * 10, "worse"),
    # a parent spread wider than the bound hides a 10% loss
    ([0.5, 1.0, 1.0, 1.5], [1.1] * 4, "unresolved"),
    # ... unless every change run beats every parent run
    ([1.0, 1.0, 1.5, 1.5], [0.99] * 4, "held"),
])
def test_verdicts(parent, change, verdict):
    summary = bench_pairs.summarize(_pairs(parent, change))["op_p50_ms"]
    assert summary["verdict"] == verdict
    assert summary["change_wins"] + summary["parent_wins"] + summary["ties"] == len(parent)


def test_higher_is_better_for_throughput():
    summary = bench_pairs.summarize(_pairs([100.0] * 10, [110.0] * 10, "ops_per_s"))
    assert summary["ops_per_s"]["verdict"] == "better"
    assert summary["ops_per_s"]["change_wins"] == 10
    assert summary["op_p50_ms"]["ties"] == 10 and summary["op_p50_ms"]["verdict"] == "held"

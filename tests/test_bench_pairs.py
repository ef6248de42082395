"""The paired-run summary of tools/bench_pairs.py and its two verdicts."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def paired_runs(parent, change, metric="wall_s"):
    return [
        {"pair": i, "side": side, metric: value}
        for i, pair in enumerate(zip(parent, change), 1)
        for side, value in zip(("parent", "change"), pair)
    ]


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.1, 9.9]


def test_a_clear_gain_meets_the_rule():
    change = [v - 2.0 for v in PARENT]
    out = load_tool().summarise(paired_runs(PARENT, change), [WALL])["wall_s"]
    assert out["change_wins"] == 10 and out["pairs"] == 10
    assert out["change"]["median"] == pytest.approx(8.0)
    assert out["gain_rule_met"] and out["within_bound"]


def test_eight_wins_of_ten_are_not_a_gain():
    change = [v - 2.0 for v in PARENT[:8]] + [v + 0.5 for v in PARENT[8:]]
    out = load_tool().summarise(paired_runs(PARENT, change), [WALL])["wall_s"]
    assert out["change_wins"] == 8
    assert not out["gain_rule_met"]
    assert out["within_bound"]


def test_a_median_gap_inside_the_parents_spread_is_not_a_gain():
    # q3 - q1 of PARENT is 0.2; every pair is won by 0.1
    change = [v - 0.1 for v in PARENT]
    out = load_tool().summarise(paired_runs(PARENT, change), [WALL])["wall_s"]
    assert out["parent"]["q3"] - out["parent"]["q1"] == pytest.approx(0.2)
    assert out["change_wins"] == 10
    assert not out["gain_rule_met"]


@pytest.mark.parametrize("factor, within", [(1.2, True), (1.3, False)])
def test_within_bound_is_relative_to_the_parents_median(factor, within):
    change = [v * factor for v in PARENT]
    out = load_tool().summarise(paired_runs(PARENT, change), [WALL])["wall_s"]
    assert out["change_wins"] == 0
    assert out["within_bound"] is within
    assert not out["gain_rule_met"]


def test_a_higher_is_better_metric_counts_the_other_way():
    metric = {"name": "rate", "better": "higher", "bound": 0.1}
    change = [v + 2.0 for v in PARENT]
    runs = paired_runs(PARENT, change, "rate")
    out = load_tool().summarise(runs, [metric])["rate"]
    assert out["change_wins"] == 10
    assert out["gain_rule_met"] and out["within_bound"]
    out = load_tool().summarise(paired_runs(change, PARENT, "rate"), [metric])
    assert not out["rate"]["within_bound"]


def test_the_warm_up_runs_come_first_and_reach_no_statistic(monkeypatch):
    tool = load_tool()
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout, seed, trace))
        # the warm-ups read 1000 s; a paired run reads its pair's seed
        wall = 1000.0 if len(calls) <= 2 else float(seed - tool.FIRST_SEED)
        return {"correct": 1, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    monkeypatch.setattr(tool, "run_once", run_once)
    out = tool.measure({"parent": "p", "change": "c"}, "w", 15.0, [WALL])
    assert calls[:2] == [("p", tool.WARMUP_SEED, 0), ("c", tool.WARMUP_SEED, 0)]
    assert len(calls) == 2 + 2 * tool.PAIRS + 2
    assert tool.WARMUP_SEED not in {seed for _, seed, _ in calls[2:]}
    assert [(r["pair"], r["side"], r["wall_s"]) for r in out["warmup"]] == [
        (0, "parent", 1000.0), (0, "change", 1000.0)]
    assert len(out["runs"]) == 2 * tool.PAIRS
    for side in ("parent", "change"):
        stats = out["end_to_end"]["wall_s"][side]
        assert stats["n"] == tool.PAIRS and stats["max"] == tool.PAIRS - 1

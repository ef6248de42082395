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

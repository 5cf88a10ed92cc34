"""The summary of ``tools/paired_bench.py`` on fixed numbers."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
spec = importlib.util.spec_from_file_location("paired_bench", PATH)
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)

METRICS = [
    {"name": "warm_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def pairs(parent, change):
    return [({"warm_ms": p, "rate": 100.0}, {"warm_ms": c, "rate": 100.0})
            for p, c in zip(parent, change)]


def test_quartiles_of_ten_runs():
    assert paired_bench.quartiles([float(x) for x in range(1, 11)]) == (2.75, 5.5, 8.25)
    assert paired_bench.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parent_spread():
    parent = [20.0, 21, 19, 20, 22, 20, 21, 19, 20, 20]
    change = [18.0, 18, 17, 18, 19, 18, 18, 17, 18, 21]
    s = paired_bench.summarize(pairs(parent, change), METRICS)["warm_ms"]
    assert s["parent"] == {"median": 20.0, "q1": 19.75, "q3": 21.0}
    assert s["change"]["median"] == 18.0
    assert (s["wins"], s["losses"], s["pairs"]) == (9, 1, 10)
    assert s["relative"] == pytest.approx(-0.1)
    assert s["gain_shown"] and s["within_bound"]
    # eight wins of ten are too few, whatever the gap
    s = paired_bench.summarize(pairs(parent, change[:8] + [21.0, 21.0]), METRICS)["warm_ms"]
    assert s["wins"] == 8 and not s["gain_shown"]
    # every pair won, but by less than the parent's interquartile range
    s = paired_bench.summarize(pairs(parent, [p - 0.5 for p in parent]), METRICS)["warm_ms"]
    assert s["wins"] == 10 and not s["gain_shown"]


def test_ties_count_for_neither_side_and_bounds_follow_the_better_direction():
    s = paired_bench.summarize(pairs([10.0] * 4, [10.0] * 4), METRICS)
    assert (s["warm_ms"]["wins"], s["warm_ms"]["losses"]) == (0, 0)
    assert s["warm_ms"]["within_bound"] and not s["warm_ms"]["gain_shown"]
    worse = paired_bench.summarize(pairs([10.0] * 4, [11.5] * 4), METRICS)["warm_ms"]
    assert worse["losses"] == 4 and not worse["within_bound"]
    # a metric that is better higher: a fall of 5% is within a 10% bound
    low = [({"warm_ms": 1.0, "rate": 100.0}, {"warm_ms": 1.0, "rate": 95.0})] * 3
    rate = paired_bench.summarize(low, METRICS)["rate"]
    assert (rate["wins"], rate["losses"]) == (0, 3)
    assert rate["within_bound"] and not rate["gain_shown"]

"""The statistics `tools/bench_pairs.py` writes into a BENCH file."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BOUNDS = {"items_per_s": ("1/s", "higher", 0.25), "wall_s": ("s", "lower", 0.25)}


def run(**values):
    """One run that gave the given metric values; none means it failed."""
    return {"exit": 0 if values else 1, "correct": bool(values),
            "metrics": {name: {"value": value} for name, value in values.items()}}


def summary(metric, parent, change):
    """The summary of `metric` over paired runs with the given values, None
    standing for a failed run."""
    def runs(values):
        return [run() if v is None else run(**{metric: v}) for v in values]

    return bench_pairs.summarize({"parent": runs(parent), "change": runs(change)},
                                 BOUNDS)["metrics"][metric]


def test_a_failed_run_drops_its_pair_alone():
    # pair 2 has no parent value; pair 3 (300 vs 400) is still a change win
    got = summary("items_per_s", [100, None, 300], [50, 200, 400])
    assert got["change_wins"] == "1/2"
    assert (got["parent_runs"], got["change_runs"]) == ([100, 300], [50, 200, 400])


@pytest.mark.parametrize("metric", BOUNDS)
def test_a_tie_is_a_win_for_neither_side(metric):
    assert summary(metric, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])["change_wins"] == "0/3"


@pytest.mark.parametrize("metric,change,within", [
    ("items_per_s", [80.0, 80.0], True), ("items_per_s", [70.0, 70.0], False),
    ("wall_s", [120.0, 120.0], True), ("wall_s", [130.0, 130.0], False),
])
def test_within_bound_follows_the_better_direction(metric, change, within):
    # the parent's median is 100 and every bound 25 %
    assert summary(metric, [100.0, 100.0], change)["within_bound"] is within


def test_the_pair_ratio_is_the_median_of_each_pairs_ratio():
    # a slow spell in pairs 3 and 4 moves both runs of each: every pair reads
    # the change 10 % faster, while the medians read it 10 % slower
    got = summary("items_per_s", [100, 100, 50, 50, 100], [110, 110, 55, 55, 90])
    assert got["median_pair_ratio"] == 1.1
    assert got["median_change_over_parent"] == 0.9
    assert got["change_wins"] == "4/5"


def test_a_claim_reads_the_pair_ratio_of_each_section():
    entry = summary("wall_s", [10.0, 20.0, 30.0], [9.0, 16.0, 30.0])
    doc = {"workloads": {"flood": {"metrics": {"wall_s": entry}}},
           "holdout": {"flood": {"metrics": {"wall_s": entry}}}, "what": "text"}
    claim = bench_pairs.claim_summary(doc, "flood", "wall_s", "< 1")
    assert claim["workloads"]["median_pair_ratio"] == 0.9
    assert claim["holdout"] == claim["workloads"]
    assert "what" not in claim


def test_run_rss_subtracts_the_import_probe_taken_before_each_run():
    # the parent's third run failed: it and its probe are left out
    runs = {"parent": [run(peak_rss_mb=40.0), run(peak_rss_mb=41.0), run()],
            "change": [run(peak_rss_mb=43.0), run(peak_rss_mb=44.5), run(peak_rss_mb=42.0)]}
    probes = {"parent": [34.0, 34.5, 34.2], "change": [35.0, 35.5, 34.0]}
    got = bench_pairs.run_rss(runs, probes)
    assert got["parent"]["runs"] == [6.0, 6.5]
    assert got["change"]["runs"] == [8.0, 9.0, 8.0]
    assert (got["change"]["median"], got["change"]["q1"], got["change"]["q3"]) == (8.0, 8.0, 8.5)

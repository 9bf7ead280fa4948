"""tools/bench_pairs.py: the per-workload summary of alternating pairs,
checked on synthetic runs."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BENCH = {
    "run_seconds": 20,
    "workloads": [{"name": "sweep"}],
    "end_to_end": [
        {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.15},
    ],
}


def _run(seed, side, qps, rss, failed=0):
    metrics = {"queries_per_s": {"value": qps}, "peak_rss_mib": {"value": rss}}
    result = {"correct": failed == 0, "failed": failed, "attempted": 100, "metrics": metrics}
    return {"workload": "sweep", "seed": seed, "side": side, "result": result}


def test_one_seed_is_its_own_median_and_quartiles():
    runs = [_run(7, "parent", 100.0, 30.0), _run(7, "change", 150.0, 31.0)]
    row = bench_pairs.summarise(BENCH, runs, [7])["workloads"]["sweep"]
    assert row["pairs"] == 1
    qps = row["metrics"]["queries_per_s"]
    assert qps["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0, "runs": [100.0]}
    assert qps["change"] == {"median": 150.0, "q1": 150.0, "q3": 150.0, "runs": [150.0]}
    assert qps["change_wins"] == 1
    assert row["metrics"]["peak_rss_mib"]["change_wins"] == 0


def test_three_seeds_give_inclusive_quartiles_and_wins():
    runs = []
    for seed, (p, c) in zip((1, 2, 3), ((100.0, 90.0), (120.0, 130.0), (110.0, 140.0))):
        # the change's runs are listed first: order by seed, not by arrival
        runs += [_run(seed, "change", c, 20.0 + seed), _run(seed, "parent", p, 25.0)]
    runs[-1] = _run(3, "parent", 110.0, 25.0, failed=2)
    summary = bench_pairs.summarise(BENCH, runs, [1, 2, 3])
    assert summary["seeds"] == [1, 2, 3]
    row = summary["workloads"]["sweep"]
    qps = row["metrics"]["queries_per_s"]
    assert qps["parent"] == {"median": 110.0, "q1": 105.0, "q3": 115.0, "runs": [100.0, 120.0, 110.0]}
    assert qps["change"]["runs"] == [90.0, 130.0, 140.0]
    assert (qps["change"]["q1"], qps["change"]["median"], qps["change"]["q3"]) == (110.0, 130.0, 135.0)
    assert qps["change_wins"] == 2
    assert row["metrics"]["peak_rss_mib"]["change_wins"] == 3  # lower is better
    assert row["parent"] == {"correct": False, "failed": 2, "attempted": 300}
    assert row["change"] == {"correct": True, "failed": 0, "attempted": 300}


@pytest.mark.parametrize("text, seeds", [("7", [7]), ("1001-1003", [1001, 1002, 1003])])
def test_seed_ranges(text, seeds):
    assert bench_pairs._seeds(text) == seeds


def _flags(parent, change):
    """The (regressed, unresolved) flags of each metric, for three pairs of
    (queries_per_s, peak_rss_mib) runs per side."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), 1):
        runs += [_run(seed, "parent", *p), _run(seed, "change", *c)]
    metrics = bench_pairs.summarise(BENCH, runs, [1, 2, 3])["workloads"]["sweep"]["metrics"]
    return {m: (row["regressed"], row["unresolved"]) for m, row in metrics.items()}


def test_median_worse_than_the_bound_is_regressed():
    # queries/s 30% lower (bound 0.25), RSS 20% higher (bound 0.15): each
    # direction of "worse" sets the flag
    flags = _flags([(100.0, 30.0)] * 3, [(70.0, 36.0)] * 3)
    assert flags == {"queries_per_s": (True, False), "peak_rss_mib": (True, False)}


def test_parent_spread_wider_than_the_bound_is_unresolved():
    # queries/s quartiles 80 and 120 around a median of 100: a spread of
    # 0.4 against a bound of 0.25, whatever the change reads
    parent = [(60.0, 30.0), (100.0, 30.0), (140.0, 30.0)]
    flags = _flags(parent, [(100.0, 30.0)] * 3)
    assert flags == {"queries_per_s": (False, True), "peak_rss_mib": (False, False)}


def test_change_within_the_bound_sets_neither_flag():
    # 10% slower and 10% more memory, both inside their bounds, over
    # parent runs that spread 2%
    parent = [(98.0, 30.0), (100.0, 30.3), (102.0, 29.7)]
    change = [(88.0, 33.0), (90.0, 33.3), (92.0, 32.7)]
    flags = _flags(parent, change)
    assert flags == {"queries_per_s": (False, False), "peak_rss_mib": (False, False)}


def _gains(parent, change):
    """The gain flag of queries_per_s over pairs of (parent, change) runs."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), 1):
        runs += [_run(seed, "parent", p, 30.0), _run(seed, "change", c, 30.0)]
    seeds = list(range(1, len(runs) // 2 + 1))
    metrics = bench_pairs.summarise(BENCH, runs, seeds)["workloads"]["sweep"]["metrics"]
    return metrics["queries_per_s"]["gain"], metrics["peak_rss_mib"]["gain"]


# ten parent runs with quartiles 98.25 and 101.75 (inclusive): a spread of 3.5
PARENT = [96.0, 97.0, 98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 103.0, 104.0]


def test_nine_wins_and_a_gap_beyond_the_spread_is_a_gain():
    # nine of ten pairs won, one tie, and the medians differ by more than
    # 3.5; RSS ties every pair, so it gains nothing
    change = [p + 10.0 for p in PARENT[:-1]] + [PARENT[-1]]
    assert _gains(PARENT, change) == (True, False)


def test_eight_wins_are_no_gain():
    # the medians still differ by 8.5, but two pairs are lost
    change = [p + 10.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
    assert _gains(PARENT, change) == (False, False)


def test_a_gap_within_the_spread_is_no_gain():
    # every pair won, by 3 against a parent spread of 3.5
    change = [p + 3.0 for p in PARENT]
    assert _gains(PARENT, change) == (False, False)

"""In-process time per round of named legs of one benchmark workload.

    python3 tools/legs.py --workload sweep [--seed 7] [--rounds 5] \
        [--root DIR] [--legs MODULE.ATTR ...]

DIR is the root of a checkout (default: the one holding this file).
rootmean is imported from DIR/src only, and the query pool is the one
DIR/bench/workloads.py builds for the workload and seed.  The pool is
answered as DIR/bench/worker.py answers it: one warm-up round, then
`rounds` timed rounds in this process.  Each leg, a function named
"module.attr" within rootmean (evaluator._oracle_pass), is timed in rounds
of its own, in which its wrapper is the only one installed, so every call
made through that module attribute is timed and counted and no other
leg's wrapper adds to it.  A leg's time includes the legs it calls
(_oracle_floors holds the oracle pass it runs).  Each timed round of the
whole pool runs with no wrapper and is followed by one round per leg.  One
JSON line gives the median ms per round of the whole round and of each
leg, each leg's median calls per round, and lists as absent the legs the
checkout lacks and as uncalled the legs no call reached in any round: a
function that another module binds by name is reached through that
module's attribute (evaluator._round_up, not asymptotic._round_up).

It measures no set-up, latency or memory and checks no answer: it splits
a round into legs, and a gain is claimed from tools/bench_pairs.py.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MEAN_LEGS = ("_scaled.partial_sum_enc", "evaluator._certify", "evaluator._shortest_roundtrip")
LEGS = {
    "mean_loose": MEAN_LEGS,
    "mean_tight": MEAN_LEGS,
    "closed_form": (
        "asymptotic.partial_sum_sqrt_enclosure", "_scaled.partial_sum_enc", "asymptotic._pow_value"
    ),
    "sweep": ("evaluator._floor_blocks", "evaluator._oracle_pass", "evaluator._oracle_floors"),
}


def bench_module(root: str, name: str):
    """DIR/bench/NAME.py, loaded under a private name so that no module of
    the benchmark is left importable by its bare name."""
    path = os.path.join(root, "bench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_legs_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _timed(fn, tally: list):
    """fn, adding each call's ns to tally[0] and counting it in tally[1]."""
    clock = time.perf_counter_ns

    def timed(*args, **kwargs):
        tally[1] += 1
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tally[0] += clock() - t0

    return timed


def time_legs(rootmean, calls: dict, pool: list, legs, rounds: int) -> dict:
    """Median ms per round of the pool with no leg wrapped, and median ms
    and calls per round of each leg over rounds in which its wrapper is the
    only one installed: `rounds` of each, interleaved, after one warm-up
    round; calls maps a query's kind to the function that answers it.
    A leg with no call in any round is listed as uncalled.  Every wrapped
    attribute is restored."""

    def round_ns() -> int:
        t0 = time.perf_counter_ns()
        for q in pool:
            calls[q[0]](q)
        return time.perf_counter_ns() - t0

    round_ns()
    found, absent = [], []
    for name in legs:
        module_name, _, attr = name.rpartition(".")
        module = importlib.import_module(f"{rootmean.__name__}.{module_name}")
        fn = getattr(module, attr, None)
        if fn is None:
            absent.append(name)
        else:
            found.append((name, module, attr, fn))
    totals = []
    tallies: dict = {name: [] for name, *_ in found}
    for _ in range(rounds):
        totals.append(round_ns())
        for name, module, attr, fn in found:
            tally = [0, 0]
            setattr(module, attr, _timed(fn, tally))
            try:
                round_ns()
            finally:
                setattr(module, attr, fn)
            tallies[name].append(tally)
    return {
        "rounds": rounds,
        "queries": len(pool),
        "round_ms": statistics.median(totals) / 1e6,
        "legs": {name: statistics.median(ns for ns, _ in t) / 1e6 for name, t in tallies.items()},
        "calls": {name: statistics.median_low(n for _, n in t) for name, t in tallies.items()},
        "absent": absent,
        "uncalled": [name for name, t in tallies.items() if not any(n for _, n in t)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(LEGS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--root", default=ROOT)
    parser.add_argument("--legs", nargs="*", help="legs to time (default: the workload's)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    root = os.path.abspath(args.root)
    worker = bench_module(root, "worker")
    rootmean = worker._import_rootmean(os.path.join(root, "src"))
    pool = bench_module(root, "workloads").make_pool(args.workload, args.seed)
    legs = LEGS[args.workload] if args.legs is None else args.legs
    result = time_legs(rootmean, worker._calls(rootmean), pool, legs, args.rounds)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

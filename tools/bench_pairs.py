"""Alternating parent/change pairs of the benchmark, summarised per workload.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 1001-1010 \
        --out BENCH_N.json [--log runs.jsonl]

DIR is the root of a checkout.  Each seed is one pair: for every workload
in BENCHMARK.json, `python3 bench/run.py --workload W --seed S --seconds T
--trace 0` runs once in each checkout, with T from BENCHMARK.json and the
side that runs first alternating from pair to pair.  Each run's printed
JSON line goes to the log as it finishes.  The summary gives, per workload
and end-to-end metric, each side's median and quartiles (inclusive
method), the pairs the change won (ties count for neither) and the
metric's bound, with three flags: `regressed` when the change's median is
worse than the parent's by more than the bound (relative to the parent's
median), `unresolved` when the parent's own quartile spread (q3 - q1,
relative to its median) is wider than the bound, so the runs cannot tell
a change of that size from noise, and `gain` when the change won at least
nine tenths of the pairs and its median is better than the parent's by
more than the parent's q3 - q1: the rule a claimed gain must meet.  Per side, whether every run was correct
and the failed and attempted query totals; and the Python version and CPU
count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SIDES = ("parent", "change")


def _seeds(text: str) -> "list[int]":
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(root: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _spread(values: "list[float]") -> dict:
    """Median and quartiles; one run is its own median and quartiles
    (statistics.quantiles needs two values)."""
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def summarise(bench: dict, runs: "list[dict]", seeds: "list[int]") -> dict:
    workloads = {}
    for w in bench["workloads"]:
        name = w["name"]
        mine = [r for r in runs if r["workload"] == name]
        by_side = {
            side: sorted((r for r in mine if r["side"] == side), key=lambda r: r["seed"])
            for side in SIDES
        }
        row: dict = {"pairs": len(by_side["change"]), "metrics": {}}
        for side, rs in by_side.items():
            row[side] = {
                "correct": all(r["result"]["correct"] for r in rs),
                "failed": sum(r["result"]["failed"] for r in rs),
                "attempted": sum(r["result"]["attempted"] for r in rs),
            }
        for metric in bench["end_to_end"]:
            m = metric["name"]
            vals = {
                side: [r["result"]["metrics"][m]["value"] for r in rs]
                for side, rs in by_side.items()
            }
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(
                sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"])
            )
            parent, change = _spread(vals["parent"]), _spread(vals["change"])
            bound, base = metric["bound"], parent["median"]
            spread = parent["q3"] - parent["q1"]
            row["metrics"][m] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": bound,
                "parent": parent,
                "change": change,
                "change_wins": wins,
                "regressed": sign * (base - change["median"]) > bound * base,
                "unresolved": spread > bound * base,
                "gain": 10 * wins >= 9 * len(vals["change"])
                and sign * (change["median"] - base) > spread,
            }
        workloads[name] = row
    return {
        "command": "python3 bench/run.py --workload W --seed S "
        f"--seconds {bench['run_seconds']} --trace 0",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seeds": seeds,
        "workloads": workloads,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seeds", required=True, help="N or FIRST-LAST")
    parser.add_argument("--out", required=True)
    parser.add_argument("--log", default=None, help="JSON lines, one per run")
    args = parser.parse_args(argv)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    roots = {"parent": args.parent, "change": args.change}
    seeds = _seeds(args.seeds)
    runs = []
    log = open(args.log, "a") if args.log else None
    try:
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for name in names:
                for side in order:
                    result = _run(roots[side], name, seed, bench["run_seconds"])
                    run = {"workload": name, "seed": seed, "side": side, "result": result}
                    runs.append(run)
                    if log is not None:
                        log.write(json.dumps(run) + "\n")
                        log.flush()
    finally:
        if log is not None:
            log.close()
    with open(args.out, "w") as fh:
        json.dump(summarise(bench, runs, seeds), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

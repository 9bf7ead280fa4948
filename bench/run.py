"""Benchmark of rootmean's certified means, exact floors, partial-sum
enclosures and Theorem-1 sweep.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ./src and
nowhere else.  Workloads: mean_loose, mean_tight, closed_form, sweep (see
bench/README.md).  One run:

1. self-tests the reference (bench/reference.py) and builds the workload's
   query pool from the seed (bench/workloads.py);
2. computes the reference answer of every pool query, apart from rootmean;
3. with --trace 0, times set-up in fresh interpreters (one warm-up, then
   SETUP_PROBES measured), each importing rootmean and answering the pool's
   first query;
4. answers whole rounds of the pool in one fresh worker process for about
   --seconds (bench/worker.py), one caller, closed loop;
5. checks every distinct answer against the reference;
6. prints one JSON line: correct, attempted, failed and the metrics.  With
   --trace 1 the worker records spans around the calls into each module
   (bench/spans.py) and the metrics are the per-layer ones.

Details of each run, and the spans of traced runs, go to bench/out/.
Exit status 0 when a result was printed, 1 when the run could not finish,
2 when ./src/rootmean is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 9
IMPORT_PROBES = 3
MIN_QUERIES = 100  # so at least ten latencies lie beyond the p90
RUN_LIMIT_S = 170.0  # a run must end within 180 s
FLOOR_SAMPLE_EVERY = 4  # floors whose floor(Sigma(n)) is also computed

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p90_us": "us",
    "peak_rss_mib": "MiB",
}
# module -> (metric, which -X importtime column: 1 self, 2 cumulative)
IMPORTS = {
    "numpy": ("numpy.import_ms", 2),
    "rootmean.evaluator": ("evaluator.import_ms", 1),
    "rootmean.asymptotic": ("asymptotic.import_ms", 1),
    "rootmean.exactfloor": ("exactfloor.import_ms", 1),
    "rootmean._scaled": ("scaled.import_ms", 1),
    "rootmean.cli": ("cli.import_ms", 1),
}
PER_LAYER = {
    **{metric: "ms" for metric, _ in IMPORTS.values()},
    "evaluator.choose_nu_us": "us",
    "evaluator.split_self_us": "us",
    "evaluator.split_attempts": "count/query",
    "evaluator.discarded_s": "s/query",
    "evaluator.head_terms": "count/query",
    "evaluator.oracle_ns_per_term": "ns",
    "evaluator.direct_queries": "count",
    "evaluator.bound_over_eps": "ratio",
    "evaluator.sweep_prefix_s": "s/query",
    "evaluator.sweep_table_s": "s/query",
    "evaluator.sweep_exact_fallbacks": "count",
    "scaled.nA_enc_us": "us",
    "scaled.sqrt_prefix_terms": "count",
    "exactfloor.floor_A_exact_us.d2": "us",
    "exactfloor.floor_A_exact_us.d3": "us",
    "exactfloor.floor_A_exact_us.d4": "us",
    "exactfloor.floor_via_alpha_us.d4": "us",
    "asymptotic.sqrt_enclosure_us": "us",
    "asymptotic.root_enclosure_us.int_r": "us",
    "asymptotic.root_enclosure_us.real_r": "us",
}


class RunError(Exception):
    """The run cannot produce a result."""


def _monotonic_ns() -> int:
    # CLOCK_MONOTONIC is one clock for every process on the machine
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _worker_env() -> dict:
    env = dict(os.environ)
    # one process, one thread: no BLAS thread pool behind numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(src: str, job: dict, timeout: float) -> "tuple[int, str]":
    """Start a worker, send it the job; returns (ready time ns, last line)."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"), src]
    with subprocess.Popen(
        cmd,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=_worker_env(),
    ) as proc:
        try:
            out, _ = proc.communicate(json.dumps(job), timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunError(f"worker did not finish within {timeout:.0f} s") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise RunError(f"worker exited with status {proc.returncode}")
    return int(lines[0].split()[1]), lines[-1]


def _setup_seconds(src: str, first_query: list, deadline: float) -> float:
    """Median time from spawning a fresh interpreter to its first answer."""
    samples = []
    job = {"pool": [first_query], "probe": True}
    for probe in range(SETUP_PROBES + 1):
        start = _monotonic_ns()
        ready, _ = _run_worker(src, job, deadline - time.monotonic())
        if probe:  # the first one warms the file cache and bytecode
            samples.append((ready - start) / 1e9)
    return statistics.median(samples)


def _import_ms(src: str, deadline: float) -> "dict[str, float]":
    """Per-module import cost from `python -X importtime`, median of
    IMPORT_PROBES fresh interpreters; modules that no longer exist read 0."""
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import rootmean\n"
        "try:\n    import rootmean.cli\nexcept ImportError:\n    pass\n"
    )
    cmd = [sys.executable, "-I", "-X", "importtime", "-c", code]
    samples: dict[str, list] = {metric: [] for metric, _ in IMPORTS.values()}
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            env=_worker_env(),
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if done.returncode != 0:
            raise RunError(f"import probe exited with status {done.returncode}")
        seen = {}
        for line in done.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in IMPORTS:
                metric, column = IMPORTS[parts[2]]
                seen[metric] = int(parts[column - 1]) / 1e3
        for metric in samples:
            samples[metric].append(seen.get(metric, 0.0))
    return {metric: statistics.median(v) for metric, v in samples.items()}


def _references(pool: list) -> list:
    """Per query: a reference.Ref (means, enclosures), the sampled
    floor(Sigma(n)) or None (floors), None (sweeps)."""
    floors = sorted((q[1], i) for i, q in enumerate(pool) if q[0] == "floor")
    sampled = {i for rank, (_, i) in enumerate(floors) if rank % FLOOR_SAMPLE_EVERY == 0}
    refs: list = []
    for i, q in enumerate(pool):
        kind = q[0]
        if kind == "mean":
            refs.append(reference.mean_sqrt(q[1]))
        elif kind == "enc":
            refs.append(reference.sum_roots(q[1], q[2], q[3]))
        elif kind == "floor" and i in sampled:
            refs.append(reference.floor_of_mean(q[1]))
        else:
            refs.append(None)
    return refs


def _check_answer(q: list, ans, ref) -> "str | None":
    kind = q[0]
    if kind == "mean":
        return reference.check_mean(ans[0], ans[1], q[2], ref)
    if kind == "floor":
        why = reference.check_floor(q[1], ans)
        if why is None and ref is not None and ans != ref:
            why = f"floor(Sigma(n)) is {ref}, not the floor {ans}"
        return why
    if kind == "enc":
        return reference.check_enclosure(ans[0], ans[1], ref)
    return reference.check_sweep(q[1], ans[0], ans[1])


def _check(pool: list, refs: list, result: dict) -> "list[str]":
    """Every distinct answer the worker saw, checked; returns the problems."""
    problems = []
    answers, differing, errors = result["answers"], result["differing"], result["errors"]
    for i, q in enumerate(pool):
        key = str(i)
        got = ([answers[key]] if key in answers else []) + differing.get(key, [])
        if not got and key not in errors:
            problems.append(f"query {i} has no answer")
        for ans in got:
            why = _check_answer(q, ans, refs[i])
            if why is not None:
                problems.append(f"query {i} ({q[0]}): {why}")
    for key, m in result.get("alpha_answers", {}).items():
        why = reference.check_floor(pool[int(key)][1], m)
        if why is not None:
            problems.append(f"floor_via_alpha at query {key}: {why}")
    return problems


def _bound_over_eps(pool: list, result: dict) -> float:
    ratios = [
        result["answers"][str(i)][1] / q[2]
        for i, q in enumerate(pool)
        if q[0] == "mean" and str(i) in result["answers"]
    ]
    return statistics.median(ratios) if ratios else 0.0


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    reference.self_test()
    pool = workloads.make_pool(args.workload, args.seed)
    refs = _references(pool)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup_s = None
    if not args.trace:
        setup_s = _setup_seconds(src, pool[0], deadline)
    job = {
        "pool": pool,
        "probe": False,
        "seconds": args.seconds,
        "min_queries": MIN_QUERIES,
        "trace_path": os.path.join(out_dir, f"spans-{stem}.json.gz") if args.trace else None,
    }
    _, line = _run_worker(src, job, deadline - time.monotonic())
    result = json.loads(line)
    problems = _check(pool, refs, result)
    if "latency_p50_us" not in result:
        raise RunError("fewer than two queries completed")

    if args.trace:
        values = dict(result["layers"])
        values.update(_import_ms(src, deadline))
        values["evaluator.bound_over_eps"] = _bound_over_eps(pool, result)
        metrics = _metric_block(values, PER_LAYER)
    else:
        values = {
            "setup_s": setup_s,
            "queries_per_s": result["completed"] / result["loop_s"],
            "latency_p50_us": result["latency_p50_us"],
            "latency_p90_us": result["latency_p90_us"],
            "peak_rss_mib": result["peak_rss_mib"],
        }
        metrics = _metric_block(values, END_TO_END)

    summary = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    details = {
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pool_size": len(pool),
        "rounds": result["rounds"],
        "completed": result["completed"],
        "loop_s": result["loop_s"],
        "problems": problems,
        "errors": result["errors"],
    }
    if args.trace:
        details["traced_queries_per_s"] = result["traced_queries_per_s"]
        details["absent"] = result["absent"]
        details["zero"] = sorted(k for k, v in values.items() if v == 0.0)
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        json.dump(details, fh, indent=1)
    for line in problems[:10]:
        print(f"problem: {line}", file=sys.stderr)
    for key, err in list(result["errors"].items())[:10]:
        print(f"failed query {key} ({pool[int(key)][0]}): {err}", file=sys.stderr)
    return summary


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.set_int_max_str_digits(0)
    if not os.path.isfile(os.path.join("src", "rootmean", "__init__.py")):
        print("bench: ./src/rootmean not found; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        summary = run(args)
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload's queries in a fresh interpreter: the process whose set-up,
latency and peak memory the benchmark reports.

Run as `python3 -I bench/worker.py SRC_DIR`; the job arrives as JSON on
stdin: {"pool": [...], "probe": bool, "seconds": s, "min_queries": k,
"trace_path": path or null}.  The worker imports rootmean from SRC_DIR
only, answers the pool's first query and prints "ready" with the
CLOCK_MONOTONIC time in ns.  A probe stops
there.  Otherwise it answers whole rounds of the pool in a closed loop with
one caller, for about `seconds`, and prints one JSON line with the timings
and every distinct answer, which the parent checks.  It imports nothing
beyond rootmean and the standard library, so its memory is the program's.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from array import array


def _import_rootmean(src: str):
    sys.path.insert(0, src)
    import rootmean

    where = os.path.realpath(rootmean.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"rootmean imported from {where}, not from {src}")
    return rootmean


def _calls(rootmean) -> dict:
    """Query kind -> function of the query returning a JSON-ready answer."""

    def mean(q):
        cert = rootmean.fast_mean(q[1], q[2])
        return [cert.value, cert.error_bound]

    def floor(q):
        return rootmean.floor_A_exact(q[1])

    def enc(q):
        e = rootmean.partial_sum_root_enclosure(q[1], q[2], q[3])
        return [e.lo, e.hi]

    def sweep(q):
        checked, mismatches = rootmean.sweep_theorem1(q[1])
        return [checked, [list(m) for m in mismatches]]

    return {"mean": mean, "floor": floor, "enc": enc, "sweep": sweep}


def _span_info(pool: list) -> list:
    """Per pool entry, the number a root span carries: digits of a floor's
    n, r of an enclosure."""
    out = []
    for q in pool:
        if q[0] == "floor":
            out.append(float(len(str(q[1]))))
        elif q[0] == "enc":
            out.append(float(q[3]))
        else:
            out.append(0.0)
    return out


def _loop(pool, calls, seconds, min_queries, tracer):
    size = len(pool)
    answers: list = [None] * size
    differing: dict = {}
    errors: dict = {}
    latency = array("q")
    attempted = failed = rounds = 0
    clock = time.perf_counter_ns
    start = time.perf_counter()
    while True:
        for i, q in enumerate(pool):
            call = calls[q[0]]
            if tracer is not None:
                tracer.current_query = rounds * size + i
            attempted += 1
            t0 = clock()
            try:
                out = call(q)
            except Exception as exc:  # a failed query is counted, not fatal
                failed += 1
                errors.setdefault(i, f"{type(exc).__name__}: {exc}")
                continue
            latency.append(clock() - t0)
            if answers[i] is None:
                answers[i] = out
            elif out != answers[i]:
                differing.setdefault(i, []).append(out)
        rounds += 1
        elapsed = time.perf_counter() - start
        # start another round only if it should end within the run length
        if attempted >= min_queries and elapsed * (rounds + 1) / rounds > seconds:
            break
    loop_s = time.perf_counter() - start
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "loop_s": loop_s,
        "latency": latency,
        "answers": answers,
        "differing": differing,
        "errors": errors,
    }


def _floor_via_alpha_probe(rootmean, pool) -> "tuple[float, dict]":
    """floor_via_alpha timed on the loop's floors of more than 1000 digits,
    as the reference for a faster floor: (median us, answers by pool index).
    Its answers are checked too."""
    times, answers = [], {}
    floor_via_alpha = getattr(rootmean, "floor_via_alpha", None)
    if floor_via_alpha is None:
        return 0.0, answers
    for i, q in enumerate(pool):
        if q[0] != "floor" or len(str(q[1])) <= 1000:
            continue
        runs = []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            m = floor_via_alpha(q[1])
            runs.append(time.perf_counter_ns() - t0)
        times.append(statistics.median(runs))
        answers[i] = m
    return (statistics.median(times) / 1e3 if times else 0.0), answers


def main() -> int:
    sys.set_int_max_str_digits(0)
    src = sys.argv[1]
    job = json.loads(sys.stdin.read())
    pool = job["pool"]
    rootmean = _import_rootmean(src)
    calls = _calls(rootmean)
    first = calls[pool[0][0]](pool[0])
    print("ready", time.clock_gettime_ns(time.CLOCK_MONOTONIC), flush=True)
    if job["probe"]:
        return 0

    tracer = None
    if job["trace_path"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        info = _span_info(pool)
        size = len(pool)
        calls = {
            kind: tracer.wrap(
                f"query.{kind}", fn, lambda a, out: info[tracer.current_query % size]
            )
            for kind, fn in calls.items()
        }
    run = _loop(pool, calls, job["seconds"], job["min_queries"], tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latency = run.pop("latency")
    answers = run.pop("answers")
    if answers[0] is not None and first != answers[0]:
        run["differing"].setdefault(0, []).append(first)
    result = {
        **run,
        "answers": {str(i): a for i, a in enumerate(answers) if a is not None},
        "differing": {str(i): a for i, a in run["differing"].items()},
        "errors": {str(i): e for i, e in run["errors"].items()},
        "completed": len(latency),
        "peak_rss_mib": peak_rss_mib,
    }
    if len(latency) >= 2:
        result["latency_p50_us"] = statistics.median(latency) / 1e3
        result["latency_p90_us"] = statistics.quantiles(latency, n=10)[8] / 1e3
    if tracer is not None:
        metrics = spans.layer_metrics(tracer, run["rounds"])
        result["traced_queries_per_s"] = len(latency) / run["loop_s"]
        alpha_us, alpha_answers = _floor_via_alpha_probe(rootmean, pool)
        metrics["exactfloor.floor_via_alpha_us.d4"] = alpha_us
        result["alpha_answers"] = {str(i): m for i, m in alpha_answers.items()}
        result["layers"] = metrics
        result["absent"] = tracer.absent
        tracer.write(job["trace_path"], {"rounds": run["rounds"], "pool": pool, "absent": tracer.absent})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

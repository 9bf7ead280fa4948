"""Spans around the calls into each rootmean module, recorded from outside
the package.

The tracer replaces module attributes (evaluator.choose_nu, _scaled.nA_enc,
...) with timing wrappers, so every call the package makes through those
names opens a span: (name, start, end, parent span, query id, info).  Spans
live in flat in-memory arrays and are written out once, after the timed
loop.  A wrapped name that no longer exists is recorded as absent; the
metrics that depend on it read 0 and are listed, rather than failing the run.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from array import array

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.query = array("i")
        self.info = array("d")
        self._stack: list[int] = []
        self.current_query = -1
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.current_query)
        self.info.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, name: str, fn, info=None):
        """fn wrapped in a span; info(args, result) fills the span's info."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if info is not None:
                self.info[idx] = info(args, out)
            return out

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function wrapped so each step is one span."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                t0 = _clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = _clock()
                    self._stack.pop()
                    self.start[idx] = t0
                    self.end[idx] = t1
                yield item

        return traced

    def patch(self, module, attr: str, name: str, *, info=None, generator=False) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        wrapped = self.wrap_generator(name, fn) if generator else self.wrap(name, fn, info)
        setattr(module, attr, wrapped)

    def write(self, path: str, header: dict) -> None:
        doc = dict(header)
        doc["span_names"] = self.names
        doc["spans"] = {
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "query": self.query.tolist(),
            "info": self.info.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def _split_discarded(args, out) -> float:
    return 1.0 if out.error_bound > out.plan.epsilon else 0.0


def _oracle_terms(args, out) -> float:
    return float(args[1] - args[0] + 1)  # oracle_sum_sqrt(nu, n) sums nu..n


def install(tracer: Tracer) -> None:
    """Wrap the calls between rootmean's modules that the per-layer metrics
    read.  The evaluator's own binding of floor_A_exact is wrapped, so only
    the calls the sweep's expected-floor table makes are timed under it."""
    from rootmean import _scaled, evaluator

    tracer.patch(evaluator, "choose_nu", "evaluator.choose_nu")
    tracer.patch(evaluator, "_split_mean", "evaluator._split_mean", info=_split_discarded)
    tracer.patch(evaluator, "_direct_mean", "evaluator._direct_mean")
    tracer.patch(evaluator, "oracle_sum_sqrt", "evaluator.oracle_sum_sqrt", info=_oracle_terms)
    tracer.patch(evaluator, "_expected_floor_table", "evaluator._expected_floor_table")
    tracer.patch(evaluator, "floor_A_exact", "evaluator.floor_A_exact")
    tracer.patch(evaluator, "_prefix_mean_chunks", "evaluator._prefix_mean_chunks", generator=True)
    tracer.patch(_scaled, "nA_enc", "_scaled.nA_enc")
    tracer.patch(_scaled, "sqrt_prefix", "_scaled.sqrt_prefix", info=lambda args, out: float(args[0]))
    tracer.patch(_scaled, "sum_sqrt_enc", "_scaled.sum_sqrt_enc")


def _median_us(values_ns: list) -> float:
    return statistics.median(values_ns) / 1e3 if values_ns else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics from the spans: self times, counts per pass over the
    pool, and per-query averages."""
    count = len(tracer.name)
    dur = [tracer.end[i] - tracer.start[i] for i in range(count)]
    child = [0] * count
    for i in range(count):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    self_ns = [dur[i] - child[i] for i in range(count)]
    ids = {name: [] for name in tracer.names}
    for i in range(count):
        ids[tracer.names[tracer.name[i]]].append(i)

    def spans(name):
        return ids.get(name, [])

    mean_q = len(spans("query.mean"))
    sweep_q = len(spans("query.sweep"))
    m: dict[str, float] = {}
    split = spans("evaluator._split_mean")
    oracle = spans("evaluator.oracle_sum_sqrt")
    terms = sum(tracer.info[i] for i in oracle)
    m["evaluator.choose_nu_us"] = _median_us([self_ns[i] for i in spans("evaluator.choose_nu")])
    m["evaluator.split_self_us"] = _median_us([self_ns[i] for i in split])
    m["evaluator.split_attempts"] = len(split) / mean_q if mean_q else 0.0
    discarded = sum(dur[i] for i in split if tracer.info[i])
    m["evaluator.discarded_s"] = discarded / 1e9 / mean_q if mean_q else 0.0
    m["evaluator.head_terms"] = terms / mean_q if mean_q else 0.0
    m["evaluator.oracle_ns_per_term"] = sum(self_ns[i] for i in oracle) / terms if terms else 0.0
    m["evaluator.direct_queries"] = len(spans("evaluator._direct_mean")) / passes
    prefix = sum(dur[i] for i in spans("evaluator._prefix_mean_chunks"))
    table = sum(dur[i] for i in spans("evaluator.floor_A_exact"))
    m["evaluator.sweep_prefix_s"] = prefix / 1e9 / sweep_q if sweep_q else 0.0
    m["evaluator.sweep_table_s"] = table / 1e9 / sweep_q if sweep_q else 0.0
    m["evaluator.sweep_exact_fallbacks"] = len(spans("_scaled.sum_sqrt_enc")) / passes
    m["scaled.nA_enc_us"] = _median_us([dur[i] for i in spans("_scaled.nA_enc")])
    m["scaled.sqrt_prefix_terms"] = sum(tracer.info[i] for i in spans("_scaled.sqrt_prefix")) / passes

    floors = {"d2": [], "d3": [], "d4": []}
    for i in spans("query.floor"):
        digits = tracer.info[i]
        floors["d2" if digits <= 100 else "d3" if digits <= 1000 else "d4"].append(dur[i])
    for cls, values in floors.items():
        m[f"exactfloor.floor_A_exact_us.{cls}"] = _median_us(values)
    encs = {2.0: [], 3.0: [], 2.5: []}
    for i in spans("query.enc"):
        encs.setdefault(tracer.info[i], []).append(dur[i])
    m["asymptotic.sqrt_enclosure_us"] = _median_us(encs[2.0])
    m["asymptotic.root_enclosure_us.int_r"] = _median_us(encs[3.0])
    m["asymptotic.root_enclosure_us.real_r"] = _median_us(encs[2.5])
    return m

"""Query pools for the four workloads, made from the seed alone.

Every pool is stratified: the input range is cut into equal strata (in log
scale where inputs are drawn log-uniformly) and the seed places one
query at random inside each stratum, or inside each cell of a grid of
strata for two-parameter queries.  The mix of cheap and costly queries is
then the same for every seed, while the exact inputs differ, so a
difference between seeds measures the program, not the luck of the draw.

A query is a JSON-ready list: ["mean", n, eps], ["floor", n],
["enc", nu, n, r] or ["sweep", max_n].  The first query of every pool is
the one the set-up probe answers; it comes from the cheapest stratum, so
set-up time measures import cost, not a costly draw.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("mean_loose", "mean_tight", "closed_form", "sweep")

LOOSE_GRID = (16, 16)  # (n strata, eps strata)
TIGHT_GRID = (20, 20)
CLOSED_PER_KIND = 120  # floors, and as many enclosures (40 for each r)
SWEEP_STRATA = 80
ROOTS = (2, 3, 2.5)


def _log_stratum(rng: random.Random, lo: float, hi: float, i: int, k: int) -> float:
    """A log-uniform draw from the i-th of k equal log-strata of [lo, hi]."""
    u = (i + rng.random()) / k
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _cheapest_first(rng: random.Random, pool: list, key) -> list:
    first = min(pool, key=key)
    rest = [q for q in pool if q is not first]
    rng.shuffle(rest)
    return [first] + rest


def _mean_loose(rng: random.Random) -> list:
    kn, ke = LOOSE_GRID
    pool = []
    for i in range(kn):
        for j in range(ke):
            n = int(_log_stratum(rng, 1e6, 2.0**53, i, kn))
            # eps stays 4 binary64 spacings above the readout floor of Sigma(n)
            floor_eps = max(1e-8, 4 * math.ulp((2 / 3) * math.sqrt(n)))
            pool.append(["mean", n, _log_stratum(rng, floor_eps, 1e-4, j, ke)])
    return _cheapest_first(rng, pool, key=lambda q: q[1])


def _mean_tight(rng: random.Random) -> list:
    kn, ke = TIGHT_GRID
    pool = []
    for i in range(kn):
        for j in range(ke):
            n = 1 + int((i + rng.random()) / kn * (10**6 - 1))
            pool.append(["mean", n, _log_stratum(rng, 1e-12, 1e-2, j, ke)])
    # the cheapest query splits at the minimum nu: small n, loosest eps
    return _cheapest_first(rng, pool, key=lambda q: (q[1] < 10_000, -q[2]))


def _closed_form(rng: random.Random) -> list:
    k = CLOSED_PER_KIND
    floors = []
    for i in range(k):
        digits = round(_log_stratum(rng, 12, 10_000, i, k))
        floors.append(["floor", rng.randrange(10 ** (digits - 1), 10**digits)])
    encs = []
    for i in range(k):
        n = int(_log_stratum(rng, 1e3, 2.0**53, i, k))
        # nu log-uniform below n, its stratum decoupled from n's
        nu = int(_log_stratum(rng, 1, n - 1, (i * 37) % k, k))
        encs.append(["enc", max(1, min(nu, n - 1)), n, ROOTS[i % len(ROOTS)]])
    floors = _cheapest_first(rng, floors, key=lambda q: q[1])
    rng.shuffle(encs)
    return [q for pair in zip(floors, encs) for q in pair]


def _sweep(rng: random.Random) -> list:
    k = SWEEP_STRATA
    pool = [["sweep", int(_log_stratum(rng, 2**14, 2**21, i, k))] for i in range(k)]
    return _cheapest_first(rng, pool, key=lambda q: q[1])


def make_pool(workload: str, seed: int) -> list:
    """The query pool of one workload; the same seed gives the same pool."""
    rng = random.Random(f"{workload}:{seed}")
    return {
        "mean_loose": _mean_loose,
        "mean_tight": _mean_tight,
        "closed_form": _closed_form,
        "sweep": _sweep,
    }[workload](rng)

"""End-to-end checks of the package's headline guarantees.

Each test exercises one deliverable at full advertised scale and prints a
single summary line on success, so a verbose run reads as a checklist:

1. the reference mean certificate at n = 10^7,
2. the exact-floor identity swept against the oracle over n in [1, 10^6],
3. agreement of both integer floor methods far beyond float range,
4. containment of the scaled remainder between its elementary bounds,
5. consistency of the general r-th-root enclosures (r = 1, 2, 3),
6. the closed-form envelope and the floor-step thresholds,
7. the tolerance contract of fast_mean against independent oracles.

All randomness is seeded; every tolerance is an explicit literal.
"""

import math
import random
import time

import mpmath as mp
import numpy as np

from rootmean import _scaled
from rootmean.asymptotic import (
    eval_A,
    lemma2_lower,
    lemma2_upper,
    partial_sum_root_enclosure,
    partial_sum_sqrt_enclosure,
)
from rootmean.evaluator import (
    _oracle_mean_many,
    fast_mean,
    oracle_mean,
    sweep_theorem1,
)
from rootmean.exactfloor import alpha_floor, floor_A_exact, floor_via_alpha


def _report(line: str) -> None:
    print(line, flush=True)


class TestAcceptance:
    def test_1_reference_mean_certificate(self):
        n = 10_000_000
        t0 = time.perf_counter()
        oracle = oracle_mean(n)
        oracle_elapsed = time.perf_counter() - t0

        cert = fast_mean(n, 1e-9)
        assert cert.decimal_value == "2108.185264872015"
        assert cert.error_bound <= 3e-12

        measured = abs(cert.value - oracle.midpoint())
        assert measured <= cert.error_bound
        assert oracle_elapsed < 10.0

        _report(
            "[PASS] 1 reference certificate: value=%s bound=%.4e "
            "measured=%.4e oracle=%.2fs"
            % (cert.decimal_value, cert.error_bound, measured, oracle_elapsed)
        )

    def test_2_floor_identity_sweep(self):
        t0 = time.perf_counter()
        checked, mismatches = sweep_theorem1(1_000_000)
        elapsed = time.perf_counter() - t0

        assert checked == 1_000_000
        assert mismatches == []
        assert elapsed < 60.0

        _report(
            "[PASS] 2 floor identity sweep: %d values, 0 mismatches, %.2fs"
            % (checked, elapsed)
        )

    def test_3_cross_method_floor_agreement(self):
        rng = random.Random(1030)
        trials = 100_000
        for _ in range(trials):
            # stratify by magnitude so small and 30-digit inputs both occur
            exponent = rng.randrange(0, 30)
            n = rng.randrange(10 ** exponent, 10 ** (exponent + 1))
            assert floor_A_exact(n) == floor_via_alpha(n), n
        assert floor_A_exact(10 ** 30) == floor_via_alpha(10 ** 30)

        _report(
            "[PASS] 3 cross-method floors: %d random n up to 10^30 agree"
            % trials
        )

    def test_4_remainder_containment(self):
        rng = random.Random(41)
        limit = 100_000
        half3 = 3 * _scaled.ONE // 2
        pairs = 1_000
        for _ in range(pairs):
            nu = rng.randrange(1, limit)
            n = rng.randrange(nu + 1, limit + 1)
            d_lo, d_hi = _scaled.delta_enc(nu, n)
            _, inner_hi = _scaled.sigma_enc(nu + 2, n + 2)
            outer_lo, _ = _scaled.sigma_enc(nu, n)
            # strict containment, decided in exact scaled integers
            assert inner_hi < d_lo, (nu, n)
            assert d_hi < outer_lo, (nu, n)
            _, d1_hi = _scaled.delta_enc(1, n)
            assert d1_hi < half3, n

        _report(
            "[PASS] 4 remainder containment: %d pairs strictly bracketed, "
            "delta(1, n) < 3/2 at every sampled n" % pairs
        )

    def test_5_general_root_consistency(self):
        rng = random.Random(52)

        linear = 0
        for _ in range(100):
            nu = rng.randrange(1, 500_000)
            n = rng.randrange(nu + 1, 1_000_001)
            enc = partial_sum_root_enclosure(nu, n, 1)
            expected = n * (n + 1) // 2 - nu * (nu - 1) // 2
            assert enc.lo == enc.hi == float(expected), (nu, n)
            linear += 1

        matched = 0
        for _ in range(200):
            nu = rng.randrange(1, 500_000)
            n = rng.randrange(nu + 1, 1_000_001)
            via_root = partial_sum_root_enclosure(nu, n, 2)
            via_sqrt = partial_sum_sqrt_enclosure(nu, n)
            assert via_root.lo == via_sqrt.lo, (nu, n)
            assert via_root.hi == via_sqrt.hi, (nu, n)
            matched += 1

        cubic = 0
        with mp.workdps(60):
            for _ in range(100):
                nu = rng.randrange(1, 3_000)
                n = nu + rng.randrange(1, 1_500)
                enc = partial_sum_root_enclosure(nu, n, 3)
                truth = mp.fsum(mp.cbrt(k) for k in range(nu, n + 1))
                assert mp.mpf(enc.lo) <= truth <= mp.mpf(enc.hi), (nu, n)
                cubic += 1

        _report(
            "[PASS] 5 general roots: %d exact r=1 ranges, %d identical r=2 "
            "enclosures, %d r=3 oracle sums contained"
            % (linear, matched, cubic)
        )

    def test_6_envelope_and_thresholds(self):
        grid = np.geomspace(2.0, 1e12, 10_000)
        lower_checked = 0
        for x in grid:
            x = float(x)
            assert eval_A(x) < lemma2_upper(x), x
            if x >= 6.0:
                assert eval_A(x) > lemma2_lower(x), x
                lower_checked += 1
        assert eval_A(2.0) < lemma2_upper(2.0)
        assert eval_A(6.0) > lemma2_lower(6.0)

        for m in range(1, 1_001):
            n = alpha_floor(m)
            assert floor_A_exact(n) == m, m
            assert floor_A_exact(n + 1) == m + 1, m
            # float margins here are ~1/(9(m+1)) >= 1e-4, far above rounding
            assert eval_A(n) < m + 1, m
            assert eval_A(n + 1) > m + 1, m

        _report(
            "[PASS] 6 envelope and thresholds: %d grid points "
            "(%d with lower bound), floor steps verified for m <= 1000"
            % (grid.size, lower_checked)
        )

    def test_7_tolerance_contract(self):
        rng = random.Random(7)
        trials = 1_000
        cases = []
        for _ in range(trials):
            n = rng.randrange(1, 1_000_001)
            eps = 10.0 ** rng.uniform(-12.0, -2.0)
            cases.append((n, eps))

        certificates = {}
        for n, eps in cases:
            cert = fast_mean(n, eps)
            assert cert.error_bound <= eps, (n, eps)
            certificates[(n, eps)] = cert

        oracles = _oracle_mean_many(sorted({n for n, _ in cases}))
        for (n, eps), cert in certificates.items():
            enc = oracles[n]
            # one outward step absorbs the rounding of value -+ bound
            lo = math.nextafter(cert.value - cert.error_bound, -math.inf)
            hi = math.nextafter(cert.value + cert.error_bound, math.inf)
            assert lo <= enc.hi, (n, eps)
            assert hi >= enc.lo, (n, eps)

        _report(
            "[PASS] 7 tolerance contract: %d random (n, eps) certified "
            "within tolerance and consistent with oracles" % trials
        )

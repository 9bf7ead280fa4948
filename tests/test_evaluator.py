"""Evaluator: oracle rigor, split-point policy, certified means, and the
floor sweep machinery."""

import math
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmean import _scaled
from rootmean.evaluator import (
    _CHUNK,
    EvalPlan,
    _certify,
    _direct_floor,
    _direct_mean,
    _oracle_mean_many,
    _expected_floor_table,
    _readout_ulps,
    _split_mean,
    choose_nu,
    fast_mean,
    mean_decomposition_check,
    oracle_mean,
    oracle_sum_sqrt,
    sweep_theorem1,
)
from rootmean.exactfloor import floor_A_exact


def mp_sqrt_sum(a: int, b: int) -> mp.mpf:
    with mp.workdps(60):
        return mp.fsum(mp.sqrt(k) for k in range(a, b + 1))


class TestOracleSum:
    def test_contains_mp_truth_small(self):
        for nu, n in [(1, 1), (1, 100), (3, 3), (17, 2500), (999, 1000)]:
            enc = oracle_sum_sqrt(nu, n)
            truth = mp_sqrt_sum(nu, n)
            assert mp.mpf(enc.lo) <= truth <= mp.mpf(enc.hi), (nu, n)

    def test_width_stays_tight(self):
        enc = oracle_sum_sqrt(1, 100)
        assert enc.contains(671.4629471031477)
        assert enc.width() < 1e-11

    def test_chunk_boundary_consistent(self):
        # spanning two chunks must agree with the sum of the parts
        n = _CHUNK + 1000
        whole = oracle_sum_sqrt(1, n)
        left = oracle_sum_sqrt(1, _CHUNK)
        right = oracle_sum_sqrt(_CHUNK + 1, n)
        lo = left.lo + right.lo
        hi = left.hi + right.hi
        assert whole.lo <= hi and lo <= whole.hi  # intervals overlap
        # a handful of ulps of the ~7e8 total
        assert whole.width() < 16 * math.ulp(whole.hi)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            oracle_sum_sqrt(1, 1000, cap=999)
        assert oracle_sum_sqrt(1, 1000, cap=1000).lo > 0

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("ROOTMEAN_ORACLE_CAP", "50")
        with pytest.raises(ValueError, match="cap"):
            oracle_sum_sqrt(1, 51)
        # an explicit argument beats the environment
        assert oracle_sum_sqrt(1, 51, cap=100).lo > 0

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            oracle_sum_sqrt(5, 4)
        with pytest.raises(ValueError):
            oracle_sum_sqrt(0, 4)
        with pytest.raises(TypeError):
            oracle_sum_sqrt(1.0, 4)
        with pytest.raises(ValueError, match="floor_A_exact"):
            oracle_sum_sqrt(1, 2 ** 53 + 2)


class TestOracleMean:
    @pytest.mark.parametrize(
        "n,frozen",
        [
            (3, 1.3820881233139908),
            (5, 1.6764664694883524),
            (8, 2.038250065754465),
        ],
    )
    def test_contains_truth_and_reproduces(self, n, frozen):
        enc = oracle_mean(n)
        truth = mp_sqrt_sum(1, n) / n
        assert mp.mpf(enc.lo) <= truth <= mp.mpf(enc.hi)
        assert enc.contains(frozen)
        again = oracle_mean(n)
        assert (again.lo, again.hi) == (enc.lo, enc.hi)  # deterministic

    def test_mean_of_one(self):
        enc = oracle_mean(1)
        assert enc.contains(1.0)
        assert enc.width() < 8 * math.ulp(1.0)


class TestChooseNu:
    def test_frozen_plans(self):
        splits = [
            (10 ** 7, 4.2e-10, 16),  # clamped to the floor value
            (10 ** 7, 1.0, 16),  # clamped to the floor value
            (10 ** 6, 1e-12, 1303),
            (10 ** 7, 1e-12, 388),
        ]
        for n, epsilon, nu in splits:
            p = choose_nu(n, epsilon)
            assert (p.method, p.nu) == ("split", nu)
            r = fast_mean(n, epsilon)
            assert r.plan == p
            assert r.error_bound <= epsilon
        p = choose_nu(10, 1e-15)
        assert p.method == "direct"
        # direct summation of ten terms reaches 2.0e-15, not 1e-15
        with pytest.raises(ValueError, match="cannot certify.*achieved bound"):
            fast_mean(10, 1e-15)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=10 ** 4, max_value=2 ** 53),
        st.sampled_from(["log", "ulps_of_value", "ulps_of_epsilon"]),
        st.floats(min_value=-15.0, max_value=0.0),
        st.integers(min_value=0, max_value=4),
    )
    def test_split_plan_meets_epsilon_first_try(self, n, kind, log_eps, k):
        # the plan's budget is proven: a split it selects never misses, so
        # fast_mean needs no second attempt.  Near the readout floor F the
        # room left for the remainder is k ulp(value) or k ulp(epsilon)
        floor = _readout_ulps(n, 1e-300)[0]
        if kind == "log":
            epsilon = 10.0 ** log_eps
        elif kind == "ulps_of_value":
            epsilon = floor * (1 + k)
        else:
            epsilon = floor + k * math.ulp(floor)
        plan = choose_nu(n, epsilon)
        if plan.method == "split":
            r = _split_mean(plan, None)
            assert r.error_bound <= epsilon
            assert r.budget.readout <= _readout_ulps(n, epsilon)[1]

    def test_direct_below_threshold(self):
        assert choose_nu(9999, 1e-9).method == "direct"
        assert choose_nu(10 ** 4, 1e-9).method == "split"

    def test_formula_beyond_n_minus_two_goes_direct(self):
        p = choose_nu(10 ** 4, 1e-15)
        assert p.method == "direct"

    @settings(max_examples=100)
    @given(
        st.integers(min_value=1, max_value=10 ** 9),
        st.floats(min_value=1e-14, max_value=1.0, allow_nan=False),
    )
    def test_plan_always_valid(self, n, epsilon):
        plan = choose_nu(n, epsilon)
        assert plan.n == n and plan.epsilon == epsilon
        if plan.method == "split":
            assert 1 <= plan.nu <= n - 2
        else:
            assert plan.nu == n

    def test_rejects_bad_epsilon(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                choose_nu(100, bad)

    def test_rejects_beyond_exact_range(self):
        with pytest.raises(ValueError, match="floor_A_exact"):
            choose_nu(2 ** 53 + 2, 1e-9)


class TestEvalPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvalPlan(100, 1e-9, 99, "split")  # nu > n - 2
        with pytest.raises(ValueError):
            EvalPlan(100, 1e-9, 0, "direct")
        with pytest.raises(ValueError):
            EvalPlan(100, 1e-9, 50, "other")
        plan = EvalPlan(100, 1e-9, 98, "split")
        assert plan.nu == 98


class TestCertify:
    @settings(max_examples=300)
    @given(
        st.integers(min_value=1, max_value=2 ** 200),
        st.integers(min_value=0, max_value=2 ** 120),
        st.integers(min_value=0, max_value=2 ** 120),
        st.integers(min_value=1, max_value=2 ** 160),
    )
    def test_integer_readout_matches_rationals(self, lo, rest, head, den):
        plan = EvalPlan(10, 1.0, 10, "direct")
        hi = lo + rest + head
        r = _certify(lo, hi, den, plan, head)
        mid = Fraction(lo + hi, 2 * den)
        # value is the correctly rounded midpoint: no neighbour is closer
        gap = abs(Fraction(r.value) - mid)
        for step in (-math.inf, math.inf):
            assert gap <= abs(Fraction(math.nextafter(r.value, step)) - mid)
        # each budget part is the smallest binary64 >= its exact share
        b = r.budget
        assert b.readout == math.ulp(r.value)
        for part, exact in ((b.remainder, Fraction(rest, 2 * den)), (b.head, Fraction(head, 2 * den))):
            assert Fraction(part) >= exact
            assert part == 0.0 or Fraction(math.nextafter(part, -math.inf)) < exact
        # error_bound is the smallest binary64 >= the parts' exact sum, so it
        # covers the exact half-width plus the readout ulp
        parts = Fraction(b.remainder) + Fraction(b.head) + Fraction(b.readout)
        assert Fraction(r.error_bound) >= parts
        assert Fraction(math.nextafter(r.error_bound, -math.inf)) < parts
        assert Fraction(r.error_bound) >= Fraction(hi - lo, 2 * den) + Fraction(b.readout)
        assert float(r.decimal_value) == r.value
        assert (r.method, r.plan) == ("direct", plan)


class TestFastMean:
    def test_reference_split_certificate(self):
        r = fast_mean(10 ** 7, 1e-9, nu=100)
        assert r.decimal_value == "2108.185264872015"
        assert float(r.decimal_value) == r.value
        assert r.error_bound <= 3e-12
        assert r.method == "split" and r.plan.nu == 100
        mid = oracle_mean(10 ** 7).midpoint()
        assert r.value - r.error_bound <= mid <= r.value + r.error_bound

    def test_sigma_tilde_reference(self):
        # Sigma~ itself, from the scaled A-terms and the head sum at nu=100,
        # sits 4.1e-10 above the mean; the remainder bracket moves the
        # certificate's value off it and onto Sigma(n)
        n, nu = 10 ** 7, 100
        head = oracle_sum_sqrt(1, nu)
        scale = lambda x: int(math.ldexp(x, _scaled.BITS))
        lo = _scaled.nA_enc(n)[0] + scale(head.lo) - _scaled.nA_enc(nu)[1]
        hi = _scaled.nA_enc(n)[1] + scale(head.hi) - _scaled.nA_enc(nu)[0]
        tilde = (lo + hi) / (2 * n * _scaled.ONE)
        assert tilde == 2108.1852648724285
        mid = oracle_mean(n).midpoint()
        assert 4.05e-10 <= tilde - mid <= 4.22e-10
        r = fast_mean(n, 1e-9, nu=nu)
        assert tilde - r.value > r.error_bound

    def test_direct_small(self):
        r = fast_mean(5, 1e-12)
        assert r.method == "direct"
        assert r.value == 1.6764664694883524
        assert r.error_bound <= 1e-12

    def test_forced_nu_must_be_small_enough(self):
        with pytest.raises(ValueError, match="nu"):
            fast_mean(10, 0.5, nu=9)

    def test_forced_nu_that_cannot_certify_raises(self):
        with pytest.raises(ValueError, match="cannot certify"):
            fast_mean(10 ** 6, 1e-14, nu=16)

    @pytest.mark.parametrize(
        "n,epsilon",
        [
            (10 ** 15, 1e-9),
            (10 ** 9, 1e-12),
            (10 ** 12, 8e-11),
            (10 ** 7, 2.5e-13),
            (10 ** 6, 1.1368683772161605e-13),
            (10 ** 12, 1.1641532182693484e-10),
        ],
    )
    def test_below_readout_floor_fails_fast(self, n, epsilon):
        # epsilon under ulp(value) can never be met, since every certificate
        # is charged that ulp; the refusal must come before any summation
        # (seconds of summation before the check existed).  (10**12, 8e-11)
        # and (10**7, 2.5e-13) lie between half an ulp and one ulp of
        # Sigma(n).  The last two sit one ulp above the readout charge, where
        # no split fits and direct summation, charged that ulp plus the
        # oracle's half-width, cannot meet them either: they used to sum
        # 10**6 terms, or reach the oracle cap, before failing
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cannot certify.*readout floor"):
            fast_mean(n, epsilon)
        assert time.perf_counter() - start < 0.01

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=200_000))
    def test_direct_floor_is_below_every_direct_certificate(self, n):
        # the fail-fast refusal of direct plans must never refuse a request
        # that direct summation could meet
        r = _direct_mean(EvalPlan(n, 1.0, n, "direct"), None)
        floor = _readout_ulps(n, r.error_bound)[0]
        assert r.error_bound > _direct_floor(n, floor)

    @pytest.mark.parametrize("n", [10 ** 6, 10 ** 7])
    def test_one_split_reaches_tight_tolerance(self, n):
        # 1e-12 is about 9 and 2 ulp of Sigma(n) here; the two-sided
        # remainder bracket lets one planned split land it with a short
        # head, where the one-sided tail needed nu near n (10**6) or could
        # not certify at all (10**7)
        start = time.perf_counter()
        r = fast_mean(n, 1e-12)
        assert r.error_bound <= 1e-12
        assert r.method in ("split", "direct")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [5, 100, 3000])
    def test_forced_nu_extremes_contain_truth(self, n):
        # both sides of the remainder bracket at the shortest and the
        # longest heads
        truth = mp_sqrt_sum(1, n) / n
        for nu in sorted({1, 2, n - 3, n - 2}):
            r = fast_mean(n, 1e-2, nu=nu)
            assert r.method == "split" and r.plan.nu == nu
            assert abs(mp.mpf(r.value) - truth) <= mp.mpf(r.error_bound), nu

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30_000),
        st.floats(min_value=1e-12, max_value=1e-2, allow_nan=False),
    )
    def test_certificate_is_true_sampled(self, n, epsilon):
        r = fast_mean(n, epsilon)
        assert r.error_bound <= epsilon
        truth = mp_sqrt_sum(1, n) / n if n <= 3000 else None
        enc = oracle_mean(n)
        # the certified interval must reach the oracle interval (a violation
        # would prove |value - truth| > error_bound)
        assert r.value - r.error_bound <= enc.hi
        assert r.value + r.error_bound >= enc.lo
        if truth is not None:
            assert abs(mp.mpf(r.value) - truth) <= mp.mpf(r.error_bound)

    def test_decimal_value_round_trips(self):
        # decimal_value renders the certified midpoint's own digits; it must
        # parse back to the binary64 payload exactly (it may need one digit
        # more than repr(value), never more than 17 significant)
        for n, eps in [(1, 0.5), (2, 0.5), (100, 1e-9), (10 ** 5, 1e-8), (10 ** 6, 1e-7)]:
            r = fast_mean(n, eps)
            assert float(r.decimal_value) == r.value
            digits = sum(c.isdigit() for c in r.decimal_value)
            assert digits <= 17
            assert r.method == r.plan.method

    def test_split_and_direct_agree(self):
        split = fast_mean(10 ** 5, 1e-9)
        direct = _direct_mean(EvalPlan(10 ** 5, 1e-9, 10 ** 5, "direct"), None)
        assert direct.method == "direct"
        assert abs(split.value - direct.value) <= split.error_bound + direct.error_bound

    def test_cap_propagates(self):
        with pytest.raises(ValueError, match="cap"):
            fast_mean(10 ** 5, 1e-9, cap=10)

    def test_tiny_n(self):
        r = fast_mean(1, 0.5)
        assert abs(r.value - 1.0) <= r.error_bound
        r = fast_mean(2, 0.5)
        assert abs(r.value - (1.0 + math.sqrt(2.0)) / 2.0) <= r.error_bound

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fast_mean(0, 1e-9)
        with pytest.raises(ValueError):
            fast_mean(100, 0.0)
        with pytest.raises(ValueError, match="floor"):
            fast_mean(2 ** 53 + 2, 1e-9)
        with pytest.raises(TypeError):
            fast_mean(100.0, 1e-9)
        with pytest.raises(TypeError):
            fast_mean(True, 0.5)


class TestMeanDecomposition:
    def test_frozen_recovery(self):
        delta, bounds = mean_decomposition_check(100)
        assert delta == 0.8897658023592214
        assert bounds.lower < delta < bounds.upper

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=200_000))
    def test_containment_everywhere(self, n):
        delta, bounds = mean_decomposition_check(n)
        assert bounds.lower < delta < bounds.upper
        assert delta < 1.5

    def test_needs_two_terms(self):
        with pytest.raises(ValueError):
            mean_decomposition_check(1)


class TestSweep:
    def test_expected_table_matches_exact_floor(self):
        table = _expected_floor_table(5000)
        for n in range(1, 5001):
            assert table[n] == floor_A_exact(n)

    def test_clean_small(self):
        assert sweep_theorem1(10 ** 4) == (10 ** 4, [])

    def test_single_point_is_exact_integer(self):
        # the mean at n=1 is exactly 1: binary64 cannot decide the floor
        # there, so the exact scaled path must take over
        assert sweep_theorem1(1) == (1, [])
        assert sweep_theorem1(2) == (2, [])

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            sweep_theorem1(100, cap=10)


class TestOracleMeanMany:
    def test_matches_single_queries(self):
        marks = [1, 5, 100, 3000]
        many = _oracle_mean_many(marks)
        for n in marks:
            truth = mp_sqrt_sum(1, n) / n
            enc = many[n]
            assert mp.mpf(enc.lo) <= truth <= mp.mpf(enc.hi)
            single = oracle_mean(n)
            assert enc.lo <= single.hi and single.lo <= enc.hi
        with pytest.raises(TypeError):
            _oracle_mean_many([2.5, 3.9])  # refused, not truncated to 2 and 3

    def test_chunk_crossing_marks(self):
        marks = [_CHUNK - 1, _CHUNK, _CHUNK + 1]
        many = _oracle_mean_many(marks)
        base = oracle_mean(_CHUNK)
        assert many[_CHUNK].lo <= base.hi and base.lo <= many[_CHUNK].hi
        assert set(many) == set(marks)

    def test_empty(self):
        assert _oracle_mean_many([]) == {}

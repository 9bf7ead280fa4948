"""Evaluator: oracle rigor, the fixed head and Euler-Maclaurin closure of
fast_mean, certified means, the paper's split route, and the floor sweep
machinery."""

import bisect
import decimal
import functools
import inspect
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import chain

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmean import _scaled, evaluator
from rootmean.asymptotic import _round_up, delta_bounds, partial_sum_sqrt_enclosure
from rootmean.evaluator import (
    _CHUNK,
    _LIMB,
    _MAX_TERMS,
    _RUN,
    _WINDOW,
    ErrorBudget,
    _certify,
    _check_blocks,
    _exact_runs,
    _floor_blocks,
    _oracle_brackets,
    _oracle_mean_many,
    _oracle_pass,
    fast_mean,
    oracle_mean,
    oracle_sum_sqrt,
    sweep_theorem1,
)
from rootmean.exactfloor import alpha_floor, floor_A_exact


def mp_sqrt_sum(a: int, b: int) -> mp.mpf:
    with mp.workdps(60):
        return mp.fsum(mp.sqrt(k) for k in range(a, b + 1))


def mp_dps(n: int) -> int:
    """Working digits that keep 60 digits after the point of Sigma(n), whose
    integer part has at most half as many digits as n."""
    return 60 + len(str(n))


@functools.lru_cache(maxsize=1)
def _mp_prefix() -> "list[mp.mpf]":
    """sum_{k=1}^{j} sqrt(k) for every j <= 3000, summed directly at 70
    digits, which keeps more than 60 after the point."""
    with mp.workdps(70):
        out = [mp.mpf(0)]
        for k in range(1, 3001):
            out.append(out[-1] + mp.sqrt(k))
    return out


@functools.lru_cache(maxsize=None)
def _mp_zeta(dps: int) -> mp.mpf:
    with mp.workdps(dps):
        return mp.zeta(-0.5)


@functools.lru_cache(maxsize=None)
def mp_mean(n: int) -> mp.mpf:
    """Sigma(n) to 60 digits after the point: summed directly up to 3000,
    else zeta(-1/2) plus twelve Euler-Maclaurin terms of sum sqrt(k) at n,
    all in mpmath (the first omitted term is below 1e-80 for n > 3000)."""
    if n <= 3000:
        with mp.workdps(60):
            return _mp_prefix()[n] / n
    with mp.workdps(mp_dps(n)):
        x = mp.mpf(n)
        root = mp.sqrt(x)
        total = _mp_zeta(mp_dps(n)) + 2 * x * root / 3 + root / 2
        fall = mp.mpf(1) / 2  # (1/2)(-1/2)...(1/2-2j+2)
        for j in range(1, 13):
            total += mp.bernoulli(2 * j) / mp.factorial(2 * j) * fall * root / x ** (2 * j - 1)
            fall *= (mp.mpf(1) / 2 - (2 * j - 1)) * (mp.mpf(1) / 2 - 2 * j)
        return total / n


@pytest.fixture
def calls(monkeypatch):
    """Counts the integer brackets fast_mean reads (_scaled.partial_sum_enc)
    and the calls it makes into any summation, the oracle's entry points.
    A summation call also raises."""
    counts = {"bracket": 0, "summation": 0}

    def bracket(n, real=_scaled.partial_sum_enc):
        counts["bracket"] += 1
        return real(n)

    def summation(*args, **kwargs):
        counts["summation"] += 1
        raise AssertionError("fast_mean reached a summation")

    monkeypatch.setattr(_scaled, "partial_sum_enc", bracket)
    for name in ("oracle_sum_sqrt", "oracle_mean", "_oracle_mean_many", "_oracle_pass"):
        monkeypatch.setattr(evaluator, name, summation)
    return counts


@pytest.fixture
def passes(monkeypatch):
    """The number of terms of each oracle pass, in order."""
    terms = []

    def counted(nu, marks, real=evaluator._oracle_pass):
        terms.append(marks[-1] - nu + 1)
        return real(nu, marks)

    monkeypatch.setattr(evaluator, "_oracle_pass", counted)
    return terms


def pass_totals(out) -> "list[int]":
    """The exact totals high 2**_LIMB + low of an _oracle_pass result."""
    high, low, _ = out.tolist()
    return [(h << _LIMB) + l for h, l in zip(high, low)]


def pass_of(totals, charges) -> np.ndarray:
    """The _oracle_pass result holding these totals and charges."""
    low = (1 << _LIMB) - 1
    return np.array(
        [[t >> _LIMB for t in totals], [t & low for t in totals], charges], dtype=np.int64
    )


def counted_fast_mean(calls, n, epsilon, brackets=1):
    """fast_mean(n, epsilon), asserting that the call, returning or raising,
    read exactly `brackets` integer brackets and summed nothing."""
    calls.update(bracket=0, summation=0)
    try:
        return fast_mean(n, epsilon)
    finally:
        assert calls == {"bracket": brackets, "summation": 0}, (n, epsilon)


def contains_truth(r, n: int) -> bool:
    with mp.workdps(mp_dps(n)):
        return abs(mp.mpf(r.value) - mp_mean(n)) <= mp.mpf(r.error_bound)


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

    def test_refuses_more_than_max_terms(self, passes):
        # more than 10**8 terms are refused before the pass starts; a short
        # range up to 2**53 still answers
        with pytest.raises(ValueError, match=r"10\*\*8 terms: `rootmean mean`"):
            oracle_sum_sqrt(1, _MAX_TERMS + 1)
        assert passes == []
        enc = oracle_sum_sqrt(2 ** 53 - 9, 2 ** 53)
        assert passes == [10]
        assert mp.mpf(enc.lo) <= mp_sqrt_sum(2 ** 53 - 9, 2 ** 53) <= mp.mpf(enc.hi)

    @pytest.mark.parametrize("fn", [oracle_sum_sqrt, oracle_mean, sweep_theorem1])
    def test_no_summing_function_takes_a_cap(self, fn):
        # the limit is fixed: no keyword raises it
        assert "cap" not in inspect.signature(fn).parameters

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            oracle_sum_sqrt(5, 4)
        with pytest.raises(ValueError):
            oracle_sum_sqrt(0, 4)
        with pytest.raises(TypeError):
            oracle_sum_sqrt(1.0, 4)
        # past 2**53 the refusal names the command that takes any n
        with pytest.raises(
            ValueError, match=r"2\*\*53.*`rootmean mean` takes any n below 2\*\*2046"
        ):
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
        with mp.workdps(60):
            truth = mp_sqrt_sum(1, n) / n
        assert mp.mpf(enc.lo) <= truth <= mp.mpf(enc.hi)
        assert enc.contains(frozen)
        again = oracle_mean(n)
        assert (again.lo, again.hi) == (enc.lo, enc.hi)  # deterministic

    def test_mean_of_one(self):
        enc = oracle_mean(1)
        assert enc.contains(1.0)
        assert enc.width() < 8 * math.ulp(1.0)


class TestFixedPlan:
    """The split point is no longer chosen: terms 1..63 are summed exactly
    and everything from a = 64 on is closed by one Euler-Maclaurin formula,
    whatever epsilon asks for."""

    def test_frozen_plans(self):
        for n, epsilon in [(10 ** 7, 4.2e-10), (10 ** 7, 1.0), (10 ** 6, 1e-12), (10 ** 7, 1e-12)]:
            r = fast_mean(n, epsilon)
            assert r.method == "euler-maclaurin"
            assert r.error_bound <= epsilon
            # 63 units of 2**-96 from the head, over 2 n
            assert r.budget.head == pytest.approx(31.5 * 2.0 ** -96 / n, rel=1e-15)
        # ten terms are summed exactly, so 1e-15 certifies at little more
        # than the exact readout error |value - midpoint|, half of
        # ulp(value) = 4.4e-16 here (direct summation reached 2.0e-15)
        r = fast_mean(10, 1e-15)
        assert r.method == "exact-sum"
        assert r.error_bound == 2.0445843941992263e-16
        assert r.budget.readout <= math.ulp(r.value) / 2
        assert contains_truth(r, 10)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=10 ** 4, max_value=2 ** 53),
        st.sampled_from(["log", "ulps_of_value", "ulps_of_epsilon"]),
        st.floats(min_value=-15.0, max_value=0.0),
        st.integers(min_value=0, max_value=4),
    )
    def test_split_plan_meets_epsilon_first_try(self, n, kind, log_eps, k):
        # one evaluation decides: fast_mean(n, epsilon) certifies exactly
        # when epsilon reaches the achieved bound B, and then returns the
        # same certificate.  Near B the room is k multiples of B or k
        # ulp(B), down to one ulp below it
        best = fast_mean(n, 1e300)
        bound = best.error_bound
        if kind == "log":
            epsilon = 10.0 ** log_eps
        elif kind == "ulps_of_value":
            epsilon = bound * (1 + k)
        else:
            epsilon = bound + (k - 1) * math.ulp(bound)
        if epsilon < bound:
            with pytest.raises(ValueError, match="cannot certify.*achieved bound"):
                fast_mean(n, epsilon)
            return
        assert fast_mean(n, epsilon) == best
        assert best.budget.readout <= math.ulp(best.value) / 2

    def test_direct_below_threshold(self):
        # the exact head ends at 63; the old direct threshold was 10**4
        assert fast_mean(63, 1e-9).method == "exact-sum"
        assert fast_mean(64, 1e-9).method == "euler-maclaurin"
        assert fast_mean(9999, 1e-9).method == "euler-maclaurin"

    def test_formula_beyond_n_minus_two_goes_direct(self):
        # (10**4, 3e-14) needed a split beyond n - 2, so all 10**4 terms
        # were summed; now the same fixed head answers it
        r = fast_mean(10 ** 4, 3e-14)
        assert r.method == "euler-maclaurin"
        assert r.error_bound <= 3e-14
        assert r.budget.head == pytest.approx(31.5 * 2.0 ** -96 / 10 ** 4, rel=1e-15)

    @settings(max_examples=100)
    @given(
        st.integers(min_value=1, max_value=10 ** 9),
        st.floats(min_value=1e-14, max_value=1.0, allow_nan=False),
    )
    def test_plan_always_valid(self, n, epsilon):
        # either a certificate that meets epsilon, by the method n selects,
        # or a refusal of an epsilon below the achieved bound
        try:
            r = fast_mean(n, epsilon)
        except ValueError as exc:
            assert "cannot certify" in str(exc)
            assert epsilon < fast_mean(n, 1e300).error_bound
            return
        assert r.error_bound <= epsilon
        assert r.method == ("exact-sum" if n < 64 else "euler-maclaurin")

    def test_rejects_bad_epsilon(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                fast_mean(100, bad)
        # float() would parse the text and read a bool as 0 or 1
        for bad in ("1e-3", b"1e-3", bytearray(b"1e-3"), True):
            with pytest.raises(TypeError, match="epsilon must be a real number"):
                fast_mean(100, bad)

    def test_rejects_beyond_exact_range(self, calls):
        # n from 2**2046 on, where value could overflow, is refused before
        # the bracket, which takes about 1 ms at n = 2**2045 and most of a
        # second at 2**100000: no bracket is read
        for n in (2 ** 2046, 2 ** 5000, 2 ** 100_000):
            with pytest.raises(ValueError, match=r"2\*\*2046.*floor_A_exact"):
                counted_fast_mean(calls, n, 1.0, brackets=0)


class TestCertify:
    @settings(max_examples=300)
    @given(
        st.integers(min_value=1, max_value=2 ** 200),
        st.integers(min_value=0, max_value=2 ** 120),
        st.integers(min_value=0, max_value=2 ** 120),
        st.integers(min_value=1, max_value=2 ** 160),
    )
    def test_integer_readout_matches_rationals(self, lo, rest, head, den):
        hi = lo + rest + head
        r = _certify(lo, hi, den, "exact-sum", head)
        mid = Fraction(lo + hi, 2 * den)
        # value is the correctly rounded midpoint: no neighbour is closer
        gap = abs(Fraction(r.value) - mid)
        for step in (-math.inf, math.inf):
            assert gap <= abs(Fraction(math.nextafter(r.value, step)) - mid)
        # each budget part is the smallest binary64 >= its exact share; the
        # readout's share is the rounding error |value - mid|, at most half
        # an ulp of value
        b = r.budget
        readout = abs(Fraction(r.value) - mid)
        shares = (
            (b.remainder, Fraction(rest, 2 * den)),
            (b.head, Fraction(head, 2 * den)),
            (b.readout, readout),
        )
        for part, exact in shares:
            assert Fraction(part) >= exact
            assert part == 0.0 or Fraction(math.nextafter(part, -math.inf)) < exact
        assert b.readout <= math.ulp(r.value) / 2
        # error_bound is the smallest binary64 >= the exact half-width plus
        # the readout error, so it covers |value - true| for any true value
        # in the bracket
        total = Fraction(hi - lo, 2 * den) + readout
        assert Fraction(r.error_bound) >= total
        assert Fraction(math.nextafter(r.error_bound, -math.inf)) < total
        assert float(r.decimal_value) == r.value
        assert r.method == "exact-sum"


_QUOTIENT = decimal.Context(prec=40)
_ROUNDERS = [decimal.Context(prec=digits) for digits in range(1, 18)]


def eager_shortest_roundtrip(num, den, payload):
    """The readout's decimal rendering, copied as the reference."""
    d = _QUOTIENT.divide(num, den)
    shortest = len(repr(payload).split("e")[0].replace(".", "").strip("0"))
    for rounder in _ROUNDERS[shortest - 1 :]:
        cand = str(rounder.plus(d))
        if float(cand) == payload:
            return cand
    return repr(payload)


def eager_certify(lo, hi, den, method, head):
    """The readout with its decimal rendered at once, copied as the
    reference: (value, error_bound, method, decimal_value, budget)."""
    num, den2 = lo + hi, 2 * den
    value = num / den2
    p, q = value.as_integer_ratio()
    dev = abs(p * den2 - q * num)
    bound = _round_up(q * (hi - lo) + dev, q * den2)
    budget = ErrorBudget(
        _round_up(hi - lo - head, den2), _round_up(head, den2), _round_up(dev, q * den2)
    )
    return value, bound, method, eager_shortest_roundtrip(num, den2, value), budget


def eager_mean(n):
    lo, hi = _scaled.partial_sum_enc(n)
    if n < _scaled.HEAD_END:
        method, head = "exact-sum", hi - lo
    else:
        method, head = "euler-maclaurin", _scaled.HEAD_END - 1
    return eager_certify(lo, hi, n * _scaled.ONE, method, head)


def _readout_grid():
    """n = 1..65, the seams of binary64 and the top of the range, and 2000
    seeded n below 2**2046 of every bit length."""
    rng = random.Random(2046)
    fixed = [*range(1, 66), 10 ** 6, 10 ** 12, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 2045]
    drawn = [rng.getrandbits(rng.randrange(1, 2047)) | 1 for _ in range(2000)]
    return fixed + drawn


class TestLazyReadout:
    """fast_mean renders decimal_value only when it is read, and every field
    equals the eager readout's."""

    def test_fields_match_eager_readout(self):
        for n in _readout_grid():
            r = fast_mean(n, 1e300)
            fields = (r.value, r.error_bound, r.method, r.decimal_value, r.budget)
            assert fields == eager_mean(n), n

    def test_decimal_is_not_rendered_until_read(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("decimal rendered")

        monkeypatch.setattr(evaluator, "_shortest_roundtrip", refuse)
        r = fast_mean(10 ** 12, 1e-6)
        value, bound, _, _, budget = eager_mean(10 ** 12)
        assert (r.value, r.error_bound, r.budget) == (value, bound, budget)
        with pytest.raises(AssertionError, match="decimal rendered"):
            r.decimal_value

    def test_decimal_is_rendered_once(self, monkeypatch):
        rendered = []

        def counted(*args, real=evaluator._shortest_roundtrip):
            rendered.append(args)
            return real(*args)

        monkeypatch.setattr(evaluator, "_shortest_roundtrip", counted)
        r = fast_mean(10 ** 12, 1e-6)
        assert rendered == []
        first, second = r.decimal_value, r.decimal_value
        assert first == second == eager_mean(10 ** 12)[3]
        assert len(rendered) == 1


class TestFastMean:
    def test_reference_split_certificate(self):
        r = fast_mean(10 ** 7, 1e-9)
        assert r.decimal_value == "2108.185264872015"
        assert float(r.decimal_value) == r.value
        assert r.error_bound <= 3e-12
        assert r.method == "euler-maclaurin"
        # all but the readout error: the closure and the 63-term head
        assert r.budget.remainder + r.budget.head <= 1e-29
        mid = oracle_mean(10 ** 7).midpoint()
        assert r.value - r.error_bound <= mid <= r.value + r.error_bound

    def test_sigma_tilde_reference(self):
        # Sigma~ itself, from the scaled A-terms and the head sum at nu=100,
        # sits 4.1e-10 above the mean; the certificate sits on Sigma(n)
        n, nu = 10 ** 7, 100
        head = oracle_sum_sqrt(1, nu)
        scale = lambda x: 6 * int(math.ldexp(x, _scaled.BITS))

        def six_nA_enc(x):
            # 6 x A(x) = (4x + 1) sqrt(x + 1), scaled by 2**BITS
            s_lo, s_hi = _scaled.sqrt_enc(x + 1)
            return (4 * x + 1) * s_lo, (4 * x + 1) * s_hi

        lo = six_nA_enc(n)[0] + scale(head.lo) - six_nA_enc(nu)[1]
        hi = six_nA_enc(n)[1] + scale(head.hi) - six_nA_enc(nu)[0]
        tilde = (lo + hi) / (12 * n * _scaled.ONE)
        assert tilde == 2108.1852648724285
        mid = oracle_mean(n).midpoint()
        assert 4.05e-10 <= tilde - mid <= 4.22e-10
        r = fast_mean(n, 1e-9)
        assert tilde - r.value > r.error_bound

    def test_direct_small(self):
        r = fast_mean(5, 1e-12)
        assert r.method == "exact-sum"
        assert r.value == 1.6764664694883524
        assert r.error_bound <= 1e-12

    def test_forced_nu_must_be_small_enough(self):
        # the split point can be forced only on the paper's route, which
        # needs nu < n; fast_mean takes no nu
        with pytest.raises(ValueError, match="nu"):
            partial_sum_sqrt_enclosure(10, 10)
        with pytest.raises(TypeError):
            fast_mean(10, 0.5, nu=9)

    def test_missed_epsilon_raises_with_achieved_bound(self):
        # Sigma(1) = 1 is read out exactly, so it certifies at about 2**-96,
        # the exact head's half-width plus the readout error; 1e-40 is below
        bound = fast_mean(1, 1.0).error_bound
        assert bound < 2.0 ** -95
        with pytest.raises(ValueError, match=f"cannot certify.*achieved bound {bound!r}"):
            fast_mean(1, 1e-40)

    @pytest.mark.parametrize(
        "n,epsilon",
        [
            (10 ** 15, 1e-9),
            (10 ** 9, 1e-12),
            (10 ** 12, 8e-11),
            (10 ** 7, 2.5e-13),
        ],
    )
    def test_epsilon_near_one_ulp_certifies_or_fails_fast(self, calls, n, epsilon):
        # epsilon near or under ulp(value): the readout is charged its exact
        # error, at most half an ulp, so these either certify or fail with
        # the achieved bound, after one integer bracket and no summation
        # (the oracle is not reached).  (10**12, 8e-11) and (10**7,
        # 2.5e-13) lie between half an ulp and one ulp of Sigma(n)
        try:
            r = counted_fast_mean(calls, n, epsilon)
        except ValueError as exc:
            assert re.search("cannot certify.*achieved bound", str(exc))
            assert counted_fast_mean(calls, n, 1e300).error_bound > epsilon
        else:
            assert r.error_bound <= epsilon
            assert contains_truth(r, n)

    @pytest.mark.parametrize(
        "n,epsilon",
        [(10 ** 6, 1.1368683772161605e-13), (10 ** 12, 1.1641532182693484e-10)],
    )
    def test_one_ulp_above_readout_charge_certifies(self, n, epsilon):
        # one ulp above the readout charge: no split fitted here and direct
        # summation, charged that ulp plus the oracle's half-width, could
        # not meet them, so they were refused; the exact path meets them
        r = fast_mean(n, epsilon)
        assert r.error_bound <= epsilon
        assert contains_truth(r, n)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 2 ** 53])
    def test_seam_certificates_contain_truth(self, n):
        # both sides of the seam between the exact head and the closure,
        # and 2**53, at the tightest epsilon: the achieved bound
        epsilon = fast_mean(n, 1e300).error_bound
        r = fast_mean(n, epsilon)
        assert r.method == ("exact-sum" if n < 64 else "euler-maclaurin")
        assert r.budget.readout <= math.ulp(r.value) / 2
        assert contains_truth(r, n)

    @pytest.mark.parametrize(
        "n",
        [2 ** 53 + 2, 10 ** 30, 2 ** 2045 + 1, 2 ** 2046 - 1],
        ids=["2**53+2", "10**30", "2**2045+1", "2**2046-1"],
    )
    def test_beyond_2_53_contains_truth(self, n):
        # the bracket and the exact readout hold for any n below 2**2046,
        # as the floor does; only the readout error grows with Sigma(n)
        epsilon = fast_mean(n, 1e300).error_bound
        r = fast_mean(n, epsilon)
        assert r.method == "euler-maclaurin"
        assert math.isfinite(r.value)
        assert r.budget.readout <= math.ulp(r.value) / 2
        assert r.budget.remainder + r.budget.head < 1e-29
        assert float(r.decimal_value) == r.value
        assert contains_truth(r, n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=2 ** 53))
    def test_readout_floor_is_below_every_certificate(self, n):
        # the achieved bound is the exact threshold: a request at it
        # returns the same certificate, one ulp below it is refused
        r = fast_mean(n, 1.0)
        assert r.budget.readout <= math.ulp(r.value) / 2
        assert fast_mean(n, r.error_bound) == r
        with pytest.raises(ValueError, match="achieved bound"):
            fast_mean(n, math.nextafter(r.error_bound, 0.0))

    @pytest.mark.parametrize("n", [10 ** 6, 10 ** 7])
    def test_one_split_reaches_tight_tolerance(self, n):
        # 1e-12 is about 9 and 2 ulp of Sigma(n) here
        start = time.perf_counter()
        r = fast_mean(n, 1e-12)
        assert r.error_bound <= 1e-12
        assert r.method == "euler-maclaurin"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [5, 100, 3000])
    def test_forced_nu_extremes_contain_truth(self, n):
        # the paper's route at the shortest and the longest heads: the exact
        # sum of floored roots over 1..nu-1 (one unit of 2**-96 per term)
        # plus the closed-form enclosure of nu..n, against mpmath and
        # fast_mean
        truth = mp_sqrt_sum(1, n)
        fast = fast_mean(n, 1e-2)
        with mp.workdps(60):
            for nu in sorted({1, 2, n - 3, n - 2}):
                head = sum(_scaled.sqrt_enc(k)[0] for k in range(1, nu))
                tail = partial_sum_sqrt_enclosure(nu, n)
                lo = mp.mpf(head) / _scaled.ONE + mp.mpf(tail.lo)
                hi = mp.mpf(head + nu - 1) / _scaled.ONE + mp.mpf(tail.hi)
                assert lo <= truth <= hi, nu
                assert lo / n <= mp.mpf(fast.value) + mp.mpf(fast.error_bound), nu
                assert hi / n >= mp.mpf(fast.value) - mp.mpf(fast.error_bound), nu

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30_000),
        st.floats(min_value=1e-12, max_value=1e-2, allow_nan=False),
    )
    def test_certificate_is_true_sampled(self, n, epsilon):
        r = fast_mean(n, epsilon)
        assert r.error_bound <= epsilon
        enc = oracle_mean(n)
        # the certified interval must reach the oracle interval (a violation
        # would prove |value - truth| > error_bound)
        assert r.value - r.error_bound <= enc.hi
        assert r.value + r.error_bound >= enc.lo
        assert contains_truth(r, n)

    def test_decimal_value_round_trips(self):
        # decimal_value renders the certified midpoint's own digits; it must
        # parse back to the binary64 payload exactly (it may need one digit
        # more than repr(value), never more than 17 significant)
        for n, eps in [(1, 0.5), (2, 0.5), (100, 1e-9), (10 ** 5, 1e-8), (10 ** 6, 1e-7)]:
            r = fast_mean(n, eps)
            assert float(r.decimal_value) == r.value
            digits = sum(c.isdigit() for c in r.decimal_value)
            assert digits <= 17
            assert r.method == ("exact-sum" if n < 64 else "euler-maclaurin")

    def test_split_and_direct_agree(self):
        # the exact path and direct summation by the oracle
        fast = fast_mean(10 ** 5, 1e-9)
        direct = oracle_mean(10 ** 5)
        assert fast.value - fast.error_bound <= direct.hi
        assert fast.value + fast.error_bound >= direct.lo

    def test_oracle_mean_refuses_more_than_max_terms(self, passes):
        # the oracle refuses more than 10**8 terms before the pass starts;
        # fast_mean, which sums nothing beyond its fixed head, answers
        with pytest.raises(ValueError, match=r"10\*\*8 terms: `rootmean mean`"):
            oracle_mean(_MAX_TERMS + 1)
        assert passes == []
        assert fast_mean(_MAX_TERMS + 1, 1e-9).error_bound <= 1e-9

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
            fast_mean(2 ** 2046, 1e-9)
        with pytest.raises(TypeError):
            fast_mean(100.0, 1e-9)
        with pytest.raises(TypeError):
            fast_mean(True, 0.5)


class TestMeanDecomposition:
    """The mean identity Sigma(n) = A(n) - 1/(6n) - delta_{1,n}/(24n): the
    remainder delta_{1,n} bracketed in 2**96-scaled integers
    (_scaled.delta_enc, as `verify --mode delta` does) lies strictly inside
    its elementary bracket (delta_bounds(1, n)) and below 3/2."""

    @staticmethod
    def recover(n):
        d_lo, d_hi = _scaled.delta_enc(1, n)
        return Fraction(d_lo, _scaled.ONE), Fraction(d_hi, _scaled.ONE)

    def test_frozen_recovery(self):
        # 0.8897658023592214 was recovered from the binary64 oracle mean,
        # which carries an error of about 24 n ulp(A(n)) = 4e-12
        d_lo, d_hi = self.recover(100)
        assert abs(float(d_lo) - 0.8897658023592214) < 1e-11
        bounds = delta_bounds(1, 100)
        assert bounds.lower < d_lo and d_hi < bounds.upper

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=200_000))
    def test_containment_everywhere(self, n):
        d_lo, d_hi = self.recover(n)
        bounds = delta_bounds(1, n)
        assert bounds.lower < d_lo and d_hi < bounds.upper
        assert d_hi < Fraction(3, 2)

    def test_needs_two_terms(self):
        with pytest.raises(ValueError):
            _scaled.delta_enc(1, 1)


class TestLimbBounds:
    def test_worst_case_limbs_fit(self):
        # the largest pass the oracle accepts: _MAX_TERMS roots of k up to
        # 2**53, each below 2**27, with a mark at every term
        assert math.sqrt(2 ** 53) < 2 ** 27
        int64 = 2 ** 63
        total = _MAX_TERMS * 2 ** 27 << 54  # units of 2**-54
        charge = _MAX_TERMS * 2 ** 27  # half a spacing is at most 2**(26 - 53) = 2**27 units
        assert total >> _LIMB < int64 and charge < int64
        # a window's low limbs, one per run of at least one root, and the
        # one carried in, summed in uint64 before normalisation
        assert (_WINDOW * _CHUNK + 1) * ((1 << _LIMB) - 1) < 2 ** 64
        # _exact_runs: a run's 2**52 + f sum, below 2**64, shifted by s =
        # E - 1021 in [2, 28] for roots in [1, 2**27), and by _LIMB - s
        assert _RUN * 2 ** 53 <= 2 ** 64 and 0 <= _LIMB - 28 and _LIMB - 2 < 64
        # _oracle_floors: rest < 2**54 and q = high >> (54 - _LIMB)
        assert 54 - _LIMB >= 0 and (1 << 54) + charge < int64 and (total >> 54) + 1 < int64

    @pytest.mark.parametrize("seed", range(3))
    def test_int64_floors_match_python_floors(self, seed):
        # totals up to 2**107 units, each within 2**55 of a multiple k n
        # 2**54 where the floor turns, and charges up to 2**54: wherever
        # both ends of a bracket floor alike, the int64 floors of
        # _oracle_floors are Python's floors of the limbs, and every other
        # bracket, and no more, goes to the Euler-Maclaurin bracket, here a
        # stand-in that reads floor -1
        rng = random.Random(seed)
        ns, totals, charges, expected = [], [], [], []
        straddles = 0
        while len(ns) < 2000:
            n = rng.randrange(1, _MAX_TERMS + 1)
            k = rng.randrange(2 ** 53 // n + 1)
            c = rng.choice([0, 1, 2 ** 54, rng.randrange(2 ** 54)])
            d = rng.choice([c, c - 1, (1 << 54) - c - 1, rng.randrange(-(2 ** 55), 2 ** 55)])
            t = min(max((k * n << 54) + d, 0), 2 ** 107 - 1)
            lo, hi = (t - c) // (n << 54), (t + c) // (n << 54)
            if lo != hi:
                if straddles == 60:
                    continue
                straddles, lo = straddles + 1, -1
            ns.append(n), totals.append(t), charges.append(c), expected.append(lo)
        assert straddles == 60
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluator, "_oracle_pass", lambda nu, marks: pass_of(totals, charges))
            patch.setattr(_scaled, "partial_sum_enc", lambda n: (-n * _scaled.ONE,) * 2)
            assert evaluator._oracle_floors(np.array(ns)).tolist() == expected


class TestSweep:
    def test_expected_table_matches_exact_floor(self):
        # the floor blocks partition [1, 5000] in order, and every n lies in
        # exactly one block, whose m is its exact floor
        starts, ends = _floor_blocks(5000)
        owner = {}
        for m, (start, end) in enumerate(zip(starts, ends), 1):
            for n in range(start, end + 1):
                assert n not in owner
                owner[n] = m
        assert sorted(owner) == list(range(1, 5001))
        for n in range(1, 5001):
            assert owner[n] == floor_A_exact(n)

    def test_table_at_max_terms_matches_exact_floor(self):
        # the largest table the sweep builds tiles [1, 10**8] in order, its
        # thresholds are alpha_floor's, and floor_A_exact reads m at both
        # ends of every block m
        starts, ends = _floor_blocks(_MAX_TERMS)
        ms = list(range(1, len(starts) + 1))
        assert starts[0] == 1 and ends[-1] == _MAX_TERMS
        assert (starts[1:] == ends[:-1] + 1).all()
        assert ends[:-1].tolist() == list(map(alpha_floor, ms[:-1]))
        assert list(map(floor_A_exact, starts.tolist())) == ms
        assert list(map(floor_A_exact, ends.tolist())) == ms

    @pytest.mark.parametrize("block", [0, 3333, -2])
    @pytest.mark.parametrize("shift", [-1, 1])
    def test_shifted_block_end_is_refused(self, block, shift):
        # the table at 10**8 with one block end shifted by one, and the next
        # block's start with it, so that the blocks still tile [1, 10**8]:
        # the vectorised check of the exact floor at both ends refuses it
        starts, ends = _floor_blocks(_MAX_TERMS)
        ends[block] += shift
        starts[block + 1] += shift
        with pytest.raises(AssertionError, match="disagrees"):
            _check_blocks(starts, ends)

    def test_table_with_a_block_too_many_is_refused(self, monkeypatch):
        # a top floor one too high makes a last block whose end, max_n,
        # reads another floor: _floor_blocks runs the check on its table
        monkeypatch.setattr(evaluator, "floor_A_exact", lambda n: floor_A_exact(n) + 1)
        with pytest.raises(AssertionError, match="disagrees"):
            _floor_blocks(10 ** 4)

    def test_clean_small(self):
        assert sweep_theorem1(10 ** 4) == (10 ** 4, [])

    def test_single_point_is_exact_integer(self):
        # the mean at n=1 is exactly 1: binary64 cannot decide the floor
        # there, so the exact scaled path must take over
        assert sweep_theorem1(1) == (1, [])
        assert sweep_theorem1(2) == (2, [])

    def test_refuses_more_than_max_terms(self, passes, monkeypatch):
        # the limit is checked before the floor blocks are built
        blocks = []
        monkeypatch.setattr(evaluator, "_floor_blocks", lambda n: blocks.append(n))
        with pytest.raises(ValueError, match=r"10\*\*8 terms: `rootmean floor`"):
            sweep_theorem1(_MAX_TERMS + 1)
        assert passes == [] and blocks == []

    @pytest.fixture
    def straddled(self, monkeypatch):
        """Counts the Euler-Maclaurin brackets the sweep reads."""
        reads = []

        def bracket(n, real=_scaled.partial_sum_enc):
            reads.append(n)
            return real(n)

        monkeypatch.setattr(_scaled, "partial_sum_enc", bracket)
        return reads

    def test_straddling_block_end_is_decided_by_euler_maclaurin(self, monkeypatch, straddled):
        # a reader whose bracket at the end of block m = 40 is moved onto
        # 41, so that it straddles it (an int64 charge cannot widen it that
        # far): the sweep decides that end, and n = 1, from one O(1)
        # Euler-Maclaurin bracket each
        end = int(_floor_blocks(10 ** 4)[1][39])
        seen = []

        def straddling(nu, ns, real=evaluator._oracle_pass):
            out = real(nu, ns)
            totals, charges = pass_totals(out), out[2].tolist()
            i = ns.tolist().index(end)
            totals[i] = 41 * end << 54
            lo, hi = totals[i] - charges[i], totals[i] + charges[i]
            seen.append((lo // (end << 54), hi // (end << 54)))
            return pass_of(totals, charges)

        monkeypatch.setattr(evaluator, "_oracle_pass", straddling)
        assert sweep_theorem1(10 ** 4) == (10 ** 4, [])
        assert seen == [(40, 41)]
        assert straddled == [1, end]

    def test_more_than_64_straddles_raise(self, monkeypatch, straddled):
        # a reader whose every bracket is centred on the integer nearest
        # the mean straddles at each of the 132 block ends up to 10**4:
        # degenerate bounds fail loudly before any end is decided
        def degenerate(nu, ns, real=evaluator._oracle_pass):
            out = real(nu, ns)
            unit = [n << 54 for n in ns.tolist()]
            totals = [(t + u // 2) // u * u for t, u in zip(pass_totals(out), unit)]
            return pass_of(totals, out[2].tolist())

        monkeypatch.setattr(evaluator, "_oracle_pass", degenerate)
        with pytest.raises(AssertionError, match="straddling"):
            sweep_theorem1(10 ** 4)
        assert straddled == []

    @pytest.mark.parametrize("first,last", [(-1, -1), (-4, -1), (0, 1)])
    def test_disagreeing_block_end_is_localized(self, monkeypatch, first, last):
        # a reader that shifts Sigma(n) up by one for some n at one end of
        # block m = 40 (indices first..last into the block, from the end if
        # negative): the sweep must then read every n of that block and
        # report exactly the n a per-n read flags
        starts, ends = _floor_blocks(10 ** 4)
        start, end, m = starts[39], ends[39], 40
        block = list(range(start, end + 1))
        bad = block[first : last + 1 or None]
        reads = []

        def shifted(nu, ns, real=evaluator._oracle_pass):
            reads.append(len(ns))
            out = real(nu, ns)
            totals = pass_totals(out)
            for i, n in enumerate(ns):
                if n in bad:
                    totals[i] += int(n) << 54
            return pass_of(totals, out[2].tolist())

        monkeypatch.setattr(evaluator, "_oracle_pass", shifted)
        flagged = []
        for n in range(start, end + 1):
            out = shifted(1, [n])
            (total,), (charge,) = pass_totals(out), out[2].tolist()
            lo, hi = total - charge, total + charge
            if lo // (n << 54) == hi // (n << 54) != m:
                flagged.append((n, m, lo // (n << 54)))
        assert [n for n, _, _ in flagged] == bad
        reads.clear()
        assert sweep_theorem1(10 ** 4) == (10 ** 4, flagged)
        assert reads == [len(_block_ends(10 ** 4)), len(block)]  # the ends, then the block

    def test_one_point_last_block_is_checked(self, monkeypatch):
        # a sweep that stops on the first n of block 41 reads that n once,
        # as both ends of its block, and still reports a shifted Sigma there
        max_n = int(_floor_blocks(10 ** 4)[0][40])
        starts, ends = _floor_blocks(max_n)
        assert starts[-1] == ends[-1] == max_n
        assert sweep_theorem1(max_n) == (max_n, [])

        def shifted(nu, ns, real=evaluator._oracle_pass):
            out = real(nu, ns)
            totals = [t + (n << 54) * (n == max_n) for n, t in zip(ns.tolist(), pass_totals(out))]
            return pass_of(totals, out[2].tolist())

        monkeypatch.setattr(evaluator, "_oracle_pass", shifted)
        assert sweep_theorem1(max_n) == (max_n, [(max_n, 41, 42)])


def _reference_fold(roots, spacing, total, comp, err):
    """The float chunk fold the integer brackets replaced: a math.fsum
    readout, then a compensated carry whose rounding residual is exact."""
    chunk = math.fsum(roots)
    err += 0.5 * spacing * (1.0 + 2.0 ** -40)
    err += 0.5 * math.ulp(chunk)
    t = total + chunk
    if abs(total) >= abs(chunk):
        comp += (total - t) + chunk
    else:
        comp += (chunk - t) + total
    err += 0.5 * math.ulp(comp)
    return t, comp, err


_REF_CHUNK = 1 << 20  # the reference's own partition, fixed apart from _CHUNK


def _reference_mean_chunks(max_n):
    """The per-element float prefix pass, kept as the slow reference: means
    and rigorous rounding bounds at every n of every chunk."""
    carry_s, carry_c = 0.0, 0.0
    base_err = 0.0
    for a in range(1, max_n + 1, _REF_CHUNK):
        b = min(a + _REF_CHUNK - 1, max_n)
        ks = np.arange(a, b + 1, dtype=np.float64)
        roots = np.sqrt(ks)
        loc = np.cumsum(roots)
        prefix = (carry_s + loc) + carry_c
        term_err = 0.5 * np.cumsum(np.spacing(roots))
        accum_err = 0.5 * np.cumsum(np.spacing(loc))
        bound = base_err + (term_err + accum_err + 2.0 * np.spacing(prefix)) * (
            1.0 + 2.0 ** -40
        )
        means = prefix / ks
        mean_bound = bound / ks * (1.0 + 2.0 ** -40) + np.spacing(np.abs(means))
        yield a, b, means, mean_bound
        spacing = float(np.spacing(roots).sum())
        carry_s, carry_c, base_err = _reference_fold(
            roots, spacing, carry_s, carry_c, base_err
        )


def _reference_mean_many(marks):
    out = {}
    marks = sorted(set(marks))
    for a, b, means, mean_bound in _reference_mean_chunks(marks[-1]):
        for n in marks:
            if a <= n <= b:
                i = n - a
                lo = math.nextafter(float(means[i] - mean_bound[i]), -math.inf)
                hi = math.nextafter(float(means[i] + mean_bound[i]), math.inf)
                out[n] = (lo, hi)
    return out


def _block_ends(max_n):
    return sorted({*chain.from_iterable(_floor_blocks(max_n))})


# the oracle's chunk boundary and the reference's 2**20 one
_CROSSING = sorted(
    {_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 ** 20 - 1, 2 ** 20, 2 ** 20 + 1, 2 ** 21}
)
_SWEEP_SIZES = [1, 2, 64, 2 ** 14, _CHUNK + 5, 2 ** 20 + 5, 2 ** 21]


@pytest.fixture(scope="module")
def reference_means():
    marks = set(_CROSSING)
    for max_n in _SWEEP_SIZES:
        marks.update(_block_ends(max_n))
    return _reference_mean_many(marks)


def _exact_sum_is(roots, total):
    """Whether the roots sum exactly to total / 2**54: math.fsum rounds the
    exact sum once, so it returns 0.0 only when the sum is exactly 0."""
    parts = [
        -math.ldexp((total >> s) & (2 ** 50 - 1), s - 54)
        for s in range(0, total.bit_length(), 50)
    ]
    return math.fsum(roots.tolist() + parts) == 0.0


_SPAN = 1 << 20  # many oracle chunks; the span from 10**8 - _SPAN + 1 ends at 10**8


def run_sums(roots, cuts):
    """The exact sums and biased exponents of the runs roots[cuts[i] :
    cuts[i + 1]], read as the oracle's window reads them: one uint64
    reduceat of the bit patterns and each run's first and last pattern,
    checked and shifted by _exact_runs."""
    bits = roots.view(np.uint64)
    starts, stops = cuts[:-1], cuts[1:]
    high, low, exps = _exact_runs(
        np.add.reduceat(bits, starts), stops - starts, bits[starts], bits[stops - 1]
    )
    return pass_totals(np.array([high, low.view(np.int64), exps])), exps.tolist()


class TestExactChunkSum:
    @pytest.mark.parametrize(
        "start", [1, 2, 3, 4, _CHUNK + 1, 2 ** 20 + 1, 10 ** 8 - _SPAN + 1, 2 ** 52]
    )
    def test_matches_fsum_fold(self, start):
        # the bracket's midpoint is the exact sum of the rounded roots, and
        # rounds to their correctly rounded sum
        end = start + _SPAN - 1
        roots = np.sqrt(np.arange(start, end + 1, dtype=np.float64))
        lo, hi = _oracle_brackets(start, [end])[end]
        assert (lo + hi) % 2 == 0 and _exact_sum_is(roots, (lo + hi) // 2)
        assert (lo + hi) / (2 << 54) == math.fsum(roots)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=2 ** 53 - 5000),
        st.integers(min_value=1, max_value=5000),
    )
    def test_matches_fsum_anywhere(self, start, count):
        end = start + count - 1
        roots = np.sqrt(np.arange(start, end + 1, dtype=np.float64))
        lo, hi = _oracle_brackets(start, [end])[end]
        assert Fraction(lo + hi, 2 << 54) == sum(map(Fraction, roots.tolist()))
        assert (lo + hi) / (2 << 54) == math.fsum(roots)

    def test_run_guard_refuses_instead_of_wrapping(self):
        # 2**11 roots at the top of one binade are the widest run: their
        # 2**52 + f sum to 2**11 (2**53 - 1) < 2**64, exactly; one more
        # root would pass 2**64 and wrap, so it is refused, as is a run
        # whose roots span two binades or more, wherever it lies
        top = np.nextafter(2.0, 0.0)  # 2 - 2**-52: f = 2**52 - 1
        full = np.full(2 ** 11, top)
        sums, exps = run_sums(full, np.array([0, 2 ** 11]))
        assert sums == [2 ** 11 * (2 ** 53 - 1) << 2] and exps == [1023]
        assert Fraction(sums[0], 2 ** 54) == 2 ** 11 * Fraction(top)
        assert run_sums(np.array([1.0, 1.5, 1024.0]), np.array([0, 2, 3]))[0] == [
            5 << 53, 1024 << 54
        ]
        assert 2 ** 11 * (2 ** 53 - 1) < 2 ** 64 <= (2 ** 11 + 1) * (2 ** 53 - 1)
        overlong = np.full(2 ** 11 + 1, top)
        crossing = [[1.0, 2.0], [1.0, 2048.0], [1.0, 2.0 ** 20], [1.5, np.nextafter(2.0, 3.0)]]
        with pytest.raises(ValueError, match="wrap"):
            run_sums(overlong, np.array([0, 2 ** 11 + 1]))
        with pytest.raises(ValueError, match="wrap"):
            run_sums(np.ones(_CHUNK + 1), np.array([0, _CHUNK + 1]))
        for roots in crossing:
            with pytest.raises(ValueError, match="wrap"):
                run_sums(np.array(roots), np.array([0, 2]))
            # the same run behind a valid one is refused too
            with pytest.raises(ValueError, match="wrap"):
                run_sums(np.array([1.0, *roots]), np.array([0, 1, 3]))

    def test_binade_edges_are_powers_of_four(self):
        # the oracle cuts its runs at 4**e: sqrt(4**e) is 2**e exactly and
        # the rounded sqrt(4**e - 1) stays in the binade below, for every
        # edge up to the oracle's 2**53 limit
        assert evaluator._BINADE_EDGES[-1] <= 2 ** 53 < 4 * evaluator._BINADE_EDGES[-1]
        for k in evaluator._BINADE_EDGES:
            below, at = np.sqrt(np.array([k - 1, k], dtype=np.float64))
            assert at == math.isqrt(k) and math.frexp(below)[1] == math.frexp(at)[1] - 1

    @pytest.mark.parametrize("start", [1, _CHUNK + 1, 2 ** 20 + 1])
    def test_spacing_sums_match_cumsum(self, start):
        # each mark is charged exactly half the spacing of every rounded
        # root up to it, across chunk boundaries too
        count = _SPAN + _SPAN // 2
        roots = np.sqrt(np.arange(start, start + count, dtype=np.float64))
        edges = [1, 2, 3, _CHUNK - 1, _CHUNK, _SPAN - 1, _SPAN, count - 1]
        idx = np.unique(np.concatenate([np.arange(0, count, 997), edges]))
        brackets = _oracle_brackets(start, (start + idx).tolist())
        spacings = np.cumsum(np.spacing(roots))[idx]
        for i, spacing in zip(idx.tolist(), spacings.tolist()):
            lo, hi = brackets[start + i]
            assert Fraction(hi - lo, 2 << 54) == Fraction(spacing) / 2


class TestOracleMeanMany:
    def test_matches_single_queries(self):
        marks = [1, 5, 100, 3000]
        many = _oracle_mean_many(marks)
        for n in marks:
            truth = mp_mean(n)
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

    @staticmethod
    def assert_nested_and_true(many, reference_means):
        # each enclosure holds the truth and lies inside the float reference
        for n, enc in many.items():
            ref_lo, ref_hi = reference_means[n]
            assert ref_lo <= enc.lo <= enc.hi <= ref_hi, n
            with mp.workdps(mp_dps(n)):
                assert mp.mpf(enc.lo) <= mp_mean(n) <= mp.mpf(enc.hi), n

    @pytest.mark.parametrize("max_n", _SWEEP_SIZES)
    def test_bit_identical_to_per_element_reference(self, max_n, reference_means):
        marks = _block_ends(max_n)
        many = _oracle_mean_many(marks)
        assert sorted(many) == marks
        self.assert_nested_and_true(many, reference_means)

    def test_bit_identical_at_chunk_crossings(self, reference_means):
        many = _oracle_mean_many(_CROSSING)
        assert sorted(many) == _CROSSING
        self.assert_nested_and_true(many, reference_means)


def test_oracle_bracket_overlaps_euler_maclaurin_bracket():
    # two independent routes to sum_{k=1}^{n} sqrt(k): direct summation of
    # rounded roots and the zeta(-1/2) + Euler-Maclaurin closure, compared
    # at 2**96 scale at every block end up to 2**17
    marks = _block_ends(2 ** 17)
    scale = 1 << (_scaled.BITS - 54)
    for n, (lo, hi) in _oracle_brackets(1, marks).items():
        em_lo, em_hi = _scaled.partial_sum_enc(n)
        assert lo * scale <= em_hi and em_lo <= hi * scale, n


_FROZEN_CHUNK = 1 << 15


def _frozen_chunk_sums(roots, starts, work):
    """The int64 chunk sum the bit-pattern kernel replaced, kept as the
    reference with its guard as an assertion: roots scaled by 2**(53 - e0)
    into int64, summed in 31-bit halves per segment, each segment charged
    2**e of its last root."""
    e0 = math.frexp(float(roots[0]))[1]
    e1 = math.frexp(float(roots[-1]))[1]
    assert len(roots) <= _FROZEN_CHUNK and e1 - e0 <= 10
    ints, halves = work[0, : len(roots)], work[1, : len(roots)]
    np.multiply(roots, 2.0 ** (53 - e0), out=ints, casting="unsafe")
    low = np.add.reduceat(np.bitwise_and(ints, 0x7FFFFFFF, out=halves), starts).tolist()
    high = np.add.reduceat(np.right_shift(ints, 31, out=ints), starts).tolist()
    counts = np.diff(starts, append=len(roots))
    charges = np.left_shift(counts, np.frexp(roots[starts + counts - 1])[1]).tolist()
    shift = e0 + 1
    return [((h << 31) + w) << shift for h, w in zip(high, low)], charges


def _frozen_oracle_brackets(nu, marks):
    """The oracle pass before the bit-pattern kernel, over its own fixed
    2**15-term chunks: the reference whose brackets the kernel must
    reproduce bit for bit."""
    marks = sorted(set(marks))
    top = marks[-1]
    assert nu <= marks[0] and top <= 2 ** 53
    out = {}
    total = charge = 0
    size = min(_FROZEN_CHUNK, top - nu + 1)
    ramp = np.arange(size, dtype=np.float64)
    buf = np.empty(size)
    work = np.empty((2, size), np.int64)
    for a in range(nu, top + 1, _FROZEN_CHUNK):
        b = min(a + _FROZEN_CHUNK - 1, top)
        roots = buf[: b - a + 1]
        np.sqrt(np.add(ramp[: b - a + 1], a, out=roots), out=roots)
        here = marks[bisect.bisect_left(marks, a) : bisect.bisect_right(marks, b)]
        starts = np.array([0] + [m - a + 1 for m in here if m < b], dtype=np.int64)
        sums, charges = _frozen_chunk_sums(roots, starts, work)
        for i, (s, c) in enumerate(zip(sums, charges)):
            total += s
            charge += c
            if i < len(here):
                out[here[i]] = (total - charge, total + charge)
    return out


_EDGE_MARKS = sorted({4 ** j + d for j in range(1, 11) for d in (-1, 0, 1)})
_SPAN_W = _WINDOW * _CHUNK  # terms per planning window


class TestBitIdentity:
    """The bit-pattern kernel gives the frozen int64 pass's midpoint exactly
    at every mark, and a half-width that is exactly half the sum of the
    rounded roots' spacings up to the mark, never above the frozen pass's
    (which charged each segment its last root's spacing)."""

    @pytest.mark.parametrize(
        "nu, marks",
        [
            (1, _block_ends(2 ** 21)),
            (1, _EDGE_MARKS),
            (1, [_CHUNK - 1, _CHUNK, _CHUNK + 1]),
            (1, [_SPAN_W - 1, _SPAN_W, _SPAN_W + 1, 2 * _SPAN_W, 2 * _SPAN_W + 1]),
            (7, [7, 8, 15, 16, 17, *_EDGE_MARKS[6:], _CHUNK + 6, _CHUNK + 7, 10 ** 6]),
            (4 ** 20 - 3, [4 ** 20 + d for d in (-3, -2, -1, 0, 1, 2, _CHUNK, 10 ** 5)]),
            (2 ** 52, [2 ** 52 + 1, 2 ** 52 + _CHUNK - 1, 2 ** 52 + _CHUNK, 2 ** 52 + 10 ** 5 - 1]),
            # a mark at every term up to 2**53: a first window of 2**18
            # one-root runs, the most whose low limbs one window sums, then
            # the window boundary and a second window
            (2 ** 53 - _SPAN_W - 999, list(range(2 ** 53 - _SPAN_W - 999, 2 ** 53 + 1))),
        ],
        ids=[
            "block-ends-2^21", "binade-edges", "chunk", "window", "nu=7", "nu=4^20-3", "nu=2^52",
            "every-term-to-2^53",
        ],
    )
    def test_brackets_match_frozen_pass(self, nu, marks):
        new = _oracle_brackets(nu, marks)
        frozen = _frozen_oracle_brackets(nu, marks)
        assert new.keys() == frozen.keys()
        assert sorted(new) == sorted(set(marks))
        roots = np.sqrt(np.arange(nu, max(marks) + 1, dtype=np.float64))
        # half a spacing in units of 2**-54: an exact integer <= 2**27
        half = np.cumsum((np.spacing(roots) * 2 ** 53).astype(np.int64)).tolist()
        for m, (lo, hi) in new.items():
            f_lo, f_hi = frozen[m]
            assert lo + hi == f_lo + f_hi, m
            assert hi - lo <= f_hi - f_lo, m
            assert hi - lo == 2 * half[m - nu], m

    @pytest.mark.parametrize("max_n", [1, 2, 64, 2 ** 14, 2 ** 20 + 5, 2 ** 21])
    def test_sweep_matches_frozen_pass(self, max_n, monkeypatch):
        result = sweep_theorem1(max_n)
        reads = []

        def frozen(nu, marks):
            # the frozen brackets in the array reader's form
            reads.append(len(marks))
            brackets = _frozen_oracle_brackets(nu, marks.tolist())
            lo, hi = zip(*map(brackets.__getitem__, marks.tolist()))
            return pass_of(
                [(a + b) // 2 for a, b in zip(lo, hi)], [(b - a) // 2 for a, b in zip(lo, hi)]
            )

        monkeypatch.setattr(evaluator, "_oracle_pass", frozen)
        assert result == sweep_theorem1(max_n)
        assert reads == [len(_block_ends(max_n))]  # the frozen pass read every block end

    def test_reader_refuses_marks_it_would_misread(self):
        # the list reader takes its marks as they come: out of order,
        # repeated, below nu or not integers, they raise rather than being
        # read as other marks, within a window and across one
        for nu, marks in [
            (1, [5, 3]),
            (1, [4, 4]),
            (1, [2, 9, 7]),
            (1, [_SPAN_W + 1, _SPAN_W]),
            (10, [9, 12]),
            (10, [10, 11, 11]),
            (1, [1, 5, -(2 ** 63) + 1, 0, 5]),  # the int64 steps between them wrap
        ]:
            with pytest.raises(ValueError, match="increase strictly"):
                _oracle_pass(nu, marks)
        for marks in ([2.5, 3.9], [True], [1, 2.0]):
            with pytest.raises(TypeError):
                _oracle_pass(1, marks)
        assert _oracle_pass(1, []).shape == (3, 0)
        # the dict front sorts and de-duplicates, and still refuses what
        # is not an exact integer
        front = _oracle_brackets(1, [9, 3, 9, 5, 3])
        out = _oracle_pass(1, [3, 5, 9])
        totals, charges = pass_totals(out), out[2].tolist()
        assert front == {m: (t - c, t + c) for m, t, c in zip([3, 5, 9], totals, charges)}
        for marks in ([2.5, 3.9], [True]):
            with pytest.raises(TypeError):
                _oracle_brackets(1, marks)


def _peak_bytes(n):
    """tracemalloc's peak over one oracle pass of n terms read at n alone."""
    tracemalloc.start()
    try:
        _oracle_brackets(1, [n])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkPartition:
    def test_partition_keeps_midpoints_and_never_widens(self, monkeypatch):
        # each root is charged its own half spacing, so the partition moves
        # no bracket: at every block end up to 2**21 and around every
        # multiple of 2**12, the brackets are identical for every chunk size
        marks = set(_block_ends(2 ** 21))
        for k in range(1 << 12, 2 ** 21 + 1, 1 << 12):
            marks.update((k - 1, k, k + 1))
        marks = sorted(m for m in marks if m <= 2 ** 21)
        brackets = []
        for size in (1 << 20, _CHUNK, 1 << 12):
            monkeypatch.setattr(evaluator, "_CHUNK", size)
            brackets.append(_oracle_brackets(1, marks))
        first, *others = brackets
        assert sorted(first) == marks
        assert all(other == first for other in others)

    def test_peak_memory_is_one_chunk(self):
        # the working set is two float64 arrays of one chunk, the ramp and
        # the roots (whose bit patterns are summed in place), made once,
        # and one window's few run-sized arrays, freed before the next
        # window is planned: within five arrays, which fit a 2 MiB L2,
        # whatever the length of the pass
        _peak_bytes(2 ** 12)  # first-call allocations
        bound = 5 * 8 * _CHUNK
        assert bound <= 2 << 20
        long, short = _peak_bytes(2 ** 21), _peak_bytes(2 ** 18)
        assert long < bound
        assert long <= short + 4096

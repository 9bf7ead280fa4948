"""Floating enclosures: frozen values, containment against mpmath truth,
domain validation, and the package's frozen records."""

import copy
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rootmean import _scaled
from rootmean.asymptotic import (
    DeltaBounds,
    Enclosure,
    RootOrder,
    _em_root_enclosure,
    _outward,
    _pow_value,
    delta_bounds,
    eval_A,
    lemma2_lower,
    lemma2_upper,
    partial_sum_root_enclosure,
    partial_sum_sqrt_enclosure,
)
from rootmean.cli import QueryResult
from rootmean.evaluator import CertifiedMean, ErrorBudget, fast_mean


def mp_root_sum(a: int, b: int, r: float) -> mp.mpf:
    """sum k**(1/r) at 60 digits, exponent formed from r in full precision."""
    with mp.workdps(60):
        e = 1 / mp.mpf(r)
        return mp.fsum(mp.mpf(k) ** e for k in range(a, b + 1))


def mp_sqrt_sum(a: int, b: int) -> mp.mpf:
    with mp.workdps(60):
        return mp.fsum(mp.sqrt(k) for k in range(a, b + 1))


def paper_route_enclosure(nu: int, n: int) -> Enclosure:
    """The paper's enclosure of sum_{k=nu}^{n} sqrt(k), a reference
    independent of the Euler-Maclaurin bracket: 24 sum = 4 (4n + 1)
    sqrt(n + 1) - 4 (4 nu - 3) sqrt(nu) - delta, with delta between
    sigma(nu+2, n+2) and sigma(nu, n), in 2**96-scaled integers rounded
    outward once."""
    a_lo, a_hi = _scaled.sqrt_enc(n + 1)
    h_lo, h_hi = _scaled.sqrt_enc(nu)
    a, h = 4 * (4 * n + 1), 4 * (4 * nu - 3)
    s_hi = _scaled.sigma_enc(nu, n)[1]
    s2_lo = _scaled.sigma_enc(nu + 2, n + 2)[0]
    return _outward(a * a_lo - h * h_hi - s_hi, a * a_hi - h * h_lo - s2_lo, 24 * _scaled.ONE)


def sigma_route_enclosure(nu: int, n: int, r: float) -> Enclosure:
    """The paper's r-th-root enclosure, a reference for the Euler-Maclaurin
    one: the main term (r/(r+1)) (n+1)^(1/r) (n + (1-1/r)/2) - (r/(r+1))
    nu^(1/r) (nu - (1+1/r)/2) minus delta_r/(12 r), delta_r between
    sigma_r(nu+2, n+2) and sigma_r(nu, n), sigma_r(1, n) = 2 - 1/r -
    n^(-1+1/r) and sigma_r(nu, n) = (nu-1)^(-1+1/r) - n^(-1+1/r), in
    binary64 with the same exp/log budgets."""

    def sigma(a: int, b: int) -> float:
        e = 1.0 / r - 1.0
        tail = _pow_value(float(b), e)[0]
        return 2.0 - 1.0 / r - tail if a == 1 else _pow_value(float(a - 1), e)[0] - tail

    c = r / (r + 1.0)
    head_root, rel_head = _pow_value(n + 1.0, 1.0 / r)
    tail_root, rel_tail = _pow_value(float(nu), 1.0 / r)
    t1 = c * head_root * (n + (1.0 - 1.0 / r) / 2.0)
    t2 = c * tail_root * (nu - (1.0 + 1.0 / r) / 2.0)
    raw_lo = t1 - t2 - sigma(nu, n) / (12.0 * r)
    raw_hi = t1 - t2 - sigma(nu + 2, n + 2) / (12.0 * r)
    rel = rel_head + rel_tail + 40.0 * 2.0 ** -53
    eta = (abs(t1) + abs(t2)) * rel + 8.0 * math.ulp(max(abs(raw_lo), abs(raw_hi)))
    return Enclosure(raw_lo - eta, raw_hi + eta)


def check_argument_policy(call, name, minimum):
    """The one policy of the package's real arguments (x of eval_A and the
    Lemma-2 envelopes, r, epsilon): a float, or an exact integer up to
    2**53, which converts to binary64 exactly.  call takes the argument,
    name is its name and minimum the least value its domain admits."""
    for bad in (Fraction(5, 2), Decimal("3"), np.float32(3)):
        with pytest.raises(TypeError):
            call(bad)
    with pytest.raises(TypeError, match=f"{name} must be a real number"):
        call("2")
    assert call(np.int64(7)) == call(7.0)
    assert call(2 ** 53) == call(float(2 ** 53))
    # ValueError naming the bound, never OverflowError
    for big in (2 ** 53 + 1, 10 ** 400):
        with pytest.raises(ValueError, match=r"2\*\*53"):
            call(big)
    # the domain is checked on the exact integer first
    with pytest.raises(ValueError, match=f"{name} must be >= {minimum}"):
        call(-10 ** 400)


def test_epsilon_argument_policy():
    # fast_mean's epsilon follows the same policy, with its own zero test
    check_argument_policy(lambda eps: fast_mean(100, eps), "epsilon", 0)
    with pytest.raises(ValueError, match="epsilon must be > 0"):
        fast_mean(100, 0)


class TestEvalA:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (1.0, 1.1785113019775793),
            (2.0, 1.299038105676658),
            (6.0, 1.8373272993504102),
            (1e6, 666.6671666666667),
            (1e7, 2108.1852648928025),
        ],
    )
    def test_frozen_values(self, x, expected):
        assert eval_A(x) == expected

    def test_closed_form_at_two(self):
        # A(2) = (2/3) sqrt(3) (9/8) = (3/4) sqrt(3)
        assert eval_A(2.0) == 0.75 * math.sqrt(3.0)

    @settings(max_examples=120)
    @given(st.integers(min_value=1, max_value=10 ** 12))
    def test_strictly_increasing(self, n):
        x = float(n)
        step = max(1.0, x * 1e-10)
        assert eval_A(x) < eval_A(x + step)

    def test_accepts_exact_ints(self):
        assert eval_A(2) == eval_A(2.0)

    def test_argument_policy(self):
        check_argument_policy(eval_A, "x", 1)

    @pytest.mark.parametrize("bad", [0.5, 0, -3.0, math.inf, math.nan])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(ValueError):
            eval_A(bad)

    def test_rejects_wrong_types(self):
        with pytest.raises(TypeError):
            eval_A("2")
        with pytest.raises(TypeError):
            eval_A(True)

    def test_refuses_int_beyond_exact_range(self):
        with pytest.raises(ValueError, match="floor_A_exact"):
            eval_A(2 ** 53 + 1)
        with pytest.raises(ValueError, match="floor_A_exact"):
            eval_A(2 ** 54)
        # a float argument carries its own exactness; it stays accepted
        assert math.isfinite(eval_A(1e20))

    def test_huge_negative_int_is_out_of_domain(self):
        # -10**400 has no binary64 value: the domain is checked on the exact
        # integer first, so this is the domain's ValueError, not an overflow
        for fn in (eval_A, lemma2_upper, lemma2_lower):
            with pytest.raises(ValueError, match="x must be >="):
                fn(-10 ** 400)


class TestSigma:
    """The elementary remainder bound sigma(nu, n) = 3/2 - n^(-1/2) for
    nu == 1, else (nu-1)^(-1/2) - n^(-1/2), through its exact 2**96-scaled
    bracket _scaled.sigma_enc and the public delta_bounds."""

    @pytest.mark.parametrize(
        "nu,n,expected",
        [
            (1, 100, 1.4),
            (2, 100, 0.9),
            (101, 10 ** 7, 0.09968377223398317),
            (3, 102, 0.60809202688888),
            (4, 12, 0.2886751345948129),
        ],
    )
    def test_frozen_values(self, nu, n, expected):
        # the binary64 values of sigma, frozen before it was bracketed in
        # integers, lie within 1.5 ulp of both ends of the exact bracket
        for end in _scaled.sigma_enc(nu, n):
            gap = abs(Fraction(end, _scaled.ONE) - Fraction(expected))
            assert gap <= Fraction(3, 2) * Fraction(math.ulp(expected))

    @settings(max_examples=120)
    @given(
        st.integers(min_value=2, max_value=10 ** 9),
        st.integers(min_value=1, max_value=10 ** 9),
    )
    def test_shape(self, nu, n):
        # positive whenever nu - 1 < n, weakly decreasing in nu, increasing in n
        assume(nu - 1 < n)
        lo, hi = _scaled.sigma_enc(nu, n)
        assert 0 < lo <= hi
        assert _scaled.sigma_enc(nu + 1, n)[1] <= hi
        assert _scaled.sigma_enc(nu, 4 * n)[0] >= lo

    def test_first_kind_below_three_halves(self):
        for n in (1, 2, 10, 10 ** 6):
            assert _scaled.sigma_enc(1, n)[1] < 3 * _scaled.ONE // 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            _scaled.sigma_enc(0, 10)
        with pytest.raises(TypeError):
            delta_bounds(1.0, 10)
        # exact integers rounded once: n past 2**53 is accepted
        assert 0.0 < delta_bounds(1, 2 ** 53 + 3).lower


class TestDeltaBounds:
    def test_bracket_orientation(self):
        db = delta_bounds(1, 100)
        # the exact bracket rounded outward, within an ulp of the frozen
        # binary64 values sigma(3, 102) and sigma(1, 100) (TestSigma)
        assert Fraction(db.lower) <= Fraction(_scaled.sigma_enc(3, 102)[0], _scaled.ONE)
        assert Fraction(db.upper) >= Fraction(_scaled.sigma_enc(1, 100)[1], _scaled.ONE)
        assert abs(db.lower - 0.60809202688888) <= math.ulp(db.lower)
        assert abs(db.upper - 1.4) <= math.ulp(db.upper)
        assert 0.0 <= db.lower < db.upper

    def test_exact_bracket_near_large_n(self):
        # a binary64 sigma inverted these endpoints and the call raised
        db = delta_bounds(1402108738158901, 1472838348251068)
        assert 0.0 < db.lower <= db.upper

    @settings(max_examples=120)
    @given(st.integers(min_value=1, max_value=10 ** 6))
    def test_lower_never_exceeds_upper(self, nu):
        db = delta_bounds(nu, nu + 1 + nu % 7)
        assert 0.0 <= db.lower <= db.upper

    def test_requires_nu_below_n(self):
        with pytest.raises(ValueError):
            delta_bounds(5, 5)
        with pytest.raises(ValueError):
            delta_bounds(6, 5)

    def test_dataclass_validation(self):
        with pytest.raises(ValueError):
            DeltaBounds(-0.1, 0.5)
        with pytest.raises(ValueError):
            DeltaBounds(0.5, 0.1)
        with pytest.raises(ValueError):
            DeltaBounds(0.0, math.inf)


class TestEnclosure:
    def test_geometry(self):
        e = Enclosure(1.0, 3.0)
        assert e.width() == 2.0
        assert e.midpoint() == 2.0
        assert e.half_width() == 1.0
        assert e.contains(1.0) and e.contains(3.0) and e.contains(2.5)
        assert not e.contains(0.999)

    def test_degenerate_point(self):
        e = Enclosure(2.0, 2.0)
        assert e.width() == 0.0 and e.half_width() == 0.0
        assert e.contains(2.0)

    def test_half_width_covers_asymmetry(self):
        # midpoint rounding may sit off-center; half_width must still reach
        # both endpoints
        e = Enclosure(0.1, 0.30000000000000004)
        mid, hw = e.midpoint(), e.half_width()
        assert mid - hw <= e.lo and e.hi <= mid + hw

    def test_validation(self):
        with pytest.raises(ValueError):
            Enclosure(3.0, 1.0)
        with pytest.raises(ValueError):
            Enclosure(math.nan, 1.0)
        with pytest.raises(ValueError):
            Enclosure(0.0, math.inf)
        with pytest.raises(AttributeError):
            e = Enclosure(0.0, 1.0)
            e.lo = -1.0


# (make, a record unequal to make() in one field, make()'s repr)
RECORDS = [
    (lambda: Enclosure(1.0, 3.0), Enclosure(1.0, 2.0), "Enclosure(lo=1.0, hi=3.0)"),
    (
        lambda: DeltaBounds(0.5, 1.5),
        DeltaBounds(0.25, 1.5),
        "DeltaBounds(lower=0.5, upper=1.5)",
    ),
    (lambda: RootOrder(2), RootOrder(3), "RootOrder(r=2.0)"),
    (
        lambda: CertifiedMean(1.5, 0.25, "exact-sum", "1.5", ErrorBudget(0.0, 0.125, 0.125)),
        CertifiedMean(1.5, 0.25, "exact-sum", "1.50", ErrorBudget(0.0, 0.125, 0.125)),
        "CertifiedMean(value=1.5, error_bound=0.25, method='exact-sum', "
        "decimal_value='1.5', budget=ErrorBudget(remainder=0.0, head=0.125, readout=0.125))",
    ),
    (
        lambda: fast_mean(10 ** 7, 1e-9),
        fast_mean(10 ** 7 + 1, 1e-9),
        "CertifiedMean(value=2108.185264872015, error_bound=1.8995354061165738e-13, "
        "method='euler-maclaurin', decimal_value='2108.185264872015', "
        "budget=ErrorBudget(remainder=4.2079708707112335e-30, "
        "head=3.9758589623139e-35, readout=1.8995354061165738e-13))",
    ),
    (
        lambda: QueryResult("floor", {"n": "10"}, "2", "0", "exact"),
        QueryResult("floor", {"n": "10"}, "2", "0", "exact", 1.5),
        "QueryResult(command='floor', inputs={'n': '10'}, value='2', "
        "error_bound='0', method='exact', elapsed_ms=0.0, extra={})",
    ),
]
FIELDS = {
    Enclosure: ("lo", "hi"),
    DeltaBounds: ("lower", "upper"),
    RootOrder: ("r",),
    CertifiedMean: ("value", "error_bound", "method", "decimal_value", "budget"),
    QueryResult: (
        "command", "inputs", "value", "error_bound", "method", "elapsed_ms", "extra"
    ),
}


def field_values(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@pytest.mark.parametrize("make, other, text", RECORDS)
class TestRecords:
    """Enclosure, DeltaBounds, RootOrder, CertifiedMean (built directly and
    by fast_mean, whose decimal is rendered lazily) and QueryResult keep a
    frozen dataclass's equality, hash, repr, copy, pickle and immutability."""

    def test_equality_and_hash(self, make, other, text):
        a, b = make(), make()
        assert a == b and not a != b
        assert a != other
        assert a != field_values(a)
        if isinstance(a, QueryResult):
            with pytest.raises(TypeError):  # its dict fields are unhashable
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(field_values(a))

    def test_repr(self, make, other, text):
        assert repr(make()) == text

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))]
    )
    def test_copies_are_equal(self, make, other, text, clone):
        record = make()
        twin = clone(record)
        assert twin == record and type(twin) is type(record)
        assert field_values(twin) == field_values(record)

    def test_refuses_assignment_and_deletion(self, make, other, text):
        record = make()
        for name in (*FIELDS[type(record)], "anything"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text


class TestRootOrder:
    def test_coerces_to_float(self):
        assert RootOrder(2).r == 2.0
        assert isinstance(RootOrder(2).r, float)
        assert RootOrder(1.5).r == 1.5

    @pytest.mark.parametrize("bad", [0.5, 0.999999, 0, -2, math.inf, math.nan])
    def test_rejects_below_one_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            RootOrder(bad)

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            RootOrder("2")
        # float() would parse a bytearray too
        with pytest.raises(TypeError, match="r must be a real number"):
            RootOrder(bytearray(b"2"))
        with pytest.raises(TypeError, match="r must be a real number"):
            partial_sum_root_enclosure(1, 10, bytearray(b"3"))

    @pytest.mark.parametrize(
        "call",
        [RootOrder, lambda r: partial_sum_root_enclosure(1, 10, r)],
        ids=["RootOrder", "enclosure"],
    )
    def test_argument_policy(self, call):
        check_argument_policy(call, "r", 1)

    def test_rejects_bool(self):
        # True is an int only by accident: it must not pass as r = 1
        for bad in (True, False):
            with pytest.raises(TypeError):
                RootOrder(bad)
        with pytest.raises(TypeError):
            partial_sum_root_enclosure(1, 10, True)


class TestPartialSumSqrt:
    def test_contains_small_truth(self):
        e = partial_sum_sqrt_enclosure(2, 4)
        assert e.contains(math.sqrt(2.0) + math.sqrt(3.0) + 2.0)

    def test_frozen_full_range(self):
        e = partial_sum_sqrt_enclosure(1, 100)
        assert e.contains(671.4629471031477)  # direct-summation value
        assert e.half_width() <= 2.3e-13
        assert mp.mpf(e.lo) <= mp_sqrt_sum(1, 100) <= mp.mpf(e.hi)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=2999), st.integers(min_value=1, max_value=3000))
    def test_contains_mp_truth(self, nu, n):
        assume(nu < n)
        e = partial_sum_sqrt_enclosure(nu, n)
        with mp.workdps(60):
            truth = mp_sqrt_sum(nu, n)
            assert mp.mpf(e.lo) <= truth <= mp.mpf(e.hi)

    @pytest.mark.parametrize(
        "nu,n",
        [(9_999_999, 10 ** 7), (307_307, 309_207), (2 ** 53 - 1, 2 ** 53)],
    )
    def test_contains_truth_with_nu_near_n(self, nu, n):
        # the main term cancels ~n^(3/2)-sized operands down to a short sum,
        # so any rounding margin must scale with the operands, not with the
        # result
        e = partial_sum_sqrt_enclosure(nu, n)
        truth = mp_sqrt_sum(nu, n)
        assert mp.mpf(e.lo) <= truth <= mp.mpf(e.hi)

    def test_width_tracks_bracket_span(self):
        # the enclosure is the bracket S(n) - S(nu - 1) rounded outward once;
        # that bracket is under 1e-22 wide here, so the width is the
        # rounding to binary64: one or two ulps
        nu, n = 100, 10 ** 7
        e = partial_sum_sqrt_enclosure(nu, n)
        lo, hi = _scaled.range_enc(nu, n)
        assert Fraction(e.lo) <= Fraction(lo, _scaled.ONE)
        assert Fraction(hi, _scaled.ONE) <= Fraction(e.hi)
        assert e.width() <= 2.0 * math.ulp(e.hi)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            partial_sum_sqrt_enclosure(5, 5)
        with pytest.raises(ValueError):
            partial_sum_sqrt_enclosure(6, 5)
        with pytest.raises(ValueError, match="largest finite"):
            partial_sum_sqrt_enclosure(1, 10 ** 210)
        with pytest.raises(TypeError):
            partial_sum_sqrt_enclosure(1.0, 10)
        with pytest.raises(TypeError):
            partial_sum_sqrt_enclosure(True, 10)

    def test_boundary_of_float_range_works(self):
        e = partial_sum_sqrt_enclosure(1, 2 ** 53)
        assert e.lo < e.hi

    def test_no_wider_than_the_paper_route(self):
        # on a seeded grid up to 2**53 the Euler-Maclaurin enclosure is
        # never wider than the paper's, and the two proven enclosures meet
        rng = random.Random(26)
        narrower = 0
        for _ in range(1500):
            n = min(2 ** 53, rng.randrange(2, 2 ** rng.randrange(2, 54) + 1))
            nu = min(n - 1, rng.choice([1, 2, n - 1, rng.randrange(1, n)]))
            e, ref = partial_sum_sqrt_enclosure(nu, n), paper_route_enclosure(nu, n)
            assert e.width() <= ref.width(), (nu, n)
            assert max(e.lo, ref.lo) <= min(e.hi, ref.hi), (nu, n)
            narrower += e.width() < ref.width()
        assert narrower >= 300

    @pytest.mark.parametrize("n", [10 ** 30, 10 ** 100, 10 ** 200], ids=["10**30", "10**100", "10**200"])
    def test_past_2_53_overlaps_the_prefix_bracket(self, n):
        # exact integers rounded once, so n may pass 2**53: the paper's
        # enclosure, built from sqrt_enc and sigma_enc alone, overlaps the
        # Euler-Maclaurin bracket S(n) - S(nu - 1) and its rounding
        one = _scaled.ONE
        for nu in (1, 2, n // 3, n - 1):
            e = partial_sum_sqrt_enclosure(nu, n)
            assert e == partial_sum_root_enclosure(nu, n, 2)
            ref = paper_route_enclosure(nu, n)
            lo, hi = _scaled.range_enc(nu, n)
            assert Fraction(ref.lo) <= Fraction(hi, one) and Fraction(lo, one) <= Fraction(ref.hi), nu
            assert max(e.lo, ref.lo) <= min(e.hi, ref.hi), nu
            db = delta_bounds(nu, n)
            assert 0.0 <= db.lower <= db.upper
            assert Fraction(db.upper) >= Fraction(_scaled.sigma_enc(nu, n)[1], one)

    def test_refuses_a_sum_past_binary64(self):
        # the sum passes binary64's largest finite value near n = 4.2e205
        assert math.isfinite(partial_sum_sqrt_enclosure(1, 4 * 10 ** 205).hi)
        for n in (10 ** 210, 10 ** 5000):
            with pytest.raises(ValueError, match="largest finite") as refused:
                partial_sum_sqrt_enclosure(1, n)
            # the exact-series advice belongs to r = 1 alone
            assert "--root 1" not in str(refused.value)
            with pytest.raises(ValueError, match="largest finite") as refused:
                partial_sum_root_enclosure(1, n, 2)
            assert "--root 1" not in str(refused.value)
        # delta stays below 3/2 at any n: delta_bounds has no such limit
        assert delta_bounds(1, 10 ** 5000).upper <= 1.5

    def test_delta_lower_end_clamped_at_zero(self):
        # the 2**-96 grid puts sigma(nu+2, n+2)'s lower end at about
        # -2.5e-29 here; sigma > 0, so the bracket starts at 0.0
        assert _scaled.sigma_enc(10 ** 99 + 2, 10 ** 100 + 2)[0] < 0
        db = delta_bounds(10 ** 99, 10 ** 100)
        assert db.lower == 0.0 and math.copysign(1.0, db.lower) == 1.0
        assert 0.0 < db.upper < 1e-28


class TestPartialSumRoot:
    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=10 ** 6), st.integers(min_value=1, max_value=10 ** 6))
    def test_r1_exact_series(self, nu, n):
        assume(nu < n)
        e = partial_sum_root_enclosure(nu, n, 1)
        expected = n * (n + 1) // 2 - nu * (nu - 1) // 2
        assert e.lo == e.hi == float(expected)

    def test_r1_huge_range_brackets_exact_value(self):
        nu, n = 1, 10 ** 20  # series value far beyond 2**53
        e = partial_sum_root_enclosure(nu, n, 1)
        exact = n * (n + 1) // 2
        assert e.lo <= exact <= e.hi
        assert e.width() <= math.ulp(e.hi)

    def test_r1_refuses_a_sum_past_binary64(self):
        # about 2**1019: the endpoints are finite and hold the exact series
        n = 2 ** 510
        e = partial_sum_root_enclosure(1, n, 1)
        assert math.isfinite(e.hi)
        assert e.lo <= n * (n + 1) // 2 <= e.hi
        # about 2**1199: no binary64 holds it, and the message says so
        with pytest.raises(ValueError, match="largest finite.*--root 1"):
            partial_sum_root_enclosure(1, 2 ** 600, 1)

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=9999), st.integers(min_value=2, max_value=10 ** 4))
    def test_r2_identical_to_sqrt_path(self, nu, n):
        assume(nu < n)
        a = partial_sum_root_enclosure(nu, n, 2.0)
        b = partial_sum_sqrt_enclosure(nu, n)
        assert (a.lo, a.hi) == (b.lo, b.hi)

    @pytest.mark.parametrize(
        "nu,n", [(1, 10), (5, 50), (3, 1000), (100, 10 ** 7), (2 ** 53 - 5, 2 ** 53)]
    )
    def test_float_route_contains_the_sqrt_bracket_at_r2(self, nu, n):
        # the public function never sends r = 2 to the binary64 route: its
        # one-term bracket must hold the exact six-term integer bracket
        e, ref = _em_root_enclosure(nu, n, 2.0), partial_sum_sqrt_enclosure(nu, n)
        assert e.lo <= ref.lo and ref.hi <= e.hi

    def test_no_wider_than_the_sigma_route(self):
        # on a seeded grid up to 2**53 the Euler-Maclaurin enclosure is
        # never wider than the paper's sigma_r route, and the two meet
        rng = random.Random(27)
        for r in (1.01, 1.5, 2.5, 3.0, 4.0, 7.3, 10.0):
            for _ in range(300):
                n = min(2 ** 53, rng.randrange(2, 2 ** rng.randrange(2, 54) + 1))
                nu = min(n - 1, rng.choice([1, 2, n - 1, rng.randrange(1, n)]))
                e, ref = partial_sum_root_enclosure(nu, n, r), sigma_route_enclosure(nu, n, r)
                assert e.width() <= ref.width(), (nu, n, r)
                assert max(e.lo, ref.lo) <= min(e.hi, ref.hi), (nu, n, r)

    def test_half_width_at_cube_roots_to_1000(self):
        # one Bernoulli term leaves w = (1/3)(2/3)(5/3)/720 = 5.1e-4 at nu = 1
        assert partial_sum_root_enclosure(1, 1000, 3).half_width() <= 3e-4

    @pytest.mark.parametrize(
        "nu,n,r,truth",
        [
            (1, 1000, 3.0, "7504.722934729932504219077"),
            (1, 1000, 1.5, "60049.85035865547728340826"),
            (5, 3000, 10.0, None),
            (2, 9, 4.0, None),
            (1, 2, 1.0000001, None),
            (1, 10, 1e300, None),
            (1, 1000, 2.5, None),
        ],
    )
    def test_contains_mp_truth_fixed(self, nu, n, r, truth):
        e = partial_sum_root_enclosure(nu, n, r)
        with mp.workdps(60):
            value = mp_root_sum(nu, n, r) if truth is None else mp.mpf(truth)
            assert mp.mpf(e.lo) <= value <= mp.mpf(e.hi)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=799),
        st.integers(min_value=2, max_value=800),
        st.floats(min_value=1.0, max_value=12.0, allow_nan=False),
    )
    def test_contains_mp_truth_sampled(self, nu, n, r):
        assume(nu < n)
        e = partial_sum_root_enclosure(nu, n, r)
        with mp.workdps(60):
            truth = mp_root_sum(nu, n, r)
            assert mp.mpf(e.lo) <= truth <= mp.mpf(e.hi)

    @pytest.mark.parametrize("r", [3.0, 2.5, 7.3])
    def test_contains_a_direct_sum_at_large_n(self, r):
        # seeded ranges of fewer than 1500 terms ending anywhere up to
        # 2**53, each summed term by term at 40 digits: a reference that
        # shares nothing with the Euler-Maclaurin bracket
        rng = random.Random(f"large-n {r}")
        cases = [(2 ** 53 - 1, 2 ** 53), (2 ** 53 - 1499, 2 ** 53)]
        while len(cases) < 16:
            n = rng.randrange(2, 2 ** rng.randrange(12, 54) + 1)
            cases.append((max(1, n - rng.randrange(1, 1500)), n))
        with mp.workdps(40):
            e_r = 1 / mp.mpf(r)
            for nu, n in cases:
                enc = partial_sum_root_enclosure(nu, n, r)
                truth = mp.fsum(mp.mpf(k) ** e_r for k in range(nu, n + 1))
                assert mp.mpf(enc.lo) <= truth <= mp.mpf(enc.hi), (nu, n)

    def test_accepts_rootorder_instances(self):
        a = partial_sum_root_enclosure(1, 50, RootOrder(3.0))
        b = partial_sum_root_enclosure(1, 50, 3.0)
        assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_rejects_bad_orders_and_ranges(self):
        with pytest.raises(ValueError):
            partial_sum_root_enclosure(1, 10, 0.5)
        with pytest.raises(ValueError):
            partial_sum_root_enclosure(10, 10, 2.0)
        with pytest.raises(ValueError):
            partial_sum_root_enclosure(1, 2 ** 53 + 2, 3.0)

    def test_huge_empty_range_gives_its_reason(self):
        # 10**5000 is past the 4300-digit int/str limit, so a message that
        # rendered it would raise Python's limit error instead
        with pytest.raises(ValueError, match="need nu < n"):
            partial_sum_root_enclosure(10 ** 5000, 10 ** 5000, 1)


class TestLemma2:
    def test_frozen_values(self):
        assert lemma2_upper(2.0) == 1.3333333333333333
        assert lemma2_upper(1e6) == 666.667333333
        assert lemma2_lower(6.0) == 1.8367216023781678

    @settings(max_examples=150)
    @given(st.floats(min_value=2.0, max_value=1e12, allow_nan=False))
    def test_upper_envelope(self, x):
        assert eval_A(x) < lemma2_upper(x)

    @settings(max_examples=150)
    @given(st.floats(min_value=6.0, max_value=1e12, allow_nan=False))
    def test_lower_envelope(self, x):
        assert eval_A(x) > lemma2_lower(x)

    def test_domain_edges(self):
        assert eval_A(2.0) < lemma2_upper(2.0)
        assert eval_A(6.0) > lemma2_lower(6.0)
        with pytest.raises(ValueError):
            lemma2_upper(1.999)
        with pytest.raises(ValueError):
            lemma2_lower(5.999)

    @pytest.mark.parametrize(
        "fn,minimum", [(lemma2_upper, 2), (lemma2_lower, 6)], ids=["upper", "lower"]
    )
    def test_argument_policy(self, fn, minimum):
        check_argument_policy(fn, "x", minimum)

"""Scaled-integer brackets: every enclosure must pin its exact real value.

Ground truth comes from pure integer inequalities where possible (squaring
both sides), from high-precision mpmath elsewhere, and for the O(1) sum
brackets also from an exact prefix of floored roots (exact_prefix).
"""

import math

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rootmean import _scaled

ONE = _scaled.ONE
SQ = 1 << (2 * _scaled.BITS)

PREFIX_LIMIT = 400


def exact_prefix(limit: int) -> "list[int]":
    """prefix[j] = sum_{k=1}^{j} floor(sqrt(k) * 2**BITS), prefix[0] = 0: the
    reference the O(1) brackets are checked against.  Each term undershoots
    by < 1 unit, so prefix[b] - prefix[a-1] brackets sum_{k=a}^{b} sqrt(k)
    with b - a + 1 units of width."""
    out = [0]
    for k in range(1, limit + 1):
        out.append(out[-1] + math.isqrt(k * SQ))
    return out


@pytest.fixture(scope="module")
def prefix():
    return exact_prefix(PREFIX_LIMIT)


def main_term_enc(nu, n):
    """Bracket of 24 (n A(n) - (2/3) sqrt(nu)(nu - 3/4)) * 2**BITS =
    (4 (4n + 1) sqrt(n + 1) - 4 (4 nu - 3) sqrt(nu)) * 2**BITS."""
    a_lo, a_hi = _scaled.sqrt_enc(n + 1)
    h_lo, h_hi = _scaled.sqrt_enc(nu)
    a, h = 4 * (4 * n + 1), 4 * (4 * nu - 3)
    return a * a_lo - h * h_hi, a * a_hi - h * h_lo


def prefix_delta_enc(prefix, nu, n):
    """The remainder bracket recovered from the exact prefix."""
    m_lo, m_hi = main_term_enc(nu, n)
    s = prefix[n] - prefix[nu - 1]
    return m_lo - 24 * (s + n - nu + 1), m_hi - 24 * s


def mp_sum_sqrt(a: int, b: int) -> mp.mpf:
    with mp.workdps(60):
        return mp.fsum(mp.sqrt(k) for k in range(a, b + 1))


class TestSqrtEnc:
    @given(st.integers(min_value=0, max_value=10 ** 24))
    def test_bracket_by_squaring(self, k):
        lo, hi = _scaled.sqrt_enc(k)
        assert lo * lo <= k * SQ < hi * hi
        assert hi == lo + 1

    def test_exact_on_perfect_squares(self):
        lo, _ = _scaled.sqrt_enc(49)
        assert lo == 7 * ONE  # exact value sits on the lower endpoint

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _scaled.sqrt_enc(-1)


class TestRsqrtEnc:
    @given(st.integers(min_value=1, max_value=10 ** 18))
    def test_bracket_by_squaring(self, x):
        lo, hi = _scaled.rsqrt_enc(x)
        # lo <= 2**BITS / sqrt(x) <= hi, squared to integer comparisons
        assert lo * lo * x <= SQ <= hi * hi * x
        assert hi == lo + 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            _scaled.rsqrt_enc(0)


class TestSigmaEnc:
    @settings(max_examples=60)
    @given(
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=1, max_value=10 ** 6),
    )
    def test_bracket_contains_truth(self, nu, n):
        s_lo, s_hi = _scaled.sigma_enc(nu, n)
        with mp.workdps(60):
            if nu == 1:
                truth = (mp.mpf(3) / 2 - 1 / mp.sqrt(n)) * ONE
            else:
                truth = (1 / mp.sqrt(nu - 1) - 1 / mp.sqrt(n)) * ONE
            assert mp.mpf(s_lo) <= truth <= mp.mpf(s_hi)
        # width is a few units at scale 2**96: immaterial at any real scale
        assert s_hi - s_lo <= 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _scaled.sigma_enc(0, 5)


class TestDeltaEnc:
    def test_bracket_contains_mp_truth(self):
        for nu, n in [(1, 2), (1, 100), (2, 3), (17, 399), (250, 400)]:
            d_lo, d_hi = _scaled.delta_enc(nu, n)
            with mp.workdps(60):
                main = (4 * n + 1) * mp.sqrt(n + 1) / 6
                head = (4 * nu - 3) * mp.sqrt(nu) / 6
                truth = 24 * (main - head - mp_sum_sqrt(nu, n)) * ONE
                assert mp.mpf(d_lo) <= truth <= mp.mpf(d_hi)

    def test_overlaps_the_prefix_bracket(self, prefix):
        # two proven brackets of one real number must meet
        for n in range(2, PREFIX_LIMIT + 1):
            for nu in range(1, n):
                d_lo, d_hi = _scaled.delta_enc(nu, n)
                p_lo, p_hi = prefix_delta_enc(prefix, nu, n)
                assert max(d_lo, p_lo) <= min(d_hi, p_hi), (nu, n)

    @given(st.integers(min_value=1, max_value=10 ** 60), st.integers(min_value=1, max_value=10 ** 60))
    def test_nests_inside_the_sixths_bracket(self, nu, n):
        # reading each main term as floor or ceil of (t sqrt_enc) / 6 first
        # only widens the bracket: 24 floor(x/6) <= 4x <= 24 ceil(x/6)
        assume(nu < n)
        a_lo, a_hi = _scaled.sqrt_enc(n + 1)
        h_lo, h_hi = _scaled.sqrt_enc(nu)
        a, h = 4 * n + 1, 4 * nu - 3
        s_lo, s_hi = _scaled.range_enc(nu, n)
        lo = 24 * (a * a_lo // 6 + (-h * h_hi // 6) - s_hi)
        hi = 24 * (-(-a * a_hi // 6) - (h * h_lo // 6) - s_lo)
        d_lo, d_hi = _scaled.delta_enc(nu, n)
        assert lo <= d_lo <= d_hi <= hi

    def test_containment_between_sigma_brackets(self):
        # the remainder must sit strictly inside its elementary bracket,
        # certified end to end in integers
        for nu in range(1, PREFIX_LIMIT - 1):
            n = PREFIX_LIMIT
            d_lo, d_hi = _scaled.delta_enc(nu, n)
            s_lo, _ = _scaled.sigma_enc(nu, n)
            _, s2_hi = _scaled.sigma_enc(nu + 2, n + 2)
            assert s2_hi < d_lo, nu
            assert d_hi < s_lo, nu

    def test_first_kind_stays_below_three_halves(self):
        for n in range(2, PREFIX_LIMIT + 1):
            _, d_hi = _scaled.delta_enc(1, n)
            assert d_hi < 3 * ONE // 2, n

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            _scaled.delta_enc(5, 5)
        with pytest.raises(ValueError):
            _scaled.delta_enc(6, 5)
        with pytest.raises(ValueError):
            _scaled.delta_enc(0, 5)


class TestPartialSumEnc:
    def test_zeta_bracket_contains_mpmath(self):
        lo, hi = _scaled.ZETA_ENC
        with mp.workdps(50):
            truth = mp.zeta(-0.5) * ONE
            assert mp.mpf(lo) <= truth <= mp.mpf(hi)
        assert (hi - lo) / ONE < 2e-26
        # frozen: the head's 63 floored roots fix these bits
        assert _scaled.ZETA_ENC == (
            -16470443616982765670660569219,
            -16470443616982765670660568028,
        )

    def test_coefficients_match_bernoulli(self):
        # c_j = B_{2j}/(2j)! (1/2)(-1/2)...(1/2-2j+2), from mpmath's own
        # Bernoulli numbers
        with mp.workdps(50):
            for j, (num, den) in enumerate(_scaled._C, start=1):
                fall = mp.fprod(mp.mpf(1) / 2 - i for i in range(2 * j - 1))
                c = mp.bernoulli(2 * j) / mp.factorial(2 * j) * fall
                assert abs(mp.mpf(num) / den - c) <= abs(c) * mp.mpf(10) ** -45, j
                assert den > 0

    def test_head_is_the_prefix(self, prefix):
        assert _scaled._HEAD == prefix[: _scaled.HEAD_END]
        for n in range(1, _scaled.HEAD_END):
            assert _scaled.partial_sum_enc(n) == (prefix[n], prefix[n] + n)

    @settings(max_examples=60)
    @given(st.integers(min_value=_scaled.HEAD_END, max_value=PREFIX_LIMIT))
    def test_closure_contains_truth(self, n):
        lo, hi = _scaled.partial_sum_enc(n)
        with mp.workdps(60):
            truth = mp_sum_sqrt(1, n) * ONE
            assert mp.mpf(lo) <= truth <= mp.mpf(hi)
        # the head's 63 units, the zeta remainder and the roundings of N(n)
        assert hi - lo <= 1300 + n

    def test_closure_beyond_the_prefix(self):
        # sum_{k=1}^{n} sqrt(k) = zeta(-1/2, 1) - zeta(-1/2, n+1) (Hurwitz)
        for n in (4001, 20_000):
            lo, hi = _scaled.partial_sum_enc(n)
            with mp.workdps(60):
                truth = (mp.zeta(-0.5) - mp.zeta(-0.5, n + 1)) * ONE
                assert mp.mpf(lo) <= truth <= mp.mpf(hi), n

    def test_range_is_a_difference_of_wholes(self, prefix):
        # S(n) - S(nu - 1) with S(0) = 0 meets the exact prefix bracket
        assert _scaled.range_enc(1, 100) == _scaled.partial_sum_enc(100)
        for nu, n in [(1, 5), (2, 63), (60, 70), (64, 65), (100, 400), (400, 400)]:
            lo, hi = _scaled.range_enc(nu, n)
            s = prefix[n] - prefix[nu - 1]
            assert lo <= s + n - nu + 1 and s <= hi, (nu, n)

    def test_empty_sum_and_negative_n(self):
        # S(0) = 0 is the empty sum, exactly; only n < 0 is refused
        assert _scaled.partial_sum_enc(0) == (0, 0)
        with pytest.raises(ValueError):
            _scaled.partial_sum_enc(-1)

"""Exact integer parts: brute-force cross-checks and structural properties."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmean.exactfloor import alpha_floor, floor_A_exact, floor_via_alpha


def brute_floor_mean(n: int) -> int:
    """Independent oracle: floor of (1/n) sum sqrt(k) by scaled-integer
    summation, doubling the scale until the floor is pinned between the
    undershooting and overshooting bounds."""
    shift = 32
    while True:
        lo = sum(math.isqrt(k << (2 * shift)) for k in range(1, n + 1))
        hi = lo + n  # each floored term undershoots by < 1
        denom = n << shift
        f_lo, f_hi = lo // denom, hi // denom
        if f_lo == f_hi:
            return f_lo
        shift *= 2


def squared_radicand_floor(n: int) -> int:
    """Independent reference: m <= A(n) iff (6nm)^2 <= (4n+1)^2 (n+1), so
    the floor is isqrt of the floored radicand (4n+1)^2 (n+1) // (36 n^2),
    computed from the unreduced cubic-size numerator."""
    return math.isqrt((4 * n + 1) ** 2 * (n + 1) // (36 * n * n))


class TestFloorAExact:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, 1),
            (7, 1),  # last n with floor 1
            (8, 2),  # first n with floor 2
            (18, 2),
            (19, 3),
            (10 ** 7, 2108),
            (10 ** 30, 666666666666666),
        ],
    )
    def test_known_values(self, n, expected):
        assert floor_A_exact(n) == expected

    def test_brute_force_small_range(self):
        for n in range(1, 600):
            assert floor_A_exact(n) == brute_floor_mean(n), n

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=4000))
    def test_brute_force_sampled(self, n):
        assert floor_A_exact(n) == brute_floor_mean(n)

    def test_rejects_float_and_nonpositive(self):
        with pytest.raises(TypeError):
            floor_A_exact(8.0)
        with pytest.raises(TypeError):
            floor_A_exact("8")
        with pytest.raises(TypeError):
            floor_A_exact(True)
        with pytest.raises(ValueError):
            floor_A_exact(0)

    def test_huge_negative_refusal_gives_its_reason(self):
        # -10**5000 is past the 4300-digit int/str limit, so a message that
        # rendered it would raise Python's limit error instead
        with pytest.raises(ValueError, match="n must be >= 1"):
            floor_A_exact(-10 ** 5000)
        with pytest.raises(ValueError, match="m must be >= 0"):
            alpha_floor(-10 ** 5000)


class TestFloorThresholds:
    """floor_A_exact reads floor(A(n)^2) as (4n + 6) // 9; the dropped
    fraction (9n + 1)/(36 n^2) matters most where A(n) is closest to the
    next integer, just below each step at n = floor(alpha(m))."""

    def test_small_steps_and_first_n(self):
        ns = [1, 2, 3]
        for m in range(1, 10_001):
            n = alpha_floor(m)
            assert floor_A_exact(n) == m, m
            assert floor_A_exact(n + 1) == m + 1, m
            ns += [n, n + 1]
        for n in ns:
            assert floor_A_exact(n) == floor_via_alpha(n), n
            assert floor_A_exact(n) == squared_radicand_floor(n), n

    @pytest.mark.parametrize("digits", [500, 777, 1200])
    def test_steps_at_many_digits(self, digits):
        rng = random.Random(digits)
        for _ in range(20):
            m = rng.randrange(10 ** (digits - 1), 10 ** digits)
            n = alpha_floor(m)
            for k, expected in ((n, m), (n + 1, m + 1)):
                assert floor_A_exact(k) == expected
                assert floor_via_alpha(k) == expected
                assert squared_radicand_floor(k) == expected


class TestCrossMethod:
    @given(st.integers(min_value=1, max_value=10 ** 36))
    def test_agreement_everywhere(self, n):
        assert floor_A_exact(n) == floor_via_alpha(n)

    def test_agreement_small_dense(self):
        for n in range(1, 20_000):
            assert floor_A_exact(n) == floor_via_alpha(n), n

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            floor_via_alpha(10.0)


class TestAlphaFloor:
    @given(st.integers(min_value=0, max_value=10 ** 18))
    def test_closed_form_parity(self, s):
        # odd m = 2s-1: alpha is the exact integer 9 s^2 - 2
        if s >= 1:
            assert alpha_floor(2 * s - 1) == 9 * s * s - 2
        # even m = 2s: alpha = 9 s^2 + 9 s + 1/4, so its floor drops the 1/4
        assert alpha_floor(2 * s) == 9 * s * s + 9 * s

    @pytest.mark.parametrize("m,expected", [(1, 7), (2, 18), (3, 34), (4, 54), (5, 79)])
    def test_first_thresholds(self, m, expected):
        assert alpha_floor(m) == expected

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=10 ** 9))
    def test_floor_steps_exactly_at_threshold(self, m):
        n = alpha_floor(m)
        assert floor_A_exact(n) == m
        assert floor_A_exact(n + 1) == m + 1
        assert floor_via_alpha(n) == m
        assert floor_via_alpha(n + 1) == m + 1


class TestAlphaThreshold:
    """The step threshold alpha(m) = (9/4)(m+1)^2 - 2, kept as 4 alpha(m) =
    9(m+1)^2 - 8 so that even m (a quarter-integer alpha) stays exact:
    floor(A(n)) == m precisely when alpha_floor(m-1) < n <= alpha_floor(m)."""

    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_of_constructs_consistently(self, m):
        four_alpha = 9 * (m + 1) ** 2 - 8
        assert 4 * alpha_floor(m) <= four_alpha < 4 * alpha_floor(m) + 4
        assert four_alpha // 4 == alpha_floor(m)

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=10 ** 9))
    def test_admits_is_the_floor_step(self, m):
        # n <= alpha(m), decided as 4n <= 9(m+1)^2 - 8, is n <= alpha_floor(m)
        n = alpha_floor(m)
        for k in (n - 1, n, n + 1, n + 2):
            admits = 4 * k <= 9 * (m + 1) ** 2 - 8
            assert admits == (k <= alpha_floor(m)) == (floor_A_exact(k) <= m)
        assert n <= alpha_floor(m)
        assert not n + 1 <= alpha_floor(m)

    def test_validation(self):
        with pytest.raises(ValueError):
            alpha_floor(-1)
        with pytest.raises(TypeError):
            alpha_floor(1.5)
        with pytest.raises(TypeError):
            alpha_floor(True)

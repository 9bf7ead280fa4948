"""Reference values and answer checks for the benchmark, computed apart from
rootmean (nothing here imports it).

Partial sums of k^(1/r) come from the Euler-Maclaurin formula (DLMF 2.10.1)
in mpmath at a stated working precision.  The first terms, below HEAD, are
summed directly; the formula starts at HEAD, where the derivatives of
x^(1/r) are already small.  f^(2m)(x) has one sign on [HEAD, b], so the
remainder after the B_(2m-2) term is bounded by (DLMF 2.10.2)

    |R_m| <= (2 - 2^(1-2m)) |B_2m| / (2m)! |f^(2m-1)(b) - f^(2m-1)(c)|.

Every reference value carries an allowance `err` with |true - value| <= err:
that remainder bound plus a generous rounding allowance for the working
precision.  A check passes only when it holds for every real number within
the allowance, so an answer that sits exactly on its bound is refused
rather than passed by luck.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from mpmath import mp, mpf

HEAD = 32  # terms 1..HEAD-1 are summed directly before Euler-Maclaurin starts
DIRECT = 2000  # ranges shorter than this are summed directly
MEAN_DPS = 50  # working precision (decimal digits) for means and enclosures
_MAX_ORDER = 60


class Ref(NamedTuple):
    """A real number known to lie in [value - err, value + err]."""

    value: mpf
    err: mpf


def _rounding_allowance(value: mpf, ops: int) -> mpf:
    return (abs(value) + 1) * ops * mpf(10) ** (-(mp.dps - 3))


def _direct(a: int, b: int, s: mpf) -> Ref:
    total = mp.fsum(mpf(k) ** s for k in range(a, b + 1))
    return Ref(total, _rounding_allowance(total, b - a + 2))


def _euler_maclaurin(c: int, b: int, s: mpf) -> Ref:
    """sum_{k=c}^{b} k^s for c >= 2, with a rigorous remainder bound."""
    bf, cf = mpf(b), mpf(c)
    b_pow, c_pow = bf ** s, cf ** s
    total = (b_pow * bf - c_pow * cf) / (s + 1) + (b_pow + c_pow) / 2
    tol = abs(total) * mpf(10) ** (-(mp.dps - 2))
    b_inv2, c_inv2 = 1 / (bf * bf), 1 / (cf * cf)
    # f^(k)(x) = s (s-1) ... (s-k+1) x^(s-k), stepped two orders at a time
    fall = s  # falling factorial of order 2m-1
    b_der, c_der = b_pow / bf, c_pow / cf  # x^(s-(2m-1))
    remainder = None
    for m in range(1, _MAX_ORDER + 1):
        coef = mp.bernoulli(2 * m) / mp.factorial(2 * m)
        term = coef * fall * (b_der - c_der)
        bound = (2 - mpf(2) ** (1 - 2 * m)) * abs(term)
        if bound <= tol or m == _MAX_ORDER:
            remainder = bound
            break
        total += term
        k = 2 * m - 1
        fall *= (s - k) * (s - k - 1)
        b_der *= b_inv2
        c_der *= c_inv2
    return Ref(total, remainder + _rounding_allowance(total, 8 * m + 16))


def sum_roots(a: int, b: int, r: float, dps: int = MEAN_DPS, *, method: str = "auto") -> Ref:
    """sum_{k=a}^{b} k^(1/r) for 1 <= a <= b, at dps decimal digits.

    method "auto" sums short ranges directly and uses Euler-Maclaurin
    otherwise; "direct" and "em" force one route (the self-test compares
    them)."""
    if not 1 <= a <= b:
        raise ValueError(f"need 1 <= a <= b, got a={a}, b={b}")
    with mp.workdps(dps):
        s = 1 / mpf(r)
        if method == "direct" or (method == "auto" and b - a < DIRECT):
            return _direct(a, b, s)
        c = max(a, HEAD)
        tail = _euler_maclaurin(c, b, s)
        if c == a:
            return tail
        head = _direct(a, c - 1, s)
        return Ref(head.value + tail.value, head.err + tail.err)


def mean_sqrt(n: int, dps: int = MEAN_DPS) -> Ref:
    """Sigma(n) = (1/n) sum_{k=1}^{n} sqrt(k)."""
    total = sum_roots(1, n, 2, dps)
    with mp.workdps(dps):
        value = total.value / n
        return Ref(value, total.err / n + _rounding_allowance(value, 2))


def floor_of_mean(n: int) -> int:
    """floor(Sigma(n)) from the Euler-Maclaurin reference, at a precision
    that grows with the digits of n.  Raises if the allowance straddles an
    integer even after one retry at double precision."""
    dps = int(n.bit_length() * 0.30103) // 2 + 40
    for _ in range(2):
        ref = mean_sqrt(n, dps)
        with mp.workdps(dps):
            lo = int(mp.floor(ref.value - ref.err))
            hi = int(mp.floor(ref.value + ref.err))
        if lo == hi:
            return lo
        dps *= 2
    raise ArithmeticError(f"reference cannot separate floor(Sigma(n)) at n={n}")


# ---- answer checks: each returns None when the answer holds, else a reason


def check_mean(value: float, bound: float, eps: float, ref: Ref) -> "str | None":
    """error_bound <= eps, and |value - Sigma(n)| <= error_bound for every
    Sigma(n) within the reference allowance, decided at MEAN_DPS digits."""
    if not (math.isfinite(value) and math.isfinite(bound)):
        return f"non-finite answer value={value!r} bound={bound!r}"
    if bound > eps:
        return f"error_bound {bound!r} exceeds eps {eps!r}"
    with mp.workdps(MEAN_DPS):
        miss = abs(mpf(value) - ref.value) + ref.err
        if miss > mpf(bound):
            return (
                f"|value - Sigma(n)| may reach {mp.nstr(miss, 8)} "
                f"> error_bound {bound!r}"
            )
    return None


def check_floor(n: int, m: int) -> "str | None":
    """m == floor(A(n)) decided by (6nm)^2 <= (4n+1)^2 (n+1) < (6n(m+1))^2."""
    if not isinstance(m, int):
        return f"floor is not an integer: {m!r}"
    radicand = (4 * n + 1) ** 2 * (n + 1)
    if (6 * n * m) ** 2 > radicand:
        return "floor too high: (6nm)^2 > (4n+1)^2 (n+1)"
    if radicand >= (6 * n * (m + 1)) ** 2:
        return "floor too low: (4n+1)^2 (n+1) >= (6n(m+1))^2"
    return None


def check_enclosure(lo: float, hi: float, ref: Ref) -> "str | None":
    """[lo, hi] contains every real within the reference allowance."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        return f"malformed enclosure [{lo!r}, {hi!r}]"
    with mp.workdps(MEAN_DPS):
        if mpf(lo) > ref.value - ref.err or mpf(hi) < ref.value + ref.err:
            return (
                f"enclosure [{lo!r}, {hi!r}] misses the reference sum "
                f"{mp.nstr(ref.value, 25)}"
            )
    return None


def check_sweep(max_n: int, checked: int, mismatches: list) -> "str | None":
    if checked != max_n:
        return f"sweep checked {checked} of {max_n}"
    if mismatches:
        return f"sweep reports {len(mismatches)} mismatches, first {mismatches[0]}"
    return None


def _expect(holds: bool, context: object) -> None:
    if not holds:
        raise AssertionError(f"benchmark reference self-test failed at {context!r}")


def self_test() -> None:
    """Raise AssertionError unless the reference agrees with direct mp.fsum
    for n <= 10^4 and every check refuses an answer moved past its bound."""
    for a, b, r in ((1, 10_000, 2), (1, 5_000, 3), (7, 8_000, 2.5), (40, 3_000, 2)):
        em = sum_roots(a, b, r, method="em")
        direct = sum_roots(a, b, r, method="direct")
        with mp.workdps(MEAN_DPS):
            gap = abs(em.value - direct.value)
            _expect(gap <= em.err + direct.err, (a, b, r, gap))
            # the allowance must be meaningful, not a blanket pass
            _expect(em.err < mpf(10) ** -30, (a, b, r, em.err))

    ref = mean_sqrt(10_000)
    value = float(ref.value)
    _expect(check_mean(value, 1e-12, 1e-11, ref) is None, "mean held")
    _expect(check_mean(value + 3e-12, 1e-12, 1e-11, ref) is not None, "mean moved")
    _expect(check_mean(value, 2e-11, 1e-11, ref) is not None, "bound over eps")

    for n in (12_345, 10**30 + 7, 7 * 10**200 + 3):
        m = math.isqrt((4 * n + 1) ** 2 * (n + 1) // (36 * n * n))
        _expect(check_floor(n, m) is None, n)
        _expect(check_floor(n, m + 1) is not None, n)
        _expect(check_floor(n, m - 1) is not None, n)
        _expect(floor_of_mean(n) == m, n)

    enc = sum_roots(5, 9_000, 3)
    mid, w = float(enc.value), 1e-9
    _expect(check_enclosure(mid - w, mid + w, enc) is None, "enclosure held")
    _expect(check_enclosure(mid + 2 * w, mid + 3 * w, enc) is not None, "enclosure moved up")
    _expect(check_enclosure(mid - 3 * w, mid - 2 * w, enc) is not None, "enclosure moved down")

    _expect(check_sweep(100, 100, []) is None, "sweep held")
    _expect(check_sweep(100, 99, []) is not None, "sweep short")
    _expect(check_sweep(100, 100, [(5, 1, 2)]) is not None, "sweep mismatch")

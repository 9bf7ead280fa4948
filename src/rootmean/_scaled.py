"""Scaled-integer enclosures for certified comparisons.

A real v is represented by an integer bracket (lo, hi) meaning

    lo <= v * 2**BITS <= hi,

maintained exactly under integer arithmetic.  binary64 cannot certify the
remainder recovery

    delta = 24 * (n*A(n) - (2/3)*sqrt(nu)*(nu - 3/4) - sum_{k=nu}^{n} sqrt(k)):

the operands reach ~2e7 while the admissible bracket margin shrinks like
nu^(-3/2) (below 1e-12 for nu near n <= 1e5), so a single rounding of the
main term already overwhelms the comparison.

partial_sum_enc (S) brackets the whole sum sum_{k=1}^{n} sqrt(k) for any
n: an exact 63-term head, an import-time bracket of zeta(-1/2), and the
n-side Euler-Maclaurin terms, each a rational times sqrt_enc(n).  Every
range sum_{k=nu}^{n} sqrt(k) is read as range_enc = S(n) - S(nu - 1),
about (2/3)(n + nu) units wide.  asymptotic's square-root enclosure rounds
it outward once; delta_enc subtracts 24 times it from the paper's main
terms, about 32 (n + nu) units wide: 8e-22 at n = 10**6, where the
containment margin at nu = n - 1 is 1.5e-15.  That margin falls like
n**(-5/2) and meets the width near n = 10**8.

Internal module; the public floating-point API lives in asymptotic and
evaluator.
"""

from __future__ import annotations

import math

BITS = 96
ONE = 1 << BITS
_SQ_SHIFT = 2 * BITS


def sqrt_enc(k: int) -> tuple[int, int]:
    """Bracket of sqrt(k) * 2**BITS for integer k >= 0 (math.isqrt refuses
    k < 0)."""
    v = math.isqrt(k << _SQ_SHIFT)
    return v, v + 1


def rsqrt_enc(x: int) -> tuple[int, int]:
    """Bracket of x**(-1/2) * 2**BITS for integer x >= 1.

    g = isqrt(4**BITS // x) satisfies g <= 2**BITS/sqrt(x) < g + 2: the floor
    division loses < 1 in the radicand, isqrt loses < 1 more, and
    sqrt(q + 1) < sqrt(q) + 1.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    g = math.isqrt((1 << _SQ_SHIFT) // x)
    return g, g + 2


def range_enc(nu: int, n: int) -> tuple[int, int]:
    """Bracket of sum_{k=nu}^{n} sqrt(k) * 2**BITS for 1 <= nu <= n (the
    caller checks the range): S(n) - S(nu - 1), with S = partial_sum_enc and
    S(0) = 0, so O(1) integer operations at any n."""
    t_lo, t_hi = partial_sum_enc(n)
    b_lo, b_hi = partial_sum_enc(nu - 1)
    return t_lo - b_hi, t_hi - b_lo


def delta_enc(nu: int, n: int) -> tuple[int, int]:
    """Bracket of the recovered remainder
    delta = 24 (n A(n) - (2/3) sqrt(nu)(nu - 3/4) - sum_{k=nu}^{n} sqrt(k)),
    scaled by 2**BITS; needs 1 <= nu < n.  The main terms are read with no
    division, 24 n A(n) = 4 (4n + 1) sqrt(n + 1) and 24 (2/3) sqrt(nu)
    (nu - 3/4) = 4 (4 nu - 3) sqrt(nu), each a positive integer times
    sqrt_enc; the sum is range_enc(nu, n).  Dividing each main term by 6
    first could only widen this: 24 floor(x/6) <= 4x <= 24 ceil(x/6)."""
    if not 1 <= nu < n:
        raise ValueError(f"need 1 <= nu < n, got nu={nu}, n={n}")
    a, h = 4 * (4 * n + 1), 4 * (4 * nu - 3)
    a_lo, a_hi = sqrt_enc(n + 1)
    h_lo, h_hi = sqrt_enc(nu)
    s_lo, s_hi = range_enc(nu, n)
    return a * a_lo - h * h_hi - 24 * s_hi, a * a_hi - h * h_lo - 24 * s_lo


def sigma_enc(nu: int, n: int) -> tuple[int, int]:
    """Bracket of sigma(nu, n) * 2**BITS where sigma(1, n) = 3/2 - n**(-1/2)
    and sigma(nu, n) = (nu-1)**(-1/2) - n**(-1/2) for nu >= 2."""
    if nu < 1 or n < 1:
        raise ValueError(f"need nu >= 1 and n >= 1, got nu={nu}, n={n}")
    t_lo, t_hi = rsqrt_enc(n)
    if nu == 1:
        h_lo = h_hi = 3 * ONE // 2  # exact: ONE is even
    else:
        h_lo, h_hi = rsqrt_enc(nu - 1)
    return h_lo - t_hi, h_hi - t_lo


# The whole sum sum_{k=1}^{n} sqrt(k): a fixed exact head and one
# Euler-Maclaurin closure (see partial_sum_enc).
HEAD_END = 64  # a: terms 1..a-1 are summed exactly, a..n are closed
EM_TERMS = 6  # p: Bernoulli terms kept in the closure
_SQRT_A = 8  # sqrt(HEAD_END), exact

# B_2, B_4, ..., B_{2p+2} as (numerator, denominator)
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6))


def _em_coefficient(j: int) -> tuple[int, int]:
    """c_j = B_{2j}/(2j)! * (1/2)(-1/2)...(1/2-2j+2) in lowest terms, as
    (numerator, denominator > 0).  The (2j-1)-th derivative of sqrt(x) is
    (1/2)(-1/2)...(1/2-2j+2) x^(1/2-2j+1), so the j-th Bernoulli term of
    the closure at x is c_j sqrt(x) / x^(2j-1)."""
    num, den = _BERNOULLI[j - 1]
    for i in range(2 * j - 1):
        num *= 1 - 2 * i
    den *= math.factorial(2 * j) * 2 ** (2 * j - 1)
    g = math.gcd(num, den)
    return num // g, den // g


_C = tuple(_em_coefficient(j) for j in range(1, EM_TERMS + 2))  # c_1..c_{p+1}

# N(x) = sqrt(x) Q(x) with Q(x) = (2/3) x + 1/2 + sum_{j<=p} c_j x^(1-2j).
# Over the common denominator _L x^(2p-1), Q's numerator is
# _Q_TOP x^(2p) + _Q_HALF x^(2p-1) + sum_j _Q_EVEN[j-1] x^(2p-2j).
_L = math.lcm(6, *(den for _, den in _C[:EM_TERMS]))
_Q_TOP = _L * 2 // 3
_Q_HALF = _L // 2
_Q_EVEN = tuple(num * (_L // den) for num, den in _C[:EM_TERMS])


def _closure_enc(x: int) -> tuple[int, int]:
    """Bracket of N(x) * 2**BITS, where N(x) = (2/3) x^(3/2) + sqrt(x)/2 +
    sum_{j<=p} c_j sqrt(x)/x^(2j-1) are the x-side Euler-Maclaurin terms,
    for integer x >= 1: the exact rational Q(x) > 0 times sqrt_enc(x), one
    floor and one ceiling division."""
    m = x * x
    num = _Q_TOP
    for c in _Q_EVEN:
        num = num * m + c
    t = x ** (2 * EM_TERMS - 1)
    num += _Q_HALF * t
    den = _L * t
    s_lo, s_hi = sqrt_enc(x)
    return s_lo * num // den, -((-s_hi * num) // den)


_HEAD = [0]  # [j]: sum_{k<=j} floor(sqrt(k) * 2**BITS), < j units under the sum
for _k in range(1, HEAD_END):
    _HEAD.append(_HEAD[-1] + sqrt_enc(_k)[0])


def _zeta_enc() -> tuple[int, int]:
    """Bracket of zeta(-1/2) * 2**BITS = (H(a) - N(a) + R(a, inf)) * 2**BITS,
    with H(a) = sum_{k=1}^{a} sqrt(k) (the exact head plus sqrt(a) = 8) and
    R(a, inf) in [-w, 0], w = c_{p+1} a^(-2p-1/2) (see partial_sum_enc)."""
    n_lo, n_hi = _closure_enc(HEAD_END)
    head = _HEAD[-1] + _SQRT_A * ONE
    c_num, c_den = _C[EM_TERMS]
    w_up = -((-c_num * ONE) // (c_den * _SQRT_A * HEAD_END ** (2 * EM_TERMS)))
    return head - n_hi - w_up, head + (HEAD_END - 1) - n_lo


ZETA_ENC = _zeta_enc()


def partial_sum_enc(n: int) -> tuple[int, int]:
    """Bracket of sum_{k=1}^{n} sqrt(k) * 2**BITS for any integer n >= 0.

    n < a = HEAD_END: the exact head table, one unit of width per term (the
    empty sum S(0) = 0 has none).
    n >= a: ZETA_ENC + the bracket of N(n), with the n-side terms N as in
    _closure_enc.

    Theorem (Euler-Maclaurin with a signed remainder; DLMF 2.10(i), Olver,
    Asymptotics and Special Functions, ch. 8).  Let a <= n be integers and
    f have 2p+4 continuous derivatives on [a, n].  Then

        sum_{k=a}^{n} f(k) = int_a^n f + (f(a) + f(n))/2
            + sum_{j=1}^{p} B_{2j}/(2j)! (f^(2j-1)(n) - f^(2j-1)(a)) + R,

    and if f^(2p+2) and f^(2p+4) have one constant sign on [a, n], then
    R = theta B_{2p+2}/(2p+2)! (f^(2p+1)(n) - f^(2p+1)(a)) for some theta in
    [0, 1]: R lies between 0 and the first omitted term.

    For f = sqrt, f^(2k)(x) = (1/2)(-1/2)...(1/2-2k+1) x^(1/2-2k) has one
    positive and 2k-1 negative factors, so every even derivative is
    negative on [a, inf) and the hypothesis holds for every p.  The formula
    reads sum_{k=a}^{n} sqrt(k) = N(n) - N(a) + sqrt(a) + R(a, n), and the
    first omitted term is c_{p+1} (n^(-2p-1/2) - a^(-2p-1/2)) with c_{p+1} >
    0, so R(a, n) lies in [-w, 0], w = c_{p+1} a^(-2p-1/2).  Adding the head
    1..a-1 gives

        sum_{k=1}^{n} sqrt(k) = H(a) - N(a) + R(a, n) + N(n),

    and H(a) - N(a) + [-w, 0] is ZETA_ENC, which also holds zeta(-1/2) =
    H(a) - N(a) + R(a, inf) (N(n) - (2/3) n^(3/2) - sqrt(n)/2 -> 0).  At
    a = 64, p = 6 the closure adds w ~ 1.4e-26 and the roundings of N(n)
    (about (2/3) n units of 2**-96) to the 63 units of the head.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n < HEAD_END:
        s = _HEAD[n]
        return s, s + n
    n_lo, n_hi = _closure_enc(n)
    return ZETA_ENC[0] + n_lo, ZETA_ENC[1] + n_hi

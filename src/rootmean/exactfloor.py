"""Exact integer parts of the mean of the first n square roots.

The mean Sigma(n) = (1/n) sum_{k=1}^{n} sqrt(k) has the same integer part as
the closed form

    A(n) = (2/3) sqrt(n+1) (1 + 1/(4n)) = (4n+1) sqrt(n+1) / (6n),

so floor(Sigma(n)) is computable without summing anything.  This module does
that computation two independent ways, both in pure integer arithmetic:
directly, as the integer square root of floor(A(n)^2) = (4n+6) // 9, and
through the threshold sequence alpha(m) = (9/4)(m+1)^2 - 2 at which the
floor steps from m to m+1.
Floating point is banned here: near a threshold the gap between A(n) and the
next integer shrinks like O(n^(-1/2)) and drops below binary64 resolution
for n beyond ~1e15.
"""

from __future__ import annotations

import math
import operator

__all__ = [
    "floor_A_exact",
    "floor_via_alpha",
    "alpha_floor",
]


def _as_index(n: object, *, minimum: int = 1, name: str = "n") -> int:
    """Validate an exact integer argument; the one index check of the package.
    Floats are refused outright (the whole point of this module is that
    nothing ever rounds), and so is bool, which is an int only by accident."""
    if type(n) is not int:  # a plain int, the common case, needs no conversion
        if isinstance(n, bool):
            raise TypeError(f"{name} must be an integer, not bool")
        try:
            n = operator.index(n)  # type: ignore[arg-type]
        except TypeError:
            raise TypeError(
                f"{name} must be an exact integer, got {type(n).__name__}"
            ) from None
    if n < minimum:
        raise ValueError(f"{name} must be >= {minimum}")  # n may be too long to render
    return n


def floor_A_exact(n: int) -> int:
    """floor(A(n)), equivalently the integer part of the mean of the first
    n square roots, as isqrt((4n + 6) // 9): one division by a small
    constant and one integer square root.

    For positive integers m:  m <= A(n)  iff  m^2 <= A(n)^2, and flooring
    the radicand first cannot change the answer: whether m^2 is below a
    rational and whether it is below its floor agree for integer m^2.  So
    the floor is isqrt(floor(A(n)^2)), and the radicand reduces to

        A(n)^2 = (4n+1)^2 (n+1) / (36 n^2) = (16n + 24)/36 + (9n + 1)/(36 n^2).

    16n + 24 is a multiple of 4, so its remainder r mod 36 is at most 32,
    and the second fraction carries the sum past the next integer only if
    (9n + 1)/n^2 >= 36 - r >= 4, so only if 9n + 1 >= 4n^2, which holds for
    no n >= 3; n = 1 and n = 2 give (4n + 6) // 9 = 1 = floor(A(n)^2)
    directly.  Hence floor(A(n)^2) = (16n + 24) // 36 = (4n + 6) // 9.
    """
    n = _as_index(n)
    return math.isqrt((4 * n + 6) // 9)


def floor_via_alpha(n: int) -> int:
    """floor(A(n)) by threshold search: the smallest m >= 1 whose threshold
    alpha(m) = (9/4)(m+1)^2 - 2 admits n, decided in integers as
    4n <= 9(m+1)^2 - 8.

    This never forms the radicand A(n)^2, so it is an independent route
    that must agree with floor_A_exact everywhere (the test suite enforces
    that).
    """
    n = _as_index(n)
    target = 4 * n + 8
    # smallest s = m+1 with 9 s^2 >= target; the initial guess floors the
    # real root, so the correction only ever steps upward
    s = math.isqrt(target // 9)
    while 9 * s * s < target:
        s += 1
    return s - 1


def alpha_floor(m: int) -> int:
    """floor(alpha(m)) for alpha(m) = (9/4)(m+1)^2 - 2, i.e.
    (9(m+1)^2 - 8) // 4.

    alpha(m) is itself an integer for odd m (alpha(2s-1) = 9 s^2 - 2) and a
    quarter above this floor for even m (alpha(2s) = 9 s^2 + 9 s + 1/4).
    Since n is an integer, n <= alpha(m) iff n <= alpha_floor(m), so
    floor(A(n)) == m precisely when alpha_floor(m-1) < n <= alpha_floor(m).
    """
    m = _as_index(m, minimum=0, name="m")
    return (9 * (m + 1) ** 2 - 8) // 4


"""Certified floating-point enclosures for partial sums of k^(1/r).

The paper's square-root identity (for 1 <= nu < n) is

    sum_{k=nu}^{n} sqrt(k) = n A(n) - (2/3) sqrt(nu) (nu - 3/4) - delta/24,
    A(x) = (2/3) sqrt(x+1) (1 + 1/(4x)),

where the remainder delta = delta_{nu,n} collects the trapezium errors of
integrating sqrt over [nu, n] and is pinned by elementary terms:

    sigma(nu+2, n+2)  <  delta_{nu,n}  <  sigma(nu, n),
    sigma(nu, n) = 3/2 - n^(-1/2)            if nu == 1,
                   (nu-1)^(-1/2) - n^(-1/2)  otherwise.

delta_bounds returns the sigma bracket, and `rootmean verify --mode delta`
checks it against the delta that _scaled.delta_enc recovers.  No
enclosure reads it.  Every enclosure but the exact r = 1 series
(arithmetic) rests on one theorem, Euler-Maclaurin with a signed remainder
(stated in _scaled.partial_sum_enc): the square-root enclosure is
S(n) - S(nu - 1), S being the bracket of the whole sum with six Bernoulli
terms in 2**96-scaled integers, and for other r _em_root_enclosure keeps
one Bernoulli term from nu to n, in binary64.

Endpoints are binary64.  The square-root and r = 1 sums are bracketed
exactly in integers and rounded outward once, at any n whose sum binary64
holds; the other r are evaluated in binary64 from two exp/log powers
(_pow_value, the one helper that trusts libm), widened by an error budget,
and refuse integers that binary64 cannot represent exactly.
"""

from __future__ import annotations

import math
import sys

from . import _scaled
from .exactfloor import _as_index

__all__ = [
    "Enclosure",
    "DeltaBounds",
    "RootOrder",
    "eval_A",
    "delta_bounds",
    "partial_sum_sqrt_enclosure",
    "partial_sum_root_enclosure",
    "lemma2_upper",
    "lemma2_lower",
]


_MAX_EXACT = 2 ** 53  # largest n the floating path accepts
_FLOAT_MAX = int(sys.float_info.max)  # binary64's largest finite value, exactly


def _check_float_range(n: int, name: str, instead: str) -> int:
    """The floating path refuses n beyond 2**53 rather than silently losing
    integer precision: every integer up to 2**53 converts to binary64
    exactly.  This is the package's one 2**53 guard, reached by eval_A, the
    envelopes, RootOrder's r, fast_mean's epsilon, the r-th-root enclosures
    for r other than 1 and 2 and the oracle (and the sweep and the CLI
    through them); the exact integer paths never call it.  The message
    names the bound, not n, which may be too long to render, and ends with
    `instead`, the caller's way past it."""
    if n > _MAX_EXACT:
        raise ValueError(f"{name} exceeds 2**53; binary64 cannot carry it exactly: {instead}")
    return n


def _real_number(
    x: object,
    minimum: int,
    name: str,
    instead: str = "use the exact integer routines (floor_A_exact) instead",
) -> float:
    """x >= minimum as a finite binary64: the package's one real-number
    check.  A float is checked for its domain and finiteness.  Any other
    value must be an exact integer (_as_index), checked for its domain
    first, so one far below the minimum is refused for its sign, not its
    size; it must then convert to binary64 exactly (_check_float_range,
    whose message ends with `instead`).  Nothing else is converted:
    float() would parse text, read a bool as 0 or 1, and round a Fraction
    or Decimal, so those raise TypeError."""
    if isinstance(x, float):
        if x < minimum:
            raise ValueError(f"{name} must be >= {minimum}")
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
        return x if type(x) is float else float(x)  # numpy.float64 becomes a float
    try:
        n = _as_index(x, minimum=minimum, name=name)
    except TypeError:
        raise TypeError(f"{name} must be a real number, got {type(x).__name__}") from None
    return float(_check_float_range(n, name, instead))


class _Record:
    """Base of the package's frozen records, in place of a frozen dataclass
    (whose import costs more than the rest of the package).  A subclass
    lists its slots in __slots__ and its public fields, in order, in
    _fields, and its __init__ sets every slot once through _setters.  Two
    records are equal when they are of the same class with equal fields;
    hash, repr ("Enclosure(lo=1.0, hi=3.0)"), copy and pickle follow the
    fields too, pickle by calling the class on them.  Assigning or deleting
    an attribute raises AttributeError."""

    __slots__ = ()
    _fields: "tuple[str, ...]" = ()
    _setters: tuple

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # each slot's own setter, in __slots__ order: __setattr__ below
        # refuses every assignment, and calling a setter is quicker than
        # object.__setattr__ (records are built on every query)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Enclosure(_Record):
    """A closed interval [lo, hi] guaranteed to contain a true real value."""

    __slots__ = _fields = ("lo", "hi")
    lo: float
    hi: float

    def __init__(self, lo: float, hi: float) -> None:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("enclosure endpoints must be finite")
        if lo > hi:
            raise ValueError(f"empty enclosure: lo={lo!r} > hi={hi!r}")
        set_lo, set_hi = self._setters
        set_lo(self, lo)
        set_hi(self, hi)

    def width(self) -> float:
        return self.hi - self.lo

    def midpoint(self) -> float:
        return self.lo + 0.5 * (self.hi - self.lo)

    def half_width(self) -> float:
        """Radius around midpoint() that covers the whole interval:
        midpoint() - half_width() <= lo and hi <= midpoint() + half_width(),
        guaranteed despite rounding (the subtractions are nudged outward)."""
        mid = self.midpoint()
        hw = max(self.hi - mid, mid - self.lo)
        while mid + hw < self.hi or mid - hw > self.lo:
            hw = math.nextafter(hw, math.inf)
        return hw

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


class DeltaBounds(_Record):
    """Elementary bracket (lower, upper) pinning the remainder delta strictly
    from both sides; delta_bounds rounds the exact bracket outward to these
    binary64 endpoints."""

    __slots__ = _fields = ("lower", "upper")
    lower: float
    upper: float

    def __init__(self, lower: float, upper: float) -> None:
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise ValueError("bounds must be finite")
        if lower < 0.0 or lower > upper:
            raise ValueError(f"invalid bracket ({lower!r}, {upper!r})")
        set_lower, set_upper = self._setters
        set_lower(self, lower)
        set_upper(self, upper)


class RootOrder(_Record):
    """Root index r >= 1: terms are k^(1/r).  r=2 is the square root, r=1 the
    exact arithmetic series.  r is a finite float, or an exact integer up
    to 2**53 (_real_number); anything else is refused."""

    __slots__ = _fields = ("r",)
    r: float

    def __init__(self, r: float) -> None:
        (set_r,) = self._setters
        set_r(self, _real_number(r, 1, "r", "pass r as a float"))


def eval_A(x: float) -> float:
    """A(x) = (2/3) sqrt(x+1) (1 + 1/(4x)), strictly increasing for x >= 1.

    floor(A(n)) equals the integer part of the mean of the first n square
    roots; exactfloor computes that without any floating point.
    """
    x = _real_number(x, 1, "x")
    return (2.0 / 3.0) * math.sqrt(x + 1.0) * (1.0 + 0.25 / x)


def _index_range(nu: object, n: object) -> tuple[int, int]:
    """(nu, n) checked as exact integers with 1 <= nu < n: the one range
    check of delta_bounds and the partial-sum enclosures."""
    nu = _as_index(nu, name="nu")
    n = _as_index(n)
    if nu >= n:
        raise ValueError("need nu < n")
    return nu, n


def _series_sum(nu: int, n: int) -> int:
    """sum_{k=nu}^{n} k for integers nu <= n, exactly: the r = 1 series."""
    return (nu + n) * (n - nu + 1) // 2


def delta_bounds(nu: int, n: int) -> DeltaBounds:
    """The bracket (sigma(nu+2, n+2), sigma(nu, n)) around the remainder
    delta_{nu,n}, taken from the exact 2**96-scaled brackets and rounded
    outward once, for any nu < n; sigma(nu+2, n+2) > 0, so a lower end the
    2**-96 grid puts at or below 0 (as near n = 10**100) is raised to 0.0."""
    nu, n = _index_range(nu, n)
    enc = _outward(
        _scaled.sigma_enc(nu + 2, n + 2)[0], _scaled.sigma_enc(nu, n)[1], _scaled.ONE
    )
    return DeltaBounds(max(0.0, enc.lo), enc.hi)


def _round_up(num: int, den: int) -> float:
    """The smallest binary64 >= num/den, for den > 0: the correctly rounded
    int/int division, stepped one ulp up when it rounded down."""
    q = num / den
    qn, qd = q.as_integer_ratio()
    if qn * den < num * qd:
        q = math.nextafter(q, math.inf)
    return q


def _outward(lo: int, hi: int, den: int = 1, instead: str = "") -> Enclosure:
    """The binary64 enclosure of the rational interval [lo/den, hi/den], den
    > 0: the package's one refusal of an end past binary64's finite range,
    whose message ends with `instead`, the caller's way past it, if any."""
    if max(hi, -lo) > _FLOAT_MAX * den:
        raise ValueError(f"value exceeds binary64's largest finite value, about 1.8e308{instead}")
    return Enclosure(-_round_up(-lo, den), _round_up(hi, den))


def partial_sum_sqrt_enclosure(nu: int, n: int) -> Enclosure:
    """Certified enclosure of sum_{k=nu}^{n} sqrt(k) for 1 <= nu < n, without
    summing anything: S(n) - S(nu - 1), with S the Euler-Maclaurin bracket of
    the whole sum (_scaled.partial_sum_enc) in 2**96-scaled integers and
    S(0) = 0, rounded outward once; n up to about 4.2e205."""
    nu, n = _index_range(nu, n)
    return _outward(*_scaled.range_enc(nu, n), _scaled.ONE)


def _pow_value(x: float, e: float) -> tuple[float, float]:
    """x**e as exp(e log x), plus a relative error budget: the package's one
    helper that trusts libm.

    log and exp are assumed faithful (<= 1 ulp each, true of every libm this
    runs on); the error is dominated by the log error scaled through exp,
    hence grows with |u| = |e log x|, and stays under half the budget.  The
    other half holds the rounding of e itself when e is a binary64 exponent
    standing for a real one (1/r): that moves k**e, for every 1 <= k <= x,
    by a factor within |u| 2**-53 of 1 (2**-1069 for a subnormal e).
    """
    if x == 1.0 or e == 0.0:
        return 1.0, 2.0 ** -52
    u = e * math.log(x)
    return math.exp(u), (abs(u) + 3.0) * 2.0 ** -50


def _em_root_enclosure(nu: int, n: int, r: float) -> Enclosure:
    """Certified enclosure of sum_{k=nu}^{n} k^s, s = 1/r, for integers
    1 <= nu < n <= 2**53 and a float r > 1, in binary64: the sum is
    N(n) - N(nu) + nu^s + R, where N(x) = x^s (x/(s+1) + 1/2 + s/(12 x)) and
    R lies in [0, w], w = s(1-s)(2-s)/720 nu^(s-3).  That is the
    Euler-Maclaurin theorem stated in _scaled.partial_sum_enc, with one
    Bernoulli term from nu to n.  Its hypothesis holds for every 0 < s < 1
    as for s = 1/2: the 2k-th derivative s(s-1)...(s-2k+1) x^(s-2k) has
    one positive factor and 2k-1 negative ones.  The evaluation is widened
    outward by the exp/log budgets and the term sizes."""
    _check_float_range(n, "n", "only r = 1 and r = 2 take any n")
    s = 1.0 / r
    nf, nuf = float(n), float(nu)  # exact: n <= 2**53
    top_root, rel_top = _pow_value(nf, s)
    head_root, rel_head = _pow_value(nuf, s)
    top = top_root * (nf / (s + 1.0) + 0.5 + s / (12.0 * nf))  # N(n)
    head = head_root * (nuf / (s + 1.0) - 0.5 + s / (12.0 * nuf))  # N(nu) - nu^s >= 0
    w = s * (1.0 - s) * (2.0 - s) / 720.0 * head_root / (nuf * nuf * nuf)
    raw_lo = top - head
    raw_hi = raw_lo + w
    # each term's root budget (rel_top also holds the exponent's rounding,
    # see _pow_value) and a flat allowance for the remaining ~20
    # operations, magnified by the term's size, and 8 ulp for the final sums
    flat = 40.0 * 2.0 ** -53
    eta = top * (rel_top + flat) + (head + w) * (rel_head + flat) + 8.0 * math.ulp(raw_hi)
    return Enclosure(raw_lo - eta, raw_hi + eta)


def partial_sum_root_enclosure(nu: int, n: int, r: "RootOrder | float") -> Enclosure:
    """Certified enclosure of sum_{k=nu}^{n} k^(1/r) for 1 <= nu < n, r >= 1.

    r=1 is the exact arithmetic series (zero width).  r=2 returns the exact
    same endpoints as partial_sum_sqrt_enclosure by construction.  Other r
    take n <= 2**53 and the binary64 Euler-Maclaurin bracket of
    _em_root_enclosure.
    """
    rv = r.r if isinstance(r, RootOrder) else _real_number(r, 1, "r", "pass r as a float")
    if rv == 2.0:
        return partial_sum_sqrt_enclosure(nu, n)
    nu, n = _index_range(nu, n)
    if rv == 1.0:
        # exact integer series: no width limit, but binary64 endpoints
        exact = _series_sum(nu, n)
        advice = ": only the exact series (`rootmean sum --root 1`) prints its digits"
        return _outward(exact, exact, instead=advice)
    return _em_root_enclosure(nu, n, rv)


def lemma2_upper(x: float) -> float:
    """(2/3) sqrt(x+2): a strict upper envelope of A(x) for x >= 2."""
    x = _real_number(x, 2, "x")
    return (2.0 / 3.0) * math.sqrt(x + 2.0)


def lemma2_lower(x: float) -> float:
    """(2/3) sqrt(x + 5/4) + 1/(4x): a strict lower envelope of A(x) for x >= 6."""
    x = _real_number(x, 6, "x")
    return (2.0 / 3.0) * math.sqrt(x + 1.25) + 0.25 / x

"""Fast certified means and the hardened summation oracle that checks them.

fast_mean answers every n through one exact-integer path: a bracket of
sum_{k=1}^{n} sqrt(k) in 2**96-scaled integers (_scaled.partial_sum_enc),
read out once as a binary64 value and a proven error bound.  Below n = 64
the bracket is the exact head sum; from 64 on it is an integer bracket of
zeta(-1/2) plus the n-side Euler-Maclaurin terms, whose remainder has a
proven sign and size.  Nothing is summed per query, and numpy is not
loaded.

The direct-summation oracle (oracle_sum_sqrt, oracle_mean, and the prefix
pass _oracle_mean_many) is the independent cross-check.  One reader,
_oracle_brackets, takes numpy's correctly rounded square roots chunk by
chunk and sums them exactly between the requested marks by their bit
patterns: within one binade a root's bits are a fixed offset plus its
significand, so one uint64 reduction sums each run of at most 2**11 roots
without a conversion (_run_sums).  Each term is charged half a spacing of
its segment's largest root: an integer bracket of 2**54 times the sum at
each mark, whose midpoint is the exact sum of the rounded roots.  Every
oracle answer is that bracket rounded outward once.  sweep_theorem1 checks
Theorem 1, floor(Sigma(n)) = floor(A(n)), for every n up to a limit by
reading the bracket only at the two ends of each block on which
floor(A(n)) is constant, and takes the floors in integers: Sigma(n)
increases, so the ends pin the block.  The oracle is the only code here
that loads numpy, and it refuses a pass over more than cap terms (10**8
unless the caller says otherwise).
"""

from __future__ import annotations

import bisect
import decimal
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub
from typing import TYPE_CHECKING, NamedTuple

from . import _scaled
from .asymptotic import Enclosure, _check_float_range, _outward, _round_up
from .exactfloor import _as_index, alpha_floor, floor_A_exact

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ErrorBudget",
    "CertifiedMean",
    "oracle_sum_sqrt",
    "oracle_mean",
    "fast_mean",
    "sweep_theorem1",
]

# Roots per oracle chunk.  The sums are exact integers, so the partition
# changes no midpoint: it sets the working set, two float64 arrays of
# _CHUNK made once per pass (the ramp and the roots, whose bit patterns
# _run_sums reads in place: 512 KiB, inside a 2 MiB L2), and where the
# charges are read.  Of 2**12..2**20, 2**15-2**17 ran the sweep pool
# fastest on 2 cores; 2**15 holds the least.
_CHUNK = 1 << 15
_RUN = 1 << 11  # roots per run at most: their 2**52 + f sum below 2**64
# sqrt(4**e) is 2**e exactly, and the rounded sqrt(4**e - 1) stays below
# it for every 4**e <= 2**52, so each binade of roots k <= 2**53 starts at
# one of these k
_BINADE_EDGES = tuple(4 ** e for e in range(1, 27))
_DEFAULT_CAP = 100_000_000  # the most terms one oracle pass touches by default
_ORACLE_ONE = 1 << 54  # oracle unit 2**-54: half a spacing of a root >= 1 is whole


def _check_eps(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError(f"epsilon must be a finite positive real, got {epsilon!r}")
    return epsilon


def _check_cap(count: int, cap: int) -> None:
    """Refuse an oracle pass over more than cap terms before any work.
    Every caller checks count against 2**53 first, so the message can
    render both numbers."""
    if cap < 1:
        raise ValueError(f"oracle cap must be >= 1, got {cap}")
    if count > cap:
        raise ValueError(f"range of {count} terms exceeds the oracle cap {cap}")


def _run_sums(roots: np.ndarray, cuts: np.ndarray) -> tuple[list[int], list[int]]:
    """Exact sums, in units of 2**-54, of runs of correctly rounded roots
    >= 1, and each run's biased exponent.  Run i is roots[cuts[i] :
    cuts[i + 1]]: the cuts begin at 0, end at len(roots) and strictly
    increase.

    A root of biased exponent E and 52-bit fraction f is (2**52 + f)
    2**(E - 1075), that is (2**52 + f) << (E - 1021) units, and its bit
    pattern is E 2**52 + f.  Within one binade the bit patterns are a
    fixed offset plus 2**52 + f, so a run's sum of 2**52 + f is one uint64
    np.add.reduceat of the bit patterns less count (E - 1) 2**52, mod
    2**64.  That is exact: each 2**52 + f is below 2**53, so at most _RUN
    = 2**11 of them sum below 2**64.  A run whose first and last roots
    differ in exponent, or that holds more than _RUN roots, is refused,
    never wrapped; the roots ascend, so equal exponents at both ends hold
    for the whole run."""
    import numpy as np

    bits = roots.view(np.uint64)
    starts, stops = cuts[:-1], cuts[1:]
    counts = stops - starts
    binades = bits[starts] >> 52
    exps = binades.tolist()
    if counts.max() > _RUN or exps != (bits[stops - 1] >> 52).tolist():
        raise ValueError(
            "run crosses a binade or holds more than 2**11 roots: its uint64 sum could wrap"
        )
    sums = np.add.reduceat(bits, starts) - counts.view(np.uint64) * ((binades - 1) << 52)
    return [s << (e - 1021) for s, e in zip(sums.tolist(), exps)], exps


def _oracle_brackets(nu: int, marks, cap: int) -> "dict[int, tuple[int, int]]":
    """{m: (lo, hi)} with lo <= 2**54 sum_{k=nu}^{m} sqrt(k) <= hi at each
    mark m >= nu, in one pass over fixed chunks of _CHUNK terms.

    Each chunk's correctly rounded roots are cut into runs at every mark,
    at every binade edge and every _RUN terms, and _run_sums sums the runs
    exactly; Python ints accumulate them.  Each segment of a chunk, up to
    a mark or to the chunk's end, is charged half a spacing per term of
    its last, largest root: 2**(E - 1022) units for a root of biased
    exponent E.  The bracket's midpoint is the exact sum of the rounded
    roots and its half-width the charges up to m.  The marks are
    de-duplicated and sorted first, so the cuts strictly increase.  The
    chunk's arrays are made once and reused, so the pass stays in cache,
    and a + ramp is exact since top <= 2**53.  The one summation reader of
    the oracle."""
    marks = sorted({_as_index(m) for m in marks})
    if not marks:
        return {}
    if marks[0] < nu:
        raise ValueError("need nu <= n")
    top = marks[-1]
    _check_float_range(top)
    _check_cap(top - nu + 1, cap)
    import numpy as np

    out: dict[int, tuple[int, int]] = {}
    total = charge = i = 0
    size = min(_CHUNK, top - nu + 1)
    # one block for the ramp and the roots: the allocator keeps a single
    # 512 KiB block on its heap between passes, where two 256 KiB ones were
    # mapped afresh and faulted in on every pass
    ramp, buf = np.arange(2 * size, dtype=np.float64).reshape(2, size)
    for a in range(nu, top + 1, _CHUNK):
        n = min(_CHUNK, top + 1 - a)
        roots = buf[:n]
        np.sqrt(np.add(ramp[:n], a, out=roots), out=roots)
        j = bisect.bisect_left(marks, a + n, i)
        here, i = marks[i:j], j
        ends = [m - a + 1 for m in here]  # the segments' ends in the chunk
        if not ends or ends[-1] < n:
            ends.append(n)
        edges = [k - a for k in _BINADE_EDGES if a < k < a + n]
        cuts = np.array(sorted({*range(0, n, _RUN), *ends, *edges}))
        sums, exps = _run_sums(roots, cuts)
        at = np.searchsorted(cuts, ends).tolist()  # runs before each segment's end
        sofar = list(accumulate(sums, initial=total))
        totals = [sofar[k] for k in at]
        steps = [(t - s) << (exps[k - 1] - 1022) for t, s, k in zip(ends, [0, *ends], at)]
        charges = list(accumulate(steps, initial=charge))[1:]
        out.update(zip(here, zip(map(sub, totals, charges), map(add, totals, charges))))
        total, charge = sofar[-1], charges[-1]
    return out


def oracle_sum_sqrt(nu: int, n: int, *, cap: int = _DEFAULT_CAP) -> Enclosure:
    """Ground-truth enclosure of sum_{k=nu}^{n} sqrt(k) by direct summation:
    the exact integer bracket of _oracle_brackets, rounded outward once."""
    nu = _as_index(nu, name="nu")
    n = _as_index(n)
    lo, hi = _oracle_brackets(nu, [n], cap)[n]
    return _outward(lo, hi, _ORACLE_ONE)


def oracle_mean(n: int, *, cap: int = _DEFAULT_CAP) -> Enclosure:
    """Enclosure of the mean Sigma(n): the oracle's integer bracket of the
    sum over [1, n], divided by n 2**54 and rounded outward once."""
    n = _as_index(n)
    return _oracle_mean_many([n], cap=cap)[n]


class ErrorBudget(NamedTuple):
    """Where a certificate's error_bound comes from, each part rounded up to
    binary64: head is the half-width of the exactly summed terms (one unit
    of 2**-96 per term, at most 63 terms), remainder the half-width of the
    rest (the zeta(-1/2) bracket and the roundings of the n-side
    Euler-Maclaurin terms; 0 below n = 64), and readout the exact distance
    |value - midpoint| from the rounding, at most ulp(value)/2.
    error_bound is the smallest binary64 at or above the exact sum of the
    three shares, so it is at most the parts' sum rounded up."""

    remainder: float
    head: float
    readout: float


@dataclass(frozen=True)
class CertifiedMean:
    """A mean with a guaranteed absolute error bound: |true - value| is at
    most error_bound.  value is the binary64 rounding of the certified
    midpoint, and error_bound charges the bracket's half-width plus the
    exact distance between value and that midpoint; decimal_value is the
    shortest decimal of the midpoint which still parses back to value, so
    prints carry the midpoint's true leading digits (the payload's own
    shortest repr can disagree in the last place).  method is "exact-sum"
    below n = 64 and "euler-maclaurin" from there on; budget splits
    error_bound into its sources.
    """

    value: float
    error_bound: float
    method: str
    decimal_value: str
    budget: ErrorBudget


# Sigma(n) < (2/3) sqrt(n+2) < 2**1023 for n < 2**2046, so value is finite
_MEAN_LIMIT = 2 ** 2046

_QUOTIENT = decimal.Context(prec=40)
_ROUNDERS = [decimal.Context(prec=digits) for digits in range(1, 18)]


def _shortest_roundtrip(num: int, den: int, payload: float) -> str:
    """Shortest decimal rendering of the certified midpoint num/den that
    still parses back to the binary64 payload."""
    d = _QUOTIENT.divide(num, den)
    # repr(payload) is the shortest string that parses back to payload, so
    # no rendering with fewer significant digits can: start the search there
    shortest = len(repr(payload).split("e")[0].replace(".", "").strip("0"))
    for rounder in _ROUNDERS[shortest - 1 :]:
        cand = str(rounder.plus(d))  # rounds to rounder.prec digits
        if float(cand) == payload:
            return cand
    return repr(payload)


def _certify(lo: int, hi: int, den: int, method: str, head: int) -> CertifiedMean:
    """The certificate for a mean bracketed by lo/den <= Sigma(n) <= hi/den,
    of whose width head integer units come from summed terms.

    value = p/q is the correctly rounded midpoint num/(2 den), num = lo+hi
    (int/int true division rounds once), so its readout error is exactly
    dev/(2 den q) with dev = |2 den p - q num|, at most ulp(value)/2.
    error_bound is the smallest binary64 >= the half-width plus that error;
    the budget rounds each of the three shares up on its own.
    """
    num, den2 = lo + hi, 2 * den
    value = num / den2
    p, q = value.as_integer_ratio()
    dev = abs(p * den2 - q * num)
    bound = _round_up(q * (hi - lo) + dev, q * den2)
    budget = ErrorBudget(
        _round_up(hi - lo - head, den2), _round_up(head, den2), _round_up(dev, q * den2)
    )
    decimal_value = _shortest_roundtrip(num, den2, value)
    return CertifiedMean(value, bound, method, decimal_value, budget)


def fast_mean(n: int, epsilon: float) -> CertifiedMean:
    """Certified mean of the first n square roots with error_bound <= epsilon.

    One exact path for every 1 <= n < 2**2046: _scaled.partial_sum_enc
    brackets sum_{k=1}^{n} sqrt(k) in 2**96-scaled integers (the exact head
    below n = 64, a fixed 63-term head plus an Euler-Maclaurin closure from
    64 on), and _certify reads the bracket over n 2**96 out once.  A
    certificate that misses epsilon raises with the achieved bound.

    The limit keeps value finite and is checked before any work.  Sigma(n)
    < A(n) = (2/3) sqrt(n+1) (1 + 1/(4n)) by the mean identity Sigma(n) =
    A(n) - 1/(6n) - delta(1, n)/(24n) with delta(1, n) > 0, and A(n) <
    (2/3) sqrt(n+2) for n >= 2 (Sigma(1) = 1).  For n < 2**2046 that is
    below (2/3) sqrt(2**2046 + 1) < 2**1023; the midpoint lies within the
    bracket's half-width (below 2**-90) of Sigma(n), so its rounding stays
    far below the binary64 overflow threshold 2**1024.
    """
    n = _as_index(n)
    epsilon = _check_eps(epsilon)
    if n >= _MEAN_LIMIT:
        raise ValueError(
            "n must be below 2**2046, where the mean's binary64 value could "
            "overflow: use floor_A_exact for its floor"
        )
    lo, hi = _scaled.partial_sum_enc(n)
    if n < _scaled.HEAD_END:
        method, head = "exact-sum", hi - lo
    else:
        method, head = "euler-maclaurin", _scaled.HEAD_END - 1
    result = _certify(lo, hi, n * _scaled.ONE, method, head)
    if result.error_bound > epsilon:
        raise ValueError(
            f"cannot certify epsilon={epsilon!r} for n={n}: achieved bound "
            f"{result.error_bound!r}"
        )
    return result


def _oracle_mean_many(ns, *, cap: int = _DEFAULT_CAP) -> "dict[int, Enclosure]":
    """Oracle mean enclosures at several marks in one prefix pass: each
    mark's integer bracket from _oracle_brackets over n 2**54, rounded
    outward once.  The batch reference the tests check fast_mean against."""
    return {
        n: _outward(lo, hi, n * _ORACLE_ONE)
        for n, (lo, hi) in _oracle_brackets(1, ns, cap).items()
    }


def _floor_blocks(max_n: int) -> "list[tuple[int, int, int]]":
    """The blocks (start, end, m) on which floor(A(n)) = m, covering [1,
    max_n] in order: block m runs from alpha(m-1) exclusive to alpha(m)
    inclusive (cut at max_n), and the exact floor is checked at both ends
    against the threshold, which pins the block since A is increasing."""
    blocks = []
    m, start = 1, 1
    while start <= max_n:
        end = min(alpha_floor(m), max_n)
        if floor_A_exact(start) != m or floor_A_exact(end) != m:
            raise AssertionError("alpha threshold table disagrees with exact floor")
        blocks.append((start, end, m))
        m += 1
        start = end + 1
    return blocks


def _oracle_floors(ns, cap: int) -> "dict[int, int]":
    """floor(Sigma(n)) at each n from the oracle's integer bracket, or,
    where the bracket straddles an integer, from an exact scaled-integer
    prefix."""
    floors: dict[int, int] = {}
    undecided: list[int] = []
    for n_i, (lo, hi) in _oracle_brackets(1, ns, cap).items():
        denom = n_i * _ORACLE_ONE
        f = lo // denom
        if f == hi // denom:
            floors[n_i] = f
        else:
            undecided.append(n_i)
    if len(undecided) > 64:
        raise AssertionError(
            f"{len(undecided)} straddling prefixes: error bounds degenerate"
        )
    if undecided:
        prefix = _scaled.sqrt_prefix(max(undecided))
        for n_i in undecided:
            s_lo, s_hi = _scaled.sum_sqrt_enc(prefix, 1, n_i)
            denom = n_i * _scaled.ONE
            f_lo, f_hi = s_lo // denom, s_hi // denom
            if f_lo != f_hi:
                raise AssertionError(
                    f"scaled prefix cannot separate the mean at n={n_i}"
                )
            floors[n_i] = f_lo
    return floors


def sweep_theorem1(
    max_n: int, *, cap: int = _DEFAULT_CAP
) -> tuple[int, list[tuple[int, int, int]]]:
    """Verify that the exact closed-form floor matches the oracle floor of
    Sigma(n) for every n in [1, max_n].  Returns (checked, mismatches),
    each mismatch being (n, expected_floor, oracle_floor).

    The oracle is read only at the ends of the floor blocks (alpha(m-1),
    alpha(m)], about (4/3) sqrt(max_n) marks (1930 at 2**21).  Sigma(n) is
    strictly increasing (each new root exceeds the mean so far), so
    oracle floors m at both ends of block m give m <= Sigma(start) <=
    Sigma(n) <= Sigma(end) < m + 1 for every n in it.  Where an end reads
    another floor, every n of that block goes through the same reader, so
    the mismatches are those a per-n check reports.

    An end whose bracket straddles an integer (n=1 does: Sigma(1) is
    exactly 1) is decided by an exact scaled-integer prefix instead.  The
    block ends are the n whose means lie closest to the integers, and for
    max_n = 2**21 the integer mean brackets there are at most 1.6e-13 wide
    (3.4e-13 once rounded outward to binary64), against a smallest
    distance to an integer of 5.7e-5 (n = 2095255; 8.3e-5 at n = 995005
    within 10**6), so straddles beyond n=1 would signal degenerate bounds
    and fail loudly (more than 64 of them raise).
    """
    max_n = _as_index(max_n, name="max_n")
    _check_float_range(max_n, "max_n")
    _check_cap(max_n, cap)

    blocks = _floor_blocks(max_n)
    floors = _oracle_floors([n for s, e, _ in blocks for n in (s, e)], cap)
    off = [(s, e, m) for s, e, m in blocks if floors[s] != m or floors[e] != m]
    if off:
        floors.update(_oracle_floors([n for s, e, _ in off for n in range(s, e + 1)], cap))
    mismatches = [
        (n, m, floors[n]) for s, e, m in off for n in range(s, e + 1) if floors[n] != m
    ]
    return sum(e - s + 1 for s, e, _ in blocks), mismatches

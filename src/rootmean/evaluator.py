"""Fast certified means and the hardened summation oracle that checks them.

fast_mean answers every n through one exact-integer path: a bracket of
sum_{k=1}^{n} sqrt(k) in 2**96-scaled integers (_scaled.partial_sum_enc),
read out once as a binary64 value and a proven error bound.  The
certificate's shortest round-tripping decimal is rendered from the exact
midpoint on first read and cached, the same string as an eager rendering,
so a caller that never reads it never pays for it.  Below n = 64
the bracket is the exact head sum; from 64 on it is an integer bracket of
zeta(-1/2) plus the n-side Euler-Maclaurin terms, whose remainder has a
proven sign and size.  Nothing is summed per query, and numpy is not
loaded.

The direct-summation oracle (oracle_sum_sqrt, oracle_mean, and the prefix
pass _oracle_mean_many) is the independent cross-check.  One reader,
_oracle_pass, takes numpy's correctly rounded square roots chunk by chunk
and sums them exactly between sorted, distinct marks by their bit
patterns: within one binade a root's bits are a fixed offset plus its
significand, so one uint64 reduction sums each run of at most 2**11 roots
without a conversion (_exact_runs).  The pass plans its runs a window of
chunks at a time: one sorted array of cuts per window, and after its
chunks one vectorised check, one exact prefix and one lookup of the
marks, so no Python runs per chunk beyond the numpy calls.
Each rounded root is charged its own half spacing: no run crosses a
binade, so all roots of a run share one.  That gives an integer bracket
of 2**54 times the sum at each mark, whose midpoint is the exact sum of
the rounded roots and whose half-width is half the sum of their
spacings, which no chunk, window or mark placement can move; it is
returned as two lists aligned with the marks, and _oracle_brackets is
its front for marks in any order.  Every oracle answer is that bracket
rounded outward once.  sweep_theorem1 checks Theorem 1, floor(Sigma(n)) =
floor(A(n)), for every n up to a limit by reading the bracket only at the
two ends of each block on which floor(A(n)) is constant, and takes the
floors in integers: Sigma(n) increases, so the ends pin the block; an
end whose bracket straddles an integer is decided by the Euler-Maclaurin
bracket instead.  The oracle is the only code here that loads numpy, and
every direct summation refuses more than 10**8 terms before any work.
"""

from __future__ import annotations

import decimal
from itertools import accumulate, chain, compress, repeat
from operator import add, floordiv, lshift, ne, or_, rshift, sub
from typing import TYPE_CHECKING, NamedTuple

from . import _scaled
from .asymptotic import (
    Enclosure, _check_float_range, _outward, _real_number, _Record, _round_up
)
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

# Roots per oracle chunk.  The sums and charges are exact integers, so
# the partition changes no bracket: it sets the working set, two float64
# arrays of _CHUNK made once per pass (the ramp and the roots, whose bit
# patterns are summed in place: 512 KiB, inside a 2 MiB L2).  Of
# 2**12..2**20, 2**15-2**17 ran the sweep pool fastest on 2 cores; 2**15
# holds the least.
_CHUNK = 1 << 15
# Chunks per planning window.  A window's cuts, exponent checks and readout
# are a few numpy calls and one Python pass over its runs and marks, so the
# fixed cost of planning is paid once per _WINDOW chunks, not per chunk.
# In-process rounds of the sweep pool (seeds 7 and 601, 2 cores) took 227
# and 242 ms at 4 chunks, 216 and 224 at 8, 209 and 215 at 16; but from 16
# on a window's run-sized arrays outgrow those of a 2**18-term pass, and a
# long pass would hold more than a short one (22 KB more at 2**21).
_WINDOW = 8
_RUN = 1 << 11  # a window cuts a run every _RUN roots: their 2**52 + f sum below 2**64
# sqrt(4**e) is 2**e exactly, and the rounded sqrt(4**e - 1) stays below
# it for every 4**e <= 2**52, so each binade of roots k <= 2**53 starts at
# one of these k
_BINADE_EDGES = tuple(4 ** e for e in range(1, 27))
_MAX_TERMS = 10 ** 8  # the most terms one direct summation touches
_MEAN_INSTEAD = "`rootmean mean` takes any n below 2**2046"  # past 2**53 and _MAX_TERMS
_ORACLE_ONE = 1 << 54  # oracle unit 2**-54: half a spacing of a root >= 1 is whole


def _check_terms(count: int, instead: str = _MEAN_INSTEAD) -> None:
    """Refuse direct summation of more than _MAX_TERMS terms, before any
    work.  The message names the limit, not count, which may be too long
    to render, and ends with `instead`, the caller's way past it."""
    if count > _MAX_TERMS:
        raise ValueError(f"direct summation stops at 10**8 terms: {instead}")


def _exact_runs(
    raw: np.ndarray, counts: np.ndarray, first: np.ndarray, last: np.ndarray
) -> tuple[map, np.ndarray]:
    """Exact sums, in units of 2**-54, of runs of correctly rounded roots
    >= 1: run i holds counts[i] roots, first[i] and last[i] are the bit
    patterns of its first and last root, and raw[i] the uint64 sum of all
    its bit patterns, mod 2**64.  Returns the sums (a map of Python ints)
    and each run's biased exponent (int64).

    A root of biased exponent E and 52-bit fraction f is (2**52 + f)
    2**(E - 1075), that is (2**52 + f) << (E - 1021) units, and its bit
    pattern is E 2**52 + f.  Within one binade the bit patterns are a
    fixed offset plus 2**52 + f, so a run's sum of 2**52 + f is raw less
    count (E - 1) 2**52, mod 2**64.  That is exact: each 2**52 + f is below
    2**53, so at most _RUN = 2**11 of them sum below 2**64.  A run whose
    first and last roots differ in exponent, or that holds more than _RUN
    roots, is refused, never wrapped; the roots ascend, so equal exponents
    at both ends hold for the whole run.  raw is overwritten."""
    import numpy as np

    binades = first >> 52
    # the roots ascend, so a run's last binade is below its first only if
    # they do not, and the uint64 difference then wraps to above 0 too
    if counts.max() > _RUN or ((last >> 52) - binades).max() > 0:
        raise ValueError(
            "run crosses a binade or holds more than 2**11 roots: its uint64 sum could wrap"
        )
    raw -= counts.view(np.uint64) * ((binades - 1) << 52)
    exps = binades.view(np.int64)
    return map(lshift, raw.tolist(), (exps - 1021).tolist()), exps


def _oracle_pass(nu: int, marks) -> "tuple[list[int], list[int]]":
    """(totals, charges), aligned with marks: at each mark m,
    total - charge <= 2**54 sum_{k=nu}^{m} sqrt(k) <= total + charge, in
    one pass over fixed chunks of _CHUNK terms.  The midpoint total is the
    exact sum of the correctly rounded roots and the half-width charge half
    the sum of their spacings, np.spacing(fl(sqrt(k))) for k = nu .. m,
    whatever the chunks and windows.  The marks must be exact integers that
    strictly increase from nu >= 1; anything else is refused, never
    misread.  The one summation reader of the oracle.

    The pass is planned a window of _WINDOW chunks at a time: one sorted
    array of cuts holds every _RUN-th term, the window's marks, the binade
    edges 4**e and the window's end, and every chunk end is among them.
    The chunk loop then takes the roots in buf and sums each run of them
    that starts in the chunk with one uint64 reduceat of their bit
    patterns, and gathers each run's first and last bit pattern.
    _exact_runs checks and reads the window's runs, and two accumulates
    give the exact prefix and the charge at every cut.  Each root is
    charged its own half spacing, 2**(E - 1022) units for a root of biased
    exponent E; the roots of a run share E, as _exact_runs checks.  The
    chunk's ramp and roots are made once and reused, so the pass stays in
    cache, and a window's run arrays are freed before the next window is
    planned.  a + ramp is exact since every k <= 2**53."""
    if not len(marks):
        return [], []
    top = _check_float_range(marks[-1], "n", _MEAN_INSTEAD)
    import numpy as np

    marks = np.asarray(marks)
    if marks.dtype.kind != "i":
        raise TypeError(f"oracle marks must be integers, got {marks.dtype}")
    if marks[0] < nu or not (marks[1:] > marks[:-1]).all():  # no int64 difference to wrap
        raise ValueError(f"oracle marks must increase strictly from nu = {nu}")
    totals: list[int] = []
    charges: list[int] = []
    total = charge = 0
    size = min(_CHUNK, top - nu + 1)
    # one block for the ramp and the roots: the allocator keeps a single
    # 512 KiB block on its heap between passes, where two 256 KiB ones were
    # mapped afresh and faulted in on every pass
    ramp, buf = np.arange(2 * size, dtype=np.float64).reshape(2, size)
    bits = buf.view(np.uint64)
    span = _WINDOW * _CHUNK
    windows = range(nu, top + 1, span)
    marks_before = np.searchsorted(marks, [a + span for a in windows]).tolist()
    for a, i, j in zip(windows, [0, *marks_before], marks_before):
        n = min(span, top + 1 - a)  # the window holds k = a .. a+n-1
        ends = marks[i:j] - (a - 1)
        bounds = [*range(0, n, _CHUNK), n]  # the chunks' starts and the window's end
        edges = [k - a for k in _BINADE_EDGES if a < k < a + n]
        cuts = np.concatenate((np.arange(0, n, _RUN), ends, [*edges, n]))
        cuts.sort()
        cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
        counts = cuts[1:] - cuts[:-1]
        starts = cuts[:-1] % _CHUNK  # each run's first root within its chunk
        lasts = starts + counts - 1
        raw, first, last = np.empty((3, len(counts)), dtype=np.uint64)
        split = np.searchsorted(cuts, bounds).tolist()  # the runs of each chunk
        for c, r, t in zip(bounds, split, split[1:]):
            m = min(_CHUNK, n - c)
            np.sqrt(np.add(ramp[:m], a + c, out=buf[:m]), out=buf[:m])
            np.add.reduceat(bits[:m], starts[r:t], out=raw[r:t])
            first[r:t] = bits[starts[r:t]]
            last[r:t] = bits[lasts[r:t]]
        sums, exps = _exact_runs(raw, counts, first, last)
        prefix = list(accumulate(sums, initial=total))
        # at most _RUN 2**27 units per run: roots stay below 2**27 for k <= 2**53
        spent = list(accumulate((counts << (exps - 1022)).tolist(), initial=charge))
        at = np.searchsorted(cuts, ends).tolist()  # the runs before each mark's end
        totals.extend(map(prefix.__getitem__, at))
        charges.extend(map(spent.__getitem__, at))
        total, charge = prefix[-1], spent[-1]
        del ends, cuts, counts, starts, lasts, raw, first, last, sums, exps, prefix, spent
    return totals, charges


def _oracle_brackets(nu: int, marks) -> "dict[int, tuple[int, int]]":
    """{m: (lo, hi)} with lo <= 2**54 sum_{k=nu}^{m} sqrt(k) <= hi at each
    mark m >= nu: the marks are validated, de-duplicated and sorted, held
    to 2**53 and to _MAX_TERMS terms, then read by _oracle_pass."""
    marks = sorted({_as_index(m) for m in marks})
    if not marks:
        return {}
    if marks[0] < nu:
        raise ValueError("need nu <= n")
    _check_terms(_check_float_range(marks[-1], "n", _MEAN_INSTEAD) - nu + 1)
    totals, charges = _oracle_pass(nu, marks)
    return dict(zip(marks, zip(map(sub, totals, charges), map(add, totals, charges))))


def oracle_sum_sqrt(nu: int, n: int) -> Enclosure:
    """Ground-truth enclosure of sum_{k=nu}^{n} sqrt(k) by direct summation:
    the exact integer bracket of _oracle_brackets, rounded outward once."""
    nu = _as_index(nu, name="nu")
    ((lo, hi),) = _oracle_brackets(nu, [n]).values()
    return _outward(lo, hi, _ORACLE_ONE)


def oracle_mean(n: int) -> Enclosure:
    """Enclosure of the mean Sigma(n): the oracle's integer bracket of the
    sum over [1, n], divided by n 2**54 and rounded outward once."""
    (enc,) = _oracle_mean_many([n]).values()
    return enc


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


class CertifiedMean(_Record):
    """A mean with a guaranteed absolute error bound: |true - value| is at
    most error_bound.  value is the binary64 rounding of the certified
    midpoint, and error_bound charges the bracket's half-width plus the
    exact distance between value and that midpoint; decimal_value is the
    shortest decimal of the midpoint which still parses back to value, so
    prints carry the midpoint's true leading digits (the payload's own
    shortest repr can disagree in the last place).  method is "exact-sum"
    below n = 64 and "euler-maclaurin" from there on; budget splits
    error_bound into its sources.

    A certificate from fast_mean keeps its exact midpoint privately and
    renders decimal_value from it on first read, then caches it.  The
    string is the one an eager rendering gives, whenever it is read; a
    caller that reads only value and error_bound never pays for it.
    Equality, hashing, repr, copy and pickle read it like any other field.
    """

    __slots__ = ("value", "error_bound", "method", "budget", "_midpoint", "_decimal")
    _fields = ("value", "error_bound", "method", "decimal_value", "budget")
    value: float
    error_bound: float
    method: str
    budget: ErrorBudget

    def __init__(
        self,
        value: float,
        error_bound: float,
        method: str,
        decimal_value: str,
        budget: ErrorBudget,
    ) -> None:
        self._fill(value, error_bound, method, budget, None, decimal_value)

    def _fill(self, value, error_bound, method, budget, midpoint, decimal_value) -> None:
        """Set the slots once; midpoint is (num, den) or None, and
        decimal_value is None until rendered from it."""
        set_value, set_bound, set_method, set_budget, set_mid, set_decimal = self._setters
        set_value(self, value)
        set_bound(self, error_bound)
        set_method(self, method)
        set_budget(self, budget)
        set_mid(self, midpoint)
        set_decimal(self, decimal_value)

    @property
    def decimal_value(self) -> str:
        """_shortest_roundtrip of the midpoint, rendered on first read."""
        text = self._decimal
        if text is None:
            text = _shortest_roundtrip(*self._midpoint, self.value)
            object.__setattr__(self, "_decimal", text)
        return text


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
    the budget rounds each of the three shares up on its own.  The
    certificate keeps num/(2 den) and renders decimal_value from it only
    when it is first read (then caches it), the same string as if rendered
    here.
    """
    num, den2 = lo + hi, 2 * den
    value = num / den2
    p, q = value.as_integer_ratio()
    dev = abs(p * den2 - q * num)
    bound = _round_up(q * (hi - lo) + dev, q * den2)
    budget = ErrorBudget(
        _round_up(hi - lo - head, den2), _round_up(head, den2), _round_up(dev, q * den2)
    )
    cert = object.__new__(CertifiedMean)
    cert._fill(value, bound, method, budget, (num, den2), None)
    return cert


def fast_mean(n: int, epsilon: float) -> CertifiedMean:
    """Certified mean of the first n square roots with error_bound <= epsilon.

    One exact path for every 1 <= n < 2**2046: _scaled.partial_sum_enc
    brackets sum_{k=1}^{n} sqrt(k) in 2**96-scaled integers (the exact head
    below n = 64, a fixed 63-term head plus an Euler-Maclaurin closure from
    64 on), and _certify reads the bracket over n 2**96 out once.  epsilon
    > 0 is a float or an exact integer up to 2**53 (_real_number); a
    certificate that misses it raises with the achieved bound.

    The limit keeps value finite and is checked before any work.  Sigma(n)
    < A(n) = (2/3) sqrt(n+1) (1 + 1/(4n)) by the mean identity Sigma(n) =
    A(n) - 1/(6n) - delta(1, n)/(24n) with delta(1, n) > 0, and A(n) <
    (2/3) sqrt(n+2) for n >= 2 (Sigma(1) = 1).  For n < 2**2046 that is
    below (2/3) sqrt(2**2046 + 1) < 2**1023; the midpoint lies within the
    bracket's half-width (below 2**-90) of Sigma(n), so its rounding stays
    far below the binary64 overflow threshold 2**1024.
    """
    n = _as_index(n)
    epsilon = _real_number(epsilon, 0, "epsilon", "pass epsilon as a float")
    if epsilon == 0.0:
        raise ValueError("epsilon must be > 0")
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


def _oracle_mean_many(ns) -> "dict[int, Enclosure]":
    """Oracle mean enclosures at several marks in one prefix pass: each
    mark's integer bracket from _oracle_brackets over n 2**54, rounded
    outward once.  The batch reference the tests check fast_mean against."""
    return {
        n: _outward(lo, hi, n * _ORACLE_ONE)
        for n, (lo, hi) in _oracle_brackets(1, ns).items()
    }


def _floor_blocks(max_n: int) -> "tuple[list[int], list[int]]":
    """(starts, ends): the blocks on which floor(A(n)) is constant, covering
    [1, max_n] in order.  Block m = i + 1 runs from starts[i] =
    alpha(m-1) + 1 to ends[i] = alpha(m), and the last, m = floor(A(max_n)),
    is cut at max_n.  Every threshold comes from alpha_floor and the exact
    floor is checked at both ends of every block, which pins the block since
    A is increasing; the last block's threshold must reach max_n."""
    ms = list(range(1, floor_A_exact(max_n) + 1))
    ends = list(map(alpha_floor, ms))
    reach = ends[-1]
    ends[-1] = max_n
    starts = [1, *map((1).__add__, ends[:-1])]
    if (
        reach < max_n
        or list(map(floor_A_exact, starts)) != ms
        or list(map(floor_A_exact, ends)) != ms
    ):
        raise AssertionError("alpha threshold table disagrees with exact floor")
    return starts, ends


def _oracle_floors(marks) -> "list[int]":
    """floor(Sigma(n)) at each mark n, which must strictly increase from 1:
    from the oracle's integer bracket, or, where the bracket straddles an
    integer, from the Euler-Maclaurin bracket _scaled.partial_sum_enc(n),
    one O(1) read proven independently of the summation."""
    totals, charges = _oracle_pass(1, marks)
    # floor(x / (n 2**54)) = floor(floor(x / 2**54) / n) for integers x
    floors = list(map(floordiv, map(rshift, map(sub, totals, charges), repeat(54)), marks))
    highs = map(floordiv, map(rshift, map(add, totals, charges), repeat(54)), marks)
    undecided = list(compress(range(len(floors)), map(ne, floors, highs)))
    if len(undecided) > 64:
        raise AssertionError(
            f"{len(undecided)} straddling prefixes: error bounds degenerate"
        )
    for i in undecided:
        n_i = marks[i]
        s_lo, s_hi = _scaled.partial_sum_enc(n_i)
        denom = n_i * _scaled.ONE
        f_lo, f_hi = s_lo // denom, s_hi // denom
        if f_lo != f_hi:
            raise AssertionError(
                f"Euler-Maclaurin bracket cannot separate the mean at n={n_i}"
            )
        floors[i] = f_lo
    return floors


def sweep_theorem1(max_n: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Verify that the exact closed-form floor matches the oracle floor of
    Sigma(n) for every n in [1, max_n].  Returns (checked, mismatches),
    each mismatch being (n, expected_floor, oracle_floor).  A max_n above
    _MAX_TERMS is refused before any work.

    The oracle is read only at the ends of the floor blocks (alpha(m-1),
    alpha(m)], about (4/3) sqrt(max_n) marks (1930 at 2**21).  Sigma(n) is
    strictly increasing (each new root exceeds the mean so far), so
    oracle floors m at both ends of block m give m <= Sigma(start) <=
    Sigma(n) <= Sigma(end) < m + 1 for every n in it.  Where an end reads
    another floor, every n of that block goes through the same reader, so
    the mismatches are those a per-n check reports.

    An end whose bracket straddles an integer (n=1 does: Sigma(1) is
    exactly 1) is decided instead by the Euler-Maclaurin bracket
    _scaled.partial_sum_enc(n), O(1) per end and far narrower on the mean
    than the oracle's.  The block ends are the n whose means lie closest to
    the integers, and for max_n = 2**21 the integer mean brackets there are
    at most 1.6e-13 wide (3.4e-13 once rounded outward to binary64),
    against a smallest distance to an integer of 5.7e-5 (n = 2095255;
    8.3e-5 at n = 995005 within 10**6), so straddles beyond n=1 would
    signal degenerate bounds and fail loudly (more than 64 of them raise).
    """
    max_n = _as_index(max_n, name="max_n")
    _check_terms(max_n, "`rootmean floor` gives floor(Sigma(n)) for any n")

    starts, ends = _floor_blocks(max_n)
    marks = list(chain.from_iterable(zip(starts, ends)))
    # every block below the last holds at least alpha(1) = 7 terms; the
    # last, cut at max_n, may hold one n, read once for both of its ends
    single = marks[-2] == marks[-1]
    if single:
        marks.pop()
    floors = _oracle_floors(marks)
    if single:
        floors.append(floors[-1])
    ms = range(1, len(starts) + 1)
    off = list(compress(ms, map(or_, map(ne, floors[0::2], ms), map(ne, floors[1::2], ms))))
    if not off:
        return max_n, []
    ns: list[int] = []
    expected: list[int] = []
    for m in off:
        block = range(starts[m - 1], ends[m - 1] + 1)
        ns += block
        expected += [m] * len(block)
    floors = _oracle_floors(ns)
    return max_n, [(n, m, f) for n, m, f in zip(ns, expected, floors) if f != m]

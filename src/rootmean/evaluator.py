"""Fast certified means: a hardened summation oracle, split-point selection,
and the closed-form approximation

    Sigma~(nu, n) = (1/n) (n A(n) + nu Sigma(nu) - nu A(nu)).

Its remainder is pinned from both sides by the paper's bracket: for
nu <= n - 2,

    n Sigma~ - n Sigma(n) = delta(nu+1, n) / 24,
    sigma(nu+3, n+2) < delta(nu+1, n) < sigma(nu+1, n),

so subtracting the bracket moves the estimate onto Sigma(n) and leaves a
half-width of at most (nu^(-1/2) - (nu+2)^(-1/2)) / (48 n) <= nu^(-3/2) / (48 n).
Only the first nu terms are ever summed; the rest is absorbed by the same
identity that backs partial_sum_sqrt_enclosure.  Direct summation is kept as
the ground-truth oracle (and as the answer for small n), with a rigorous
accumulated-rounding bound so it can certify everything else.
"""

from __future__ import annotations

import decimal
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from . import _scaled
from .asymptotic import (
    DeltaBounds,
    Enclosure,
    _check_float_range,
    _round_up,
    delta_bounds,
    eval_A,
)
from .exactfloor import _as_index, alpha_floor, floor_A_exact

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EvalPlan",
    "ErrorBudget",
    "CertifiedMean",
    "DEFAULT_DIRECT_THRESHOLD",
    "DEFAULT_NU_MIN",
    "oracle_sum_sqrt",
    "oracle_mean",
    "choose_nu",
    "fast_mean",
    "mean_decomposition_check",
    "sweep_theorem1",
]

_CHUNK = 1 << 20  # fixed partition: reductions are bit-reproducible
_DEFAULT_CAP = 100_000_000

DEFAULT_DIRECT_THRESHOLD = 10_000
DEFAULT_NU_MIN = 16


def _check_eps(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError(f"epsilon must be a finite positive real, got {epsilon!r}")
    return epsilon


def _oracle_cap(cap: "int | None") -> int:
    if cap is None:
        text = os.environ.get("ROOTMEAN_ORACLE_CAP")
        try:
            cap = _DEFAULT_CAP if text is None else int(text)
        except ValueError:
            raise ValueError(
                f"ROOTMEAN_ORACLE_CAP must be an integer, got {text!r}"
            ) from None
    if cap < 1:
        raise ValueError(f"oracle cap must be >= 1, got {cap}")
    return cap


def _two_sum(total: float, x: float, comp: float) -> tuple[float, float]:
    """One compensated-summation step: total+x with the exact rounding
    residual folded into comp (the branch makes the residual exact)."""
    t = total + x
    if abs(total) >= abs(x):
        residual = (total - t) + x
    else:
        residual = (x - t) + total
    return t, comp + residual


def _fold_chunk(
    roots: np.ndarray, spacing: float, total: float, comp: float, err: float
) -> tuple[float, float, float]:
    """Add one chunk of correctly rounded roots, whose spacings sum to
    spacing, to the compensated carry (total, comp) and charge its roundings
    to err: 0.5 spacing per term, 0.5 ulp for the fsum readout, 0.5 ulp for
    the carry update.  A zero comp is charged ulp(0.0), the smallest
    subnormal: a floating sum that comes out zero is exact, so any
    nonnegative charge covers it."""
    chunk = math.fsum(roots)
    err += 0.5 * spacing * (1.0 + 2.0 ** -40)
    err += 0.5 * math.ulp(chunk)
    total, comp = _two_sum(total, chunk, comp)
    err += 0.5 * math.ulp(comp)
    return total, comp, err


def oracle_sum_sqrt(nu: int, n: int, *, cap: "int | None" = None) -> Enclosure:
    """Ground-truth enclosure of sum_{k=nu}^{n} sqrt(k) by direct summation.

    Per fixed chunk: correctly rounded square roots, an exact-in-sum fsum
    (one rounding total), then an error-free compensated carry across
    chunks.  The enclosure width is a rigorous bound on every rounding
    committed: 0.5 spacing per term, 0.5 ulp per chunk readout, 0.5 ulp per
    carry update, 0.5 ulp for the final collapse.
    """
    nu = _as_index(nu, name="nu")
    n = _as_index(n)
    if nu > n:
        raise ValueError(f"need nu <= n, got nu={nu}, n={n}")
    _check_float_range(n)
    cap = _oracle_cap(cap)
    count = n - nu + 1
    if count > cap:
        raise ValueError(f"range of {count} terms exceeds the oracle cap {cap}")
    import numpy as np  # the one numpy import on a mean query

    total, comp = 0.0, 0.0
    err = 0.0
    for a in range(nu, n + 1, _CHUNK):
        b = min(a + _CHUNK - 1, n)
        roots = np.sqrt(np.arange(a, b + 1, dtype=np.float64))
        spacing = float(np.spacing(roots).sum())
        total, comp, err = _fold_chunk(roots, spacing, total, comp, err)
    s = total + comp
    err += 0.5 * math.ulp(abs(s))
    err *= 1.0 + 2.0 ** -30  # swallows the rounding of the err accumulation itself
    return Enclosure(
        math.nextafter(s - err, -math.inf), math.nextafter(s + err, math.inf)
    )


def oracle_mean(n: int, *, cap: "int | None" = None) -> Enclosure:
    """Enclosure of the mean Sigma(n): oracle sum over [1, n] divided by n,
    endpoints rounded outward."""
    n = _as_index(n)
    s = oracle_sum_sqrt(1, n, cap=cap)
    return Enclosure(
        math.nextafter(s.lo / n, -math.inf), math.nextafter(s.hi / n, math.inf)
    )


@dataclass(frozen=True)
class EvalPlan:
    """How a mean query will be answered: split at nu (sum only 1..nu, close
    the rest in one formula) or direct (sum everything)."""

    n: int
    epsilon: float
    nu: int
    method: str  # "direct" | "split"

    def __post_init__(self) -> None:
        if self.method not in ("direct", "split"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.nu < 1:
            raise ValueError(f"nu must be >= 1, got {self.nu}")
        if self.method == "split" and self.nu > self.n - 2:
            raise ValueError(
                f"split plans need nu <= n - 2, got nu={self.nu}, n={self.n}"
            )


class ErrorBudget(NamedTuple):
    """Where a certificate's error_bound comes from, each part rounded up to
    binary64: remainder is the half-width of the closed-form legs (the
    remainder bracket and the scaled A-terms; 0 for direct summation), head
    the half-width of the summed terms, and readout the ulp(value) charged
    for rounding the midpoint.  error_bound is the smallest binary64 at or
    above their exact sum."""

    remainder: float
    head: float
    readout: float


@dataclass(frozen=True)
class CertifiedMean:
    """A mean with a guaranteed absolute error bound: |true - value| is at
    most error_bound.  value is the binary64 rounding of the certified
    midpoint; decimal_value is the shortest decimal of that midpoint which
    still parses back to value, so prints carry the midpoint's true leading
    digits (the payload's own shortest repr can disagree in the last place).
    budget splits error_bound into its sources.
    """

    value: float
    error_bound: float
    method: str
    plan: EvalPlan
    decimal_value: str
    budget: ErrorBudget


def _sigma_range(n: int) -> tuple[float, float]:
    """Binary64 bounds low < Sigma(n) < high, each below 2**-50 relative of
    Sigma(n) away from it.

    (2/3) sqrt(n+1) < Sigma(n) < (2/3) sqrt(n+2) for every n >= 1: the mean
    identity gives Sigma(n) = A(n) - 1/(6n) - delta(1, n)/(24n) with
    0 < delta(1, n) < 3/2, so A(n) - 11/(48n) < Sigma(n) < A(n); the lower
    end is >= (2/3) sqrt(n+1) once sqrt(n+1) >= 11/8, and the upper end is
    the envelope A(n) < (2/3) sqrt(n+2) (n >= 2; Sigma(1) = 1).  The float
    ends take five roundings of at most 2**-53 relative each, which the
    2**-50 relative widening covers.
    """
    x = float(n)
    return (
        (2.0 / 3.0) * math.sqrt(x + 1.0) * (1.0 - 2.0 ** -50),
        (2.0 / 3.0) * math.sqrt(x + 2.0) * (1.0 + 2.0 ** -50),
    )


def _readout_ulps(n: int, epsilon: float) -> tuple[float, float]:
    """(floor, charge): proven bounds floor <= ulp(value) <= charge for every
    certificate of Sigma(n) whose half-width is at most epsilon.

    The certified midpoint lies within the half-width of Sigma(n), so value,
    its correct rounding, lies between the float neighbours of
    Sigma(n) -+ epsilon (bounded by _sigma_range), and ulp is monotone.
    """
    low, high = _sigma_range(n)
    low = math.nextafter(low - epsilon, -math.inf)
    high = math.nextafter(high + epsilon, math.inf)
    return (math.ulp(low) if low > 0.0 else 0.0), math.ulp(high)


def _direct_floor(n: int, readout_floor: float) -> float:
    """A proven lower bound on the error_bound of every direct certificate
    of Sigma(n) that meets an epsilon whose readout floor is readout_floor:
    nearly readout_floor + 2**-54 Sigma(n).

    The certificate charges ulp(value) >= readout_floor plus the half-width
    of the oracle's mean, which is at least err/n for the oracle sum's
    error charge err.  err includes half an ulp of the oracle's sum s, and
    ulp(s) > 2**-53 s with s >= n Sigma(n) - err, so err > 2**-54 n Sigma(n)
    / (1 + 2**-54).  _sigma_range's lower end sits more than 3 * 2**-53
    relative below Sigma(n), which absorbs that divisor; nextafter makes
    the float sum a lower bound of the exact one.
    """
    return math.nextafter(readout_floor + 2.0 ** -54 * _sigma_range(n)[0], 0.0)


def choose_nu(n: int, epsilon: float) -> EvalPlan:
    """Split-point selection whose split provably meets epsilon in one try.

    A split at nu is charged (see _split_mean and _certify):

    - remainder < nu^(-3/2)/(48 n) + 2**-96: the bracket's
      (nu^(-1/2) - (nu+2)^(-1/2))/(48 n) by the mean value theorem, plus
      fewer than 2n units of 2**-96 from the integer ends of the A-terms and
      of the bracket, over the denominator 2 n 2**96;
    - head <= 2**-50 (nu+1)^(3/2) / n: the oracle's half-width for one chunk
      is below 4.5 ulp of its sum, which is < (2/3) (nu+1)^(3/2);
    - readout = ulp(value) <= R, the charge from _readout_ulps.

    With room = (epsilon - R) (1 - 2**-20), nu is the least integer >= 16
    with nu^(-3/2)/(48 n) <= room/2, that is (24 n room)^2 nu^3 >= 1, and
    the plan splits only if 2**-50 (nu+1)^(3/2)/n + 2**-96 <= room/2 too.
    Then remainder + head <= room; rounding each part up adds a relative
    2**-52 at most, so the parts sum to <= epsilon, and so does error_bound,
    the smallest binary64 at or above that sum.  Both tests are a dozen
    correctly rounded operations on positive floats, far inside the 2**-20
    slack; the power only seeds the search.  Together they admit
    nu <= 28 600, inside one oracle chunk, where the head bound holds.

    n below DEFAULT_DIRECT_THRESHOLD, no room, nu > n - 2 or a head over its
    share selects direct summation instead.
    """
    n = _as_index(n)
    epsilon = _check_eps(epsilon)
    _check_float_range(n)
    room = (epsilon - _readout_ulps(n, epsilon)[1]) * (1.0 - 2.0 ** -20)
    if n >= DEFAULT_DIRECT_THRESHOLD and room > 0.0:
        t = 24.0 * n * room
        nu = max(DEFAULT_NU_MIN, math.ceil(t ** (-2.0 / 3.0)))
        while nu <= n - 2 and t * t * nu ** 3 < 1.0:
            nu += 1
        head = 2.0 ** -50 * (nu + 1) * math.sqrt(nu + 1) / n
        if nu <= n - 2 and head + 2.0 ** -96 <= room / 2:
            return EvalPlan(n, epsilon, nu, "split")
    return EvalPlan(n, epsilon, n, "direct")


def _shortest_roundtrip(num: int, den: int, payload: float) -> str:
    """Shortest decimal rendering of the certified midpoint num/den that
    still parses back to the binary64 payload."""
    d = decimal.Context(prec=40).divide(num, den)
    # repr(payload) is the shortest string that parses back to payload, so
    # no rendering with fewer significant digits can: start the search there
    shortest = len(repr(payload).split("e")[0].replace(".", "").strip("0"))
    for digits in range(shortest, 18):
        cand = str(decimal.Context(prec=digits).plus(d))  # rounds to digits
        if float(cand) == payload:
            return cand
    return repr(payload)


def _certify(lo: int, hi: int, den: int, plan: EvalPlan, head: int) -> CertifiedMean:
    """The certificate for a mean bracketed by lo/den <= Sigma(n) <= hi/den,
    of whose width head integer units come from summed terms.

    value is the correctly rounded midpoint (int/int true division rounds
    once).  The budget rounds the half-widths of the head and of the rest
    up to binary64 and charges one ulp(value) for the readout; error_bound
    is the smallest binary64 >= their exact sum.  fsum rounds that sum, and
    the residual's rounding keeps its exact sign (it is a nonzero multiple
    of a part's ulp, or zero).
    """
    den2 = 2 * den
    value = (lo + hi) / den2
    parts = (_round_up(hi - lo - head, den2), _round_up(head, den2), math.ulp(value))
    bound = math.fsum(parts)
    if math.fsum((*parts, -bound)) > 0.0:
        bound = math.nextafter(bound, math.inf)
    decimal_value = _shortest_roundtrip(lo + hi, den2, value)
    return CertifiedMean(
        value, bound, plan.method, plan, decimal_value, ErrorBudget(*parts)
    )


def _split_mean(plan: EvalPlan, cap: "int | None") -> CertifiedMean:
    n, nu = plan.n, plan.nu
    head = oracle_sum_sqrt(1, nu, cap=cap)  # this sum *is* nu * Sigma(nu)
    a_n_lo, a_n_hi = _scaled.nA_enc(n)  # n A(n), scaled 2**96
    a_nu_lo, a_nu_hi = _scaled.nA_enc(nu)  # nu A(nu), scaled 2**96
    # the head sum is >= 1, so its outward-rounded endpoints stay >= 1/2 and
    # their ulps (>= 2**-53) are multiples of 2**-96: scaling them to the
    # 2**96 grid is exact
    head_lo = int(math.ldexp(head.lo, _scaled.BITS))
    head_hi = int(math.ldexp(head.hi, _scaled.BITS))
    # exact integer bracket for n Sigma~ = n A(n) + nu Sigma(nu) - nu A(nu)
    # over the denominator n 2**96; binary64 would cancel ~n^(3/2)-sized
    # operands down to the 1e-7 scale and lose the certification, so the one
    # rounding happens at the readout.  n Sigma~ - n Sigma(n) = delta(nu+1, n)
    # / 24 lies above sigma(nu+3, n+2)/24 > ((nu+2)^(-1/2) - n^(-1/2))/24 and
    # below sigma(nu+1, n)/24 = (nu^(-1/2) - n^(-1/2))/24; subtracting both
    # sides brackets n Sigma(n), and one bracket of n^(-1/2) cancels from
    # the width
    t_lo, t_hi = _scaled.rsqrt_enc(n)
    up = -((t_lo - _scaled.rsqrt_enc(nu)[1]) // 24)
    down = (_scaled.rsqrt_enc(nu + 2)[0] - t_hi) // 24
    lo = a_n_lo + head_lo - a_nu_hi - up
    hi = a_n_hi + head_hi - a_nu_lo - down
    return _certify(lo, hi, n * _scaled.ONE, plan, head_hi - head_lo)


def _direct_mean(plan: EvalPlan, cap: "int | None") -> CertifiedMean:
    enc = oracle_mean(plan.n, cap=cap)
    lo_num, lo_den = enc.lo.as_integer_ratio()
    hi_num, hi_den = enc.hi.as_integer_ratio()
    den = max(lo_den, hi_den)  # powers of two: the larger is a common multiple
    lo, hi = lo_num * (den // lo_den), hi_num * (den // hi_den)
    return _certify(lo, hi, den, plan, hi - lo)


def fast_mean(
    n: int,
    epsilon: float,
    *,
    nu: "int | None" = None,
    cap: "int | None" = None,
) -> CertifiedMean:
    """Certified mean of the first n square roots with error_bound <= epsilon.

    One evaluation, no retry.  choose_nu plans a split at nu whose budget
    provably meets epsilon, or direct summation: the split sums only 1..nu
    and closes the rest with Sigma~ and its two-sided remainder bracket, in
    exact scaled integers, so the only binary64 rounding is the final
    readout.  A direct plan, or a forced nu, that misses epsilon raises with
    the achieved bound.

    Two requests raise before anything is summed, because no certificate
    can meet them: epsilon below the readout floor F, a proven lower bound
    on ulp(value), and a direct plan with epsilon below F + 2**-54 Sigma(n)
    (_direct_floor), which is too close to the readout floor for direct
    summation.
    """
    n = _as_index(n)
    epsilon = _check_eps(epsilon)
    _check_float_range(n)
    # every certificate charges ulp(value) for the readout: no plan can
    # certify below that floor, so refuse before summing anything
    readout_floor = _readout_ulps(n, epsilon)[0]
    if epsilon < readout_floor:
        raise ValueError(
            f"cannot certify epsilon={epsilon!r} for n={n}: it is below the "
            f"readout floor {readout_floor!r}, a lower bound on ulp(value)"
        )
    if nu is None:
        plan = choose_nu(n, epsilon)
    else:
        nu = _as_index(nu, name="nu")
        if nu > n - 2:
            raise ValueError(f"forced nu must satisfy nu <= n - 2, got nu={nu}, n={n}")
        plan = EvalPlan(n, epsilon, nu, "split")
    if plan.method == "direct":
        direct_floor = _direct_floor(n, readout_floor)
        if epsilon < direct_floor:
            raise ValueError(
                f"cannot certify epsilon={epsilon!r} for n={n}: it is too close "
                f"to the readout floor {readout_floor!r} for the direct plan, "
                f"whose sum is charged more than {direct_floor!r}"
            )
    evaluate = _split_mean if plan.method == "split" else _direct_mean
    result = evaluate(plan, cap)
    if result.error_bound > epsilon:
        raise ValueError(
            f"cannot certify epsilon={epsilon!r} for n={n} with a {plan.method} "
            f"plan at nu={plan.nu}: achieved bound {result.error_bound!r}"
        )
    return result


def mean_decomposition_check(
    n: int, *, cap: "int | None" = None
) -> tuple[float, DeltaBounds]:
    """Recover the remainder delta_{1,n} from the mean identity
    Sigma(n) = A(n) - 1/(6n) - delta_{1,n}/(24 n) using the oracle mean, and
    return it with its elementary bracket (the caller asserts containment).

    At nu=1 the bracket margins are O(1), about 0.18 at worst over the
    oracle range, far above both the oracle width and the ~24n ulp(A(n))
    recovery error, so binary64 decides this safely (unlike general nu ~ n,
    which needs the scaled-integer path).
    """
    n = _as_index(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    mid = oracle_mean(n, cap=cap).midpoint()
    nf = float(n)
    delta = 24.0 * nf * (eval_A(nf) - 1.0 / (6.0 * nf) - mid)
    return delta, delta_bounds(1, n)


def _expected_floor_table(max_n: int) -> np.ndarray:
    """expected[n] = floor_A_exact(n) for 1 <= n <= max_n, built from the
    alpha thresholds: the floor is non-decreasing (A is strictly increasing)
    and steps exactly at the thresholds, so checking the exact floor at both
    ends of every block pins the whole block."""
    import numpy as np

    expected = np.zeros(max_n + 1, dtype=np.int32)
    m, start = 1, 1
    while start <= max_n:
        end = min(alpha_floor(m), max_n)
        if floor_A_exact(start) != m or floor_A_exact(end) != m:
            raise AssertionError("alpha threshold table disagrees with exact floor")
        expected[start : end + 1] = m
        m += 1
        start = end + 1
    return expected


def _prefix_mean_chunks(max_n: int):
    """Yield (a, b, means, mean_bound) per fixed chunk, where means[i]
    approximates Sigma(a+i) and mean_bound[i] is a rigorous bound on its
    total rounding error (correctly rounded terms, sequential in-chunk
    cumsum, compensated carry across chunks, and the final division)."""
    import numpy as np

    carry_s, carry_c = 0.0, 0.0
    base_err = 0.0
    for a in range(1, max_n + 1, _CHUNK):
        b = min(a + _CHUNK - 1, max_n)
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
        carry_s, carry_c, base_err = _fold_chunk(
            roots, spacing, carry_s, carry_c, base_err
        )


def _oracle_mean_many(
    ns, *, cap: "int | None" = None
) -> "dict[int, Enclosure]":
    """Oracle mean enclosures at several points in one prefix pass (the same
    rigorous bounds as the floor sweep, read off at the requested marks)."""
    marks = sorted({_as_index(x) for x in ns})
    if not marks:
        return {}
    top = marks[-1]
    cap = _oracle_cap(cap)
    if top > cap:
        raise ValueError(f"range of {top} terms exceeds the oracle cap {cap}")
    out: dict[int, Enclosure] = {}
    it = iter(marks)
    want = next(it)
    for a, b, means, mean_bound in _prefix_mean_chunks(top):
        while want is not None and want <= b:
            i = want - a
            lo = math.nextafter(float(means[i] - mean_bound[i]), -math.inf)
            hi = math.nextafter(float(means[i] + mean_bound[i]), math.inf)
            out[want] = Enclosure(lo, hi)
            want = next(it, None)
    return out


def sweep_theorem1(
    max_n: int, *, cap: "int | None" = None
) -> tuple[int, list[tuple[int, int, int]]]:
    """Verify that the exact closed-form floor matches the oracle floor of
    Sigma(n) for every n in [1, max_n].  Returns (checked, mismatches),
    each mismatch being (n, expected_floor, oracle_floor).

    Any n whose oracle enclosure straddles an integer (n=1 does: Sigma(1) is
    exactly 1) is decided by an exact scaled-integer prefix instead of
    binary64; with the rigorous bounds at ~1e-8 and the closest non-integer
    mean at distance 8.3e-5 (n=995005 within the first 10^6), straddles
    beyond n=1 would signal degenerate bounds and fail loudly.
    """
    max_n = _as_index(max_n, name="max_n")
    cap = _oracle_cap(cap)
    if max_n > cap:
        raise ValueError(f"range of {max_n} terms exceeds the oracle cap {cap}")
    _check_float_range(max_n, "max_n")
    import numpy as np

    expected = _expected_floor_table(max_n)
    mismatches: list[tuple[int, int, int]] = []
    undecided: list[int] = []
    checked = 0
    for a, b, means, mean_bound in _prefix_mean_chunks(max_n):
        flo = np.floor(means - mean_bound)
        fhi = np.floor(means + mean_bound)
        exp_slice = expected[a : b + 1]
        decided = flo == fhi
        for i in np.nonzero(decided & (flo != exp_slice))[0]:
            mismatches.append((a + int(i), int(exp_slice[i]), int(flo[i])))
        undecided.extend(a + int(i) for i in np.nonzero(~decided)[0])
        checked += b - a + 1

    if undecided:
        if len(undecided) > 64:
            raise AssertionError(
                f"{len(undecided)} straddling prefixes: error bounds degenerate"
            )
        prefix = _scaled.sqrt_prefix(max(undecided))
        for n_i in undecided:
            s_lo, s_hi = _scaled.sum_sqrt_enc(prefix, 1, n_i)
            denom = n_i * _scaled.ONE
            f_lo, f_hi = s_lo // denom, s_hi // denom
            if f_lo != f_hi:
                raise AssertionError(
                    f"scaled prefix cannot separate the mean at n={n_i}"
                )
            if int(f_lo) != int(expected[n_i]):
                mismatches.append((n_i, int(expected[n_i]), int(f_lo)))
    mismatches.sort()
    return checked, mismatches

"""Command-line front end: floor, mean, partial-sum, and verification
queries with one structured record per query on stdout.

Exit codes: 0 success, 1 verification found a counterexample, 2 usage or
domain error.  Identical inputs produce bit-identical records except for
the elapsed_ms field.

Every verify mode decides its checks by exact integer comparisons, so exit
code 1 means a real counterexample: delta in closed form at sampled pairs,
theorem1 from the oracle's integer bracket of the sum of numpy's correctly
rounded square roots, and lemma2 and lemma3 from polynomial certificates
that hold for every x and every m, so these two read no --max-n.
"""

from __future__ import annotations

import argparse
import decimal
import json
import random
import shlex
import sys
import time

from . import _scaled
from .asymptotic import _Record, _series_sum, partial_sum_root_enclosure
from .evaluator import _check_terms, fast_mean, oracle_mean, sweep_theorem1
from .exactfloor import floor_A_exact

__all__ = ["QueryResult", "build_parser", "main"]


class QueryResult(_Record):
    """One query's structured output record."""

    __slots__ = _fields = (
        "command", "inputs", "value", "error_bound", "method", "elapsed_ms", "extra"
    )
    command: str
    inputs: "dict[str, str]"
    value: str
    error_bound: str
    method: str
    elapsed_ms: float
    extra: "dict[str, str]"

    def __init__(
        self,
        command: str,
        inputs: "dict[str, str]",
        value: str,
        error_bound: str,
        method: str,
        elapsed_ms: float = 0.0,
        extra: "dict[str, str] | None" = None,
    ) -> None:
        values = (
            command, inputs, value, error_bound, method, elapsed_ms,
            {} if extra is None else extra,
        )
        for setter, field in zip(self._setters, values):
            setter(self, field)

    def fields(self) -> "list[tuple[str, object]]":
        items: list[tuple[str, object]] = [("command", self.command)]
        items.extend(self.inputs.items())
        items.append(("value", self.value))
        items.append(("error_bound", self.error_bound))
        items.append(("method", self.method))
        items.extend(self.extra.items())
        items.append(("elapsed_ms", round(self.elapsed_ms, 3)))
        return items

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(dict(self.fields()))
        # shell-style quoting keeps the line parseable when a diagnostic
        # value contains spaces
        return " ".join(f"{k}={shlex.quote(str(v))}" for k, v in self.fields())


def _positive_int(text: str) -> int:
    """A positive integer written in ASCII decimal digits, of any length.

    int(text) refuses more than 4300 digits (Python's int/str conversion
    limit); decimal.Decimal is not subject to it and converts exactly.  One
    argv string is bounded by the OS, so the conversion is bounded too.
    """
    digits = text.strip()
    if digits.isascii() and digits.isdigit():
        n = int(decimal.Decimal(digits))
        if n >= 1:
            return n
    raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")


def _digits(n: int) -> str:
    """Decimal digits of an integer of any length, past the int/str limit."""
    return str(decimal.Decimal(n))


def _run_floor(args: argparse.Namespace) -> "tuple[QueryResult, int]":
    value = floor_A_exact(args.n)
    return (
        QueryResult("floor", {"n": _digits(args.n)}, _digits(value), "0", "exact"),
        0,
    )


def _run_mean(args: argparse.Namespace) -> "tuple[QueryResult, int]":
    result = fast_mean(args.n, args.eps)
    return (
        QueryResult(
            "mean",
            {"n": str(args.n), "eps": repr(args.eps)},
            result.decimal_value,
            repr(result.error_bound),
            result.method,
            extra={
                "budget_remainder": repr(result.budget.remainder),
                "budget_head": repr(result.budget.head),
                "budget_readout": repr(result.budget.readout),
            },
        ),
        0,
    )


def _run_sum(args: argparse.Namespace) -> "tuple[QueryResult, int]":
    start, stop, root = args.start, args.stop, args.root
    if start >= stop:
        raise ValueError("need --from < --to")
    inputs = {"from": _digits(start), "to": _digits(stop), "root": repr(root)}
    if root == 1.0:
        exact = _series_sum(start, stop)
        return QueryResult("sum", inputs, _digits(exact), "0", "exact"), 0
    enc = partial_sum_root_enclosure(start, stop, root)
    return (
        QueryResult(
            "sum",
            inputs,
            repr(enc.midpoint()),
            repr(enc.half_width()),
            "enclosure",
        ),
        0,
    )


def _verify_theorem1(max_n: int):
    checked, mismatches = sweep_theorem1(max_n)
    failures = [
        (str(n), f"floor {exp}", f"floor {got}") for n, exp, got in mismatches
    ]
    return checked, failures


def _verify_delta(max_n: int):
    """Exact scaled-integer containment sigma(nu+2,n+2) < delta_{nu,n} <
    sigma(nu,n) on sampled pairs, plus delta_{1,n} < 3/2, each delta from
    _scaled.delta_enc in O(1); its bracket stops deciding near n = 10**8."""
    if max_n < 2:
        raise ValueError("delta mode needs --max-n >= 2")
    if max_n > 1_000_000:
        raise ValueError("delta mode's bracket stops deciding near 10**8; --max-n <= 10**6")
    rng = random.Random(max_n)
    pairs = {(1, 2), (1, max_n), (max_n - 1, max_n)}
    while len(pairs) < min(1000, max_n * (max_n - 1) // 2):
        n = rng.randrange(2, max_n + 1)
        pairs.add((rng.randrange(1, n), n))
    half = 3 * _scaled.ONE // 2
    failures = []
    for nu, n in sorted(pairs):
        d_lo, d_hi = _scaled.delta_enc(nu, n)
        s_lo, _ = _scaled.sigma_enc(nu, n)
        _, s2_hi = _scaled.sigma_enc(nu + 2, n + 2)
        ok = s2_hi < d_lo and d_hi < s_lo and (nu != 1 or d_hi < half)
        if not ok:
            failures.append(
                (
                    f"({nu},{n})",
                    "sigma(nu+2,n+2) < delta < sigma(nu,n)",
                    f"delta in [{d_lo / _scaled.ONE:.17g}, "
                    f"{d_hi / _scaled.ONE:.17g}]",
                )
            )
    return len(pairs), failures


# A(x) = (2/3) sqrt(x+1) (1 + 1/(4x)) = (4x+1) sqrt(x+1) / (6x).  Each gap
# below is an integer polynomial, positive exactly when its claim about A
# holds: every step of its derivation is an equivalence.


def _upper_gap(p: int, q: int) -> int:
    """A(x) < (2/3) sqrt(x+2) at x = p/q > 0.  Both sides are positive, so
    squaring keeps the order: 16 x^2 (x+2) - (4x+1)^2 (x+1) > 0; times q^3."""
    return 16 * p * p * (p + 2 * q) - (4 * p + q) ** 2 * (p + q)


def _lower_gap(p: int, q: int) -> int:
    """D times q^2: A(x) > (2/3) sqrt(x+5/4) + 1/(4x) at x = p/q > 0 iff this
    gap and _lower_square_gap are positive.  Times 12x > 0, with 8x sqrt(x+5/4)
    = 4x sqrt(4x+5), the claim reads 2(4x+1) sqrt(x+1) > 4x sqrt(4x+5) + 3.
    Both sides are positive, so squaring keeps the order: 64x^3 + 96x^2 +
    36x + 4 > 64x^3 + 80x^2 + 9 + 24x sqrt(4x+5), that is D = 16x^2 + 36x
    - 5 > 24x sqrt(4x+5), which holds iff D > 0 and D^2 > 576 x^2 (4x+5)."""
    return 16 * p * p + 36 * p * q - 5 * q * q


def _lower_square_gap(p: int, q: int) -> int:
    """D^2 - 576 x^2 (4x+5) at x = p/q, times q^4 (see _lower_gap)."""
    return _lower_gap(p, q) ** 2 - 576 * p * p * q * (4 * p + 5 * q)


def _below_gap(n: int, s: int) -> int:
    """A(n) < s for n, s > 0: both sides are positive, so squaring keeps the
    order: 36 n^2 s^2 - (4n+1)^2 (n+1) > 0."""
    return 36 * n * n * s * s - (4 * n + 1) ** 2 * (n + 1)


def _over_gap(x: int, s: int) -> int:
    """A(x) - 1/(4x) > s for x, s > 0: times 12x > 0, 2(4x+1) sqrt(x+1) >
    12xs + 3; squaring keeps the order: 4 (4x+1)^2 (x+1) - (12xs + 3)^2 > 0."""
    return 4 * (4 * x + 1) ** 2 * (x + 1) - (12 * x * s + 3) ** 2


def _certified(gap, point, degree: int, coefficients: "tuple[int, ...]") -> bool:
    """Whether gap(*point(u)) > 0 is proved for every real u >= 0.  It is a
    polynomial in u of degree <= `degree` (read off the expressions), so
    agreeing at u = 0..degree makes it the polynomial with these
    coefficients, constant first, positive at u >= 0 if every one is."""
    return (
        len(coefficients) <= degree + 1
        and all(c > 0 for c in coefficients)
        and all(
            gap(*point(u)) == sum(c * u ** i for i, c in enumerate(coefficients))
            for u in range(degree + 1)
        )
    )


# (domain, claim, gap, point(u), degree bound, coefficients): Lemma 2's gaps
# are homogeneous in (p, q), so at q = 1 each decides its claim at real x = p.
_LEMMA2_CERTIFICATES = (
    ("x = u + 2", "A(x) < (2/3) sqrt(x+2)", _upper_gap, lambda u: (u + 2, 1), 3,
     (13, 23, 8)),
    ("x = u + 6", "D > 0", _lower_gap, lambda u: (u + 6, 1), 2, (787, 228, 16)),
    ("x = u + 6", "D^2 > 576 x^2 (4x+5)", _lower_square_gap, lambda u: (u + 6, 1), 4,
     (18025, 75480, 32816, 4992, 256)),
)
# Lemma 3 at n = alpha_floor(m), x = n + 1, s = m + 1 and t = u + 1: for odd
# m = 2t - 1, n = 9t^2 - 2 and s = 2t; for even m = 2t, 9t^2 + 9t and 2t + 1.
_LEMMA3_CERTIFICATES = (
    ("m = 2u + 1", "A(n) < m + 1", _below_gap,
     lambda u: (9 * (u + 1) ** 2 - 2, 2 * u + 2), 6, (328, 1854, 3519, 2592, 648)),
    ("m = 2u + 1", "A(x) - 1/(4x) > m + 1", _over_gap,
     lambda u: (9 * (u + 1) ** 2 - 1, 2 * u + 2), 6, (1179, 6120, 11412, 9072, 2592)),
    ("m = 2u + 2", "A(n) < m + 1", _below_gap,
     lambda u: (9 * (u + 1) * (u + 2), 2 * u + 3), 6, (3725, 11421, 12555, 5832, 972)),
    ("m = 2u + 2", "A(x) - 1/(4x) > m + 1", _over_gap,
     lambda u: (9 * (u + 1) * (u + 2) + 1, 2 * u + 3), 6, (2351, 8820, 11628, 6480, 1296)),
)


def _check_certificates(certificates):
    failed = [c[:2] + ("not certified",) for c in certificates if not _certified(*c[2:])]
    return len(certificates), failed


def _verify_lemma2(*_: int):
    """Lemma 2 for every real x, from _LEMMA2_CERTIFICATES: A(x) < (2/3) sqrt(x+2)
    for x >= 2, and A(x) > (2/3) sqrt(x+5/4) + 1/(4x) for x >= 6."""
    return _check_certificates(_LEMMA2_CERTIFICATES)


def _verify_lemma3(*_: int):
    """Lemma 3 for every m >= 1, from _LEMMA3_CERTIFICATES: at n =
    alpha_floor(m) and x = n + 1, A(n) < m + 1 (below the step) and
    A(x) - 1/(4x) > m + 1 (over the step).

    With them, Theorem 1: floor(Sigma(n)) = floor(A(n)) for every n >= 1.
    - The identity at nu = 1 (asymptotic) reads Sigma(n) = A(n) - 1/(6n) -
      delta(1, n)/(24n), so 0 < delta(1, n) < 3/2 gives A(n) - 11/(48n) <
      Sigma(n) < A(n) for n >= 2.
    - At each block start x = alpha_floor(m) + 1, Sigma(x) > A(x) - 1/(4x)
      > m + 1, as 11/48 < 1/4; at each block end n = alpha_floor(m),
      Sigma(n) < A(n) < m + 1.
    - Sigma increases (Sigma(n+1) - Sigma(n) = (sqrt(n+1) - Sigma(n)) /
      (n+1) > 0) and Sigma(1) = 1, so m <= Sigma(n) < m + 1 on each block
      alpha_floor(m - 1) < n <= alpha_floor(m), where floor(A(n)) = m.
    The delta bracket is the one cited premise."""
    return _check_certificates(_LEMMA3_CERTIFICATES)


_VERIFY_MODES = {
    "theorem1": _verify_theorem1,
    "delta": _verify_delta,
    "lemma2": _verify_lemma2,
    "lemma3": _verify_lemma3,
}
_PROOF_MODES = ("lemma2", "lemma3")  # proved for every x and m: no --max-n read


def _run_verify(args: argparse.Namespace) -> "tuple[QueryResult, int]":
    checked, failures = _VERIFY_MODES[args.mode](args.max_n)
    passed = checked - len(failures)
    extra = {"failures": str(len(failures))}
    if failures:
        where, expected, got = failures[0]
        extra.update(
            {"counterexample_n": where, "expected": expected, "got": got}
        )
    bound = {} if args.mode in _PROOF_MODES else {"max_n": str(args.max_n)}
    result = QueryResult(
        "verify",
        {**bound, "mode": args.mode},
        f"{passed}/{checked}",
        "0",
        args.mode,
        extra=extra,
    )
    return result, (1 if failures else 0)


def _run_bench(args: argparse.Namespace) -> "tuple[QueryResult | None, int]":
    _check_terms(sum(args.sizes))  # all the passes together, before the first
    rows = []
    for n in args.sizes:
        t0 = time.perf_counter()
        oracle = oracle_mean(n)
        t1 = time.perf_counter()
        result = fast_mean(n, args.eps)
        t2 = time.perf_counter()
        rows.append(
            {
                "n": n,
                "oracle_ms": round((t1 - t0) * 1e3, 3),
                "fast_ms": round((t2 - t1) * 1e3, 3),
                "method": result.method,
                "value": result.decimal_value,
                "error_bound": repr(result.error_bound),
                "oracle_mid": repr(oracle.midpoint()),
            }
        )
    if args.format == "json":
        print(json.dumps({"command": "bench", "eps": repr(args.eps), "rows": rows}))
        return None, 0
    cols = ["n", "oracle_ms", "fast_ms", "method", "value", "error_bound"]
    widths = {
        c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols
    }
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    return None, 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output record format (default: text)",
    )

    parser = argparse.ArgumentParser(
        prog="rootmean",
        description="Certified means and exact floors of averaged square roots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("floor", parents=[common], help="exact floor of the mean")
    p.add_argument("n", type=_positive_int, help="any positive integer")
    p.set_defaults(func=_run_floor)

    p = sub.add_parser("mean", parents=[common], help="certified mean")
    p.add_argument("n", type=_positive_int, help="any positive integer below 2**2046")
    p.add_argument("--eps", type=float, default=1e-9,
                   help="target absolute error bound (default: 1e-9)")
    p.set_defaults(func=_run_mean)

    p = sub.add_parser("sum", parents=[common],
                       help="enclosure of a partial sum of r-th roots")
    p.add_argument("--from", dest="start", type=_positive_int, required=True)
    p.add_argument("--to", dest="stop", type=_positive_int, required=True)
    p.add_argument("--root", type=float, default=2.0,
                   help="root order r >= 1 (default: 2)")
    p.set_defaults(func=_run_sum)

    p = sub.add_parser("verify", parents=[common], help="property sweeps")
    p.add_argument("--max-n", type=_positive_int, default=100_000)
    p.add_argument("--mode", choices=sorted(_VERIFY_MODES), required=True)
    p.set_defaults(func=_run_verify)

    p = sub.add_parser("bench", parents=[common],
                       help="time oracle summation versus fast_mean")
    p.add_argument("sizes", type=_positive_int, nargs="*",
                   default=[10_000, 100_000, 1_000_000])
    p.add_argument("--eps", type=float, default=1e-9)
    p.set_defaults(func=_run_bench)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        result, code = args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"rootmean: error: {exc}", file=sys.stderr)
        return 2
    if result is not None:
        elapsed_ms = (time.perf_counter() - started) * 1e3
        result = QueryResult(
            result.command, result.inputs, result.value, result.error_bound,
            result.method, elapsed_ms, result.extra,
        )
        print(result.render(args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())

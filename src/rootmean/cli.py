"""Command-line front end: floor, mean, partial-sum, and verification
queries with one structured record per query on stdout.

Exit codes: 0 success, 1 verification found a counterexample, 2 usage or
domain error.  Identical inputs produce bit-identical records except for
the elapsed_ms field.

Every verify mode decides its checks by exact integer comparisons, so exit
code 1 means a real counterexample: delta, lemma2 and lemma3 in closed
form, and theorem1 from the oracle's integer bracket of the sum of
numpy's correctly rounded square roots.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import random
import shlex
import sys
import time

from . import _scaled
from .asymptotic import _Record, partial_sum_root_enclosure
from .evaluator import _DEFAULT_CAP, fast_mean, oracle_mean, sweep_theorem1
from .exactfloor import alpha_floor, floor_A_exact

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
        exact = (start + stop) * (stop - start + 1) // 2
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


def _verify_theorem1(max_n: int, cap: int):
    checked, mismatches = sweep_theorem1(max_n, cap=cap)
    failures = [
        (str(n), f"floor {exp}", f"floor {got}") for n, exp, got in mismatches
    ]
    return checked, failures


def _verify_delta(max_n: int, cap: int):
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


# A(x) = (2/3) sqrt(x+1) (1 + 1/(4x)) = (4x+1) sqrt(x+1) / (6x).  Each
# predicate below decides one claim about A exactly: every step of its
# proof is an equivalence, so the integer comparison is the claim itself.


def _under_upper_envelope(p: int, q: int) -> bool:
    """A(x) < (2/3) sqrt(x+2) at x = p/q > 0.

    Both sides are positive, so squaring keeps the order:
    (4x+1)^2 (x+1) / (36 x^2) < (4/9)(x+2), that is (4x+1)^2 (x+1) <
    16 x^2 (x+2); times q^3, (4p+q)^2 (p+q) < 16 p^2 (p+2q)."""
    return (4 * p + q) ** 2 * (p + q) < 16 * p * p * (p + 2 * q)


def _over_lower_envelope(p: int, q: int) -> bool:
    """A(x) > (2/3) sqrt(x+5/4) + 1/(4x) at x = p/q > 0.

    Times 12x > 0, with 8x sqrt(x+5/4) = 4x sqrt(4x+5), the claim reads
    2(4x+1) sqrt(x+1) > 4x sqrt(4x+5) + 3.  Both sides are positive, so
    squaring keeps the order: 64x^3 + 96x^2 + 36x + 4 > 64x^3 + 80x^2 + 9 +
    24x sqrt(4x+5), that is D = 16x^2 + 36x - 5 > 24x sqrt(4x+5).  The
    right side is positive, so this holds iff D > 0 and D^2 > 576 x^2
    (4x+5).  Times q^2 and q^4, with a = 16p^2 + 36pq - 5q^2: a > 0 and
    a^2 > 576 p^2 q (4p+5q)."""
    a = 16 * p * p + 36 * p * q - 5 * q * q
    return a > 0 and a * a > 576 * p * p * q * (4 * p + 5 * q)


def _below_step(n: int, s: int) -> bool:
    """A(n) < s for integers n, s >= 1: both sides are positive, so square:
    (4n+1)^2 (n+1) / (36 n^2) < s^2, that is (4n+1)^2 (n+1) < 36 n^2 s^2."""
    return (4 * n + 1) ** 2 * (n + 1) < 36 * n * n * s * s


def _over_step(x: int, s: int) -> bool:
    """A(x) - 1/(4x) > s for integers x, s >= 1: times 12x > 0, the claim
    reads 2(4x+1) sqrt(x+1) > 12xs + 3; both sides are positive, so
    squaring keeps the order: 4 (4x+1)^2 (x+1) > (12xs + 3)^2."""
    return 4 * (4 * x + 1) ** 2 * (x + 1) > (12 * x * s + 3) ** 2


_LEMMA2_LIMIT = 10 ** 1000
_LEMMA2_POINTS = 2000


def _lemma2_grid(max_n: int) -> "list[tuple[int, int]]":
    """Exact rationals p/q in [2, max_n], in increasing order: 2, 6 and
    max_n where they lie in range, and about _LEMMA2_POINTS points spaced
    evenly in log2.  Each spaced point is 2**t = 2**k * 2**(t - k), k =
    floor(t), with 2**(t - k) taken exactly from its binary64 value; the
    spacing only chooses where to look, and every check runs on the exact
    rational."""
    top = math.log2(max_n)
    points = {(2, 1), (6, 1), (max_n, 1)}
    for i in range(_LEMMA2_POINTS):
        t = 1.0 + (top - 1.0) * i / (_LEMMA2_POINTS - 1)
        k = math.floor(t)
        p, q = (2.0 ** (t - k)).as_integer_ratio()
        p <<= k
        g = math.gcd(p, q)
        points.add((p // g, q // g))
    by_value = functools.cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])
    return sorted(((p, q) for p, q in points if 2 * q <= p <= max_n * q), key=by_value)


def _verify_lemma2(max_n: int, cap: int):
    """Lemma 2's envelopes at each rational x = p/q of _lemma2_grid, in
    integers: A(x) < (2/3) sqrt(x+2) for x >= 2 and A(x) > (2/3)
    sqrt(x+5/4) + 1/(4x) for x >= 6.  The limit on max_n bounds the
    integers (about 4 log2(max_n) bits); no value is rounded."""
    if max_n < 2:
        raise ValueError("lemma2 mode needs --max-n >= 2")
    if max_n > _LEMMA2_LIMIT:
        raise ValueError("lemma2 mode checks exact rationals; --max-n <= 10**1000")
    checked = 0
    failures = []
    for p, q in _lemma2_grid(max_n):
        checked += 1
        if not _under_upper_envelope(p, q):
            failures.append((f"{p}/{q}", "A(x) < (2/3) sqrt(x+2)", "violated"))
        if p >= 6 * q:
            checked += 1
            if not _over_lower_envelope(p, q):
                failures.append(
                    (f"{p}/{q}", "A(x) > (2/3) sqrt(x+5/4) + 1/(4x)", "violated")
                )
    return checked, failures


def _verify_lemma3(max_n: int, cap: int):
    """Lemma 3 at every threshold alpha(m) = (9/4)(m+1)^2 - 2 for m <=
    max_n, with n = alpha_floor(m) and x = n + 1, in integers: n <=
    alpha(m) < x (as 4n <= 9(m+1)^2 - 8 < 4x), the exact floor steps from
    m at n to m+1 at x, A(n) < m+1 (_below_step) and A(x) - 1/(4x) > m+1
    (_over_step).  The cap on max_n only bounds the loop."""
    if max_n > 1_000_000:
        raise ValueError("lemma3 mode checks every threshold; --max-n <= 10**6")
    checked = 0
    failures = []
    for m in range(1, max_n + 1):
        n = alpha_floor(m)
        x, s = n + 1, m + 1
        checked += 1
        ok = (
            4 * n <= 9 * s * s - 8 < 4 * x
            and floor_A_exact(n) == m
            and floor_A_exact(x) == s
            and _below_step(n, s)
            and _over_step(x, s)
        )
        if not ok:
            failures.append(
                (str(n), f"floor steps {m} -> {s} at alpha({m})", "violated")
            )
    return checked, failures


_VERIFY_MODES = {
    "theorem1": _verify_theorem1,
    "delta": _verify_delta,
    "lemma2": _verify_lemma2,
    "lemma3": _verify_lemma3,
}


def _run_verify(args: argparse.Namespace) -> "tuple[QueryResult, int]":
    checked, failures = _VERIFY_MODES[args.mode](args.max_n, args.oracle_cap)
    passed = checked - len(failures)
    extra = {"failures": str(len(failures))}
    if failures:
        where, expected, got = failures[0]
        extra.update(
            {"counterexample_n": where, "expected": expected, "got": got}
        )
    result = QueryResult(
        "verify",
        {"max_n": str(args.max_n), "mode": args.mode},
        f"{passed}/{checked}",
        "0",
        args.mode,
        extra=extra,
    )
    return result, (1 if failures else 0)


def _run_bench(args: argparse.Namespace) -> "tuple[QueryResult | None, int]":
    rows = []
    for n in args.sizes:
        t0 = time.perf_counter()
        oracle = oracle_mean(n, cap=args.oracle_cap)
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
    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument(
        "--oracle-cap", type=_positive_int, default=_DEFAULT_CAP, metavar="COUNT",
        help="max terms any direct summation may touch (default: 10**8)",
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

    p = sub.add_parser("verify", parents=[common, oracle], help="property sweeps")
    p.add_argument("--max-n", type=_positive_int, default=100_000)
    p.add_argument("--mode", choices=sorted(_VERIFY_MODES), required=True)
    p.set_defaults(func=_run_verify)

    p = sub.add_parser("bench", parents=[common, oracle],
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

"""Command-line front end: floor, mean, partial-sum, and verification
queries with one structured record per query on stdout.

Exit codes: 0 success, 1 verification found a counterexample, 2 usage or
domain error.  Identical inputs produce bit-identical records except for
the elapsed_ms field.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import json
import random
import shlex
import sys
import time
from dataclasses import dataclass, field

from . import _scaled
from .asymptotic import (
    eval_A,
    lemma2_lower,
    lemma2_upper,
    partial_sum_root_enclosure,
)
from .evaluator import fast_mean, oracle_mean, sweep_theorem1
from .exactfloor import AlphaThreshold, alpha_floor, floor_A_exact

__all__ = ["QueryResult", "build_parser", "main"]


@dataclass(frozen=True)
class QueryResult:
    """One query's structured output record."""

    command: str
    inputs: "dict[str, str]"
    value: str
    error_bound: str
    method: str
    elapsed_ms: float = 0.0
    extra: "dict[str, str]" = field(default_factory=dict)

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
        raise ValueError(f"need --from < --to, got {start} >= {stop}")
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


def _verify_theorem1(max_n: int, cap: "int | None"):
    checked, mismatches = sweep_theorem1(max_n, cap=cap)
    failures = [
        (str(n), f"floor {exp}", f"floor {got}") for n, exp, got in mismatches
    ]
    return checked, failures


def _verify_delta(max_n: int, cap: "int | None"):
    """Exact scaled-integer containment sigma(nu+2,n+2) < delta_{nu,n} <
    sigma(nu,n) on sampled pairs, plus delta_{1,n} < 3/2."""
    if max_n < 2:
        raise ValueError("delta mode needs --max-n >= 2")
    if max_n > 1_000_000:
        raise ValueError("delta mode builds an exact prefix; --max-n <= 10**6")
    rng = random.Random(max_n)
    prefix = _scaled.sqrt_prefix(max_n)
    pairs = {(1, 2), (1, max_n), (max_n - 1, max_n)}
    while len(pairs) < min(1000, max_n * (max_n - 1) // 2):
        n = rng.randrange(2, max_n + 1)
        pairs.add((rng.randrange(1, n), n))
    half = 3 * _scaled.ONE // 2
    failures = []
    for nu, n in sorted(pairs):
        d_lo, d_hi = _scaled.delta_enc(prefix, nu, n)
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


def _verify_lemma2(max_n: int, cap: "int | None"):
    """A(x) < (2/3) sqrt(x+2) on [2, max_n] and A(x) > (2/3) sqrt(x+5/4)
    + 1/(4x) on [6, max_n], on a log-spaced grid."""
    if max_n < 2:
        raise ValueError("lemma2 mode needs --max-n >= 2")
    import numpy as np

    xs = np.unique(
        np.concatenate(
            [np.geomspace(2.0, float(max_n), 2000), [2.0, 6.0, float(max_n)]]
        )
    )
    checked = 0
    failures = []
    for x in xs:
        x = float(x)
        if x < 2.0:
            continue
        checked += 1
        up = lemma2_upper(x)
        if not eval_A(x) < up:
            failures.append((repr(x), f"A(x) < {up!r}", repr(eval_A(x))))
        if x >= 6.0:
            checked += 1
            low = lemma2_lower(x)
            if not eval_A(x) > low:
                failures.append((repr(x), f"A(x) > {low!r}", repr(eval_A(x))))
    return checked, failures


def _verify_lemma3(max_n: int, cap: "int | None"):
    """At every threshold alpha(m) = (9/4)(m+1)^2 - 2 for m <= max_n: the
    exact floor steps from m to m+1 across alpha, and A(n) < m+1 at n =
    floor(alpha) while A(n) - 1/(4n) > m+1 just past it.  The cap on max_n
    bounds the loop and keeps m small enough that binary64 can separate the
    ~1/(9(m+1)) gap."""
    if max_n > 1_000_000:
        raise ValueError("lemma3 mode checks every threshold; --max-n <= 10**6")
    checked = 0
    failures = []
    for m in range(1, max_n + 1):
        at = AlphaThreshold.of(m)
        n = alpha_floor(m)
        checked += 1
        nf, n2f = float(n), float(n + 1)
        ok = (
            at.admits(n)
            and not at.admits(n + 1)
            and floor_A_exact(n) == m
            and floor_A_exact(n + 1) == m + 1
            and eval_A(nf) < m + 1
            and eval_A(n2f) - 0.25 / n2f > m + 1
        )
        if not ok:
            failures.append(
                (str(n), f"floor steps {m} -> {m + 1} at alpha({m})", "violated")
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
        "--oracle-cap", type=_positive_int, default=None, metavar="COUNT",
        help="max terms any direct summation may touch "
        "(default: ROOTMEAN_ORACLE_CAP or 10**8)",
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
        result = dataclasses.replace(result, elapsed_ms=elapsed_ms)
        print(result.render(args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line behavior: record shape, exit codes, determinism, formats."""

import decimal
import json
import math
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmean import cli, evaluator
from rootmean.evaluator import fast_mean, oracle_mean
from rootmean.exactfloor import alpha_floor, floor_A_exact


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_text_record(line):
    return dict(part.split("=", 1) for part in shlex.split(line.strip()))


def strip_elapsed(record: dict) -> dict:
    out = dict(record)
    out.pop("elapsed_ms", None)
    return out


class TestFloor:
    @pytest.mark.parametrize(
        "n,expected", [("1", "1"), ("8", "2"), ("10000000", "2108")]
    )
    def test_known_values(self, capsys, n, expected):
        code, out, err = run_cli(capsys, "floor", n)
        assert code == 0 and err == ""
        rec = parse_text_record(out)
        assert rec["command"] == "floor"
        assert rec["n"] == n
        assert rec["value"] == expected
        assert rec["error_bound"] == "0"
        assert rec["method"] == "exact"
        assert "elapsed_ms" in rec

    def test_arbitrary_length_integer(self, capsys):
        # A(10^40) ~ (2/3) 10^20, far beyond any floating representation
        n = str(10 ** 40)
        code, out, _ = run_cli(capsys, "floor", n)
        assert code == 0
        rec = parse_text_record(out)
        assert rec["value"] == "66666666666666666666"
        assert rec["value"] == str(floor_A_exact(10 ** 40))

    @pytest.mark.parametrize("digits", [5000, 9001])
    def test_beyond_int_str_digit_limit(self, capsys, digits):
        # int(str) and str(int) refuse more than 4300 digits; N and, at 9001
        # digits, its floor too are parsed and echoed past that limit
        n = (10 ** digits - 1) // 9  # digits ones
        code, out, err = run_cli(capsys, "floor", "1" * digits, "--format", "json")
        assert code == 0 and err == ""
        rec = json.loads(out)
        assert rec["n"] == "1" * digits
        assert int(decimal.Decimal(rec["value"])) == floor_A_exact(n)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "floor", "8", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == "2" and rec["command"] == "floor"
        assert isinstance(rec["elapsed_ms"], float)

    def test_rejects_zero_and_garbage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "floor", "0")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "floor", "twelve")
        assert exc.value.code == 2


class TestMean:
    def test_reference_value(self, capsys):
        code, out, err = run_cli(capsys, "mean", "10000000")
        assert code == 0 and err == ""
        rec = parse_text_record(out)
        assert rec["value"] == "2108.185264872015"
        bound = float(rec["error_bound"])
        assert bound <= 3e-12
        assert rec["method"] == "euler-maclaurin"
        assert "nu_used" not in rec
        mid = oracle_mean(10 ** 7).midpoint()
        assert abs(float(rec["value"]) - mid) <= bound

    def test_json_budget(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "1000000", "--eps", "1e-12", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        parts = [float(rec[f"budget_{k}"]) for k in ("remainder", "head", "readout")]
        bound = float(rec["error_bound"])
        assert all(p > 0.0 for p in parts)
        # each part rounds its share up, the bound rounds the exact total up
        assert max(parts) <= bound <= math.nextafter(math.fsum(parts), math.inf)
        assert bound <= 1e-12
        # the readout is charged its exact rounding error, not a whole ulp
        assert parts[2] <= math.ulp(float(rec["value"])) / 2
        assert rec["method"] == "euler-maclaurin"

    def test_value_round_trips_payload(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "1000", "--format", "json")
        rec = json.loads(out)
        assert code == 0
        payload = fast_mean(1000, 1e-9).value  # same deterministic query
        assert float(rec["value"]) == payload
        assert float(rec["error_bound"]) <= 1e-9  # the default eps

    def test_direct_small(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "5", "--eps", "1e-12")
        rec = parse_text_record(out)
        assert code == 0
        assert rec["method"] == "exact-sum"
        assert rec["value"].startswith("1.6764664694883")

    def test_loose_eps(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "3", "--eps", "0.5")
        rec = parse_text_record(out)
        assert code == 0
        assert rec["value"].startswith("1.38208812331399")

    def test_rejects_beyond_exact_range(self, capsys):
        # the mean takes n beyond 2**53 and refuses it from 2**2046 on, where
        # its binary64 value could overflow
        code, out, err = run_cli(capsys, "mean", str(2 ** 53 + 2), "--eps", "1e-8")
        assert code == 0 and err == ""
        assert parse_text_record(out)["value"] == fast_mean(2 ** 53 + 2, 1e-8).decimal_value
        code, out, err = run_cli(capsys, "mean", str(2 ** 2046))
        assert code == 2
        assert out == ""
        assert "2**2046" in err and "floor" in err

    def test_rejects_bad_nu_and_eps(self, capsys):
        # --nu is gone: argparse refuses it as a usage error
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "mean", "10", "--nu", "9")
        assert exc.value.code == 2 and "nu" in capsys.readouterr().err
        code, _, err = run_cli(capsys, "mean", "10", "--eps", "-1")
        assert code == 2

    def test_determinism_modulo_elapsed(self, capsys):
        _, out1, _ = run_cli(capsys, "mean", "1000", "--eps", "1e-8")
        _, out2, _ = run_cli(capsys, "mean", "1000", "--eps", "1e-8")
        scrub = lambda s: re.sub(r"elapsed_ms=\S+", "elapsed_ms=_", s)
        assert scrub(out1) == scrub(out2)

    def test_determinism_json(self, capsys):
        _, out1, _ = run_cli(capsys, "mean", "2000", "--format", "json")
        _, out2, _ = run_cli(capsys, "mean", "2000", "--format", "json")
        assert strip_elapsed(json.loads(out1)) == strip_elapsed(json.loads(out2))


class TestSum:
    def test_r1_exact(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--from", "3", "--to", "10", "--root", "1")
        rec = parse_text_record(out)
        assert code == 0
        assert rec["value"] == "52"
        assert rec["error_bound"] == "0"
        assert rec["method"] == "exact"

    def test_r1_exact_beyond_float_range(self, capsys):
        # the arithmetic series needs no binary64, so --to may pass 2**53
        stop = 2 ** 53 + 2
        code, out, _ = run_cli(capsys, "sum", "--from", "1", "--to", str(stop), "--root", "1")
        rec = parse_text_record(out)
        assert code == 0
        assert rec["value"] == str(stop * (stop + 1) // 2)
        assert rec["error_bound"] == "0" and rec["method"] == "exact"

    def test_r1_exact_beyond_int_str_digit_limit(self, capsys):
        # a 3000-digit --to gives a 6000-digit sum, past the 4300-digit limit
        stop = 10 ** 3000 - 1
        code, out, err = run_cli(
            capsys, "sum", "--from", "1", "--to", "9" * 3000, "--root", "1", "--format", "json"
        )
        assert code == 0 and err == ""
        rec = json.loads(out)
        assert rec["to"] == "9" * 3000
        assert int(decimal.Decimal(rec["value"])) == stop * (stop + 1) // 2

    def test_default_root_is_square(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--from", "1", "--to", "100")
        rec = parse_text_record(out)
        assert code == 0
        assert rec["method"] == "enclosure"
        mid, half = float(rec["value"]), float(rec["error_bound"])
        assert mid - half <= 671.4629471031477 <= mid + half

    def test_cube_root(self, capsys):
        code, out, _ = run_cli(
            capsys, "sum", "--from", "1", "--to", "1000", "--root", "3", "--format", "json"
        )
        rec = json.loads(out)
        assert code == 0
        mid, half = float(rec["value"]), float(rec["error_bound"])
        assert mid - half <= 7504.722934729933 <= mid + half

    def test_rejects_bad_ranges_and_orders(self, capsys):
        code, _, err = run_cli(capsys, "sum", "--from", "10", "--to", "5")
        assert code == 2 and "--from" in err
        code, _, err = run_cli(capsys, "sum", "--from", "1", "--to", "10", "--root", "0.5")
        assert code == 2
        # the float path for r other than 1 and 2 refuses --to past 2**53,
        # and names the roots that take it
        code, _, err = run_cli(
            capsys, "sum", "--from", "1", "--to", str(2 ** 53 + 2), "--root", "3"
        )
        assert code == 2 and "2**53" in err and "r = 1 and r = 2 take any n" in err

    def test_square_root_past_2_53(self, capsys):
        # exact integers rounded once: the square root takes --to past
        # 2**53, up to where its sum passes binary64's largest finite value
        code, out, _ = run_cli(capsys, "sum", "--from", "1", "--to", str(2 ** 53 + 2))
        assert code == 0 and parse_text_record(out)["method"] == "enclosure"
        code, out, err = run_cli(capsys, "sum", "--from", "1", "--to", str(10 ** 210))
        assert code == 2 and out == "" and "largest finite" in err
        # the exact-series advice belongs to r = 1 alone
        assert "--root 1" not in err


class TestVerify:
    @pytest.mark.parametrize(
        "mode,max_n",
        [
            ("theorem1", "2000"),
            ("delta", "60"),
            ("delta", "1000000"),
            ("lemma2", "5000"),
            ("lemma3", "40"),
        ],
    )
    def test_modes_pass(self, capsys, mode, max_n):
        code, out, err = run_cli(capsys, "verify", "--max-n", max_n, "--mode", mode)
        assert code == 0, err
        rec = parse_text_record(out)
        assert rec["failures"] == "0"
        passed, checked = rec["value"].split("/")
        assert passed == checked and int(checked) > 0

    def test_failure_reporting_and_exit_code(self, capsys, monkeypatch):
        def fake_mode(max_n):
            return 3, [("5", "floor 1", "floor 2")]

        monkeypatch.setitem(cli._VERIFY_MODES, "theorem1", fake_mode)
        code, out, _ = run_cli(capsys, "verify", "--max-n", "10", "--mode", "theorem1")
        assert code == 1
        rec = parse_text_record(out)
        assert rec["value"] == "2/3"
        assert rec["failures"] == "1"
        assert rec["counterexample_n"] == "5"
        assert rec["got"] == "floor 2"

    def test_delta_mode_is_bounded(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--max-n", "2000000", "--mode", "delta"
        )
        assert code == 2 and "10**6" in err

    @pytest.mark.parametrize(
        "max_n", [10 ** 16, 10 ** 20, 10 ** 1000], ids=["10**16", "10**20", "10**1000"]
    )
    def test_lemma2_exact_far_past_binary64(self, capsys, max_n):
        # a binary64 check of these envelopes reported 155 and 932 false
        # counterexamples at 10**16 and 10**20: A(x) and the lower envelope
        # agree there to within an ulp.  The certificates are exact and hold
        # for every x, so --max-n changes nothing
        code, out, err = run_cli(capsys, "verify", "--max-n", str(max_n), "--mode", "lemma2")
        assert code == 0, err
        rec = parse_text_record(out)
        assert rec["failures"] == "0"
        assert rec["value"] == "3/3"

    @pytest.mark.parametrize("mode,value", [("lemma2", "3/3"), ("lemma3", "4/4")])
    def test_proof_modes_take_any_max_n(self, capsys, mode, value):
        # past the 4300-digit int/str limit: the mode reads no bound, and
        # its record reports none
        for extra in ([], ["--max-n", "1" + "0" * 5000]):
            code, out, err = run_cli(capsys, "verify", "--mode", mode, "--format", "json", *extra)
            assert code == 0 and err == ""
            rec = json.loads(out)
            assert "max_n" not in rec
            assert rec["value"] == value and rec["failures"] == "0"

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10 ** 30),
        st.integers(min_value=1, max_value=10 ** 6),
    )
    def test_envelope_predicates_match_mpmath(self, p, q):
        # each integer predicate decides its claim at x = p/q itself, true
        # or false: the claims fail below x = 1.22688 (upper) and x =
        # 5.73101 (lower), which the draws reach
        with mp.workdps(200):
            x = mp.mpf(p) / q
            a = 2 * mp.sqrt(x + 1) * (1 + 1 / (4 * x)) / 3
            upper = a - 2 * mp.sqrt(x + 2) / 3
            lower = a - 2 * mp.sqrt(x + mp.mpf(5) / 4) / 3 - 1 / (4 * x)
        assert (cli._upper_gap(p, q) > 0) == (upper < 0)
        assert (cli._lower_gap(p, q) > 0 and cli._lower_square_gap(p, q) > 0) == (lower > 0)

    @pytest.mark.parametrize(
        "x,upper,lower",
        [
            (Fraction(12268, 10000), False, False),
            (Fraction(12269, 10000), True, False),
            (Fraction(5), True, False),
            (Fraction(5731, 1000), True, False),
            (Fraction(5732, 1000), True, True),
            (Fraction(6), True, True),
        ],
    )
    def test_envelope_predicates_at_their_roots(self, x, upper, lower):
        # the upper claim holds from (9 + sqrt(113))/16 = 1.22688 on, the
        # lower one from the root 5.73101 of 256x^4 - 1152x^3 - 1744x^2 -
        # 360x + 25, the difference of the two sides of its last squaring
        p, q = x.numerator, x.denominator
        assert (cli._upper_gap(p, q) > 0) == upper
        assert (cli._lower_gap(p, q) > 0 and cli._lower_square_gap(p, q) > 0) == lower

    def test_step_predicates_match_mpmath_dense(self):
        # every n up to 3000 against the integers around A(n)
        with mp.workdps(60):
            for n in range(1, 3001):
                a = 2 * mp.sqrt(n + 1) * (1 + mp.mpf(1) / (4 * n)) / 3
                for s in range(max(1, int(a) - 1), int(a) + 3):
                    assert (cli._below_gap(n, s) > 0) == (a < s), (n, s)
                    assert (cli._over_gap(n, s) > 0) == (a - mp.mpf(1) / (4 * n) > s), (n, s)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10 ** 40), st.integers(min_value=-3, max_value=3))
    def test_step_predicates_match_mpmath(self, m, shift):
        # near and at each threshold n = alpha_floor(m), both truth values
        n = max(1, alpha_floor(m) + shift)
        with mp.workdps(200):
            a = 2 * mp.sqrt(n + 1) * (1 + mp.mpf(1) / (4 * n)) / 3
            assert (cli._below_gap(n, m + 1) > 0) == (a < m + 1)
            assert (cli._over_gap(n, m + 1) > 0) == (a - mp.mpf(1) / (4 * n) > m + 1)

    def test_rejects_unknown_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--max-n", "10", "--mode", "nosuch")
        assert exc.value.code == 2


def _over_gap_one_third(x, s):
    # the over-step gap with 1/(4x) mutated to 1/(3x): times 12x the claim
    # reads 2(4x+1) sqrt(x+1) > 12xs + 4
    return 4 * (4 * x + 1) ** 2 * (x + 1) - (12 * x * s + 4) ** 2


def _odd_n_even_s(u):
    # odd m's block start x = 9t^2 - 1 with even m's s = 2t + 1
    return 9 * (u + 1) ** 2 - 1, 2 * u + 3


def _fitted(gap, point, degree):
    """The coefficients of gap(*point(u)), constant first, fitted exactly
    through u = 0..degree by Newton's forward differences: an independent
    expansion to show that a mutant's own polynomial has a coefficient <= 0."""
    values = [gap(*point(u)) for u in range(degree + 1)]
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    coefficients = [Fraction(0)] * (degree + 1)
    falling = [Fraction(1)]  # u (u-1) ... (u-k+1) / k!, constant first
    for k, d in enumerate(diffs):
        for i, c in enumerate(falling):
            coefficients[i] += d * c
        falling = [Fraction(0)] + falling
        for i in range(len(falling) - 1):
            falling[i] -= k * falling[i + 1]
        falling = [c / (k + 1) for c in falling]
    while coefficients and coefficients[-1] == 0:
        coefficients.pop()
    assert all(c.denominator == 1 for c in coefficients)
    return tuple(int(c) for c in coefficients)


class TestCertificates:
    CERTIFICATES = cli._LEMMA2_CERTIFICATES + cli._LEMMA3_CERTIFICATES

    def test_modes_check_every_certificate(self):
        assert cli._verify_lemma2() == (3, [])
        assert cli._verify_lemma3() == (4, [])

    @pytest.mark.parametrize("index", range(7))
    def test_stored_coefficients_are_the_gap(self, index):
        _, _, gap, point, degree, coefficients = self.CERTIFICATES[index]
        assert cli._certified(gap, point, degree, coefficients)
        assert _fitted(gap, point, degree) == coefficients

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 40))
    def test_polynomial_equals_gap_far_out(self, u):
        # a sampled cross-check of the degree bounds: past u = degree the
        # gap still equals its certificate's polynomial
        for _, _, gap, point, _, coefficients in self.CERTIFICATES:
            value = sum(c * u ** i for i, c in enumerate(coefficients))
            assert gap(*point(u)) == value > 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10 ** 40))
    def test_lemma3_points_are_alpha_floor(self, m):
        # odd m = 2u + 1: n = 9t^2 - 2; even m = 2u + 2: n = 9t^2 + 9t;
        # t = u + 1, s = m + 1, and the over-step point is x = n + 1
        below, over = cli._LEMMA3_CERTIFICATES[0:2] if m % 2 else cli._LEMMA3_CERTIFICATES[2:4]
        u = (m - 1) // 2
        assert below[3](u) == (alpha_floor(m), m + 1)
        assert over[3](u) == (alpha_floor(m) + 1, m + 1)

    def test_mutant_one_third_fails(self):
        # A(x) - 1/(3x) > m + 1 happens to hold too, but not by these
        # certificates: the mutated gap is another polynomial
        for _, _, gap, point, degree, coefficients in cli._LEMMA3_CERTIFICATES:
            if gap is cli._over_gap:
                assert not cli._certified(_over_gap_one_third, point, degree, coefficients)

    @pytest.mark.parametrize(
        "gap,shift,degree",
        [(cli._upper_gap, 1, 3), (cli._lower_gap, 0, 2), (cli._lower_square_gap, 5, 4)],
    )
    def test_mutant_shift_leaves_a_negative_coefficient(self, gap, shift, degree):
        # shifted below the lemma's domain, the gap's own polynomial has a
        # negative coefficient, so no certificate can hold
        point = lambda u: (u + shift, 1)  # noqa: E731
        coefficients = _fitted(gap, point, degree)
        assert min(coefficients) < 0
        assert not cli._certified(gap, point, degree, coefficients)
        for _, _, stored_gap, _, stored_degree, stored in cli._LEMMA2_CERTIFICATES:
            if stored_gap is gap:
                assert not cli._certified(gap, point, stored_degree, stored)

    def test_mutant_wrong_parity_fails(self):
        # odd m's n with even m's s: the over-step claim is false (A(x) is
        # near 2t, below s = 2t + 1), and every coefficient is negative
        for _, _, gap, _, degree, coefficients in cli._LEMMA3_CERTIFICATES:
            assert not cli._certified(gap, _odd_n_even_s, degree, coefficients)
        assert max(_fitted(cli._over_gap, _odd_n_even_s, 6)) < 0

    @pytest.mark.parametrize("index", range(7))
    def test_mutant_coefficient_off_by_one(self, index):
        _, _, gap, point, degree, coefficients = self.CERTIFICATES[index]
        for i in range(len(coefficients)):
            for step in (-1, 1):
                wrong = list(coefficients)
                wrong[i] += step
                assert not cli._certified(gap, point, degree, tuple(wrong))

    def test_a_failing_certificate_exits_1(self, capsys, monkeypatch):
        domain, claim, _, point, degree, coefficients = cli._LEMMA3_CERTIFICATES[1]
        mutant = (domain, claim, _over_gap_one_third, point, degree, coefficients)
        monkeypatch.setattr(
            cli, "_LEMMA3_CERTIFICATES", (*cli._LEMMA3_CERTIFICATES[:1], mutant)
        )
        code, out, _ = run_cli(capsys, "verify", "--mode", "lemma3")
        rec = parse_text_record(out)
        assert code == 1 and rec["value"] == "1/2" and rec["failures"] == "1"
        assert rec["counterexample_n"] == domain and rec["expected"] == claim


class TestBench:
    def test_table_output(self, capsys):
        code, out, err = run_cli(capsys, "bench", "1000", "2000")
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + one row per size
        assert lines[0].split()[:3] == ["n", "oracle_ms", "fast_ms"]

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "1000", "--format", "json")
        rec = json.loads(out)
        assert code == 0
        assert rec["command"] == "bench"
        assert len(rec["rows"]) == 1
        row = rec["rows"][0]
        assert row["n"] == 1000
        assert float(row["error_bound"]) <= 1e-9


class TestHugeInputs:
    """Refusals of inputs past Python's 4300-digit int/str limit give their
    real reason, not the conversion limit's."""

    HUGE = "7" * 5000

    def test_sum(self, capsys):
        code, out, err = run_cli(capsys, "sum", "--from", "1", "--to", self.HUGE, "--root", "2")
        assert code == 2 and out == ""
        assert "largest finite" in err and "4300" not in err

    def test_bench(self, capsys):
        code, out, err = run_cli(capsys, "bench", self.HUGE)
        assert code == 2 and out == ""
        assert "10**8 terms" in err and "4300" not in err
        # the refusal names the command that takes any n, not a function
        assert "`rootmean mean` takes any n below 2**2046" in err
        assert "partial_sum_sqrt_enclosure" not in err and "fast_mean" not in err

    def test_verify_theorem1(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--mode", "theorem1", "--max-n", self.HUGE)
        assert code == 2 and out == ""
        assert "10**8 terms" in err and "4300" not in err
        # direct summation stops at 10**8 terms; floor_A_exact verifies
        # nothing, and `rootmean floor` answers any n
        assert "direct summation stops at 10**8 terms" in err
        assert "`rootmean floor` gives floor(Sigma(n)) for any n" in err
        assert "floor_A_exact" not in err

    def test_sum_reversed_range(self, capsys):
        code, out, err = run_cli(capsys, "sum", "--from", self.HUGE, "--to", "5")
        assert code == 2 and out == ""
        assert "--from < --to" in err and "4300" not in err


class TestOracleCap:
    """No subcommand takes --oracle-cap: direct summation stops at a fixed
    10**8 terms, and a request past it is refused before any work."""

    @pytest.fixture
    def work(self, monkeypatch):
        """Counts the oracle passes run and the floor-block tables built."""
        counts = dict.fromkeys(("_oracle_pass", "_floor_blocks"), 0)
        for name in counts:
            def counted(*args, _name=name, _real=getattr(evaluator, name)):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(evaluator, name, counted)
        return counts

    def test_verify_and_bench_reject_the_flag(self, capsys):
        for argv in (["verify", "--mode", "theorem1"], ["bench", "1000"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(capsys, *argv, "--oracle-cap", "10")
            assert exc.value.code == 2
            assert "unrecognized arguments: --oracle-cap" in capsys.readouterr().err

    def test_bench_checks_the_total_before_any_pass(self, capsys, work):
        # the sizes' sum is held to the limit, even where each size is within it
        for sizes in (["100000000", "100000001"], ["60000000", "60000000"]):
            code, out, err = run_cli(capsys, "bench", *sizes)
            assert code == 2 and out == ""
            assert (
                "direct summation stops at 10**8 terms: "
                "`rootmean mean` takes any n below 2**2046"
            ) in err
        assert work == {"_oracle_pass": 0, "_floor_blocks": 0}
        code, out, _ = run_cli(capsys, "bench", "100000", "--eps", "1e-12", "--format", "json")
        assert code == 0 and work == {"_oracle_pass": 1, "_floor_blocks": 0}
        assert float(json.loads(out)["rows"][0]["error_bound"]) <= 1e-12

    def test_verify_theorem1_refuses_before_any_work(self, capsys, work):
        code, out, err = run_cli(
            capsys, "verify", "--mode", "theorem1", "--max-n", "100000001"
        )
        assert code == 2 and out == ""
        assert "direct summation stops at 10**8 terms: `rootmean floor`" in err
        assert work == {"_oracle_pass": 0, "_floor_blocks": 0}

    def test_mean_takes_no_oracle_cap(self, capsys):
        # fast_mean never reaches the oracle, so mean has no cap to set
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "mean", "100000", "--oracle-cap", "10")
        assert exc.value.code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rootmean.cli", "floor", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "value=2" in proc.stdout
    assert proc.stderr == ""

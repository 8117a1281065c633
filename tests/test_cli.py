"""Command-line behavior: output formats, stability, exit codes.

Golden outputs are frozen from runs of the deterministic pipeline and
double-checked here against exact prefixes where one is known.  All
subprocess tests go through ``python -m exactreal`` so they exercise the
installed package rather than the shell PATH.
"""

import math
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from exactreal import core
from exactreal.cli import main


def run_cli(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "exactreal", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=300,
    )


def digit_prefix(text: str) -> Fraction:
    """Reparse rendered digits like "3.2(-5)(-8)" into the exact prefix."""
    head, _, tail = text.strip().partition(".")
    value = Fraction(int(head))
    for i, token in enumerate(re.findall(r"\(-?\d\)|\d", tail)):
        value += Fraction(int(token.strip("()")), 10 ** (i + 1))
    return value


def test_digit_prefix_helper():
    assert digit_prefix("3.2(-5)(-8)") == Fraction(3) + Fraction(2, 10) - Fraction(
        5, 100
    ) - Fraction(8, 1000)
    assert digit_prefix("-2.04") == Fraction(-2) + Fraction(4, 100)
    assert digit_prefix("7") == 7


def test_digits_golden_bytes():
    first = run_cli("digits", "pi + e", "-n", "8")
    second = run_cli("digits", "pi + e", "-n", "8")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr == ""
    # pi + e = 5.8598744820...
    assert abs(digit_prefix(first.stdout) - Fraction(58598744820, 10**10)) < Fraction(
        1, 10**8
    )


def test_bounds_golden_bytes():
    first = run_cli("bounds", "exp(1/2)", "--eps", "1/100000")
    second = run_cli("bounds", "exp(1/2)", "--eps", "1/100000")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    lo_text, hi_text = first.stdout.split()
    lo, hi = Fraction(lo_text), Fraction(hi_text)
    assert lo < hi
    assert hi - lo < Fraction(1, 100000)
    # exp(1/2) = 1.6487212707...
    assert lo < Fraction(16487212707, 10**10) < hi


def test_root_golden_bytes():
    first = run_cli("root", "x*x - 2", "--lo", "1", "--hi", "2", "-n", "6")
    second = run_cli("root", "x*x - 2", "--lo", "1", "--hi", "2", "-n", "6")
    assert first.returncode == 0
    assert first.stdout == second.stdout == "2.(-6)2(-6)22(-6)\n"
    assert abs(digit_prefix(first.stdout) ** 2 - 2) < Fraction(3, 10**6)


def test_integrate_golden_bytes():
    first = run_cli("integrate", "x*x", "--from", "0", "--to", "2", "-n", "5")
    second = run_cli("integrate", "x*x", "--from", "0", "--to", "2", "-n", "5")
    assert first.returncode == 0
    assert first.stdout == second.stdout == "3.(-3)(-3)(-3)(-3)(-3)\n"
    assert abs(digit_prefix(first.stdout) - Fraction(8, 3)) < Fraction(1, 10**5)


def test_digits_match_bounds_midpoint():
    # The n-digit prefix and the midpoint of a bracket at eps = 10^(-n-1)
    # both sit within a digit of the value, so they agree to 10^(-n).
    n = 8
    for text in ("pi", "e", "exp(1/2)", "1/3 + 1/7"):
        digits = run_cli("digits", text, "-n", str(n))
        bounds = run_cli("bounds", text, "--eps", f"1/{10 ** (n + 1)}")
        assert digits.returncode == 0 and bounds.returncode == 0
        lo_text, hi_text = bounds.stdout.split()
        midpoint = (Fraction(lo_text) + Fraction(hi_text)) / 2
        assert abs(digit_prefix(digits.stdout) - midpoint) < Fraction(1, 10**n)


def test_stdin_expression_matches_argument():
    direct = run_cli("digits", "2*3 + 1", "-n", "2")
    piped = run_cli("digits", "-", "-n", "2", stdin="2*3 + 1\n")
    assert direct.returncode == piped.returncode == 0
    assert direct.stdout == piped.stdout
    assert abs(digit_prefix(direct.stdout) - 7) <= Fraction(1, 100)


def test_syntax_error_exit_code_and_message():
    result = run_cli("digits", "1 + * 2", "-n", "3")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: syntax: unexpected '*' at offset 4\n"


def test_division_by_zero_is_a_domain_error():
    result = run_cli("--cap", "1000", "digits", "1/0", "-n", "3")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: domain: no apartness witness")


def test_free_variable_is_a_usage_error():
    result = run_cli("digits", "x + 1", "-n", "3")
    assert result.returncode == 2
    assert result.stderr == "error: usage: expression has a free variable x\n"


def test_unbound_integrand_without_modulus_is_a_domain_error():
    result = run_cli("integrate", "recip(x)", "--from", "-1", "--to", "1", "-n", "3")
    assert result.returncode == 1
    assert result.stderr == "error: domain: integration needs a uniform continuity modulus\n"


def test_bad_flag_value_is_a_usage_error():
    result = run_cli("bounds", "pi", "--eps", "0")
    assert result.returncode == 2
    assert "error: usage:" in result.stderr


def test_reversed_root_interval_is_a_domain_error():
    result = run_cli("root", "x", "--lo", "1", "--hi", "0", "-n", "2")
    assert result.returncode == 1
    assert result.stderr.startswith("error: domain: root interval is empty")


def test_verify_reports_counts_and_passes():
    result = run_cli("--seed", "3", "verify", "--expressions", "20")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines == [
        "expressions 20",
        "queries 200",
        "passed 200",
        "failed 0",
        "PASS",
    ]


def test_trace_goes_to_stderr_only():
    plain = run_cli("digits", "1/2", "-n", "3")
    traced = run_cli("--trace", "digits", "1/2", "-n", "3")
    assert traced.returncode == 0
    assert traced.stdout == plain.stdout
    match = re.fullmatch(r"trace: (\d+) locator evaluations\n", traced.stderr)
    assert match is not None
    assert int(match.group(1)) > 0


def test_trace_keeps_the_callers_hook(capsys):
    calls = []
    core.set_trace_hook(lambda name, q, r, side: calls.append(name))
    try:
        assert main(["--trace", "digits", "1/3", "-n", "2"]) == 0
        during = len(calls)
        core.from_rational(1).locate(0, 2)
    finally:
        core.set_trace_hook(None)
    _, err = capsys.readouterr()
    assert err == "trace: 20 locator evaluations\n"
    assert during == 20
    assert len(calls) == 21


def test_nesting_past_the_recursion_limit_is_one_domain_error_line():
    result = run_cli("digits", "(" * 20_000 + "1" + ")" * 20_000)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: domain: expression nests too deeply to evaluate\n"


def test_main_exit_codes_in_process(capsys):
    assert main(["digits", "1/2", "-n", "2"]) == 0
    assert main(["digits", "1 + * 2"]) == 2
    assert main(["nope"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0
    # --cap holds for one call only.
    cap = core.get_search_cap()
    assert main(["--cap", "7", "digits", "1/3", "-n", "2"]) == 0
    assert core.get_search_cap() == cap
    capsys.readouterr()


def test_cap_flag_rejects_nonpositive():
    result = run_cli("--cap", "0", "verify")
    assert result.returncode == 2
    assert "error: usage:" in result.stderr


def test_exact_zero_divisor_fails_fast_at_default_cap(capsys):
    # The divisor folds to the rational 0, so the apartness search gives
    # up at once instead of probing 10^6 shrinking gaps.
    start = time.monotonic()
    assert main(["digits", "1/(1/3 - 1/3)", "-n", "4"]) == 1
    elapsed = time.monotonic() - start
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: domain: no apartness witness")
    assert elapsed < 5


def test_default_integral_of_exp_answers_in_seconds(capsys):
    # The default -n 6 needs grids of about 10^6 points; the closed-form
    # grid sums make their cost independent of the point count.
    start = time.monotonic()
    assert main(["integrate", "exp(x)", "--from", "0", "--to", "1"]) == 0
    elapsed = time.monotonic() - start
    out, _ = capsys.readouterr()
    # Oracle: e - 1 = sum of 1/k! for 1 <= k <= 20, tail below 1/20!.
    e_minus_one = sum(Fraction(1, math.factorial(k)) for k in range(1, 21))
    assert abs(digit_prefix(out) - e_minus_one) < Fraction(1, 10**6)
    assert elapsed < 10


def test_leading_minus_expression_after_double_dash(capsys):
    # argparse reads "-pi" as a flag; "--" ends the options.
    assert main(["digits", "-n", "4", "--", "-pi"]) == 0
    out, _ = capsys.readouterr()
    assert abs(digit_prefix(out) + Fraction(math.pi)) < Fraction(1, 10**4)

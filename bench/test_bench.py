"""Tests of the benchmark itself: every checker must reject a wrong result.

    python3 -m pytest bench/test_bench.py -q

Right answers are derived here from the oracles; wrong ones move such an
answer one unit of its last digit away from the true value, or shift a
bracket off the oracle, and must be rejected.  The tracer is checked on a
small computation: its per-kind tallies must add up to the program's own
evaluation count, and repeat exactly.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from checks import (  # noqa: E402
    Digits,
    Exit,
    Interval,
    check_digits,
    check_domain_error,
    check_interval,
    check_tallies,
    check_verify,
    exact_target,
    mp_context,
    parse_bounds,
    parse_rendered,
    prefixes,
    target_of,
)

SQRT2 = [Fraction(-2), Fraction(0), Fraction(1)]


def truncated_digits(value: Fraction, n: int) -> Digits:
    """Plain decimal digits of a positive value: a valid signed-digit answer."""
    scaled = int(value * 10**n)
    text = str(scaled).rjust(n + 1, "0")
    return Digits(int(text[:-n] or 0), tuple(int(c) for c in text[-n:]))


def one_unit_away(answer: Digits, value: Fraction) -> Digits:
    """The answer with its last digit moved one unit away from value."""
    last = prefixes(answer)[-1]
    step = 1 if last >= value else -1
    return Digits(answer.integer, answer.digits[:-1] + (answer.digits[-1] + step,))


@pytest.fixture(scope="module")
def mp():
    return mp_context()


@pytest.mark.parametrize("name,n", [("e", 12), ("pi", 10), ("sqrt2", 8)])
def test_digit_checker_accepts_right_and_rejects_one_unit_off(mp, name, n):
    value = {"e": mp.e, "pi": mp.pi, "sqrt2": mp.sqrt(2)}[name]
    target = target_of(+value)
    centre = (target[0] + target[1]) / 2
    right = truncated_digits(centre, n)
    assert check_digits(right, n, target) == []
    wrong = one_unit_away(right, centre)
    assert check_digits(wrong, n, target)


def test_polynomial_checker_rejects_one_unit_off(mp):
    centre = sum(target_of(mp.sqrt(2)), Fraction(0)) / 2
    right = truncated_digits(centre, 6)
    assert check_digits(right, 6, poly=SQRT2) == []
    assert check_digits(one_unit_away(right, centre), 6, poly=SQRT2)


def test_exact_checker_rejects_one_unit_off():
    value = Fraction(8, 3)
    right = truncated_digits(value, 5)
    assert check_digits(right, 5, exact_target(value)) == []
    assert check_digits(one_unit_away(right, value), 5, exact_target(value))


def test_digit_checker_rejects_out_of_range_and_missing_digits():
    target = exact_target(Fraction(1, 2))
    assert check_digits(Digits(0, (5, 0)), 2, target) == []
    assert check_digits(Digits(1, (-10, 0)), 2, target)
    assert check_digits(Digits(0, (5,)), 2, target)


def test_interval_checker_rejects_a_bracket_that_misses_or_is_too_wide(mp):
    target = target_of(mp.e - 1)
    eps = Fraction(1, 10**4)
    centre = (target[0] + target[1]) / 2
    right = Interval(centre - eps / 3, centre + eps / 3)
    assert check_interval(right, eps, target) == []
    width = right.hi - right.lo
    assert check_interval(Interval(right.lo + width, right.hi + width), eps, target)
    assert check_interval(Interval(right.lo - width, right.hi - width), eps, target)
    assert check_interval(Interval(right.lo - eps, right.hi), eps, target)
    assert check_interval(Interval(right.lo, right.hi + Fraction(1, 10**6)), eps, target) == []


def test_cli_readers_round_trip_the_rendering():
    assert parse_rendered("3.2(-5)(-8)\n") == Digits(3, (2, -5, -8))
    assert parse_rendered("-1.0(-9)9") == Digits(-1, (0, -9, 9))
    assert parse_bounds("3/2 7/4\n") == Interval(Fraction(3, 2), Fraction(7, 4))


def test_cli_digits_one_unit_off_is_rejected(mp):
    target = target_of(mp.pi + mp.e)
    # pi + e = 5.8598744820...: one unit down moves away from it.
    right = parse_rendered("5.85987448")
    assert check_digits(right, 8, target) == []
    assert check_digits(parse_rendered("5.85987447"), 8, target)


def test_domain_error_checker_rejects_a_returned_value():
    good = Exit(1, "", "error: domain: no apartness witness\n")
    assert check_domain_error(good) == []
    assert check_domain_error(Exit(0, "0.0000\n", ""))
    assert check_domain_error(Exit(1, "", "Traceback ...\nValueError\n"))


def test_verify_checker_rejects_a_failure_line():
    clean = "expressions 2\nqueries 20\npassed 20\nfailed 0\nPASS\n"
    assert check_verify(Exit(0, clean, ""), 2, 10) == []
    dirty = "fail x\nexpressions 2\nqueries 20\npassed 19\nfailed 1\nFAIL\n"
    assert check_verify(Exit(1, dirty, ""), 2, 10)


def test_tally_check_fails_when_one_evaluation_is_dropped():
    tallies = {"add": 5, "mul": 3, "rational": 4}
    assert check_tallies(tallies, 12) == []
    tallies["mul"] -= 1
    assert check_tallies(tallies, 12)


def _traced_e_digits():
    from tracer import Tracer
    from workloads import signed_digits

    from exactreal import arith

    tracer = Tracer()
    tracer.install()
    try:
        answer = signed_digits(arith.e(), 4)
    finally:
        tracer.uninstall()
    return tracer, answer


def test_tracer_tallies_sum_to_the_program_count_and_repeat(mp):
    first, answer = _traced_e_digits()
    second, _ = _traced_e_digits()
    assert check_digits(answer, 4, target_of(+mp.e)) == []
    assert first.evaluations > 0
    assert check_tallies(dict(first.tallies), first.evaluations) == []
    assert first.tallies["series"] > 0 and first.tallies["other"] == 0
    counts = {k: v for k, (v, unit) in first.metrics().items() if unit != "s"}
    assert counts == {k: v for k, (v, unit) in second.metrics().items() if unit != "s"}


def test_tracer_uninstall_restores_the_program():
    from exactreal import arith, core, expr

    originals = (core.CReal.locate, arith.add, expr.parse, arith.tight_bound)
    _traced_e_digits()
    assert (core.CReal.locate, arith.add, expr.parse, arith.tight_bound) == originals

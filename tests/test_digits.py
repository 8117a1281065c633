import math
import random
from fractions import Fraction

import pytest

from exactreal.arith import e, pi
from exactreal.core import from_rational
from exactreal.digits import (
    SignedDigitRep,
    from_signed_digits,
    prefix_value,
    render_digits,
    to_signed_digits,
)
from exactreal.selftest import check_against_value


def _literal_rep(k: int, digits: list[int]) -> SignedDigitRep:
    return SignedDigitRep(k, lambda n: digits[n] if n < len(digits) else 0)


def test_prefix_value_arithmetic():
    rep = _literal_rep(3, [1, 4, 1, 5])
    assert prefix_value(rep, 0) == 3
    assert prefix_value(rep, 2) == Fraction(157, 50)
    assert prefix_value(rep, 4) == Fraction(3, 1) + Fraction(1415, 10**4)


def test_digit_stream_validates():
    rep = _literal_rep(0, [10])
    with pytest.raises(ValueError):
        rep.digit(0)
    with pytest.raises(ValueError):
        _literal_rep(0, [0]).digit(-1)


def test_one_third_extraction_replay():
    rep = to_signed_digits(from_rational(Fraction(1, 3)))
    assert rep.integer_part == 1
    assert [rep.digit(i) for i in range(8)] == [-6] * 8
    assert render_digits(rep, 6) == "1.(-6)(-6)(-6)(-6)(-6)(-6)"
    assert abs(prefix_value(rep, 5) - Fraction(1, 3)) < Fraction(1, 10**5)


def test_prefix_invariants_on_oracle_values():
    rng = random.Random(19)
    for _ in range(10):
        v = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
        rep = to_signed_digits(from_rational(v))
        for n in range(7):
            p = prefix_value(rep, n)
            assert abs(p - v) < Fraction(1, 10**n)
            assert abs(prefix_value(rep, n + 1) - p) <= Fraction(9, 10 ** (n + 1))


def test_integer_value_prefixes_stay_close():
    rep = to_signed_digits(from_rational(3))
    assert rep.integer_part == 3
    for n in range(6):
        assert abs(prefix_value(rep, n) - 3) < Fraction(1, 10**n)


def test_extraction_is_lazy():
    x = from_rational(Fraction(1, 3))
    rep = to_signed_digits(x)
    assert x.query_count == 0
    rep.digit(1)
    after_two = x.query_count
    assert after_two > 0
    rep.digit(1)
    assert x.query_count == after_two
    rep.digit(4)
    deeper = x.query_count
    assert deeper > after_two
    # Each additional digit costs at most one 20-cell scan.
    assert deeper - after_two <= 3 * 20
    rep.digit(4)
    assert x.query_count == deeper


def test_pi_digits_against_machin_oracle():
    rep = to_signed_digits(pi())
    assert rep.integer_part == 4
    assert [rep.digit(i) for i in range(10)] == [-8, -5, -8, -4, 0, -7, -3, -4, -6, -4]
    assert render_digits(rep, 10) == "4.(-8)(-5)(-8)(-4)0(-7)(-3)(-4)(-6)(-4)"
    oracle = 16 * sum(
        Fraction((-1) ** k) * Fraction(1, 5) ** (2 * k + 1) / (2 * k + 1) for k in range(16)
    ) - 4 * sum(
        Fraction((-1) ** k) * Fraction(1, 239) ** (2 * k + 1) / (2 * k + 1) for k in range(16)
    )
    assert abs(prefix_value(rep, 10) - oracle) < Fraction(1, 10**10)


def test_e_digits_against_factorial_oracle():
    rep = to_signed_digits(e())
    oracle = sum(Fraction(1, math.factorial(k)) for k in range(30))
    assert render_digits(rep, 10) == "3.(-2)(-8)(-1)(-7)(-1)(-8)(-1)(-7)(-1)(-5)"
    assert abs(prefix_value(rep, 10) - oracle) < Fraction(1, 10**10)


def test_render_zero_digits_is_integer_part():
    rep = _literal_rep(-2, [5])
    assert render_digits(rep, 0) == "-2"
    assert render_digits(rep, 1) == "-2.5"


def test_from_signed_digits_round_trip():
    rng = random.Random(20)
    rep = to_signed_digits(from_rational(Fraction(1, 3)))
    rebuilt = from_signed_digits(rep)
    assert not check_against_value(rebuilt, Fraction(1, 3), rng, queries=50)


def test_from_signed_digits_zero_stream():
    rng = random.Random(21)
    rebuilt = from_signed_digits(_literal_rep(0, []))
    assert not check_against_value(rebuilt, Fraction(0), rng, queries=20)


def test_from_signed_digits_pi_prefix_stream():
    # Eventually-zero stream denotes its rational prefix exactly.
    rng = random.Random(22)
    source = to_signed_digits(pi())
    first = [source.digit(i) for i in range(20)]
    rep = _literal_rep(source.integer_part, first)
    target = prefix_value(rep, 20)
    assert not check_against_value(from_signed_digits(rep), target, rng, queries=30)


def test_interdefinability():
    # Extract, rebuild, extract again: same denoted real throughout.
    rng = random.Random(23)
    for v in [Fraction(5, 7), Fraction(-13, 9)]:
        rebuilt = from_signed_digits(to_signed_digits(from_rational(v)))
        assert not check_against_value(rebuilt, v, rng, queries=25)
        again = to_signed_digits(rebuilt)
        for n in range(5):
            assert abs(prefix_value(again, n) - v) < Fraction(1, 10**n)

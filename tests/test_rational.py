from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactreal.rational import (
    Ordering,
    as_rational,
    cantor_decode,
    format_rational,
    parse_rational,
    require_positive,
    trichotomy,
    unit_rational,
)


def test_trichotomy():
    assert trichotomy(Fraction(1, 3), Fraction(1, 2)) is Ordering.LESS
    assert trichotomy(Fraction(2, 4), Fraction(1, 2)) is Ordering.EQUAL
    assert trichotomy(3, Fraction(5, 2)) is Ordering.GREATER


@given(st.fractions(), st.fractions())
def test_trichotomy_matches_cross_multiplication(a, b):
    # Independent check: a/b < c/d iff a*d < c*b for positive denominators.
    lhs = a.numerator * b.denominator
    rhs = b.numerator * a.denominator
    expected = (
        Ordering.LESS if lhs < rhs else Ordering.EQUAL if lhs == rhs else Ordering.GREATER
    )
    assert trichotomy(a, b) is expected


def test_as_rational():
    assert as_rational(3) == Fraction(3)
    assert as_rational(Fraction(1, 7)) == Fraction(1, 7)
    assert as_rational("-7/3") == Fraction(-7, 3)
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_parse_rational():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational(" -7/3 ") == Fraction(-7, 3)
    assert parse_rational("3.25") == Fraction(13, 4)
    for bad in ["", "1e3", "x", "1/0", "1//2"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(st.fractions())
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_require_positive():
    assert require_positive(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        require_positive(0)
    with pytest.raises(ValueError):
        require_positive(Fraction(-1), "epsilon")


@given(st.fractions(), st.fractions(), st.fractions())
def test_field_laws_hold_exactly(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


def test_unit_rational_first_values():
    want = ["1/2", "1/3", "2/3", "1/4", "3/5", "2/5", "3/4", "1/5", "4/7", "3/8"]
    assert [str(unit_rational(i)) for i in range(10)] == want


def test_unit_rational_lands_in_open_interval_injectively():
    values = [unit_rational(i) for i in range(5000)]
    assert all(0 < u < 1 for u in values)
    assert len(set(values)) == len(values)


def test_cantor_decode_first_codes():
    assert [cantor_decode(c) for c in range(8)] == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1),
    ]


@given(st.integers(min_value=0, max_value=10**12))
def test_cantor_decode_inverts_pairing(code):
    i, j = cantor_decode(code)
    assert i >= 0 and j >= 0
    assert (i + j) * (i + j + 1) // 2 + j == code

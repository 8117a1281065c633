"""Exact rational arithmetic shared by every search in the library.

Rationals are `fractions.Fraction` values: arbitrary precision, always in
canonical reduced form with a positive denominator, compared exactly.  This
module adds what the rest of the library needs on top of the stdlib type:
an explicit three-way comparison, a fixed enumeration of the open unit
interval and the Cantor pairing (the trial points and codes of the root
search's sign witnesses), and literal parsing.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


def trichotomy(a: RationalLike, b: RationalLike) -> Ordering:
    """Exact three-way comparison of two rationals."""
    a = as_rational(a)
    b = as_rational(b)
    if a < b:
        return Ordering.LESS
    if a == b:
        return Ordering.EQUAL
    return Ordering.GREATER


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or literal string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not a rational: {value!r}")


def require_positive(value: RationalLike, what: str = "value") -> Fraction:
    value = as_rational(value)
    if value <= 0:
        raise ValueError(f"{what} must be positive, got {value}")
    return value


def parse_rational(text: str) -> Fraction:
    """Parse "3", "-7/3", or "3.25" into an exact rational.

    Fraction() already accepts exactly these literal forms; this wrapper
    normalizes the error message and rejects float-ish forms like "1e3".
    """
    text = text.strip()
    if "e" in text.lower():
        raise ValueError(f"bad rational literal: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal: {text!r}") from exc


def format_rational(q: RationalLike) -> str:
    """Render exactly, round-tripping through parse_rational."""
    return str(as_rational(q))


def _calkin_wilf(m: int) -> Fraction:
    """The m-th positive rational (m >= 1) in breadth-first order on the
    Calkin-Wilf tree: after the leading 1 of m's binary digits, 0 takes the
    left child a/(a+b) and 1 the right child (a+b)/b."""
    a, b = 1, 1
    for bit in bin(m)[3:]:
        if bit == "0":
            b = a + b
        else:
            a = a + b
    return Fraction(a, b)


def unit_rational(i: int) -> Fraction:
    """The i-th element of a fixed enumeration of the open unit interval.

    Image of the positive Calkin-Wilf enumeration under y -> y/(1+y),
    a bijection from the positive rationals onto (0, 1).
    """
    y = _calkin_wilf(i + 1)
    return y / (1 + y)


def cantor_decode(code: int) -> tuple[int, int]:
    """Inverse of the Cantor pairing (i, j) -> (i+j)(i+j+1)/2 + j."""
    if code < 0:
        raise ValueError("pair code must be >= 0")
    d = (math.isqrt(8 * code + 1) - 1) // 2
    j = code - d * (d + 1) // 2
    return d - j, j

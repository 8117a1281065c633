"""Signed-digit expansions extracted from locators, and the way back.

A signed-digit representation is an integer part k plus digits a_i in
[-9, 9], denoting k + sum a_i 10^(-i-1).  The n-digit prefix p_n always
satisfies |p_n - x| < 10^(-n); allowing negative digits is what makes the
next digit computable from a locator, at the price of non-uniqueness.
Everything is lazy: nothing asks the locator anything until a digit is
actually demanded.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Callable, Union

from exactreal.arith import limit
from exactreal.core import CReal, Side, decimal_modulus, from_rational, integer_bracket
from exactreal.rational import Rational


class SignedDigitRep:
    """Lazy, memoized signed-digit stream with its integer part.

    integer_part may be an int or a thunk; digit_source(n) produces digit n
    as an int in [-9, 9] and is called at most once per index, in ascending
    order, after the integer part has been forced.  Readers in any order or
    thread observe one consistent sequence.
    """

    def __init__(
        self, integer_part: Union[int, Callable[[], int]], digit_source: Callable[[int], int]
    ):
        self._integer_part = integer_part
        self._digit_source = digit_source
        self._digits: list[int] = []
        self._lock = threading.RLock()

    @property
    def integer_part(self) -> int:
        with self._lock:
            if callable(self._integer_part):
                self._integer_part = self._integer_part()
            return self._integer_part

    def digit(self, n: int) -> int:
        if n < 0:
            raise ValueError("digit index must be >= 0")
        with self._lock:
            self.integer_part
            while len(self._digits) <= n:
                d = self._digit_source(len(self._digits))
                if not -9 <= d <= 9:
                    raise ValueError(f"signed digit out of range: {d}")
                self._digits.append(d)
            return self._digits[n]


def prefix_value(rep: SignedDigitRep, n: int) -> Rational:
    """The exact rational p_n = k + sum of the first n digits."""
    return rep.integer_part + sum(
        Fraction(rep.digit(i), 10 ** (i + 1)) for i in range(n)
    )


def to_signed_digits(x: CReal) -> SignedDigitRep:
    """Extract a signed-digit representation from a locator.

    The integer part comes from integer_bracket, starting the invariant
    p_0 - 1 < x < p_0 + 1.  For each digit, subdivide the current width-2
    window into 20 cells of step 10^(-n-1) and scan adjacent cells left to
    right; the first LEFT answer pins x within two cells, and clamping the
    resulting offset to [-9, 9] still leaves |p_{n+1} - x| < 10^(-n-1)
    because the window edges themselves are certified bounds.
    """
    prefixes: list[Rational] = []

    def integer_part() -> int:
        k = integer_bracket(x)
        prefixes.append(Fraction(k))
        return k

    def next_digit(n: int) -> int:
        p = prefixes[n]
        step = Fraction(1, 10 ** (n + 1))
        base = p - 10 * step
        hit = 20
        for j in range(20):
            if x.locate(base + j * step, base + (j + 1) * step) is Side.LEFT:
                hit = j
                break
        d = max(-9, min(9, hit - 10))
        prefixes.append(p + d * step)
        return d

    return SignedDigitRep(integer_part, next_digit)


def from_signed_digits(rep: SignedDigitRep) -> CReal:
    """The real a representation denotes, as the limit of its prefixes.

    |p_m - p_n| < 2 * 10^(-min(m,n)) by the prefix invariant, so the least
    n with 2 * 10^(-n) < eps is a Cauchy modulus.
    """

    def member(n: int) -> CReal:
        return from_rational(prefix_value(rep, n))

    return limit(member, decimal_modulus, name="digits-limit")


def render_digits(rep: SignedDigitRep, n: int) -> str:
    """Text form: integer part, a dot, then n digits.

    Negative digits wear parentheses: pi to four digits may print as
    "3.1415" or as "3.2(-5)(-8)(-5)" depending on the scan's choices; both
    denote the same prefix family.  n = 0 renders just the integer part.
    """
    if n == 0:
        return str(rep.integer_part)
    parts = [str(rep.integer_part), "."]
    for i in range(n):
        d = rep.digit(i)
        parts.append(str(d) if d >= 0 else f"({d})")
    return "".join(parts)

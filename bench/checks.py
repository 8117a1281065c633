"""Checkers and oracles for the benchmark's answers.

Nothing here calls exactreal.  Transcendental targets come from mpmath at
60 significant digits and are widened into exact rational brackets of
half-width 10^-50, so every comparison below is exact `Fraction`
arithmetic.  Rational and polynomial targets are checked in `Fraction`s
alone.  mpmath is imported only by `mp_context`, which the runner calls
after its timed passes, so the oracle work never lands in a timing or in
the peak resident memory of the program.

Every checker returns a list of failure descriptions; an empty list means
the answer passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

ORACLE_DPS = 60
ORACLE_MARGIN = Fraction(1, 10**50)

# A target value pinned between two rationals (lo == hi for an exact one).
Target = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Digits:
    """A signed-digit answer: integer part and digits after the point."""

    integer: int
    digits: tuple[int, ...]


@dataclass(frozen=True)
class Interval:
    """A bracket answer: the program claims lo < value < hi."""

    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class Exit:
    """What one in-process command-line call returned and printed."""

    code: int
    out: str
    err: str


def mp_context():
    """mpmath's context at the oracle precision; imported on first use."""
    import mpmath

    mpmath.mp.dps = ORACLE_DPS
    return mpmath


def mpf_to_fraction(value) -> Fraction:
    """The exact binary value of a finite mpmath number.

    man_exp carries the magnitude only; the sign is taken apart.
    """
    man, exp = value.man_exp
    magnitude = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -magnitude if value < 0 else magnitude


def target_of(value, margin: Fraction = ORACLE_MARGIN) -> Target:
    """A rational bracket around an mpmath value computed at ORACLE_DPS."""
    centre = mpf_to_fraction(value)
    return centre - margin, centre + margin


def exact_target(value: Fraction) -> Target:
    return value, value


def prefixes(answer: Digits) -> list[Fraction]:
    """p_0 .. p_n: the integer part plus the first n digits, exactly."""
    out = [Fraction(answer.integer)]
    for i, d in enumerate(answer.digits):
        out.append(out[-1] + Fraction(d, 10 ** (i + 1)))
    return out


def parse_rendered(text: str) -> Digits:
    """Read the CLI's digit rendering, e.g. "3.2(-5)(-8)", back into digits."""
    text = text.strip()
    head, dot, tail = text.partition(".")
    digits: list[int] = []
    i = 0
    while i < len(tail):
        if tail[i] == "(":
            close = tail.index(")", i)
            digits.append(int(tail[i + 1 : close]))
            i = close + 1
        else:
            digits.append(int(tail[i]))
            i += 1
    if dot and not digits:
        raise ValueError(f"no digits after the point in {text!r}")
    return Digits(int(head), tuple(digits))


def parse_bounds(text: str) -> Interval:
    """Read the CLI's `bounds` line: two rationals separated by a space."""
    lo, hi = text.split()
    return Interval(Fraction(lo), Fraction(hi))


def _sign(value: Fraction) -> int:
    return (value > 0) - (value < 0)


def poly_value(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    """p(x) for coefficients listed by ascending degree."""
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def check_digits(
    answer: Digits,
    n: int,
    target: Optional[Target] = None,
    poly: Optional[Sequence[Fraction]] = None,
) -> list[str]:
    """The signed-digit properties, for every prefix up to n digits.

    Each digit lies in [-9, 9]; consecutive prefixes differ by at most
    9 * 10^-(m+1); and |p_m - v| < 10^-m, tested against the target's
    rational bracket, against a sign change of the polynomial poly across
    (p_m - 10^-m, p_m + 10^-m), or against both.
    """
    if target is None and poly is None:
        raise ValueError("a digit check needs a target or a polynomial")
    failures = []
    if len(answer.digits) != n:
        failures.append(f"expected {n} digits, got {len(answer.digits)}")
    for i, d in enumerate(answer.digits):
        if not -9 <= d <= 9:
            failures.append(f"digit {i} is {d}, outside [-9, 9]")
    ps = prefixes(answer)
    for m in range(len(ps) - 1):
        if abs(ps[m + 1] - ps[m]) > Fraction(9, 10 ** (m + 1)):
            failures.append(f"prefixes {m} and {m + 1} differ by more than 9*10^-{m + 1}")
    for m, p in enumerate(ps):
        unit = Fraction(1, 10**m)
        if target is not None:
            lo, hi = target
            if not (p - unit < lo and hi < p + unit):
                failures.append(f"prefix {m} = {p} is not within 10^-{m} of the oracle")
        if poly is not None:
            below = _sign(poly_value(poly, p - unit))
            above = _sign(poly_value(poly, p + unit))
            if below * above != -1:
                failures.append(f"prefix {m} = {p}: no sign change of p across +-10^-{m}")
    return failures


def check_interval(answer: Interval, eps: Fraction, target: Target) -> list[str]:
    """The bracket is narrower than eps and contains the target."""
    failures = []
    if not answer.hi - answer.lo < eps:
        failures.append(f"bracket width {answer.hi - answer.lo} is not below {eps}")
    lo, hi = target
    if not (answer.lo <= lo and hi <= answer.hi and answer.lo < answer.hi):
        failures.append(f"bracket [{answer.lo}, {answer.hi}] misses the oracle")
    return failures


def check_domain_error(answer: Exit) -> list[str]:
    """A zero divisor must end in exit status 1 and one `error: domain:` line."""
    failures = []
    if answer.code != 1:
        failures.append(f"exit status {answer.code}, expected 1")
    if answer.out:
        failures.append(f"returned a value for a zero divisor: {answer.out.strip()!r}")
    lines = answer.err.splitlines()
    if len(lines) != 1 or not lines[0].startswith("error: domain:"):
        failures.append(f"stderr is not one 'error: domain:' line: {answer.err!r}")
    return failures


def check_verify(answer: Exit, expressions: int, queries: int) -> list[str]:
    """The verify report: every forced query answered as forced."""
    want = [
        f"expressions {expressions}",
        f"queries {expressions * queries}",
        f"passed {expressions * queries}",
        "failed 0",
        "PASS",
    ]
    failures = []
    if answer.code != 0:
        failures.append(f"verify exit status {answer.code}")
    if answer.out.splitlines() != want:
        failures.append(f"verify report {answer.out!r} is not a clean pass")
    return failures


def check_tallies(tallies: dict[str, int], evaluations: int) -> list[str]:
    """Per-kind locator evaluations must add up to the program's own count."""
    total = sum(tallies.values())
    if total != evaluations:
        return [f"per-kind tallies sum to {total}, evaluation_count() moved by {evaluations}"]
    return []

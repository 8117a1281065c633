"""Randomized soundness checks against exact rational arithmetic.

Random expressions over rational leaves are evaluated twice: as a locator
through the library's operations, and exactly in rational arithmetic.  The
leaves are opaque to arith's rational fold, so every operation in a sample
stays a lifted locator.  Any query (q, r) where exactly one of q < v, v < r
holds is forced: a sound locator has no choice of side.  Disagreement on a
forced query is a bug by construction, so this is both a test fixture and
the engine behind the command-line verify subcommand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from exactreal import arith
from exactreal.core import CReal, Side, from_rational
from exactreal.rational import Rational


@dataclass(frozen=True)
class Sample:
    """One generated expression: its text, locator, and exact value."""

    text: str
    real: CReal
    value: Rational


@dataclass(frozen=True)
class SelfTestReport:
    expressions: int
    queries: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def opaque_rational(v: Rational) -> CReal:
    """A locator for v that carries no `exact`, so arith keeps it lifted.

    It shares from_rational's deciding function and answers every query
    the same way; only the fold in `arith` cannot see through it.
    """
    leaf = from_rational(v)
    return CReal(leaf._decide, name=leaf.name)


def random_rational(rng: random.Random, span: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


_OPS = ("neg", "add", "mul", "min", "max", "abs", "recip")


def random_sample(rng: random.Random, depth: int) -> Sample:
    """A random expression of at most the given operator depth."""
    if depth == 0 or rng.random() < 0.25:
        v = random_rational(rng)
        return Sample(str(v), opaque_rational(v), v)
    op = rng.choice(_OPS)
    if op == "recip":
        # Reciprocals need an operand bounded away from zero; retry a few
        # times, falling back to a plain nonzero leaf.
        for _ in range(8):
            child = random_sample(rng, depth - 1)
            if child.value != 0:
                break
        else:
            v = Fraction(rng.randint(1, 12))
            child = Sample(str(v), opaque_rational(v), v)
        witness = arith.find_apartness(child.real)
        return Sample(
            f"recip({child.text})",
            arith.recip(child.real, witness),
            1 / child.value,
        )
    if op == "neg":
        child = random_sample(rng, depth - 1)
        return Sample(f"(-{child.text})", arith.neg(child.real), -child.value)
    if op == "abs":
        child = random_sample(rng, depth - 1)
        return Sample(f"abs({child.text})", arith.absolute(child.real), abs(child.value))
    a = random_sample(rng, depth - 1)
    b = random_sample(rng, depth - 1)
    if op == "add":
        return Sample(f"({a.text}+{b.text})", arith.add(a.real, b.real), a.value + b.value)
    if op == "mul":
        return Sample(f"({a.text}*{b.text})", arith.mul(a.real, b.real), a.value * b.value)
    if op == "min":
        return Sample(
            f"min({a.text},{b.text})", arith.minimum(a.real, b.real), min(a.value, b.value)
        )
    return Sample(f"max({a.text},{b.text})", arith.maximum(a.real, b.real), max(a.value, b.value))


def forced_query(rng: random.Random, value: Rational) -> tuple[Fraction, Fraction, Side]:
    """A query with exactly one true side for the given value."""
    g = Fraction(rng.randint(1, 40), rng.randint(1, 40))
    pattern = rng.randrange(4)
    if pattern == 0:
        return value - g, value, Side.RIGHT
    if pattern == 1:
        return value, value + g, Side.LEFT
    if pattern == 2:
        return value - 2 * g, value - g, Side.RIGHT
    return value + g, value + 2 * g, Side.LEFT


def check_against_value(
    x: CReal, value: Rational, rng: random.Random, queries: int, label: str = "real"
) -> list[str]:
    """Run forced queries; return a description of each wrong answer."""
    failures = []
    for _ in range(queries):
        q, r, want = forced_query(rng, value)
        got = x.locate(q, r)
        if got is not want:
            failures.append(f"{label}: locate({q}, {r}) answered {got.name}, forced {want.name}")
    return failures


def run_self_test(
    expressions: int = 100, queries: int = 10, depth: int = 5, seed: int = 0
) -> SelfTestReport:
    rng = random.Random(seed)
    failures: list[str] = []
    for _ in range(expressions):
        sample = random_sample(rng, depth)
        failures.extend(
            check_against_value(sample.real, sample.value, rng, queries, label=sample.text)
        )
    return SelfTestReport(expressions, expressions * queries, tuple(failures))

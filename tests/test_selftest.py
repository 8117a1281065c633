import random
from fractions import Fraction

from exactreal.core import Side, from_rational
from exactreal.selftest import opaque_rational, random_sample


def test_opaque_rational_answers_like_from_rational_without_exact():
    v = Fraction(-2, 7)
    leaf = opaque_rational(v)
    assert leaf.exact is None
    for q, r in [(-1, 0), (v, 1), (-1, v), (Fraction(-1, 2), Fraction(1, 2))]:
        assert leaf.locate(q, r) is from_rational(v).locate(q, r)
    assert leaf.locate(v - 1, v) is Side.RIGHT


def test_random_samples_stay_lifted():
    # Rational leaves would fold every sample to one rational locator and
    # leave the lifted operations untested.
    rng = random.Random(0)
    for _ in range(200):
        sample = random_sample(rng, 5)
        assert sample.real.exact is None

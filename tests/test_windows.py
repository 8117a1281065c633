"""Window nodes: lifted arithmetic over reals with windows answers from theirs."""

import random
from fractions import Fraction

import mpmath
import pytest

import exactreal.core as core
import exactreal.selftest as selftest
from exactreal.analysis import geometric_modulus
from exactreal.arith import (
    ApartnessWitness,
    Sign,
    add,
    e,
    exp,
    find_apartness,
    from_windows,
    mul,
    neg,
    pi,
    recip,
    scalar_mul,
    sin,
    sub,
)
from exactreal.core import Side, evaluation_count, from_rational, tight_bound


def _mp_fraction(value) -> Fraction:
    man, exp2 = value.man_exp
    return Fraction(-man if value < 0 else man) * Fraction(2) ** exp2


def _div(x, y):
    return mul(x, recip(y, find_apartness(y)))


def _trees():
    """(text, real, mpmath value at 60 digits) over pi, e, exp(1/3) and sin(1/2)."""
    third, half = from_rational(Fraction(1, 3)), from_rational(Fraction(1, 2))
    with mpmath.workdps(60):
        P, E = +mpmath.pi, +mpmath.e
        X, S = mpmath.exp(mpmath.mpf(1) / 3), mpmath.sin(mpmath.mpf(1) / 2)
        return [
            ("pi + e", add(pi(), e()), P + E),
            ("-exp(1/3)", neg(exp(third)), -X),
            ("-7/3 * sin(1/2)", scalar_mul(Fraction(-7, 3), sin(half)), -7 * S / 3),
            ("e*pi - sin(1/2)", sub(mul(e(), pi()), sin(half)), E * P - S),
            ("1/(pi - 3)", _div(from_rational(1), sub(pi(), from_rational(3))), 1 / (P - 3)),
            ("exp(1/3)/(-e)", _div(exp(third), neg(e())), -X / E),
            ("(pi*pi)/sin(1/2) + 1/3", add(_div(mul(pi(), pi()), sin(half)), third),
             P * P / S + mpmath.mpf(1) / 3),
            ("recip(-e)", recip(neg(e()), find_apartness(neg(e()))), -1 / E),
            ("recip(pi - 3)", recip(sub(pi(), from_rational(3)), ApartnessWitness(
                Sign.POSITIVE, Fraction(1, 10))), 1 / (P - 3)),
            ("exp(pi) + sin(e*pi)", add(exp(pi()), sin(mul(e(), pi()))),
             mpmath.exp(P) + mpmath.sin(E * P)),
            ("exp(e)", exp(e()), mpmath.exp(E)),
            ("exp(pi/3)", exp(scalar_mul(Fraction(1, 3), pi())), mpmath.exp(P / 3)),
        ]


@pytest.mark.parametrize("k", range(12))
def test_window_trees_answer_forced_queries(k):
    text, real, value = _trees()[k]
    assert real.window is not None, text
    v = _mp_fraction(value)
    g = Fraction(1, 10**50)
    for w in [Fraction(1, 2)] + [Fraction(1, 10**j) for j in range(1, 41, 3)]:
        assert real.locate(v - g - w, v - g) is Side.RIGHT, (text, w)
        assert real.locate(v + g, v + g + w) is Side.LEFT, (text, w)
    widths = [Fraction(10**4), Fraction(100), Fraction(1)]
    widths += [Fraction(1, 10**j) for j in range(2, 41, 6)] + [Fraction(1, 3**j) for j in range(40)]
    for eps in widths:
        b = tight_bound(real, eps)
        assert b.lo < v - g and v + g < b.hi and b.width < eps, (text, eps)
        lo, hi = real.window(eps)
        assert lo < v < hi and hi - lo <= eps, (text, eps)
        # Ends on the dyadic grid 2^-k <= eps/8.
        k = core.grid_bits(eps)
        assert 2**k * eps >= 8
        assert (lo * 2**k).denominator == (hi * 2**k).denominator == 1


def test_self_test_passes_on_window_leaves(monkeypatch):
    # The same random expressions with leaves that carry windows take the
    # window path in every node, against the same exact-rational oracle.
    def window_leaf(v):
        return from_windows(lambda eps: (v - eps / 3, v + eps / 5), f"w({v})")

    monkeypatch.setattr(selftest, "opaque_rational", window_leaf)
    report = selftest.run_self_test(expressions=60, queries=10, depth=4, seed=3)
    assert report.ok, report.failures[:3]
    rng = random.Random(0)
    leaves = [selftest.opaque_rational(selftest.random_rational(rng)) for _ in range(2)]
    assert add(*leaves).window is not None and mul(*leaves).window is not None


def test_tight_bound_of_a_window_tree_evaluates_no_locator():
    real = add(mul(e(), pi()), _div(from_rational(1), sub(pi(), from_rational(3))))
    before = evaluation_count()
    b = tight_bound(real, Fraction(1, 10**30))
    assert evaluation_count() == before
    assert b.width < Fraction(1, 10**30)


def test_self_test_sums_stay_on_the_locator_path():
    # Opaque leaves carry neither `exact` nor a window, so verify keeps
    # testing the paper's constructions.
    x, y = selftest.opaque_rational(Fraction(1, 3)), selftest.opaque_rational(Fraction(2))
    for real in (add(x, y), neg(x), scalar_mul(3, x), mul(x, y), recip(y, find_apartness(y))):
        assert real.window is None
    rng = random.Random(0)
    for _ in range(100):
        assert selftest.random_sample(rng, 4).real.window is None


def test_rational_names_are_formatted_only_when_read(monkeypatch):
    big = Fraction(3**100, 2**150)
    expected = {
        Fraction(-7, 3): "rational(-7/3)",
        Fraction(5): "rational(5)",
        big: f"rational({big.numerator.bit_length()}b/151b)",
    }
    calls = []
    label = core._rational_label
    monkeypatch.setattr(core, "_rational_label", lambda s: calls.append(s) or label(s))
    reals = {v: from_rational(v) for v in expected}
    second = core.from_rational_second(Fraction(1, 2))
    assert calls == []
    for v, real in reals.items():
        assert real.name == expected[v]
    assert second.name == "rational'(1/2)"
    assert len(calls) == 4


def test_geometric_modulus_matches_the_fraction_scan():
    rng = random.Random(5)
    for _ in range(300):
        bound = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**3))
        eps = Fraction(rng.randint(1, 10**3), rng.randint(1, 10**rng.randint(1, 30)))
        for ratio in (Fraction(1, 2), Fraction(2, 3)):
            n = 0
            while not bound * ratio**n < eps:
                n += 1
            assert geometric_modulus(bound, ratio, eps) == n

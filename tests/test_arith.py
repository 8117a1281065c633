import math
import random
from fractions import Fraction

import pytest

from exactreal.arith import (
    ApartnessWitness,
    RealMap,
    Sign,
    _arctan_modulus,
    absolute,
    add,
    arctan_rational,
    cos,
    e,
    exp,
    find_apartness,
    lift,
    limit,
    maximum,
    minimum,
    mul,
    neg,
    pi,
    probe_sign,
    recip,
    scalar_mul,
    sin,
    sub,
)
from exactreal.core import (
    CotransResult,
    CReal,
    SearchExhausted,
    Side,
    cotrans_rational,
    evaluation_count,
    from_rational,
    from_rational_second,
    get_search_cap,
    set_search_cap,
    tight_bound,
    to_cauchy,
)
from exactreal.enclosures import _tail_terms, cos_window, exp_window, sin_window
from exactreal.selftest import (
    check_against_value,
    forced_query,
    opaque_rational,
    random_rational,
)

# The constructor tests below take opaque operands, which carry no `exact`,
# so that they exercise the lifted locators; the folded result on exact
# operands is checked next to each.
O = opaque_rational


def _assert_folds(real, value):
    assert real.exact == value and type(real.exact) is Fraction


def _assert_lifted(real, value, queries=20):
    assert real.exact is None
    assert not check_against_value(real, value, random.Random(19), queries=queries)


def test_neg():
    assert neg(O(3)).locate(-2, 0) is Side.LEFT
    x = from_rational(Fraction(1, 2))
    twice = neg(neg(O(Fraction(1, 2))))
    for q, r in [(0, 1), (-1, 0), (Fraction(1, 2), 1), (0, Fraction(1, 2))]:
        assert twice.locate(q, r) is x.locate(q, r)
    # Mirror symmetry on a symmetric query.
    flipped = {Side.RIGHT: Side.LEFT, Side.LEFT: Side.RIGHT}
    assert neg(O(0)).locate(-1, 1) is flipped[from_rational(0).locate(-1, 1)]
    _assert_folds(neg(from_rational(3)), Fraction(-3))
    _assert_folds(neg(neg(from_rational(Fraction(1, 2)))), Fraction(1, 2))
    _assert_lifted(neg(O(Fraction(2, 5))), Fraction(-2, 5))


def test_add_forced_examples():
    assert add(O(1), O(2)).locate(3, 4) is Side.LEFT
    assert add(O(1), O(2)).locate(0, 3) is Side.RIGHT
    _assert_folds(add(from_rational(1), from_rational(2)), Fraction(3))
    _assert_lifted(add(from_rational(1), O(2)), Fraction(3))
    _assert_lifted(add(O(1), from_rational(2)), Fraction(3))


@pytest.mark.parametrize("c", [Fraction(-7, 3), Fraction(0), Fraction(10**40, 3)])
def test_add_with_a_rational_operand_shifts_the_query(monkeypatch, c):
    import exactreal.arith as arith

    monkeypatch.setattr(arith, "tight_bound", lambda x, eps: pytest.fail("bracket search"))
    rng = random.Random(23)
    v = Fraction(5, 11)
    for real in (add(from_rational(c), O(v)), add(O(v), from_rational(c))):
        assert real.exact is None
        assert not check_against_value(real, c + v, rng, queries=40)
    # e = 2.71828..., read at the point, so no bracket search either.
    for real in (add(from_rational(c), e()), add(e(), from_rational(c))):
        for k in range(1, 30):
            g = Fraction(1, 10**k)
            assert real.locate(c + 2, c + Fraction(2718281828, 10**9) - g) is Side.RIGHT
            assert real.locate(c + Fraction(2718281829, 10**9) + g, c + 3) is Side.LEFT


def test_add_oracle_suite():
    rng = random.Random(7)
    for _ in range(100):
        a, b = random_rational(rng), random_rational(rng)
        assert not check_against_value(add(O(a), O(b)), a + b, rng, queries=3)
        _assert_folds(add(from_rational(a), from_rational(b)), a + b)


def test_min_max_abs():
    assert minimum(O(1), O(2)).locate(1, Fraction(3, 2)) is Side.LEFT
    assert maximum(O(-1), O(1)).locate(1, 2) is Side.LEFT
    rng = random.Random(8)
    assert not check_against_value(absolute(O(-3)), Fraction(3), rng, queries=50)
    _assert_folds(minimum(from_rational(1), from_rational(2)), Fraction(1))
    _assert_folds(maximum(from_rational(-1), from_rational(1)), Fraction(1))
    _assert_folds(absolute(from_rational(-3)), Fraction(3))
    _assert_lifted(minimum(from_rational(1), O(2)), Fraction(1))
    _assert_lifted(maximum(O(-1), from_rational(1)), Fraction(1))


def test_sub():
    rng = random.Random(9)
    assert not check_against_value(
        sub(O(Fraction(1, 3)), O(2)), Fraction(-5, 3), rng, queries=20
    )
    _assert_folds(sub(from_rational(Fraction(1, 3)), from_rational(2)), Fraction(-5, 3))
    _assert_lifted(sub(from_rational(Fraction(1, 3)), O(2)), Fraction(-5, 3))


def test_scalar_mul():
    rng = random.Random(10)
    for c in [Fraction(3), Fraction(-5, 2), Fraction(0), Fraction(1, 7)]:
        x = O(Fraction(2, 3))
        assert not check_against_value(scalar_mul(c, x), c * Fraction(2, 3), rng, queries=20)
        _assert_folds(scalar_mul(c, from_rational(Fraction(2, 3))), c * Fraction(2, 3))


def test_mul_forced_examples():
    assert mul(O(2), O(2)).locate(5, 6) is Side.LEFT
    assert mul(O(2), O(-3)).locate(-7, -6) is Side.RIGHT
    _assert_folds(mul(from_rational(2), from_rational(-3)), Fraction(-6))
    _assert_lifted(mul(O(2), from_rational(-3)), Fraction(-6))


def test_fold_size_bound():
    # Products, sums and scalings whose numerator or denominator passes the
    # bit bound stay lifted, and stay sound.
    wide = Fraction(3**600 + 1, 2**950)  # about 1.9, 951 bits each: under the bound
    big = from_rational(wide)
    assert big.exact == wide
    square = mul(big, big)
    _assert_lifted(square, wide * wide, queries=10)
    _assert_lifted(add(big, from_rational(Fraction(1, 3**200))), wide + Fraction(1, 3**200))
    _assert_lifted(scalar_mul(Fraction(1, 2**400), big), wide / 2**400)
    # 476 / 301 bits: folds.
    product = mul(from_rational(Fraction(3**300)), from_rational(Fraction(1, 2**300)))
    _assert_folds(product, Fraction(3**300, 2**300))


def test_mul_of_operand_past_two_to_the_128():
    # The magnitude bounds of mul probe up to 2^252 here.
    _assert_lifted(mul(O(2**251), O(3)), Fraction(3 * 2**251))


def test_mul_spread_law():
    # Replaying the bracket choices: corner products stay within eps.
    for vx, vy, q, r in [
        (Fraction(2), Fraction(2), Fraction(5), Fraction(6)),
        (Fraction(-3, 2), Fraction(7, 3), Fraction(-4), Fraction(-3)),
        (Fraction(1, 3), Fraction(-1, 5), Fraction(-1), Fraction(1)),
    ]:
        x, y = from_rational(vx), from_rational(vy)
        z, w = (max(-b.lo, b.hi) + 1 for b in (tight_bound(x, 1), tight_bound(y, 1)))
        assert z >= abs(vx) + 1 and w >= abs(vy) + 1
        eps = r - q
        bx = tight_bound(x, min(Fraction(1), eps / (2 * w)))
        by = tight_bound(y, min(Fraction(1), eps / (2 * z)))
        corners = [bx.lo * by.lo, bx.lo * by.hi, bx.hi * by.lo, bx.hi * by.hi]
        assert max(corners) - min(corners) < eps


def test_recip_forced_examples():
    r2 = recip(O(2), ApartnessWitness(Sign.POSITIVE, Fraction(1)))
    assert r2.locate(Fraction(1, 4), Fraction(1, 3)) is Side.RIGHT
    rn = recip(O(-2), ApartnessWitness(Sign.NEGATIVE, Fraction(1)))
    assert rn.locate(-1, Fraction(-3, 4)) is Side.RIGHT
    _assert_folds(
        recip(from_rational(-2), ApartnessWitness(Sign.NEGATIVE, Fraction(1))),
        Fraction(-1, 2),
    )
    _assert_lifted(rn, Fraction(-1, 2))


def test_recip_round_trip():
    rng = random.Random(11)
    for v in [Fraction(2), Fraction(-2), Fraction(1, 3), Fraction(-1, 3)]:
        x = O(v)
        inner = recip(x, find_apartness(x))
        outer = recip(inner, find_apartness(inner))
        assert not check_against_value(outer, v, rng, queries=50)
        exact = from_rational(v)
        inner = recip(exact, find_apartness(exact))
        _assert_folds(inner, 1 / v)
        _assert_folds(recip(inner, find_apartness(inner)), v)


def _recip_via_cotrans(x: CReal, witness: ApartnessWitness) -> CReal:
    # A second route: q < 1/x iff qx < 1 (x positive), decided by rational
    # cotransitivity between the located reals qx and rx.  Slower than the
    # direct query flip; kept as an independent cross-check.
    if witness.sign is Sign.POSITIVE:

        def decide(q, r):
            if q <= 0:
                return Side.RIGHT
            below = cotrans_rational(scalar_mul(q, x), scalar_mul(r, x), 1)
            return Side.RIGHT if below is CotransResult.X_BELOW_S else Side.LEFT

    else:

        def decide(q, r):
            if r >= 0:
                return Side.LEFT
            below = cotrans_rational(scalar_mul(r, x), scalar_mul(q, x), 1)
            return Side.LEFT if below is CotransResult.X_BELOW_S else Side.RIGHT

    return CReal(decide, name="recip-cotrans")


def test_recip_agrees_with_cotransitivity_construction():
    rng = random.Random(12)
    for v in [Fraction(2), Fraction(-2), Fraction(1, 3), Fraction(-1, 3)]:
        x = O(v)
        witness = find_apartness(x)
        direct = recip(x, witness)
        via = _recip_via_cotrans(from_rational(v), witness)
        for _ in range(25):
            q, r, want = forced_query(rng, 1 / v)
            assert direct.locate(q, r) is want
            assert via.locate(q, r) is want


def test_find_apartness():
    w = find_apartness(from_rational(Fraction(1, 7)))
    assert w.sign is Sign.POSITIVE
    assert w.gap == Fraction(1, 10)
    assert w.gap < Fraction(1, 7)
    w = find_apartness(from_rational(-5))
    assert w == ApartnessWitness(Sign.NEGATIVE, Fraction(1))
    assert find_apartness(from_rational(2)) == ApartnessWitness(Sign.POSITIVE, Fraction(1))
    with pytest.raises(SearchExhausted):
        find_apartness(O(0), cap=1000)
    # An exact zero fails at once, whatever the cap.
    with pytest.raises(SearchExhausted, match="^no apartness witness"):
        find_apartness(sub(from_rational(Fraction(1, 3)), from_rational(Fraction(1, 3))))


def test_probe_sign_reads_rationals_like_their_locators():
    # A rational is compared with the gap, not asked; the answers are those
    # of its from_rational locator, seen here behind a plain CReal that
    # carries no `exact`.  They stay true facts for from_rational_second,
    # whose own locator concedes the positive probe only from 2*gap.
    for v in [Fraction(k, d) for k in range(-25, 26) for d in (1, 3, 7, 20, 200)]:
        for j in range(4):
            g = Fraction(1, 10**j)
            before = evaluation_count()
            sign = probe_sign(from_rational(v), j)
            assert probe_sign(from_rational_second(v), j) is sign
            assert evaluation_count() == before
            assert sign is not Sign.POSITIVE or v > g
            assert sign is not Sign.NEGATIVE or v < -g
            assert probe_sign(CReal(from_rational(v).locate), j) is sign
    # Its locator answers LEFT to (1/10, 2/10); the comparison sees 1/10 < 1/7.
    assert find_apartness(from_rational_second(Fraction(1, 7))) == ApartnessWitness(
        Sign.POSITIVE, Fraction(1, 10)
    )


def test_apartness_witness_validates_gap():
    with pytest.raises(ValueError):
        ApartnessWitness(Sign.POSITIVE, Fraction(0))


def test_limit_examples():
    harmonic = limit(
        lambda n: from_rational(Fraction(1, n + 1)), lambda eps: math.ceil(1 / eps)
    )
    assert harmonic.locate(Fraction(1, 2), 1) is Side.LEFT

    rng = random.Random(13)
    constant = limit(lambda n: from_rational(Fraction(1, 3)), lambda eps: 0)
    assert not check_against_value(constant, Fraction(1, 3), rng, queries=25)


def test_limit_geometric_sequence():
    def modulus(eps):
        n = 0
        while Fraction(1, 2**n) > eps:
            n += 1
        return n

    geometric = limit(lambda n: from_rational(1 - Fraction(1, 2**n)), modulus)
    rng = random.Random(14)
    assert not check_against_value(geometric, Fraction(1), rng, queries=10)


def test_cauchy_round_trip_through_limit():
    # Up through limits: rebuilding a real from its extracted Cauchy data
    # answers all forced queries like the original oracle value.
    rng = random.Random(15)
    for v in [Fraction(1, 3), Fraction(-22, 7)]:
        seq, modulus = to_cauchy(from_rational(v))
        rebuilt = limit(lambda n, s=seq: from_rational(s(n)), modulus)
        assert not check_against_value(rebuilt, v, rng, queries=100)


def _exp_partial(x: Fraction, n: int) -> Fraction:
    return sum(x**k / Fraction(math.factorial(k)) for k in range(n + 1))


def _sin_partial(x: Fraction, n: int) -> Fraction:
    return sum(
        Fraction((-1) ** k) * x ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(n + 1)
    )


def _cos_partial(x: Fraction, n: int) -> Fraction:
    return sum(
        Fraction((-1) ** k) * x ** (2 * k) / math.factorial(2 * k) for k in range(n + 1)
    )


def _exp_oracle_terms(n: int, b: Fraction, eps: Fraction) -> int:
    # The oracle's own tail bound for sum x^k/k! with |x| <= b: past
    # degree 2b the terms at least halve, so the tail after degree n is
    # below 2 b^n/n!.
    assert n >= 2 * b and 2 * b**n / math.factorial(n) < eps
    return n


def test_series_moduli_against_brute_force_partial_sums():
    # The one series tail bound must meet its documented contract, and the
    # windows built on it must hold every brute-force partial sum past
    # their degree, at the magnitude extremes x = +-B where the tails are
    # largest.  Each window is exactly its partial sum +- the tail bound.
    for b in [Fraction(1, 2), Fraction(2), Fraction(3), Fraction(7)]:
        for tol in [Fraction(1, 10), Fraction(1, 10**4), Fraction(1, 10**6)]:
            n = _tail_terms(b, tol)
            assert n >= 2 * b and 2 * b ** (n + 1) / math.factorial(n + 1) <= tol
            n = _tail_terms(b, tol / 2)  # the degree each window sums to
            spread = 2 * b ** (n + 1) / math.factorial(n + 1)
            for x in (b, -b):
                for window, partial in [
                    (exp_window, lambda m: _exp_partial(x, m)),
                    (sin_window, lambda m: _sin_partial(x, (m - 1) // 2)),
                    (cos_window, lambda m: _cos_partial(x, m // 2)),
                ]:
                    lo, hi = window(x, tol)
                    assert (lo, hi) == (partial(n) - spread, partial(n) + spread)
                    assert all(lo <= partial(m) <= hi for m in range(n, n + 30))


def test_exp_at_zero():
    assert exp(from_rational(0)).locate(1, 2) is Side.LEFT


def test_sin_cos_at_zero():
    rng = random.Random(16)
    assert not check_against_value(sin(from_rational(0)), Fraction(0), rng, queries=10)
    assert not check_against_value(cos(from_rational(0)), Fraction(1), rng, queries=10)
    # Zero and pi known only through brackets: sin and cos pad the
    # midpoint window by the bracket radius, exp reads windows at both ends.
    eps = Fraction(1, 10**12)
    for x, value in [
        (sin(pi()), Fraction(0)),
        (cos(pi()), Fraction(-1)),
        (exp(sub(e(), e())), Fraction(1)),
    ]:
        b = tight_bound(x, eps)
        assert b.width < eps
        assert b.lo < value < b.hi


def _mp_fraction(value) -> Fraction:
    man, exp2 = value.man_exp  # man is the magnitude
    return Fraction(-man if value < 0 else man) * Fraction(2) ** exp2


@pytest.mark.parametrize("t", ["0", "1/3", "-5/2", "7", "-20", "1/1000", "355/113"])
def test_series_at_rational_points_against_mpmath(monkeypatch, t):
    # A rational argument is read at the point: no bracket search, and the
    # answers agree with mpmath at 60 digits on queries forced 10^-40 apart.
    import mpmath

    import exactreal.arith as arith

    monkeypatch.setattr(arith, "tight_bound", lambda x, eps: pytest.fail("bracket search"))
    t = Fraction(t)
    with mpmath.workdps(60):
        point = mpmath.mpf(t.numerator) / t.denominator
        for f, ref in ((exp, mpmath.exp), (sin, mpmath.sin), (cos, mpmath.cos)):
            real = f(from_rational(t))
            value = _mp_fraction(ref(point))
            for k in range(0, 41, 4):
                g = Fraction(1, 10**k)
                assert real.locate(value - 2 * g, value - g) is Side.RIGHT
                assert real.locate(value + g, value + 2 * g) is Side.LEFT


def test_exp_times_exp_of_negation_brackets_one():
    for v in [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]:
        x = from_rational(v)
        product = mul(exp(x), exp(neg(x)))
        for k in range(1, 5):
            b = tight_bound(product, Fraction(1, 10**k))
            assert b.lo < 1 < b.hi


def test_exp_bracket_against_partial_sum_oracle():
    # Oracle interval: S_N +- tail at N chosen for 1e-8 slack.
    n0 = _exp_oracle_terms(16, Fraction(2), Fraction(1, 10**8))
    val = _exp_partial(Fraction(1), n0)
    tail = 2 * Fraction(2) ** n0 / math.factorial(n0)
    b = tight_bound(exp(from_rational(1)), Fraction(1, 10**6))
    assert b.width < Fraction(1, 10**6)
    assert b.lo < val - tail and val + tail < b.hi


def test_arctan_rejects_large_argument():
    with pytest.raises(ValueError):
        arctan_rational(1)
    with pytest.raises(ValueError):
        arctan_rational(Fraction(-5, 3))


def _fraction_scan(q: Fraction, epsilons: list[Fraction]) -> dict[Fraction, int]:
    """Reference modulus in Fractions: least n with |q|^(2n+3)/(2n+3) < eps.

    One upward walk over n serves the epsilons in decreasing order, since a
    smaller eps can only need a larger n; the power steps by |q|^2.
    """
    g = abs(q)
    n, power, least = 0, g**3, {}
    for eps in sorted(set(epsilons), reverse=True):
        while not power / (2 * n + 3) < eps:
            n, power = n + 1, power * g * g
        least[eps] = n
    return least


@pytest.mark.parametrize("q", ["1/5", "-1/5", "1/239", "3/4", "-2/3", "99/100"])
def test_arctan_modulus_is_the_least_index(q):
    q = Fraction(q)
    epsilons = [Fraction(7, 3), Fraction(1), Fraction(1, 3), Fraction(1, 3 * 7**40)]
    epsilons += [Fraction(1, 10**k) for k in range(121)]
    least = _fraction_scan(q, epsilons)
    assert [_arctan_modulus(q, eps) for eps in epsilons] == [least[eps] for eps in epsilons]


def test_arctan_modulus_exhausts_at_the_cap():
    assert _arctan_modulus(Fraction(1, 5), Fraction(1, 10**20)) > 5
    previous = get_search_cap()
    set_search_cap(5)
    try:
        with pytest.raises(SearchExhausted):
            _arctan_modulus(Fraction(1, 5), Fraction(1, 10**20))
    finally:
        set_search_cap(previous)


def _machin_oracle(n: int) -> tuple[Fraction, Fraction]:
    def partial(q: Fraction) -> Fraction:
        return sum(Fraction((-1) ** k) * q ** (2 * k + 1) / (2 * k + 1) for k in range(n + 1))

    def tail(q: Fraction) -> Fraction:
        return q ** (2 * n + 3) / (2 * n + 3)

    q5, q239 = Fraction(1, 5), Fraction(1, 239)
    value = 16 * partial(q5) - 4 * partial(q239)
    return value, 16 * tail(q5) + 4 * tail(q239)


def test_arctan_and_pi_against_machin_oracle():
    val, err = _machin_oracle(12)
    assert err < Fraction(1, 10**15)
    b = tight_bound(pi(), Fraction(1, 10**6))
    assert b.width < Fraction(1, 10**6)
    assert b.lo < val - err and val + err < b.hi

    five = tight_bound(arctan_rational(Fraction(1, 5)), Fraction(1, 10**8))
    oracle_5 = sum(
        Fraction((-1) ** k) * Fraction(1, 5) ** (2 * k + 1) / (2 * k + 1) for k in range(13)
    )
    assert five.lo < oracle_5 < five.hi


@pytest.mark.parametrize("q", ["pi", "1/5", "1/239", "-1/2", "99/100"])
def test_arctan_and_pi_windows_against_mpmath(monkeypatch, q):
    # pi and arctan answer from their series windows, with no bracket search
    # and no limit.  Queries of width 1/2 down to 10^-60 with one end
    # 10^-75 from an 80-digit mpmath value are forced, on both sides.
    import mpmath

    import exactreal.arith as arith

    monkeypatch.setattr(arith, "tight_bound", lambda x, eps: pytest.fail("bracket search"))
    monkeypatch.setattr(arith, "limit", lambda *args, **kwargs: pytest.fail("limit"))
    with mpmath.workdps(80):
        if q == "pi":
            real, value = pi(), _mp_fraction(+mpmath.pi)
        else:
            t = Fraction(q)
            real = arctan_rational(t)
            value = _mp_fraction(mpmath.atan(mpmath.mpf(t.numerator) / t.denominator))
    g = Fraction(1, 10**75)
    for w in [Fraction(1, 2)] + [Fraction(1, 10**k) for k in range(1, 61)]:
        assert real.locate(value - g - w, value - g) is Side.RIGHT, w
        assert real.locate(value + g, value + g + w) is Side.LEFT, w


def test_e_takes_one_window_per_query_width(monkeypatch):
    # The same-width cells of a tight_bound scan share one series window.
    import exactreal.arith as arith

    widths = []

    def counted(t, eps):
        widths.append(eps)
        return exp_window(t, eps)

    monkeypatch.setattr(arith, "exp_window", counted)
    assert tight_bound(e(), Fraction(1, 10**30)).width < Fraction(1, 10**30)
    assert widths and len(widths) == len(set(widths))


def test_e_bracket_contains_oracle():
    n0 = _exp_oracle_terms(18, Fraction(2), Fraction(1, 10**10))
    val = _exp_partial(Fraction(1), n0)
    b = tight_bound(e(), Fraction(1, 10**6))
    assert b.lo < val < b.hi


def test_bracket_algebra_for_add_and_mul():
    rng = random.Random(17)
    for _ in range(25):
        a, b = random_rational(rng), random_rational(rng)
        eps = Fraction(1, rng.randint(2, 500))
        bx = tight_bound(add(from_rational(a), from_rational(b)), eps)
        assert bx.lo < a + b < bx.hi
        assert max(bx.lo, a + b - eps) < min(bx.hi, a + b + eps)
        bm = tight_bound(mul(from_rational(a), from_rational(b)), eps)
        assert bm.lo < a * b < bm.hi


def test_lift_identity_constant_and_exp():
    rng = random.Random(18)
    ident = RealMap(apply=lambda x: x, name="id")
    x = from_rational(Fraction(3, 7))
    assert lift(ident, x) is x

    const = RealMap(apply=lambda x: from_rational(5), name="const5")
    assert not check_against_value(lift(const, from_rational(9)), Fraction(5), rng, queries=10)

    exp_map = RealMap(apply=exp, name="exp")
    lifted = lift(exp_map, from_rational(1))
    direct = e()
    n0 = _exp_oracle_terms(16, Fraction(2), Fraction(1, 10**8))
    val = _exp_partial(Fraction(1), n0)
    # Queries forced by the oracle interval around e.
    for q, r, want in [
        (Fraction(2), Fraction(27, 10), Side.RIGHT),
        (Fraction(3), Fraction(4), Side.LEFT),
        (Fraction(271, 100), Fraction(272, 100), None),
    ]:
        got_lift = lifted.locate(q, r)
        got_direct = direct.locate(q, r)
        if want is not None:
            assert got_lift is want
            assert got_direct is want
    assert val > Fraction(27, 10)  # confirms the forced sides above

import dataclasses
import math
import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from exactreal.analysis import (
    Grid,
    NonzeroWitness,
    approx_ivt,
    exact_ivt,
    integrate,
    nonconstant_search,
)
from exactreal.analysis import _grid_sum
from exactreal.arith import RealMap, Sign, add, e, exp, mul, pi, sub
from exactreal.core import (
    CReal,
    SearchExhausted,
    Side,
    evaluation_count,
    from_rational,
    tight_bound,
)
from exactreal.digits import prefix_value, render_digits, to_signed_digits
from exactreal.expr import as_real_map, integrand_map, parse
from exactreal.rational import unit_rational

F = Fraction


# --- oracles -----------------------------------------------------------------


def bisect_root(f, lo, hi, steps=70):
    """Plain rational bisection, good to (hi - lo) / 2^70."""
    lo, hi = F(lo), F(hi)
    assert f(lo) <= 0 <= f(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


SQRT2 = bisect_root(lambda t: t * t - 2, 1, 2)
CUBIC_ROOT = bisect_root(lambda t: t**3 - t - 1, 1, 2)


def riemann_sum(f_exact, a, b, n):
    """Exact rational left-endpoint sum, the integration oracle."""
    h = (F(b) - F(a)) / n
    return h * sum(f_exact(F(a) + k * h) for k in range(n))


# --- maps under test ----------------------------------------------------------


def affine_sum(grid, tol):
    total = len(grid) * grid.start + grid.step * F(len(grid) * (len(grid) - 1), 2)
    return total, total


IDENTITY = RealMap(
    apply=lambda u: u, modulus=lambda e: F(e), sum_enclosure=affine_sum, name="t"
)
IDENTITY_BARE = RealMap(apply=lambda u: u, modulus=lambda e: F(e), name="t")
SQUARE = RealMap(apply=lambda u: mul(u, u), modulus=lambda e: F(e) / 2, name="t*t")
CUBIC = RealMap(
    apply=lambda u: sub(mul(u, mul(u, u)), add(u, from_rational(1))),
    name="t^3-t-1",
)
SQUARE_LESS_2 = RealMap(apply=lambda u: sub(mul(u, u), from_rational(2)), name="t*t-2")


# --- grids and grid sums -------------------------------------------------------


def test_grid_points():
    g = Grid(F(1, 2), F(1, 10), 4)
    assert list(g) == [F(1, 2), F(3, 5), F(7, 10), F(4, 5)]
    assert [g[k] for k in range(4)] == list(g)
    assert len(g) == 4
    with pytest.raises(IndexError):
        g[4]


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0, F(1, 10), 0)
    with pytest.raises(ValueError):
        Grid(0, 0, 3)
    with pytest.raises(ValueError):
        Grid(0, F(-1, 2), 3)


def test_grid_sum_matches_exact_rational_sums():
    # Per-point path: SQUARE carries no sum_enclosure.
    for n in (1, 7, 10):
        exact = riemann_sum(lambda t: t * t, 0, 1, n)
        s = _grid_sum(SQUARE, Grid(F(0), F(1, n), n))
        assert s.locate(exact - 1, exact) is Side.RIGHT
        assert s.locate(exact, exact + 1) is Side.LEFT


def test_grid_sum_uses_enclosure_hook():
    calls = []

    def hook(grid, tol):
        calls.append((len(grid), tol))
        return affine_sum(grid, tol)

    lin = RealMap(apply=lambda u: u, modulus=lambda e: F(e), sum_enclosure=hook)
    s = _grid_sum(lin, Grid(F(0), F(1, 8), 8))
    exact = riemann_sum(lambda t: t, 0, 1, 8)
    assert s.locate(exact, exact + 1) is Side.LEFT
    assert calls and calls[0][0] == 8


def test_grid_sum_encloses_once_per_width():
    # Same-width locate queries must reach the hook once per tolerance.
    calls = Counter()

    def hook(grid, tol):
        calls[tol] += 1
        total = affine_sum(grid, tol)[0]
        return total - tol / 3, total + tol / 3

    lin = RealMap(apply=lambda u: u, modulus=lambda e: F(e), sum_enclosure=hook)
    s = _grid_sum(lin, Grid(F(0), F(1, 8), 8))
    b = tight_bound(s, F(1, 10**4))
    assert b.lo < riemann_sum(lambda t: t, 0, 1, 8) < b.hi
    # Twelve adjacent cells at each of three widths.
    for step in (F(1, 10), F(1, 100), F(1, 1000)):
        for j in range(12):
            s.locate(F(1, 4) + j * step, F(1, 4) + (j + 1) * step)
    assert len(calls) > 1
    assert set(calls.values()) == {1}


def test_per_point_grid_sum_reuses_same_width_work(monkeypatch):
    import exactreal.analysis as analysis

    applied, bounded = [], []
    # mul(u, u) folds a rational u to an exact value; wrapping its locator
    # in a fresh CReal hides `exact`, so every point takes the scanned path.
    square = RealMap(
        apply=lambda u: applied.append(u) or CReal(mul(u, u).locate, name="t*t"), name="t*t"
    )
    counted = analysis.tight_bound
    monkeypatch.setattr(
        analysis, "tight_bound", lambda x, eps: bounded.append(eps) or counted(x, eps)
    )
    s = _grid_sum(square, Grid(F(0), F(1, 4), 4))
    exact = riemann_sum(lambda t: t * t, 0, 1, 4)
    width = F(1, 100)
    assert s.locate(exact - 2 * width, exact - width) is Side.RIGHT
    assert (len(applied), len(bounded)) == (4, 4)
    for shift in (F(1, 7), F(1, 3), F(-1, 2), F(3)):
        s.locate(exact + shift, exact + shift + width)
    assert (len(applied), len(bounded)) == (4, 4)
    s.locate(exact, exact + width / 2)
    assert (len(applied), len(bounded)) == (4, 8)


def test_per_point_grid_sum_adds_exact_values(monkeypatch):
    import exactreal.analysis as analysis

    bounded = []
    counted = analysis.tight_bound
    monkeypatch.setattr(
        analysis, "tight_bound", lambda x, eps: bounded.append(eps) or counted(x, eps)
    )
    s = _grid_sum(SQUARE, Grid(F(0), F(1, 4), 4))
    exact = riemann_sum(lambda t: t * t, 0, 1, 4)
    # Each value is rounded outward to a grid of width tol/(step*count),
    # so the window holds the sum and is at most tol/step wide: every
    # forced query answers as forced, down to widths of 10^-30.
    for width in (F(1), F(1, 100), F(1, 10**30)):
        assert s.locate(exact - width, exact) is Side.RIGHT
        assert s.locate(exact - 2 * width, exact - width) is Side.RIGHT
        assert s.locate(exact, exact + width) is Side.LEFT
        assert s.locate(exact + width, exact + 2 * width) is Side.LEFT
    assert bounded == []


def test_grid_sum_answers_do_not_depend_on_query_order():
    # The hook's window sits off-centre by a share of tol, so queries near
    # the sum go either way depending on their width; a memo keyed on the
    # tightest window seen so far would answer them by history instead.
    def hook(grid, tol):
        total = affine_sum(grid, tol)[0]
        return total - tol / 2, total + tol / 4

    lin = RealMap(apply=lambda u: u, modulus=lambda e: F(e), sum_enclosure=hook)
    grid = Grid(F(0), F(1, 8), 8)
    exact = riemann_sum(lambda t: t, 0, 1, 8)
    queries = [
        (exact + F(k, 64) - width, exact + F(k, 64) + width)
        for width in (F(1, 2), F(1, 8), F(1, 32), F(1, 128))
        for k in range(-3, 4)
    ]
    forward = _grid_sum(lin, grid)
    backward = _grid_sum(lin, grid)
    sides = [forward.locate(q, r) for q, r in queries]
    reversed_sides = [backward.locate(q, r) for q, r in reversed(queries)]
    assert sides == reversed_sides[::-1]
    assert Side.RIGHT in sides and Side.LEFT in sides


def test_concurrent_same_width_queries_share_one_window():
    # The hook's window moves with every call, so threads that each answered
    # from their own enclosure would split one width's queries between
    # windows; the first window stored must serve them all.  A threshold
    # q < step * lo then separates RIGHT from LEFT at each width.
    calls = []

    def hook(grid, tol):
        calls.append(tol)
        shift = tol * (1 + len(calls) % 4) / 8
        time.sleep(0.001)
        lo = affine_sum(grid, tol)[0] - shift
        return lo, lo + 3 * tol / 4

    lin = RealMap(apply=lambda u: u, modulus=lambda e: F(e), sum_enclosure=hook)
    s = _grid_sum(lin, Grid(F(0), F(1, 8), 8))
    exact = riemann_sum(lambda t: t, 0, 1, 8)
    queries = [
        (exact - w * j / 64, exact - w * j / 64 + w)
        for w in (F(1, k) for k in range(2, 26))
        for j in range(17)
    ]
    answers: dict = {}

    def worker(seed):
        order = random.Random(seed).sample(queries, len(queries))
        for q, r in order:
            answers[q, r] = s.locate(q, r)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(answers) == len(queries)
    for width in {r - q for q, r in queries}:
        sides = [answers[q, r] for q, r in sorted(queries) if r - q == width]
        assert sides == sorted(sides, key=lambda side: side is Side.LEFT)


# --- integrate -----------------------------------------------------------------


def test_integral_of_identity_brackets_one_half():
    integral = integrate(IDENTITY, 0, 1)
    b = tight_bound(integral, F(1, 10**6))
    assert b.lo < F(1, 2) < b.hi
    assert b.width < F(1, 10**6)


def test_integral_per_point_brackets_one_third():
    integral = integrate(SQUARE, 0, 1)
    # Forced queries at the exact value's edges.
    assert integral.locate(F(1, 3), F(4, 3)) is Side.LEFT
    assert integral.locate(F(-2, 3), F(1, 3)) is Side.RIGHT
    b = tight_bound(integral, F(1, 2))
    assert b.lo < F(1, 3) < b.hi


def test_integral_modulus_is_safe_for_square():
    # A query of width w reads the midpoint sum whose n = floor(B/(2 mesh)) + 1
    # cells come from mesh = f.modulus(w/(4B)); for f = t^2 on [0, 1] the
    # modulus is eps/2, and that sum must lie within w/4 of 1/3.  Checked in
    # exact rational arithmetic.
    for w in (F(1, 2), F(1, 10), F(1, 1000)):
        n = math.floor(1 / (2 * (w / 8))) + 1
        h = F(1, n)
        midpoint_sum = h * sum(((k + F(1, 2)) * h) ** 2 for k in range(n))
        assert abs(midpoint_sum - F(1, 3)) < w / 4


def test_integral_requires_modulus():
    with pytest.raises(ValueError):
        integrate(RealMap(apply=lambda u: u), 0, 1)


def test_integral_interval_edge_cases():
    empty = integrate(IDENTITY, F(1, 2), F(1, 2))
    assert empty.locate(0, 1) is Side.LEFT
    assert empty.locate(-1, 0) is Side.RIGHT
    with pytest.raises(ValueError):
        integrate(IDENTITY, 1, 0)


def test_integral_with_locator_endpoints():
    # b = exp(0) locates 1, so the integral of t over [0, b] is 1/2.  Without
    # a hook each sum walks its grid point by point, so the bare map gets
    # two forced queries and the hooked one a bracket of width 1/100.
    integral = integrate(IDENTITY_BARE, from_rational(0), exp(from_rational(0)))
    assert integral.locate(F(1, 2), F(3, 2)) is Side.LEFT
    assert integral.locate(F(-1, 2), F(1, 2)) is Side.RIGHT
    b = tight_bound(integrate(IDENTITY, from_rational(0), exp(from_rational(0))), F(1, 100))
    assert b.lo < F(1, 2) < b.hi


def brackets(oracle, integral, width):
    """tight_bound(integral, width) holds oracle(), computed at 30 digits."""
    b = tight_bound(integral, width)
    assert b.width < width
    with mpmath.workdps(30):
        value = oracle()
        assert mpmath.mpf(b.lo.numerator) / b.lo.denominator < value
        assert value < mpmath.mpf(b.hi.numerator) / b.hi.denominator


def test_integral_of_square_up_to_pi():
    f = integrand_map(parse("x*x"), 0, 4)
    brackets(lambda: mpmath.pi**3 / 3, integrate(f, 0, pi()), F(1, 100))


def test_integral_of_sine_up_to_pi():
    f = integrand_map(parse("sin(x)"), 0, 4)
    brackets(lambda: 1 - mpmath.cos(mpmath.pi), integrate(f, 0, pi()), F(1, 100))


def test_integral_between_equal_locators_is_zero():
    # Two pi() reals: each query's grid would run from above pi to below
    # it, so every query reads the zero sum.
    integral = integrate(integrand_map(parse("x*x"), 0, 4), pi(), pi())
    for w in (F(1), F(1, 10), F(1, 1000)):
        assert integral.locate(w, 2 * w) is Side.LEFT
        assert integral.locate(-2 * w, -w) is Side.RIGHT


def test_integral_from_rational_to_locator():
    f = integrand_map(parse("exp(x)"), 0, 2)
    integral = integrate(f, F(1, 2), exp(from_rational(0)))
    brackets(lambda: mpmath.e - mpmath.exp(mpmath.mpf(1) / 2), integral, F(1, 1000))


def test_rational_reals_integrate_as_their_rationals():
    f = integrand_map(parse("x*x"), 0, 1)
    for width in (F(1, 10), F(1, 1000)):
        plain = tight_bound(integrate(f, 0, 1), width)
        lifted = tight_bound(integrate(f, from_rational(0), from_rational(1)), width)
        assert plain == lifted


FORCED_WIDTHS = (F(1, 2), F(1, 10), F(1, 100), F(1, 1000), F(1, 10**4))


def answers_forced_queries(integral, oracle):
    """Queries of each width just below and just above oracle() get the forced side."""
    with mpmath.workdps(50):
        centre = F(mpmath.nstr(oracle(), 45))
    lo, hi = centre - F(1, 10**35), centre + F(1, 10**35)
    for w in FORCED_WIDTHS:
        assert integral.locate(lo - w, lo) is Side.RIGHT, w
        assert integral.locate(hi, hi + w) is Side.LEFT, w


def test_hooked_integrals_answer_forced_queries():
    exp_map = integrand_map(parse("exp(x)"), 0, 1)
    answers_forced_queries(integrate(exp_map, 0, 1), lambda: mpmath.e - 1)
    drift = integrand_map(parse("sin(x + exp(x))"), 0, 1)
    answers_forced_queries(
        integrate(drift, 0, 1),
        lambda: mpmath.quad(lambda t: mpmath.sin(t + mpmath.exp(t)), [0, 1]),
    )


def test_hookless_integral_answers_forced_queries():
    f = integrand_map(parse("1/(1+x*x)"), 0, 1)
    assert f.sum_enclosure is None
    answers_forced_queries(integrate(f, 0, 1), lambda: mpmath.pi / 4)


def test_concave_integral_answers_forced_queries_at_its_exact_value():
    # Midpoint sums of a concave integrand lie above the integral, here
    # exactly: the sum of 1 - t^2 over n cells is 2/3 + 1/(12 n^2).  A query
    # starting at 2/3 is forced LEFT, so the locator must keep its margin
    # of (r - q)/4 and not pass the query to the sum as it is.
    f = integrand_map(parse("1 - x*x"), 0, 1)
    integral = integrate(f, 0, 1)
    for w in FORCED_WIDTHS:
        assert integral.locate(F(2, 3), F(2, 3) + w) is Side.LEFT, w
        assert integral.locate(F(2, 3) - w, F(2, 3)) is Side.RIGHT, w


def test_integrals_with_locator_ends_answer_forced_queries():
    square = integrand_map(parse("x*x"), 0, 4)
    answers_forced_queries(integrate(square, 0, pi()), lambda: mpmath.pi**3 / 3)
    identity = integrate(IDENTITY_BARE, from_rational(0), exp(from_rational(0)))
    answers_forced_queries(identity, lambda: mpmath.mpf(1) / 2)


def test_integral_grids_stay_within_the_midpoint_bound():
    # For a query of width w the sum samples the midpoints of the
    # n = floor(B/(2 mesh)) + 1 cells of [0, 1], mesh = f.modulus(w/(4B))
    # with B = 1 here, and no more.
    f = integrand_map(parse("sin(x + exp(x))"), 0, 1)
    grids: list[Grid] = []

    def counting(grid, tol):
        grids.append(grid)
        return f.sum_enclosure(grid, tol)

    integral = integrate(dataclasses.replace(f, sum_enclosure=counting), 0, 1)
    worst = 0

    def decide(q, r):
        nonlocal worst
        del grids[:]
        side = integral.locate(q, r)
        bound = math.floor(1 / (2 * f.modulus((r - q) / 4))) + 1
        for grid in grids:
            assert len(grid) <= bound
            assert grid.start == grid.step / 2 and len(grid) * grid.step == 1
            worst = max(worst, len(grid))
        return side

    oracle = lambda: mpmath.quad(lambda t: mpmath.sin(t + mpmath.exp(t)), [0, 1])
    brackets(oracle, CReal(decide), F(1, 100))
    assert 0 < worst <= 2400


# --- approx_ivt ----------------------------------------------------------------


def replay_window(f_exact, a, b, eps, rounds):
    """The window recurrence in exact rational arithmetic."""
    z, w, c = [F(a)], [F(b)], []
    for k in range(rounds):
        ck = (z[k] + w[k]) / 2
        d = max(F(0), min(F(1, 2) + f_exact(ck) / eps, F(1)))
        pull = d * (F(b) - F(a)) / 2 ** (k + 1)
        z.append(ck - pull)
        w.append(w[k] - pull)
        c.append(ck)
    return z, w, c


def test_window_halves_exactly():
    # w_n - z_n = (b - a)/2^n whatever the clamped shares are; the exact
    # replay rounds to 12 because the share denominators cube per round.
    z, w, c = replay_window(lambda t: t**3 - t - 1, 1, 2, F(1, 1000), 12)
    for n in range(13):
        assert w[n] - z[n] == F(1, 2**n)
    for n in range(12):
        assert z[n] <= z[n + 1] and w[n + 1] <= w[n]
        assert z[n] <= c[n] <= w[n]


def test_approx_ivt_identity():
    x = approx_ivt(IDENTITY_BARE, -1, 1, F(1, 10))
    b = tight_bound(x, F(1, 1000))
    # |x| <= 1/10 with room for the bracket's own width.
    assert -F(1, 10) - b.width < b.lo and b.hi < F(1, 10) + b.width
    assert b.lo < F(1, 10) and -F(1, 10) < b.hi


def test_approx_ivt_cubic():
    x = approx_ivt(CUBIC, 1, 2, F(1, 1000))
    b = tight_bound(x, F(1, 10**4))
    assert abs(b.midpoint - CUBIC_ROOT) < F(1, 1000)
    residual = tight_bound(CUBIC.apply(x), F(1, 10**4))
    assert -F(1, 1000) < residual.lo and residual.hi < F(1, 1000)


# --- nonconstant_search ----------------------------------------------------------


def test_nonconstant_search_replays():
    # Pair enumeration first reaches gap 1/10 at the interval midpoint,
    # where the forced query (1/10, 2/10) certifies f > gap.  The
    # differences at rational points fold to rationals, decided by integer
    # comparison with the answers of their locators, which answer an
    # unforced query by comparing q with the value: on (1, 2) the
    # difference 3/2 answers RIGHT to (1, 2) at gap 1, and at 3/4 the
    # difference -23/16 answers RIGHT to (-2, -1), so that witness waits
    # for gap 1/10.
    wit = nonconstant_search(IDENTITY_BARE, 0, 1, 0)
    assert wit == NonzeroWitness(F(1, 2), F(1, 10), Sign.POSITIVE)
    wit = nonconstant_search(IDENTITY_BARE, 1, 2, 0)
    assert wit == NonzeroWitness(F(3, 2), F(1), Sign.POSITIVE)
    wit = nonconstant_search(SQUARE_LESS_2, F(1, 2), 1, 0)
    assert wit == NonzeroWitness(F(3, 4), F(1, 10), Sign.NEGATIVE)


def test_nonconstant_witnesses_are_sound():
    # Exact rational recheck of the certified inequalities.
    assert F(1, 2) - 0 > F(1, 10)
    assert F(3, 2) - 0 > F(1)
    assert F(3, 4) ** 2 - 2 < -F(1, 10)
    assert F(3, 4) ** 2 - 2 < -F(1)


def test_nonconstant_search_exhausts_on_constant_map():
    flat = RealMap(apply=lambda u: from_rational(0), name="0")
    with pytest.raises(SearchExhausted):
        nonconstant_search(flat, 0, 1, 0, cap=60)


def _values_behind_locators(f):
    """f with each value wrapped in a plain locator, which carries no `exact`."""
    return RealMap(apply=lambda u: CReal(f.apply(u).locate), name=f.name)


def _witness_or_exhausted(f, lo, hi, target, cap):
    try:
        return nonconstant_search(f, lo, hi, target, cap=cap)
    except SearchExhausted:
        return "exhausted"


def _pair_code(lo, hi, witness):
    """The Cantor pair code at which nonconstant_search finds witness."""
    i = next(i for i in range(10**4) if lo + (hi - lo) * unit_rational(i) == witness.point)
    j = len(str(witness.gap.denominator)) - 1
    assert witness.gap == F(1, 10**j)
    return (i + j) * (i + j + 1) // 2 + j


def test_nonconstant_search_reads_exact_differences_like_their_locators():
    # Each case is searched twice: with the map's values as they come (the
    # differences fold to exact rationals, decided by integer comparison)
    # and behind plain locators (the differences are asked their queries).
    # -3/20 lies in (-2/10, -1/10]: the locator answers RIGHT to
    # (-2/10, -1/10), so its witness waits for gap 1/100, where a symmetric
    # |d| > gap rule would stop at gap 1/10.  -2/10, -1/10 and 1/10 sit on
    # the boundaries, and a constant difference of 0 exhausts the cap.
    cases = [
        (as_real_map(parse("x")), F(0), F(1), F(13, 20)),
        (as_real_map(parse("x")), F(0), F(1), F(7, 10)),
        (as_real_map(parse("x")), F(0), F(1), F(6, 10)),
        (as_real_map(parse("x")), F(0), F(1), F(4, 10)),
        (RealMap(apply=lambda u: from_rational(F(-3, 20)), name="-3/20"), F(0), F(1), F(0)),
        (RealMap(apply=lambda u: from_rational(F(2)), name="2"), F(0), F(1), F(2)),
        (SQUARE_LESS_2, F(707, 500), F(283, 200), F(0)),
    ]
    rng = random.Random(2018)

    def rational(k):
        return F(rng.randint(-k, k), rng.randint(1, k))

    for _ in range(60):
        coefficients = [rational(9) for _ in range(rng.randint(1, 4))]
        text = " + ".join(
            f"{c.numerator}/{c.denominator}" + "*x" * power
            for power, c in enumerate(coefficients)
        )
        lo, hi = rational(6), rational(6)
        if lo == hi:
            hi = lo + 1
        cases.append((as_real_map(parse(text)), min(lo, hi), max(lo, hi), rational(20)))
    witnesses = set()
    for f, lo, hi, target in cases:
        direct = _witness_or_exhausted(f, lo, hi, target, 3000)
        asked = _witness_or_exhausted(_values_behind_locators(f), lo, hi, target, 3000)
        assert direct == asked, (f.name, lo, hi, target)
        witnesses.add(direct)
    assert NonzeroWitness(F(1, 2), F(1, 100), Sign.NEGATIVE) in witnesses
    assert "exhausted" in witnesses


def test_nonconstant_search_on_exact_differences_asks_no_locator():
    before = evaluation_count()
    nonconstant_search(SQUARE_LESS_2, F(1, 2), 1, 0)
    assert evaluation_count() == before
    exp_less_2 = RealMap(apply=lambda u: sub(exp(u), from_rational(2)), name="exp(t)-2")
    nonconstant_search(exp_less_2, 0, 1, 0)
    assert evaluation_count() > before


def test_nonconstant_search_spends_the_same_codes_against_the_cap():
    # bounded_search tries codes 0 .. cap - 1, so a witness at code c needs
    # cap c + 1.
    lo, hi = F(707, 500), F(283, 200)
    witness = nonconstant_search(SQUARE_LESS_2, lo, hi, 0)
    code = _pair_code(lo, hi, witness)
    assert code > 10
    for f in (SQUARE_LESS_2, _values_behind_locators(SQUARE_LESS_2)):
        with pytest.raises(SearchExhausted):
            nonconstant_search(f, lo, hi, 0, cap=code)
        assert nonconstant_search(f, lo, hi, 0, cap=code + 1) == witness


def test_nonconstant_search_validates_interval():
    with pytest.raises(ValueError):
        nonconstant_search(IDENTITY_BARE, 1, 1, 0)


def test_witness_gap_must_be_positive():
    with pytest.raises(ValueError):
        NonzeroWitness(F(1, 2), F(0), Sign.POSITIVE)


# --- exact_ivt --------------------------------------------------------------------


def test_exact_ivt_sqrt2_digits():
    root = exact_ivt(SQUARE_LESS_2, 1, 2)
    rep = to_signed_digits(root)
    assert render_digits(rep, 8) == "2.(-6)2(-6)22(-6)(-4)(-4)"
    assert abs(prefix_value(rep, 8) - SQRT2) < F(1, 10**8)


def test_exact_ivt_with_a_locator_end(monkeypatch):
    # The end e - 1 is a locator, so round one splits the lifted cuts with
    # archimedean_midpoint; later rounds between rational ends do not.
    import exactreal.analysis as analysis

    calls = []
    counted = analysis.archimedean_midpoint
    monkeypatch.setattr(
        analysis, "archimedean_midpoint", lambda x, y: calls.append(1) or counted(x, y)
    )
    root = exact_ivt(SQUARE_LESS_2, 1, sub(e(), from_rational(1)))
    rep = to_signed_digits(root)
    assert abs(prefix_value(rep, 8) - SQRT2) < F(1, 10**8)
    assert calls


def test_exact_ivt_cubic_root():
    root = exact_ivt(CUBIC, 1, 2)
    b = tight_bound(root, F(1, 1000))
    assert abs(b.midpoint - CUBIC_ROOT) < F(1, 1000)


def test_exact_ivt_identity_root():
    root = exact_ivt(IDENTITY_BARE, -1, 1)
    b = tight_bound(root, F(1, 10**4))
    assert b.lo < 0 < b.hi
    assert b.width < F(1, 10**4)

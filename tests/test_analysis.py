import math
import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

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
from exactreal.arith import RealMap, Sign, add, exp, mul, sub
from exactreal.core import SearchExhausted, Side, from_rational, tight_bound
from exactreal.digits import prefix_value, render_digits, to_signed_digits

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
    # tight_bound asks several same-width queries per scan; the hook must
    # see each tolerance once.  The window is a fixed fraction of tol wide,
    # so the scan needs the answers of many widths.
    calls = Counter()

    def hook(grid, tol):
        calls[tol] += 1
        total = affine_sum(grid, tol)[0]
        return total - tol / 3, total + tol / 3

    lin = RealMap(apply=lambda u: u, modulus=lambda e: F(e), sum_enclosure=hook)
    s = _grid_sum(lin, Grid(F(0), F(1, 8), 8))
    b = tight_bound(s, F(1, 10**4))
    assert b.lo < riemann_sum(lambda t: t, 0, 1, 8) < b.hi
    assert len(calls) > 1
    assert set(calls.values()) == {1}


def test_per_point_grid_sum_reuses_same_width_work(monkeypatch):
    import exactreal.analysis as analysis

    applied, bounded = [], []
    square = RealMap(apply=lambda u: applied.append(u) or mul(u, u), name="t*t")
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
    # The convergence modulus integrate derives for f = t^2 on [0, 1] is
    # ceil(B / omega(eps/(4B))) = ceil(8/eps); members past it must be
    # pairwise within eps.  Checked in exact rational arithmetic.
    for eps in (F(1, 4), F(1, 16)):
        start = math.ceil(8 / eps)
        points = [start, start + 7, 4 * start]
        sums = {n: riemann_sum(lambda t: t * t, 0, 1, n) for n in points}
        for m in points:
            for n in points:
                assert abs(sums[m] - sums[n]) < eps


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
    # b = exp(0) locates 1, so the integral of t over [0, b] is 1/2.
    # The lifted-tree members are expensive; two forced queries suffice.
    integral = integrate(IDENTITY_BARE, from_rational(0), exp(from_rational(0)))
    assert integral.locate(F(1, 2), F(3, 2)) is Side.LEFT
    assert integral.locate(F(-1, 2), F(1, 2)) is Side.RIGHT


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
    # differences at rational points fold to rationals, whose locators
    # answer an unforced query by comparing q with the value: on (1, 2)
    # the difference 3/2 answers RIGHT to (1, 2) at gap 1, and at 3/4 the
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


def test_exact_ivt_cubic_root():
    root = exact_ivt(CUBIC, 1, 2)
    b = tight_bound(root, F(1, 1000))
    assert abs(b.midpoint - CUBIC_ROOT) < F(1, 1000)


def test_exact_ivt_identity_root():
    root = exact_ivt(IDENTITY_BARE, -1, 1)
    b = tight_bound(root, F(1, 10**4))
    assert b.lo < 0 < b.hi
    assert b.width < F(1, 10**4)

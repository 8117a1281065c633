import math
import time
from fractions import Fraction

import pytest

from exactreal.enclosures import (
    Grid,
    _pointwise_sin_exp,
    _power_sums,
    cos_window,
    exp_grid_sum,
    exp_window,
    poly_grid_sum,
    sin_exp_grid_sum,
    sin_window,
    trig_grid_sum,
)

F = Fraction

# Float oracles: libm calls are good to about an ulp, so a sum of n terms
# of size s carries rounding error well under n * s * 1e-15.  This slack
# dominates that for every case below.
SLACK = 1e-9


def assert_contains(window, value, slack=SLACK):
    lo, hi = window
    assert lo - slack <= value <= hi + slack
    assert lo <= hi


# --- series windows -----------------------------------------------------------


def test_exp_window_contains_exp():
    for q in (0, 1, -1, F(1, 3), F(-7, 2), 2):
        w = exp_window(q, F(1, 10**8))
        assert w[1] - w[0] <= F(1, 10**8)
        assert_contains(w, math.exp(q), slack=1e-12)


def test_exp_window_of_zero_brackets_one():
    lo, hi = exp_window(0, F(1, 100))
    assert lo <= 1 <= hi


def test_trig_windows_contain_sin_and_cos():
    for q in (0, 1, -2, F(5, 7), F(-13, 4), 3):
        ws = sin_window(q, F(1, 10**8))
        wc = cos_window(q, F(1, 10**8))
        assert ws[1] - ws[0] <= F(1, 10**8)
        assert wc[1] - wc[0] <= F(1, 10**8)
        assert_contains(ws, math.sin(q), slack=1e-12)
        assert_contains(wc, math.cos(q), slack=1e-12)
    assert sin_window(0, F(1, 10))[0] <= 0 <= sin_window(0, F(1, 10))[1]
    assert cos_window(0, F(1, 10))[0] <= 1 <= cos_window(0, F(1, 10))[1]


def test_window_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        exp_window(1, 0)


# --- exact polynomial sums ------------------------------------------------------


def test_power_sum_matches_brute_force():
    for n in (0, 1, 2, 7, 50):
        for m in range(7):
            assert _power_sums(n, m) == [sum(k**d for k in range(n)) for d in range(m + 1)]


def test_poly_grid_sum_is_exact():
    coeffs = (2, -1, 0, F(1, 3))

    def p(t):
        return 2 - t + F(1, 3) * t**3

    grid = Grid(F(-1, 2), F(1, 7), 23)
    brute = sum(p(x) for x in grid)
    assert poly_grid_sum(coeffs, grid) == (brute, brute)


def test_poly_grid_sum_degenerate_polynomials():
    grid = Grid(F(1, 3), F(2, 5), 9)
    assert poly_grid_sum((), grid) == (0, 0)
    assert poly_grid_sum((F(5),), grid) == (45, 45)


# --- closed-form exp sums --------------------------------------------------------


def test_exp_grid_sum_contains_float_sum():
    cases = [
        (0, 1, Grid(0, F(1, 200), 200), F(1, 10**6)),
        (F(1, 3), 0, Grid(-2, F(1, 7), 40), F(1, 10**8)),  # scale 0
    ]
    for offset, scale, grid, tol in cases:
        w = exp_grid_sum(offset, scale, grid, tol)
        assert w[1] - w[0] <= tol
        assert_contains(w, sum(math.exp(offset + scale * x) for x in grid))


def test_exp_grid_sum_negative_scale():
    grid = Grid(-1, F(1, 64), 150)
    w = exp_grid_sum(1, -2, grid, F(1, 10**4))
    oracle = sum(math.exp(1 - 2 * (-1 + k / 64)) for k in range(150))
    assert w[1] - w[0] <= F(1, 10**4)
    assert_contains(w, oracle, slack=1e-7)


def test_exp_grid_sum_single_point():
    w = exp_grid_sum(0, 1, Grid(F(1, 2), 1, 1), F(1, 10**9))
    direct = exp_window(F(1, 2), F(1, 10**9))
    # Both windows contain exp(1/2), so they must overlap.
    assert w[0] <= direct[1] and direct[0] <= w[1]
    assert w[1] - w[0] <= F(1, 10**9)


def test_exp_grid_sum_crosses_pointwise_windows():
    grid = Grid(F(-1, 3), F(1, 40), 80)
    w = exp_grid_sum(F(1, 5), F(3, 2), grid, F(1, 1000))
    lo = hi = F(0)
    for x in grid:
        pl, ph = exp_window(F(1, 5) + F(3, 2) * x, F(1, 10**6))
        lo += pl
        hi += ph
    assert w[0] <= hi and lo <= w[1]


def test_exp_grid_sum_meets_tiny_tolerance():
    w = exp_grid_sum(0, 1, Grid(0, F(1, 20), 20), F(1, 10**25))
    assert w[1] - w[0] <= F(1, 10**25)


def test_closed_forms_on_two_million_points():
    # The cost does not grow with the point count.
    n = 2_040_000
    grid = Grid(0, F(1, n), n)
    start = time.perf_counter()
    we = exp_grid_sum(0, 1, grid, F(1, 10**6))
    ws = trig_grid_sum("sin", 0, 1, grid, F(1, 10**6))
    assert time.perf_counter() - start < 1
    # Float closed forms, each good to a few ulps of sums near 10^6.
    h = 1 / n
    assert_contains(we, (math.e - 1) / math.expm1(h), slack=1e-8)
    dirichlet = math.sin((n - 1) * h / 2) * math.sin(1 / 2) / math.sin(h / 2)
    assert_contains(ws, dirichlet, slack=1e-8)


# --- closed-form sin and cos sums -------------------------------------------------


def test_trig_grid_sum_contains_float_sums():
    cases = [
        (F(1, 3), 1, Grid(0, F(1, 100), 100), F(1, 10**5)),
        (F(2, 3), 0, Grid(1, F(1, 9), 25), F(1, 10**8)),  # scale 0
        (F(2, 3), 5, Grid(F(1, 4), 1, 1), F(1, 10**8)),  # one point
        # d/2 = 355/113 lies within 3e-7 of pi, so the divisor sin(d/2)
        # is tiny and its window must shrink far below it.
        (0, F(710, 113), Grid(0, 1, 10), F(1, 10**6)),
    ]
    for offset, scale, grid, tol in cases:
        for kind, f in (("sin", math.sin), ("cos", math.cos)):
            w = trig_grid_sum(kind, offset, scale, grid, tol)
            assert w[1] - w[0] <= tol
            assert_contains(w, sum(f(offset + scale * x) for x in grid))


def test_trig_grid_sum_negative_scale():
    grid = Grid(F(1, 2), F(1, 30), 90)
    for kind, f in (("sin", math.sin), ("cos", math.cos)):
        w = trig_grid_sum(kind, 0, -3, grid, F(1, 1000))
        oracle = sum(f(-3 * (0.5 + k / 30)) for k in range(90))
        assert w[1] - w[0] <= F(1, 1000)
        assert_contains(w, oracle, slack=1e-7)


def test_trig_grid_sum_rejects_unknown_kind():
    with pytest.raises(ValueError):
        trig_grid_sum("tan", 0, 1, Grid(0, 1, 1), 1)


# --- drifting rotation chain ------------------------------------------------------


def test_sin_exp_grid_sum_chain_path():
    # 500 points with unit span keeps the step angle far inside the cubic
    # bounds, so this exercises the incremental rotation.
    grid = Grid(0, F(1, 500), 500)
    w = sin_exp_grid_sum(0, 1, 0, 1, grid, F(1, 1000))
    oracle = sum(math.sin(x + math.exp(x)) for x in (k / 500 for k in range(500)))
    assert w[1] - w[0] <= F(1, 1000)
    assert_contains(w, oracle, slack=1e-7)


def test_sin_exp_grid_sum_pointwise_path():
    grid = Grid(0, F(1, 10), 10)
    w = sin_exp_grid_sum(0, 1, 0, 1, grid, F(1, 1000))
    oracle = sum(math.sin(x + math.exp(x)) for x in (k / 10 for k in range(10)))
    assert w[1] - w[0] <= F(1, 1000)
    assert_contains(w, oracle, slack=1e-9)


def test_sin_exp_paths_agree():
    grid = Grid(0, F(1, 500), 500)
    chain = sin_exp_grid_sum(0, 1, 0, 1, grid, F(1, 1000))
    direct = _pointwise_sin_exp(F(0), F(1), F(0), F(1), grid, F(1, 100))
    # Both contain the true sum, so they must overlap.
    assert chain[0] <= direct[1] and direct[0] <= chain[1]


def test_sin_exp_grid_sum_nonunit_coefficients():
    grid = Grid(F(1, 4), F(1, 300), 200)
    w = sin_exp_grid_sum(F(1, 2), -2, F(-1, 3), F(3, 4), grid, F(1, 500))
    oracle = sum(
        math.sin((0.5 - 2 * x) + math.exp(-1 / 3 + 0.75 * x))
        for x in (0.25 + k / 300 for k in range(200))
    )
    assert_contains(w, oracle, slack=1e-7)

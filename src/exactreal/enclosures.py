"""Integer-window enclosures for sums over arithmetic grids.

An integral's convergence modulus can demand grids with millions of
points, and bracketing every f(x_k) through a locator costs a full
evaluation per point.  The integrands that actually show up need no walk
over the grid: polynomials sum exactly, and sums of exp, sin and cos of
affine arguments have closed forms (a geometric series, a Dirichlet
kernel) that three series windows enclose.  Only sin of an affine phase
with exponential drift runs a chain: a one-step recurrence on
integer-scaled windows with outward rounding.  Windows only ever contain
the true values, which makes every result sound by construction; the
width tolerance is met by recomputing with sharper windows.  The series
windows at a single rational point also carry arith's exp, sin and cos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from exactreal.rational import Rational, RationalLike, as_rational, require_positive

Window = tuple[Rational, Rational]
WindowFn = Callable[[Rational, Rational], Window]


@dataclass(frozen=True)
class Grid:
    """Evenly spaced rational sample points start + k*step for 0 <= k < count."""

    start: Rational
    step: Rational
    count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", as_rational(self.start))
        object.__setattr__(self, "step", require_positive(self.step, "grid step"))
        if self.count < 1:
            raise ValueError("grid needs at least one point")

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, k: int) -> Rational:
        if not 0 <= k < self.count:
            raise IndexError(k)
        return self.start + k * self.step

    def __iter__(self) -> Iterator[Rational]:
        value = self.start
        for _ in range(self.count):
            yield value
            value += self.step


# ---------------------------------------------------------------------------
# Series windows at a rational point.
# ---------------------------------------------------------------------------


def _tail_terms(bound: Rational, tol: Rational) -> int:
    """Least n >= 2*bound with 2*bound^(n+1)/(n+1)! <= tol.

    Past index 2*bound the terms of sum bound^k/k! at least halve, so the
    tail from degree n is below twice its first term.
    """
    a, d = bound.numerator, bound.denominator
    n = max(1, math.ceil(2 * bound))
    # term > tol with both sides multiplied by d^(n+1) (n+1)! tol.denominator.
    term = 2 * a ** (n + 1) * tol.denominator
    scaled_tol = d ** (n + 1) * math.factorial(n + 1) * tol.numerator
    while term > scaled_tol:
        n += 1
        term *= a
        scaled_tol *= d * (n + 1)
    return n


def _series_window(q: RationalLike, tol: RationalLike, signs: tuple[int, int, int, int]) -> Window:
    # With q = a/d, the partial sum of signs[k % 4] * q^k/k! to degree n
    # and the tail bound 2|q|^(n+1)/(n+1)! share the denominator
    # d^(n+1) (n+1)!, so both are summed as integer numerators: the
    # partial sum by Horner's rule, where degree k weighs
    # d^(n+1-k) (n+1)!/k!.  Sound because every |coefficient| <= 1/k!:
    # the exp tail dominates.
    q = as_rational(q)
    tol = require_positive(tol, "window tolerance")
    n = _tail_terms(abs(q), tol / 2)
    a, d = q.numerator, q.denominator
    weight = d * (n + 1)
    total = signs[n % 4] * weight
    for k in range(n - 1, -1, -1):
        weight *= d * (k + 1)
        total = total * a + signs[k % 4] * weight
    spread = 2 * abs(a) ** (n + 1)
    return Fraction(total - spread, weight), Fraction(total + spread, weight)


def exp_window(q: RationalLike, tol: RationalLike) -> Window:
    """Rationals lo <= exp(q) <= hi with hi - lo <= tol."""
    return _series_window(q, tol, (1, 1, 1, 1))


def sin_window(q: RationalLike, tol: RationalLike) -> Window:
    """Rationals lo <= sin(q) <= hi with hi - lo <= tol."""
    return _series_window(q, tol, (0, 1, 0, -1))


def cos_window(q: RationalLike, tol: RationalLike) -> Window:
    """Rationals lo <= cos(q) <= hi with hi - lo <= tol."""
    return _series_window(q, tol, (1, 0, -1, 0))


def _sinh_window(q: RationalLike, tol: RationalLike) -> Window:
    return _series_window(q, tol, (0, 1, 0, 1))


# ---------------------------------------------------------------------------
# Exact polynomial sums.
# ---------------------------------------------------------------------------


def _power_sums(n: int, m: int) -> list[int]:
    """Sums of k^d over k in range(n) for d = 0..m, exactly."""
    # Telescoping (k+1)^(d+1) - k^(d+1) over k < n gives
    # n^(d+1) = sum_{j<=d} C(d+1, j) S_j, which solves for S_d from below.
    sums: list[int] = []
    for d in range(m + 1):
        total = n ** (d + 1) - sum(math.comb(d + 1, j) * sums[j] for j in range(d))
        sums.append(total // (d + 1))
    return sums


def poly_grid_sum(coeffs: Sequence[RationalLike], grid: Grid) -> Window:
    """The exact sum of p(x) over the grid, as a zero-width window.

    coeffs lists p by ascending degree.  Expanding p(start + k*step) in
    powers of k reduces the sum to power sums of 0..count-1, so the cost
    is quadratic in the degree and independent of the point count.
    """
    cs = [as_rational(c) for c in coeffs]
    sums = _power_sums(len(grid), max(len(cs) - 1, 0))
    a, h = grid.start, grid.step
    total = Fraction(0)
    for j, c in enumerate(cs):
        if not c:
            continue
        for t in range(j + 1):
            total += c * math.comb(j, t) * a ** (j - t) * h**t * sums[t]
    return total, total


# ---------------------------------------------------------------------------
# Closed-form sums of exp, sin and cos over arithmetic grids.
# ---------------------------------------------------------------------------


def _iv_mul(al: Rational, au: Rational, bl: Rational, bu: Rational) -> Window:
    """Product window from endpoint products; no sign assumptions."""
    ps = (al * bl, al * bu, au * bl, au * bu)
    return min(ps), max(ps)


def _kernel_sum(
    lead: WindowFn, kernel: WindowFn, u0: Rational, d: Rational, n: int, tol: Rational
) -> Window:
    # sum(f(u0 + k*d) for k < n) = f(mid) * K(n*d/2) / K(d/2) with
    # mid = u0 + (n-1)*d/2: (f, K) = (exp, sinh) sums a geometric series
    # and (sin or cos, sin) a Dirichlet kernel.  K(d/2) is nonzero for
    # rational d != 0, so shrinking the windows eventually excludes 0
    # from the divisor and brings the product under tol; at d = 0 the
    # ratio is n.
    if d == 0:
        lo, hi = lead(u0, tol / n)
        return n * lo, n * hi
    mid = u0 + (n - 1) * d / 2
    delta = tol
    while True:
        dl, du = kernel(d / 2, delta)
        if dl > 0 or du < 0:
            ratio = _iv_mul(*kernel(n * d / 2, delta), 1 / du, 1 / dl)
            lo, hi = _iv_mul(*lead(mid, delta), *ratio)
            if hi - lo <= tol:
                return lo, hi
        delta /= 16


def exp_grid_sum(offset: RationalLike, scale: RationalLike, grid: Grid, tol: RationalLike) -> Window:
    """Enclose sum(exp(offset + scale*x) for x in grid) within tol.

    The sum is geometric, so three series windows enclose it whatever
    the point count: exp at the middle phase times sinh(n*d/2)/sinh(d/2),
    where d = scale*step.
    """
    offset, scale = as_rational(offset), as_rational(scale)
    tol = require_positive(tol, "sum tolerance")
    u0 = offset + scale * grid.start
    return _kernel_sum(exp_window, _sinh_window, u0, scale * grid.step, len(grid), tol)


def trig_grid_sum(
    kind: str, offset: RationalLike, scale: RationalLike, grid: Grid, tol: RationalLike
) -> Window:
    """Enclose sum(sin(offset + scale*x) for x in grid) within tol, or cos.

    The sum is a Dirichlet kernel, so three series windows enclose it
    whatever the point count: sin or cos at the middle phase times
    sin(n*d/2)/sin(d/2), where d = scale*step.
    """
    if kind not in ("sin", "cos"):
        raise ValueError("kind must be 'sin' or 'cos'")
    offset, scale = as_rational(offset), as_rational(scale)
    tol = require_positive(tol, "sum tolerance")
    lead = sin_window if kind == "sin" else cos_window
    u0 = offset + scale * grid.start
    return _kernel_sum(lead, sin_window, u0, scale * grid.step, len(grid), tol)


# ---------------------------------------------------------------------------
# Window chain for sin of an affine phase plus exp, which has no closed
# form.  State is a pair of integers (lo, hi) meaning the window
# [lo/den, hi/den]; each step multiplies by a factor window and rounds
# outward, so containment of the true value is invariant.
# ---------------------------------------------------------------------------


def _scaled(window: Window, den: int) -> tuple[int, int]:
    """Outward rounding of a rational window onto the grid 1/den."""
    lo, hi = window
    return math.floor(lo * den), math.ceil(hi * den)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _nearest_div(a: int, b: int) -> int:
    """Round a/b to the nearest integer; error at most 1/2."""
    q, rem = divmod(a, b)
    return q + (1 if 2 * rem >= b else 0)


def _rotate_ball(ms: int, mc: int, r: int, mp: int, mq: int, hw: int, den: int):
    # Boxes wrap under repeated rotation (each step stretches them by
    # |cos| + |sin|), so the pair (sin u, cos u) is tracked as a disk:
    # centre (ms, mc)/den, radius r/den.  Rotating a disk by the centre
    # of the entry windows scales its radius by at most the centre's
    # norm, within (den + hw)/den here; the entry halfwidths hw act on a
    # point no farther than den + r from the origin; centre rounding
    # costs one more unit.
    nms = _nearest_div(ms * mq + mc * mp, den)
    nmc = _nearest_div(mc * mq - ms * mp, den)
    nr = r + _ceil_div(r * (hw + 1) + (den + r) * hw, den) + 1
    return nms, nmc, nr


def _sin_small(dl: int, du: int, den: int) -> tuple[int, int]:
    # Quintic two-sided bounds on sin over [dl/den, du/den], |angle| <= 1.
    # The alternating series pins sin x between x - x^3/6 and
    # x - x^3/6 + x^5/120 (which is which depends on the sign of x), and
    # sin is increasing there, so bounding the endpoints suffices.  The
    # x^5 gap keeps the per-step slack far below the cubic one.
    d2 = den * den
    d4 = d2 * d2
    lo = dl - _ceil_div(dl**3, 6 * d2) + min(dl, 0) ** 5 // (120 * d4)
    hi = du - du**3 // (6 * d2) + _ceil_div(max(du, 0) ** 5, 120 * d4)
    return lo, hi


def _cos_small(dl: int, du: int, den: int) -> tuple[int, int]:
    # cos is even and falls with |x|, so the interval's extremes sit at
    # the endpoint farthest from zero and the point nearest zero.
    big = max(abs(dl), abs(du))
    near = 0 if dl <= 0 <= du else min(abs(dl), abs(du))
    lo = den - _ceil_div(big * big, 2 * den)
    hi = den - near * near // (2 * den) + _ceil_div(near**4, 24 * den**3)
    return lo, min(hi, den)


def sin_exp_grid_sum(
    p0: RationalLike,
    p1: RationalLike,
    q0: RationalLike,
    q1: RationalLike,
    grid: Grid,
    tol: RationalLike,
) -> Window:
    """Enclose sum(sin((p0 + p1*x) + exp(q0 + q1*x)) for x in grid).

    The phase advances by p1*step plus the drift of the exponential term,
    so each step rotates (sin, cos) by a small interval angle: the drift
    falls out of the running exp chain and the rotation entries come from
    cubic bounds near zero.  Fine grids are where this pays off; coarse
    grids, whose step angles are too wide for the cubic bounds, fall back
    to summing per-point series windows.
    """
    p0, p1, q0, q1 = (as_rational(v) for v in (p0, p1, q0, q1))
    tol = require_positive(tol, "sum tolerance")
    n = len(grid)
    h = grid.step
    u0 = q0 + q1 * grid.start
    d = q1 * h
    dp = p1 * h
    peak = max(u0, u0 + (n - 1) * d)
    cap = max(1, math.ceil(exp_window(peak, Fraction(1))[1]))
    drift = exp_window(abs(d), Fraction(1, 4))[1] - 1
    if n <= 64 or abs(dp) + cap * drift > Fraction(1, 2):
        return _pointwise_sin_exp(p0, p1, q0, q1, grid, tol)
    delta = tol / (64 * n * n * cap)
    while True:
        den = math.ceil(16 / delta)
        xl, xu = _scaled(exp_window(u0, delta), den)
        el, eu = _scaled(exp_window(d, delta), den)
        xl, el = max(xl, 0), max(el, 0)
        top = cap * den
        dpl, dpu = math.floor(dp * den), math.ceil(dp * den)
        # Initial angle p(x0) + exp(q(x0)) is not rational; take series
        # windows at the midpoint and pad by the radius (sin and cos are
        # 1-Lipschitz).
        mid = Fraction(xl + xu, 2 * den)
        rad = Fraction(xu - xl, 2 * den)
        first = p0 + p1 * grid.start + mid
        sl, su = _scaled(sin_window(first, delta), den)
        cl, cu = _scaled(cos_window(first, delta), den)
        pad = math.ceil(rad * den)
        ms, mc = (sl + su) // 2, (cl + cu) // 2
        r = (su - sl) // 2 + (cu - cl) // 2 + 2 * pad + 2
        tl = tu = 0
        sound = True
        for _ in range(n):
            tl += ms - r
            tu += ms + r
            gl, gu = _iv_mul(xl, xu, el - den, eu - den)
            dl = dpl + gl // den
            du = dpu + _ceil_div(gu, den)
            if max(abs(dl), abs(du)) > den:
                # Window slack pushed the step angle past the small-angle
                # bounds' range; only sharper parameters help.
                sound = False
                break
            pl, pu = _sin_small(dl, du, den)
            ql, qu = _cos_small(dl, du, den)
            mp, hp = (pl + pu) // 2, (pu - pl) // 2 + 1
            mq, hq = (ql + qu) // 2, (qu - ql) // 2 + 1
            ms, mc, r = _rotate_ball(ms, mc, r, mp, mq, hp + hq, den)
            xl = xl * el // den
            xu = min(_ceil_div(xu * eu, den), top)
        if sound and Fraction(tu - tl, den) <= tol:
            return Fraction(tl, den), Fraction(tu, den)
        delta /= 16


def _pointwise_sin_exp(
    p0: Rational, p1: Rational, q0: Rational, q1: Rational, grid: Grid, tol: Rational
) -> Window:
    share = tol / (2 * len(grid))
    lo = hi = Fraction(0)
    for x in grid:
        el, eu = exp_window(q0 + q1 * x, share)
        mid = (el + eu) / 2
        rad = (eu - el) / 2
        wl, wu = sin_window(p0 + p1 * x + mid, share)
        lo += wl - rad
        hi += wu + rad
    return lo, hi

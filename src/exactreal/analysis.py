"""Integration and root finding on locator-represented reals.

Each construction has an explicit error bound; the two root finders are
Cauchy limits handed to arith.limit with a convergence modulus:

* integrate: one midpoint Riemann sum per query or window.  A uniform
  continuity modulus for the integrand turns a width into a fine enough mesh.
* approx_ivt: points where |f| < eps.  Interval halving cannot decide
  the sign of f at a midpoint, so each step instead shifts the window
  by a damped correction computed from f by lifted arithmetic; the
  window widths halve exactly and the centres converge.
* exact_ivt: actual roots of locally nonconstant functions, by
  trisection steered with rational sign witnesses from
  nonconstant_search.

Endpoints may be given as rationals or as locator reals.  Integration
takes its sample grids from rational brackets of locator endpoints, so
both kinds cost about the same.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from exactreal.arith import (
    RealMap,
    Sign,
    absolute,
    add,
    from_windows,
    limit,
    maximum,
    minimum,
    mul,
    probe_sign,
    scalar_mul,
    sub,
)
from exactreal.core import (
    CReal,
    SearchExhausted,
    Side,
    archimedean_midpoint,
    bounded_search,
    from_rational,
    get_search_cap,
    note_window,
    once,
    round_out,
    tight_bound,
    upper_bound,
)
from exactreal.enclosures import Grid, Window
from exactreal.rational import (
    Rational,
    RationalLike,
    as_rational,
    cantor_decode,
    require_positive,
    unit_rational,
)

# A uniform continuity modulus: |x - y| < modulus(eps) implies
# |f(x) - f(y)| < eps on the domain of interest.
UniformModulus = Callable[[RationalLike], Rational]

Endpoint = Union[CReal, RationalLike]


def _as_real(value: Endpoint) -> CReal:
    return value if isinstance(value, CReal) else from_rational(value)


def _exact(value: Endpoint) -> Optional[Rational]:
    return value.exact if isinstance(value, CReal) else as_rational(value)


def _sum_enclosure(f: RealMap, grid: Grid) -> Callable[[Rational], Window]:
    """Windows of width at most tol = 2*eps around step * (sum of f over the grid).

    One comes from f.sum_enclosure or else per point: a value carrying
    `exact` adds the cell of a grid of width tol/(step*count) holding it,
    any other a tight bound that narrow (small grids only).
    """
    values: dict[Rational, CReal] = {}

    def enclose(eps: Rational) -> Window:
        tol = 2 * eps
        if f.sum_enclosure is not None:
            lo, hi = f.sum_enclosure(grid, tol / grid.step)
            return grid.step * lo, grid.step * hi
        lo = hi = Fraction(0)
        slack = tol / (grid.step * grid.count)
        for point in grid:
            if point not in values:
                values[point] = f.apply(from_rational(point))
            value = values[point]
            if value.exact is not None:
                # Rounded outward to the slack grid: exact sums of values
                # like 1/(1 + t*t) grow their denominators point by point.
                k = value.exact // slack
                lo, hi = lo + k * slack, hi + (k + 1) * slack
                continue
            piece = tight_bound(value, slack)
            lo += piece.lo
            hi += piece.hi
        return grid.step * lo, grid.step * hi

    return enclose


def _grid_sum(f: RealMap, grid: Grid) -> CReal:
    """The real of _sum_enclosure: a query (q, r) is decided by its first window,
    at eps = (r - q)/4.  With a hook, answers depend on (q, r) alone."""
    return from_windows(_sum_enclosure(f, grid), f"sum/{grid.count}")


def integrate(f: RealMap, a: Endpoint, b: Endpoint) -> CReal:
    """The integral of f over [a, b] as a real with a window.  Caller asserts a <= b.

    Query (q, r) asks a midpoint sum within err = (r - q)/4 of the integral
    about (q + err, r - err).  window(w) encloses one within err = 5w/16 at
    width w/8, widens that by err and rounds outward onto grid_bits(w).
    The sum runs over n = floor(L/(2 mesh)) + 1 cells of a rational
    [start, stop] of length L inside [a, b], with mesh = f.modulus(e/L):
    each point of a cell lies within h/2 < mesh of its midpoint, so the sum
    is within e of the integral over [start, stop].  With both ends exact,
    [start, stop] is [a, b] and e = err.  Otherwise e = err/2: a locator end
    is replaced by the inner end of its tight bound of width err/(4M), where
    M bounds |f| on [a, b] (|f(a)| plus one for each step of length
    f.modulus(1) across it), so the two cut-off ends add less than err/2;
    when stop <= start the sum is 0 and the integral is below err/2.  Sums
    are kept per grid, windows per width.  Raises ValueError when f
    carries no continuity modulus.
    """
    if f.modulus is None:
        raise ValueError("integration needs a uniform continuity modulus")
    a_exact, b_exact = _exact(a), _exact(b)
    if a_exact is not None and b_exact is not None:
        if b_exact < a_exact:
            raise ValueError("integration interval is reversed")
        if b_exact == a_exact:
            return from_rational(0)

    def measure() -> Rational:
        x = _as_real(a)
        span = upper_bound(sub(_as_real(b), x))
        step = require_positive(f.modulus(1), "modulus value")
        return upper_bound(absolute(f.apply(x))) + span // step + 1

    size = once(measure)
    sums: dict[Grid, CReal] = {}
    windows: dict[Rational, Window] = {}

    def grid_within(err: Rational) -> Optional[Grid]:  # None for the zero sum
        e, start, stop = err, a_exact, b_exact
        if start is None or stop is None:
            cut, e = err / (4 * size()), err / 2
            if start is None:
                start = tight_bound(a, cut).hi
            if stop is None:
                stop = tight_bound(b, cut).lo
            if stop <= start:
                return None
        length = stop - start
        mesh = require_positive(f.modulus(e / length), "modulus value")
        n = length // (2 * mesh) + 1
        return Grid(start + length / (2 * n), length / n, n)

    def decide(q: Rational, r: Rational) -> Side:
        err = (r - q) / 4
        grid = grid_within(err)
        if grid is None:
            return Side.RIGHT if q + err < 0 else Side.LEFT
        if grid not in sums:
            # decide runs outside the real's lock; the first sum stored wins.
            sums.setdefault(grid, _grid_sum(f, grid))
        return sums[grid].locate(q + err, r - err)

    def window(w: Rational) -> Window:
        if w not in windows:
            note_window()
            err = 5 * w / 16
            grid = grid_within(err)
            lo, hi = (0, 0) if grid is None else _sum_enclosure(f, grid)(w / 16)
            windows.setdefault(w, round_out(lo - err, hi + err, w))
        return windows[w]

    real = CReal(decide, name="integral")
    real.window = window
    return real


def approx_ivt(f: RealMap, a: Endpoint, b: Endpoint, eps: RationalLike) -> CReal:
    """A locator real x in [a, b] with |f(x)| <= eps (strictly below in tests).

    Caller asserts f(a) <= 0 <= f(b) and a < b; f needs no modulus.  No
    sign of f is ever decided: each round moves both window ends left by
    a share of the half-width, the share clamped to [0, 1],

        c_n = (z_n + w_n) / 2
        d_n = max(0, min(1/2 + f(c_n)/eps, 1))
        z_{n+1} = c_n - d_n (b - a) / 2^(n+1)
        w_{n+1} = w_n - d_n (b - a) / 2^(n+1),

    all by lifted arithmetic.  The window width halves exactly each round
    whatever d_n is, the windows nest, and a sign change of f + [-eps, eps]
    survives at the ends, so the centres converge to a point where |f|
    cannot exceed eps.  Convergence modulus: |c_m - c_n| < B/2^n for a
    rational bound B on b - a.
    """
    eps = require_positive(eps, "eps")
    x0, y0 = _as_real(a), _as_real(b)
    span = sub(y0, x0)
    zero, one, half = from_rational(0), from_rational(1), from_rational(Fraction(1, 2))
    lows, highs, centres = [x0], [y0], []
    lock = threading.Lock()

    def centre(n: int) -> CReal:
        with lock:
            while len(centres) <= n:
                k = len(centres)
                c = scalar_mul(Fraction(1, 2), add(lows[k], highs[k]))
                share = maximum(
                    zero, minimum(add(half, scalar_mul(1 / eps, f.apply(c))), one)
                )
                # The dyadic factor must stay outside the product: queries
                # through scalar_mul widen by its reciprocal, so deep rounds
                # are only ever asked coarse questions about share.  Folding
                # 2^-(k+1) into the multiplicand instead leaves the product
                # demanding full precision of every round below it, and the
                # 1/eps amplifier inside share then compounds per round.
                pull = scalar_mul(Fraction(1, 2 ** (k + 1)), mul(share, span))
                lows.append(sub(c, pull))
                highs.append(sub(highs[k], pull))
                centres.append(c)
            return centres[n]

    magnitude = once(lambda: upper_bound(span))

    def modulus(tol: RationalLike) -> int:
        return geometric_modulus(magnitude(), Fraction(1, 2), tol)

    return limit(centre, modulus, name="near-root")


def geometric_modulus(bound: Rational, ratio: Rational, eps: RationalLike) -> int:
    """Least n with bound * ratio^n < eps, over integers as in core.decimal_modulus.

    With bound = a/b, ratio = s/t and eps = c/d the test is a d s^n < c b t^n.
    """
    eps = require_positive(eps, "eps")
    left, right = bound.numerator * eps.denominator, eps.numerator * bound.denominator
    s, t = ratio.numerator, ratio.denominator
    return bounded_search(lambda n: left * s**n < right * t**n)


@dataclass(frozen=True)
class NonzeroWitness:
    """Certificate that f(point) - target is bounded away from zero.

    POSITIVE asserts f(point) - target > gap; NEGATIVE asserts it is
    below -gap.
    """

    point: Rational
    gap: Rational
    sign: Sign

    def __post_init__(self) -> None:
        require_positive(self.gap, "gap")


def nonconstant_search(
    f: RealMap,
    lo: RationalLike,
    hi: RationalLike,
    target: Endpoint,
    cap: Optional[int] = None,
) -> NonzeroWitness:
    """A rational point in (lo, hi) where f is provably apart from target.

    Walks Cantor pair codes up to the cap: code -> (i, j) tries the i-th
    rational of (lo, hi) under the fixed unit-interval enumeration with
    gap 10^-j, asking probe_sign about f(point) - target.  Any hit is
    sound whether or not it was forced: RIGHT to (gap, 2*gap) certifies
    the difference exceeds gap, LEFT to (-2*gap, -gap) that it is below
    -gap.  If f is continuous and not constantly equal to target on
    (lo, hi), some pair (i, j) makes a query forced, so the scan
    terminates.  Deterministic: same map, same witness.  A difference
    carrying `exact` (a polynomial at a rational point) is decided by
    integer comparison, with the answers of its from_rational locator.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    span = hi - lo
    goal = _as_real(target)
    budget = cap if cap is not None else get_search_cap()
    diffs: dict[int, tuple[Rational, CReal]] = {}  # point index -> point, difference
    for code in range(budget):
        i, j = cantor_decode(code)
        if i not in diffs:
            point = lo + span * unit_rational(i)
            diffs[i] = point, sub(f.apply(from_rational(point)), goal)
        point, diff = diffs[i]
        sign = probe_sign(diff, j)
        if sign is not None:
            return NonzeroWitness(point, Fraction(1, 10**j), sign)
    raise SearchExhausted(
        f"no sign witness for {f.name} on ({lo}, {hi}); is the map nonconstant there?"
    )


def exact_ivt(f: RealMap, a: Endpoint, b: Endpoint) -> CReal:
    """A locator real where f vanishes.  Caller asserts f(a) <= 0 <= f(b),
    a < b, and that f is continuous, lifts locators, and is locally
    nonconstant: no proper subinterval has f identically zero.

    Each round takes two rationals low < high inside the middle third of
    the current interval and asks nonconstant_search for a sign witness
    in (low, high).  Between rational ends they are the middle third's
    centre and the midpoint from there to its right end; a locator end
    needs archimedean_midpoint on the lifted cuts.  A positive witness q
    becomes the new right end: the ends still satisfy f(a_n) <= 0 <= f(b_n).
    A negative witness becomes the new left end, likewise.  A root survives
    in every interval, and widths shrink below B * (2/3)^n, which is the
    convergence modulus of the left ends.
    """
    x0, y0 = _as_real(a), _as_real(b)
    zero = from_rational(0)
    rounds: list[tuple[CReal, CReal]] = [(x0, y0)]
    lock = threading.Lock()

    def left_end(n: int) -> CReal:
        with lock:
            while len(rounds) <= n:
                low_real, high_real = rounds[-1]
                u, v = low_real.exact, high_real.exact
                if u is not None and v is not None:
                    low, high = (u + v) / 2, (5 * u + 7 * v) / 12
                else:
                    cut_l = add(
                        scalar_mul(Fraction(2, 3), low_real),
                        scalar_mul(Fraction(1, 3), high_real),
                    )
                    cut_r = add(
                        scalar_mul(Fraction(1, 3), low_real),
                        scalar_mul(Fraction(2, 3), high_real),
                    )
                    low = archimedean_midpoint(cut_l, cut_r)
                    high = archimedean_midpoint(from_rational(low), cut_r)
                witness = nonconstant_search(f, low, high, zero)
                if witness.sign is Sign.POSITIVE:
                    rounds.append((low_real, from_rational(witness.point)))
                else:
                    rounds.append((from_rational(witness.point), high_real))
            return rounds[n][0]

    magnitude = once(lambda: upper_bound(sub(y0, x0)))

    def modulus(eps: RationalLike) -> int:
        return geometric_modulus(magnitude(), Fraction(2, 3), eps)

    return limit(left_end, modulus, name="root")

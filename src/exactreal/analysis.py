"""Integration and root finding on locator-represented reals.

Each construction here is a Cauchy limit handed to arith.limit with an
explicit modulus:

* integrate: left-endpoint Riemann sums.  A uniform continuity modulus
  for the integrand converts mesh size into a convergence modulus.
* approx_ivt: points where |f| < eps.  Interval halving cannot decide
  the sign of f at a midpoint, so each step instead shifts the window
  by a damped correction computed from f by lifted arithmetic; the
  window widths halve exactly and the centres converge.
* exact_ivt: actual roots of locally nonconstant functions, by
  trisection steered with rational sign witnesses from
  nonconstant_search.

Endpoints may be given as rationals or as locator reals.  Integration
is far cheaper on rational endpoints, where the sample grid stays exact
and sums are enclosed without building one locator per grid point.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

from exactreal.arith import (
    RealMap,
    Sign,
    add,
    limit,
    maximum,
    minimum,
    mul,
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
    tight_bound,
    upper_bound,
)
from exactreal.enclosures import Window
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


def _grid_sum(f: RealMap, grid: Grid) -> CReal:
    """step * (sum of f over the grid), answered from exact rational enclosures.

    Query (q, r) reads an enclosure of the sum narrower than tol = (r - q)/2,
    from f.sum_enclosure or else per-point tight bounds (small grids only).
    Enclosures are kept per exact tol, so the same-width queries of a
    tight_bound scan share one; with a hook, answers depend on (q, r) alone.
    """
    values: dict[Rational, CReal] = {}
    windows: dict[Rational, Window] = {}

    def enclose(tol: Rational) -> Window:
        if f.sum_enclosure is not None:
            return f.sum_enclosure(grid, tol / grid.step)
        lo = hi = Fraction(0)
        slack = tol / (grid.step * grid.count)
        for point in grid:
            if point not in values:
                values[point] = f.apply(from_rational(point))
            piece = tight_bound(values[point], slack)
            lo += piece.lo
            hi += piece.hi
        return lo, hi

    def decide(q: Rational, r: Rational) -> Side:
        tol = (r - q) / 2
        window = windows.get(tol)
        if window is None:
            # decide runs outside the real's lock; the first window stored wins.
            window = windows.setdefault(tol, enclose(tol))
        return Side.RIGHT if q < grid.step * window[0] else Side.LEFT

    return CReal(decide, name=f"sum/{grid.count}")


def _lifted_sum(f: RealMap, a: CReal, span: CReal, n: int) -> CReal:
    """(span/n) * sum of f at the n left endpoints, as a tree of lifted ops."""
    values = [f.apply(add(a, scalar_mul(Fraction(k, n), span))) for k in range(n)]
    while len(values) > 1:
        paired = [add(values[i], values[i + 1]) for i in range(0, len(values) - 1, 2)]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return mul(scalar_mul(Fraction(1, n), span), values[0])


def integrate(f: RealMap, a: Endpoint, b: Endpoint) -> CReal:
    """The integral of f over [a, b] as a locator real.  Caller asserts a <= b.

    Left-endpoint Riemann sums S_n converge to the integral: with B a
    rational bound on b - a (exact for rational endpoints), a mesh at most
    f.modulus(eps/(4B)) puts S_n within eps/4 of the integral, so members
    from index B/modulus(eps/(4B)) on are pairwise within eps/2.  Raises
    ValueError when f carries no continuity modulus.

    Rational endpoints get the exact-grid members from _grid_sum; locator
    endpoints fall back to _lifted_sum, practical only for coarse meshes.
    """
    if f.modulus is None:
        raise ValueError("integration needs a uniform continuity modulus")
    exact = not isinstance(a, CReal) and not isinstance(b, CReal)
    if exact:
        a_rat, b_rat = as_rational(a), as_rational(b)
        if b_rat < a_rat:
            raise ValueError("integration interval is reversed")
        if b_rat == a_rat:
            return from_rational(0)
    x, y = _as_real(a), _as_real(b)
    span = sub(y, x)
    cache: dict[str, Rational] = {}
    lock = threading.Lock()

    def magnitude() -> Rational:
        if exact:
            return b_rat - a_rat
        with lock:
            if "B" not in cache:
                cache["B"] = upper_bound(span)
            return cache["B"]

    def member(n: int) -> CReal:
        if exact:
            return _grid_sum(f, Grid(a_rat, (b_rat - a_rat) / n, n))
        return _lifted_sum(f, x, span, n)

    def modulus(eps: RationalLike) -> int:
        eps = require_positive(eps, "eps")
        bound = magnitude()
        mesh = require_positive(f.modulus(eps / (4 * bound)), "modulus value")
        return math.ceil(bound / mesh)

    return limit(member, modulus, name="integral")


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
    cache: dict[str, Rational] = {}
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

    def magnitude() -> Rational:
        with lock:
            if "B" not in cache:
                cache["B"] = upper_bound(span)
            return cache["B"]

    def modulus(tol: RationalLike) -> int:
        tol = require_positive(tol, "eps")
        bound = magnitude()
        return bounded_search(lambda n: bound < tol * 2**n)

    return limit(centre, modulus, name="near-root")


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

    Enumerates Cantor pair codes: code -> (i, j) tries the i-th rational
    of (lo, hi) under the fixed unit-interval enumeration with gap 10^-j,
    asking f(point) - target the queries (gap, 2*gap) and (-2*gap, -gap).
    Any hit is sound whether or not it was forced: RIGHT on the first
    certifies the difference exceeds gap, LEFT on the second that it is
    below -gap.  If f is continuous and not constantly equal to target on
    (lo, hi), some pair (i, j) makes a query forced, so the scan
    terminates.  Deterministic: same map, same witness.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    span = hi - lo
    goal = _as_real(target)
    diffs: dict[Rational, CReal] = {}
    found: list[NonzeroWitness] = []

    def probe(code: int) -> bool:
        i, j = cantor_decode(code)
        point = lo + span * unit_rational(i)
        diff = diffs.get(point)
        if diff is None:
            diff = sub(f.apply(from_rational(point)), goal)
            diffs[point] = diff
        gap = Fraction(1, 10**j)
        if diff.locates_right(gap, 2 * gap):
            found.append(NonzeroWitness(point, gap, Sign.POSITIVE))
        elif diff.locates_left(-2 * gap, -gap):
            found.append(NonzeroWitness(point, gap, Sign.NEGATIVE))
        return bool(found)

    try:
        bounded_search(probe, cap)
    except SearchExhausted:
        raise SearchExhausted(
            f"no sign witness for {f.name} on ({lo}, {hi}); "
            "is the map nonconstant there?"
        ) from None
    return found[0]


def exact_ivt(f: RealMap, a: Endpoint, b: Endpoint) -> CReal:
    """A locator real where f vanishes.  Caller asserts f(a) <= 0 <= f(b),
    a < b, and that f is continuous, lifts locators, and is locally
    nonconstant: no proper subinterval has f identically zero.

    Each round takes two rationals low < high inside the middle third of
    the current interval and asks nonconstant_search for a sign witness
    in (low, high).  A positive witness q becomes the new right end: the
    ends still satisfy f(a_n) <= 0 <= f(b_n).  A negative witness becomes
    the new left end, likewise.  A root survives in every interval, the
    ends are rational after round one, and widths shrink below
    B * (2/3)^n, which is the convergence modulus of the left ends.
    """
    x0, y0 = _as_real(a), _as_real(b)
    zero = from_rational(0)
    rounds: list[tuple[CReal, CReal]] = [(x0, y0)]
    cache: dict[str, Rational] = {}
    lock = threading.Lock()

    def left_end(n: int) -> CReal:
        with lock:
            while len(rounds) <= n:
                low_real, high_real = rounds[-1]
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

    def magnitude() -> Rational:
        with lock:
            if "B" not in cache:
                cache["B"] = upper_bound(sub(y0, x0))
            return cache["B"]

    def modulus(eps: RationalLike) -> int:
        eps = require_positive(eps, "eps")
        bound = magnitude()
        return bounded_search(lambda n: bound * 2**n < eps * 3**n)

    return limit(left_end, modulus, name="root")

"""Arithmetic on locator-represented reals.

Each operation builds the locator for the result out of locator queries on
the operands, so values stay exact and nothing is evaluated until someone
asks the result a question.  Negation, min, max, and rational scaling
transform single queries; addition and multiplication first pin the
operands into brackets just tight enough that one side of the query becomes
certain.  Limits of Cauchy sequences (given a modulus) close the system.
exp, sin and cos (and e = exp(1)) answer each query from rational series
windows at a rational argument or over a bracket of any other; arctan of a
rational and pi (Machin's formula) from windows of the arctan series.

Rational operands fold.  When every operand carries `exact` (it was built
by from_rational), neg, recip, min and max return from_rational of the
exact result, and so do abs and sub, which are built from them and add.
add, scalar_mul and mul fold only while the result's numerator and
denominator fit in _FOLD_BITS bits: an iteration in exact arithmetic
(a cubic update round after round) would otherwise grow its rationals
without bound, where the lifted node only ever answers coarse queries.
Anything else builds the lifted node; exp, sin and cos read a rational
at the point, so they search no bracket.

When every operand of neg, add, scalar_mul, mul or recip has a window
(from_windows reals) or is rational (a window of width 0), the node is a
from_windows real computed from the operands' windows: one window per tree
level, no bracket search.  Plain locator operands keep the paper's nodes.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from exactreal.core import (
    CReal,
    SearchExhausted,
    Side,
    from_rational,
    get_search_cap,
    note_window,
    once,
    round_out,
    tight_bound,
)
from exactreal.enclosures import Window, WindowFn, cos_window, exp_window, sin_window
from exactreal.rational import Rational, RationalLike, as_rational, require_positive

# M(eps) = N promises |seq(m) - seq(n)| < eps for all m, n >= N.
CauchyModulus = Callable[[RationalLike], int]


class Sign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class ApartnessWitness:
    """Certificate that a real is bounded away from zero.

    POSITIVE asserts x > gap; NEGATIVE asserts x < -gap.
    """

    sign: Sign
    gap: Rational

    def __post_init__(self) -> None:
        require_positive(self.gap, "gap")


@dataclass(frozen=True)
class RealMap:
    """A real function packaged with its lifting action on locators.

    apply must be extensional: operand locators for the same real must
    yield locators for the same image.  modulus, when present, is a uniform
    continuity modulus on the map's intended domain: |x - y| < modulus(eps)
    implies |f(x) - f(y)| < eps; integration requires it.  sum_enclosure,
    when present, takes a finite sequence of rational sample points (it
    supports len, indexing, and iteration; in practice an arithmetic grid)
    and a positive tolerance, and returns exact rationals (lo, hi) with
    lo <= sum f(t_i) <= hi and hi - lo <= tolerance; it exists so grid-heavy
    consumers can skip per-point locator queries.
    """

    apply: Callable[[CReal], CReal]
    modulus: Optional[Callable[[RationalLike], Rational]] = None
    sum_enclosure: Optional[Callable[[Sequence, RationalLike], tuple]] = None
    name: str = "map"


def lift(f: RealMap, x: CReal) -> CReal:
    return f.apply(x)


# Folded values peak at 109 bits on the sqrt 2 root to 7 digits and stay
# below that on the other benchmark roots and integrals.  The bound leaves
# room for those and stops iterations whose sizes multiply each round.
_FOLD_BITS = 1024


def _fits(value: Rational) -> bool:
    return max(value.numerator.bit_length(), value.denominator.bit_length()) <= _FOLD_BITS


def _flip(side: Side) -> Side:
    return Side.LEFT if side is Side.RIGHT else Side.RIGHT


def _clip(label: str, limit: int = 32) -> str:
    # Compound names are trace labels, not identities.  Unclipped, deeply
    # recursive constructions (limits of sequences defined by earlier
    # members) would build names of exponential length.
    if len(label) <= limit:
        return label
    return label[:14] + "..." + label[-14:]


def _window(x: CReal) -> Optional[Callable[[Rational], Window]]:
    """x's window function, (c, c) for a rational c, None for a plain locator."""
    c = x.exact
    return x.window if c is None else lambda eps: (c, c)


def _bracketing(x: CReal) -> Callable[[Rational], Window]:
    """The ends of x's tight_bound brackets, as a window function."""

    def enclose(eps: Rational) -> Window:
        b = tight_bound(x, eps)
        return b.lo, b.hi

    return enclose


def _scaled(w: Callable[[Rational], Window], c: Rational) -> Callable[[Rational], Window]:
    """The window function of c times a real with window function w."""

    def enclose(eps: Rational) -> Window:
        lo, hi = w(eps / abs(c))
        return (c * lo, c * hi) if c > 0 else (c * hi, c * lo)

    return enclose


def _scale(c: Rational, x: CReal, prefix: str) -> CReal:
    """c * x for rational c != 0: the constant folds into the query, or scales x's window."""
    if x.exact is not None:
        value = c * x.exact
        if _fits(value):
            return from_rational(value)
    name = f"({prefix}{_clip(x.name)})"
    w = _window(x)
    if w is not None:
        return from_windows(_scaled(w, c), name)

    def decide(q: Rational, r: Rational) -> Side:
        return x.locate(q / c, r / c) if c > 0 else _flip(x.locate(r / c, q / c))

    return CReal(decide, name=name)


def neg(x: CReal) -> CReal:
    """-x: reflect the query and flip the answer, or negate x's window."""
    return _scale(Fraction(-1), x, "-")


def add(x: CReal, y: CReal) -> CReal:
    """x + y.

    Pin x into (u, v) with v - u < eps = (r - q)/2, then ask y about
    (q - u, q - u + eps).  RIGHT there gives x + y > u + (q - u) = q;
    LEFT gives x + y < v + (q - u) + eps < q + 2*eps = r.  When both
    operands have windows, the sum's window at eps adds theirs at eps/2.
    When one has a window [lo, hi] at (r - q)/2 (a rational c has [c, c]),
    the other answers (q - lo, r - hi): for a rational, a translation.
    """
    if x.exact is not None and y.exact is not None:
        value = x.exact + y.exact
        if _fits(value):
            return from_rational(value)
    name = f"({_clip(x.name)}+{_clip(y.name)})"
    wx, wy = _window(x), _window(y)
    if wx is not None and wy is not None:
        return from_windows(lambda eps: tuple(map(sum, zip(wx(eps / 2), wy(eps / 2)))), name)
    if wx is not None or wy is not None:
        w, other = (wx, y) if wx is not None else (wy, x)

        def shifted(q: Rational, r: Rational) -> Side:
            lo, hi = w((r - q) / 2)
            return other.locate(q - lo, r - hi)

        return CReal(shifted, name=name)

    def decide(q: Rational, r: Rational) -> Side:
        eps = (r - q) / 2
        u = tight_bound(x, eps).lo
        s = q - u
        return y.locate(s, s + eps)

    return CReal(decide, name=name)


def sub(x: CReal, y: CReal) -> CReal:
    return add(x, neg(y))


def minimum(x: CReal, y: CReal) -> CReal:
    """min(x, y): below r as soon as either operand is; above q if both are."""
    if x.exact is not None and y.exact is not None:
        return from_rational(min(x.exact, y.exact))

    def decide(q: Rational, r: Rational) -> Side:
        if x.locate(q, r) is Side.LEFT:
            return Side.LEFT
        return y.locate(q, r)

    return CReal(decide, name=f"min({_clip(x.name)},{_clip(y.name)})")


def maximum(x: CReal, y: CReal) -> CReal:
    if x.exact is not None and y.exact is not None:
        return from_rational(max(x.exact, y.exact))

    def decide(q: Rational, r: Rational) -> Side:
        if x.locate(q, r) is Side.RIGHT:
            return Side.RIGHT
        return y.locate(q, r)

    return CReal(decide, name=f"max({_clip(x.name)},{_clip(y.name)})")


def absolute(x: CReal) -> CReal:
    return maximum(x, neg(x))


def scalar_mul(c: RationalLike, x: CReal) -> CReal:
    """c * x for rational c."""
    c = as_rational(c)
    return from_rational(0) if c == 0 else _scale(c, x, f"{c}*")


def mul(x: CReal, y: CReal) -> CReal:
    """x * y.

    On the first query, fix rationals z >= |x| + 1 and w >= |y| + 1 from
    a width-1 window of each operand (a tight_bound bracket for a plain
    locator).  Per query of width eps, bracket x within eta = min(1, eps/2w)
    and y within delta = min(1, eps/2z); every corner product of the two
    brackets then sits within eps of every other, so q < min(corners) or
    max(corners) < r must hold, and the first check decides.  Operands
    with windows give the product's window at eps from theirs at eta and
    delta.
    """
    if x.exact is not None and y.exact is not None:
        value = x.exact * y.exact
        if _fits(value):
            return from_rational(value)
    name = f"({_clip(x.name)}*{_clip(y.name)})"
    wx, wy = _window(x), _window(y)
    windowed = wx is not None and wy is not None
    if not windowed:
        wx, wy = _bracketing(x), _bracketing(y)
    # |t| + 1 <= max(-lo, hi) + 1 for every t in a window [lo, hi]; rounded up
    # to an integer, so that a huge exact operand's bits stay out of eta and delta.
    one = Fraction(1)
    magnitude_bounds = once(
        lambda: tuple(Fraction(math.ceil(max(-lo, hi)) + 1) for lo, hi in (wx(one), wy(one)))
    )

    def enclose(eps: Rational) -> Window:
        z, w = magnitude_bounds()
        lx, hx = wx(min(Fraction(1), eps / (2 * w)))
        ly, hy = wy(min(Fraction(1), eps / (2 * z)))
        corners = (lx * ly, lx * hy, hx * ly, hx * hy)
        return min(corners), max(corners)

    if windowed:
        return from_windows(enclose, name)

    def decide(q: Rational, r: Rational) -> Side:
        return Side.RIGHT if q < enclose(r - q)[0] else Side.LEFT

    return CReal(decide, name=name)


def recip(x: CReal, witness: ApartnessWitness) -> CReal:
    """1/x, given a witness that x is apart from zero.

    For positive x: queries with q <= 0 answer RIGHT outright; otherwise
    0 < 1/r < 1/q, and asking x about (1/r, 1/q) decides, with the answer
    flipped since inversion reverses order.  Negative x mirrors this, the
    double sign change landing on the same flipped query.  When x has a
    window, that at eps*g^2 for the witness gap g, clamped at g (or -g),
    inverts to a window of width at most eps: both ends are beyond g.
    """
    if x.exact is not None:
        return from_rational(1 / x.exact)
    name = f"recip({_clip(x.name)})"
    positive, g, w = witness.sign is Sign.POSITIVE, witness.gap, x.window
    if w is not None:

        def enclose(eps: Rational) -> Window:
            lo, hi = w(eps * g * g)
            return 1 / (hi if positive else min(hi, -g)), 1 / (max(lo, g) if positive else lo)

        return from_windows(enclose, name)

    def decide(q: Rational, r: Rational) -> Side:
        if q <= 0 if positive else r >= 0:
            return Side.RIGHT if positive else Side.LEFT
        return _flip(x.locate(1 / r, 1 / q))

    return CReal(decide, name=name)


def probe_sign(x: CReal, j: int) -> Optional[Sign]:
    """The sign certified by the probe pair at gap g = 10^-j, if either hits.

    POSITIVE when x answers RIGHT to (g, 2g), certifying x > g; NEGATIVE
    when it answers LEFT to (-2g, -g), certifying x < -g; None when neither
    does.  A real carrying `exact` is not asked: the integer comparisons
    g < x and x <= -2g are from_rational's answers, and being true facts
    they stay sound for a locator of the same rational that concedes
    only at a finer gap.
    """
    d = x.exact
    if d is not None:
        scaled = 10**j * d.numerator
        if scaled > d.denominator:
            return Sign.POSITIVE
        return Sign.NEGATIVE if -scaled >= 2 * d.denominator else None
    g = Fraction(1, 10**j)
    if x.locates_right(g, 2 * g):
        return Sign.POSITIVE
    return Sign.NEGATIVE if x.locates_left(-2 * g, -g) else None


def find_apartness(x: CReal, cap: Optional[int] = None) -> ApartnessWitness:
    """Search for a certificate that x is apart from 0.

    Asks probe_sign at j = 0, 1, 2, ...; a sound locator must eventually
    concede a side if x really is apart from zero.  Caller asserts x != 0;
    an exact zero fails at once.
    """
    if x.exact == 0:
        raise SearchExhausted(f"no apartness witness for {x.name}: it is exactly zero")
    budget = cap if cap is not None else get_search_cap()
    for j in range(budget):
        sign = probe_sign(x, j)
        if sign is not None:
            return ApartnessWitness(sign, Fraction(1, 10**j))
    raise SearchExhausted(
        f"no apartness witness for {x.name} within {budget} refinements; is it zero?"
    )


def limit(seq: Callable[[int], CReal], modulus: CauchyModulus, name: str = "limit") -> CReal:
    """The limit of a Cauchy sequence of located reals.

    Per query (q, r): with eps = (r - q)/3, the member at M(eps/2) sits
    within eps of the limit, so its answer about (q + eps, r - eps)
    transfers.  seq(n) is called per query: a sequence whose members
    should share their memos keeps them itself.
    """

    def decide(q: Rational, r: Rational) -> Side:
        eps = (r - q) / 3
        return seq(modulus(eps / 2)).locate(q + eps, r - eps)

    return CReal(decide, name=name)


# ---------------------------------------------------------------------------
# Power series.  exp, sin and cos answer each query from the rational
# series windows of `enclosures`, arctan and pi from those of the arctan
# series.  A rational argument is read at the point; any other is
# bracketed, f is enclosed over the bracket, and both tighten until the
# enclosure is narrower than the query.  exp is monotone, so windows at
# the bracket ends enclose it; sin and cos are 1-Lipschitz, so the window
# at the midpoint padded by the bracket's half-width does.
# ---------------------------------------------------------------------------


def from_windows(enclose: Callable[[Rational], Window], name: str) -> CReal:
    """The real held by enclose(eps) = (lo, hi), a width going to 0 with eps.

    Each query (q, r) starts at eps = (r - q)/4 and divides eps by 4 until
    q < lo (RIGHT) or hi < r (LEFT).  Windows are kept per exact eps, so the
    same-width queries of a tight_bound scan share one; where a window
    depends on eps alone, every answer is a function of (q, r).

    The real's window(eps) reads enclose from eps/2, dividing by 4, until
    the width is at most 3*eps/4, then rounds the ends outward onto the
    grid 2^-k of grid_bits(eps), adding at most eps/4: dyadic ends keep
    the denominators of every window built on it small.
    """
    windows: dict[Rational, Window] = {}

    def cached(eps: Rational) -> Window:
        # Runs outside the real's lock; the first window stored wins.
        hit = windows.get(eps)
        if hit is None:
            note_window()
            hit = windows.setdefault(eps, enclose(eps))
        return hit

    def decide(q: Rational, r: Rational) -> Side:
        eps = (r - q) / 4
        while True:
            lo, hi = cached(eps)
            if q < lo:
                return Side.RIGHT
            if hi < r:
                return Side.LEFT
            eps /= 4

    def window(eps: Rational) -> Window:
        tol = eps / 2
        lo, hi = cached(tol)
        while 4 * (hi - lo) > 3 * eps:
            tol /= 4
            lo, hi = cached(tol)
        return round_out(lo, hi, eps)

    real = CReal(decide, name=name)
    real.window = window
    return real


def _window_real(x: CReal, window: WindowFn, name: str, monotone: bool = False) -> CReal:
    """f(x), where window(t, eps) gives rationals lo <= f(t) <= hi, hi - lo <= eps."""

    def enclose(eps: Rational) -> Window:
        if x.exact is not None:
            return window(x.exact, eps)
        b = tight_bound(x, eps)
        if monotone:
            return window(b.lo, eps)[0], window(b.hi, eps)[1]
        lo, hi = window(b.midpoint, eps)
        return lo - b.width / 2, hi + b.width / 2

    return from_windows(enclose, name)


def exp(x: CReal) -> CReal:
    """e^x, enclosed by series windows at the ends of a bracket of x."""
    return _window_real(x, exp_window, f"exp({_clip(x.name)})", monotone=True)


def sin(x: CReal) -> CReal:
    """sin x, the series window at a bracket's midpoint padded by its radius."""
    return _window_real(x, sin_window, f"sin({_clip(x.name)})")


def cos(x: CReal) -> CReal:
    return _window_real(x, cos_window, f"cos({_clip(x.name)})")


def _arctan_modulus(q: Rational, eps: RationalLike) -> int:
    """Least n with |q|^(2n+3)/(2n+3) < eps: the first term that partial sum n omits.

    With |q| = a/b and eps = c/d the test is a^(2n+3) d < c b^(2n+3) (2n+3)
    over integers, monotone in n.  The exact test decides; a float estimate
    of n only picks the start: bisect below it if it passes there, else
    gallop up with doubling steps and bisect.  Two tests when the estimate
    is right, O(log n) at worst, and always the least n below the cap.
    """
    eps = require_positive(eps, "eps")
    a, b = abs(q.numerator), q.denominator

    def passes(n: int) -> bool:
        k = 2 * n + 3
        return a**k * eps.denominator < eps.numerator * b**k * k

    last = get_search_cap() - 1
    fail, hit, step = -1, 0, 1
    if a:
        # Fixed-point steps on k log(b/a) + log k = log(d/c), k = 2n + 3.
        rate = math.log(b) - math.log(a)
        goal = math.log(eps.denominator) - math.log(eps.numerator)
        k = goal / rate
        for _ in range(2):
            k = (goal - math.log(max(k, 1))) / rate
        start = min(max(math.ceil((k - 3) / 2), 0), last)
        if start and passes(start - 1):
            hit = start - 1
        elif start:
            fail, hit = start - 1, start
    while not passes(hit):
        if hit == last:
            raise SearchExhausted("arctan tail bound not reached under cap")
        fail, hit, step = hit, min(hit + step, last), 2 * step
    while hit - fail > 1:
        mid = (fail + hit) // 2
        fail, hit = (fail, mid) if passes(mid) else (mid, hit)
    return hit


def _arctan_window(q: Rational) -> Callable[[Rational], Window]:
    """eps -> partial sum n = _arctan_modulus(q, eps/2) of arctan q, +- the next term.

    For q = a/b, partial sum k is num/den, den = b^(2k+1) (2k+1)!!, reduced once per
    window, not per term: near |q| = 1 a window sums thousands of terms of ~10^5 bits.
    """
    a, b = q.numerator, q.denominator
    state = (0, a, b, a)  # k, num, den, a^(2k+1) (2k-1)!!
    lock = threading.Lock()

    def enclose(eps: Rational) -> Window:
        nonlocal state
        n = _arctan_modulus(q, eps / 2)
        with lock:
            k, num, den, term = state if state[0] <= n else (0, a, b, a)
            for k in range(k + 1, n + 1):
                term *= a * a * (2 * k - 1)
                num, den = num * b * b * (2 * k + 1) + (-1) ** k * term, den * b * b * (2 * k + 1)
            state = max(state, (n, num, den, term))
        total, tail = Fraction(num, den), abs(q) ** (2 * n + 3) / (2 * n + 3)
        return total - tail, total + tail

    return enclose


def arctan_rational(q: RationalLike) -> CReal:
    """arctan q for rational |q| < 1, from windows of its alternating series."""
    q = as_rational(q)
    if not abs(q) < 1:
        raise ValueError(f"arctan series needs |q| < 1, got {q}")
    return from_windows(_arctan_window(q), f"arctan({q})")


def pi() -> CReal:
    """16 arctan(1/5) - 4 arctan(1/239).  A fresh locator per call.

    The arctan windows get eps/32 and eps/8, so the scaled widths sum to at most eps.
    """
    five, big = _arctan_window(Fraction(1, 5)), _arctan_window(Fraction(1, 239))

    def enclose(eps: Rational) -> Window:
        (lo5, hi5), (lo239, hi239) = five(eps / 32), big(eps / 8)
        return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239

    return from_windows(enclose, "pi")


def e() -> CReal:
    return exp(from_rational(1))

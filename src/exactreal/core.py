"""Locators for real numbers and the searches that extract bounds from them.

A locator for a real x answers any query (q, r) with q < r by committing to
one of two overlapping truths: RIGHT means q < x, LEFT means x < r.  Both may
hold; the locator picks one, deterministically.  When only one holds, a sound
locator has no choice, and that forced case is what every oracle test and
every construction in this module leans on.

Every search scans a fixed sequence of probes (dyadic magnitudes, grid
cells, decimal gaps) under a configurable iteration cap, so a false
existence claim by the caller surfaces as a SearchExhausted error instead
of a hang.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, TypeVar

from exactreal.rational import (
    Ordering,
    Rational,
    RationalLike,
    as_rational,
    require_positive,
    trichotomy,
)

import enum


class Side(enum.Enum):
    """Answer to a locator query (q, r): which truth the locator commits to."""

    RIGHT = "right"  # asserts q < x
    LEFT = "left"  # asserts x < r


class CotransResult(enum.Enum):
    X_BELOW_S = "x<s"
    S_BELOW_Y = "s<y"


class SearchExhausted(Exception):
    """A bounded search ran out of budget.

    Either the caller's existence assertion is false or the cap is too small.
    """


@dataclass(frozen=True)
class Bracket:
    lo: Rational
    hi: Rational

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Rational:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Rational:
        return (self.lo + self.hi) / 2


_DEFAULT_CAP = 10**6
_cap = _DEFAULT_CAP
_cap_lock = threading.Lock()


def get_search_cap() -> int:
    return _cap


def set_search_cap(cap: int) -> None:
    global _cap
    if not isinstance(cap, int) or cap <= 0:
        raise ValueError(f"search cap must be a positive integer, got {cap!r}")
    with _cap_lock:
        _cap = cap


TraceHook = Callable[[str, Rational, Rational, Side], None]

_trace_hook: Optional[TraceHook] = None
_eval_count = 0
_eval_lock = threading.Lock()


def set_trace_hook(hook: Optional[TraceHook]) -> None:
    """Install a callback fired on every underlying locator evaluation."""
    global _trace_hook
    _trace_hook = hook


def evaluation_count() -> int:
    """Total locator evaluations (cache misses) since process start."""
    return _eval_count


def _note_evaluation(real: "CReal", q: Rational, r: Rational, side: Side) -> None:
    global _eval_count
    with _eval_lock:
        _eval_count += 1
    hook = _trace_hook
    if hook is not None:
        hook(real.name, q, r, side)


class CReal:
    """A real number represented by a locator.

    Wraps the deciding function with a synchronized memo of answered queries
    plus the tightest bracket implied by those answers: every RIGHT at (q, r)
    certifies q < x and every LEFT certifies x < r, so the cache tightens for
    free as a side effect of use.  Shareable across threads.  The memo is keyed
    on the reduced numerators and denominators of q and r, which name the same
    queries and hash without the modular inverse Fraction.__hash__ computes.

    `exact` is the value itself when the real was built by from_rational
    (and None otherwise).  The searches in this module never read it: they
    are the paper's extraction algorithms and run the same on every
    locator.  Constructions read it to skip searches on rationals: `arith`
    folds rational operands, shifts sums by one, reads exp, sin and cos at
    one, and answers the sign probes of both witness searches on one by
    integer comparison (probe_sign); `analysis` splits between rational
    root ends and adds rational grid values without a search.
    `window`, set by `arith.from_windows`, gives closed dyadic bounds
    lo <= x <= hi with hi - lo <= eps at any eps.  A rational real keeps
    its tag as `_name` and formats its value into `name` on each read:
    most rational reals are never named.
    """

    __slots__ = ("_decide", "_name", "_lock", "_answers", "_lo", "_hi", "_evals", "_exact",
                 "window")

    def __init__(self, decide: Callable[[Rational, Rational], Side], name: str = "real"):
        self._decide = decide
        self._name = name
        self._lock = threading.RLock()
        self._answers: dict[tuple[int, int, int, int], Side] = {}
        self._lo: Optional[Rational] = None
        self._hi: Optional[Rational] = None
        self._evals = 0
        self._exact: Optional[Rational] = None
        self.window: Optional[Callable[[Rational], tuple[Rational, Rational]]] = None

    @property
    def name(self) -> str:
        s = self._exact
        return self._name if s is None else f"{self._name}({_rational_label(s)})"

    @property
    def exact(self) -> Optional[Rational]:
        """The rational value of a from_rational locator, else None."""
        return self._exact

    def locate(self, q: RationalLike, r: RationalLike) -> Side:
        q = as_rational(q)
        r = as_rational(r)
        if not q < r:
            raise ValueError(f"locate requires q < r, got q={q}, r={r}")
        key = (q.numerator, q.denominator, r.numerator, r.denominator)
        with self._lock:
            hit = self._answers.get(key)
        if hit is not None:
            return hit
        side = self._decide(q, r)
        if side is not Side.RIGHT and side is not Side.LEFT:
            raise TypeError(f"locator for {self.name} returned {side!r}, not a Side")
        with self._lock:
            self._evals += 1
            side = self._answers.setdefault(key, side)
            if side is Side.RIGHT:
                if self._lo is None or q > self._lo:
                    self._lo = q
            else:
                if self._hi is None or r < self._hi:
                    self._hi = r
        _note_evaluation(self, q, r, side)
        return side

    def locates_right(self, q: RationalLike, r: RationalLike) -> bool:
        """True iff the locator commits to q < x on this query."""
        return self.locate(q, r) is Side.RIGHT

    def locates_left(self, q: RationalLike, r: RationalLike) -> bool:
        return self.locate(q, r) is Side.LEFT

    def known_bracket(self) -> tuple[Optional[Rational], Optional[Rational]]:
        """Tightest (lo, hi) certified by answers so far; either side may be None."""
        with self._lock:
            return self._lo, self._hi

    @property
    def query_count(self) -> int:
        """Underlying evaluations, not counting memo hits."""
        with self._lock:
            return self._evals

    def __repr__(self) -> str:
        return f"<CReal {self.name}>"


# Numbers wider than this many bits are named by their bit lengths: the
# name is a trace label, and converting a huge integer to decimal is slow
# and, past Python's int-string limit, raises.
_NAME_BITS = 128


def _rational_label(s: Rational) -> str:
    num, den = s.numerator, s.denominator
    if max(num.bit_length(), den.bit_length()) <= _NAME_BITS:
        return str(s)
    sign = "-" if num < 0 else ""
    return f"{sign}{num.bit_length()}b/{den.bit_length()}b"


def _rational_real(decide: Callable[[Rational, Rational], Side], s: Rational, tag: str) -> CReal:
    real = CReal(decide, name=tag)
    real._exact = s
    return real


def from_rational_first(s: RationalLike) -> CReal:
    """Locator for a known rational s, deciding by comparing q against s.

    If q < s then q < s < anything right of s, so answer RIGHT; otherwise
    s <= q < r gives s < r, so answer LEFT.
    """
    s = as_rational(s)

    def decide(q: Rational, r: Rational) -> Side:
        return Side.RIGHT if q < s else Side.LEFT

    return _rational_real(decide, s, "rational")


def from_rational_second(s: RationalLike) -> CReal:
    """Locator for a known rational s, deciding by comparing s against r.

    Same number, opposite bias on queries where both answers are true.
    """
    s = as_rational(s)

    def decide(q: Rational, r: Rational) -> Side:
        return Side.LEFT if s < r else Side.RIGHT

    return _rational_real(decide, s, "rational'")


from_rational = from_rational_first


T = TypeVar("T")


def once(thunk: Callable[[], T]) -> Callable[[], T]:
    """A getter for thunk(), computed on the first call under a lock and kept.

    The thunk is dropped once it has returned, and with it whatever only it
    referenced (the magnitude reals of a product, say).
    """
    lock = threading.Lock()
    pending: Optional[Callable[[], T]] = thunk
    value: Optional[T] = None

    def get() -> T:
        nonlocal pending, value
        with lock:
            if pending is not None:
                value = pending()
                pending = None
            return value

    return get


def bounded_search(predicate: Callable[[int], bool], cap: Optional[int] = None) -> int:
    """Least n with predicate(n), scanning n = 0, 1, 2, ... up to a cap.

    The caller asserts some index satisfies the predicate; if the scan hits
    the cap first, that assertion (or the cap) was wrong and we raise.
    """
    limit = cap if cap is not None else get_search_cap()
    for n in range(limit):
        if predicate(n):
            return n
    raise SearchExhausted(f"no index below cap {limit} satisfies the predicate")


def lower_bound(x: CReal) -> Rational:
    """Some rational q with q < x, certified by a locator answer.

    Probes the dyadic intervals (-2^(k+1), -2^k) for k up to the search
    cap: the first RIGHT answer certifies -2^(k+1) < x, and soundness
    forces RIGHT once -2^k is below x.
    """
    lo, _ = x.known_bracket()
    if lo is not None:
        return lo
    k = bounded_search(lambda k: x.locates_right(-(2 ** (k + 1)), -(2**k)))
    return Fraction(-(2 ** (k + 1)))


def upper_bound(x: CReal) -> Rational:
    """Some rational r with x < r, mirror image of lower_bound."""
    _, hi = x.known_bracket()
    if hi is not None:
        return hi
    k = bounded_search(lambda k: x.locates_left(2**k, 2 ** (k + 1)))
    return Fraction(2 ** (k + 1))


def _scan(x: CReal, lo: Rational, hi: Rational, step: Rational) -> tuple[Rational, Rational]:
    """Shrink a bracket by querying adjacent grid cells of the given step.

    Walk t_j = lo + j*step asking (t_j, t_j+step).  A run of RIGHT answers
    followed by the first LEFT pins x between the last two grid lines seen
    from each side: (t_{j-1}, t_{j+1}), width 2*step.  If every cell answers
    RIGHT, the incoming hi (which the grid has stepped past) closes the
    bracket instead.  One side of each adjacent pair must be answerable, so
    the walk cannot lie: this is the one-dimensional Sperner argument.
    """
    count = (hi - lo) // step + 1
    for j in range(count):
        a = lo + j * step
        if x.locate(a, a + step) is Side.LEFT:
            return max(lo, a - step), a + step
    last = lo + (count - 1) * step
    return last, min(hi, last + 2 * step)


def grid_bits(eps: Rational) -> int:
    """Least k >= 0 with 2^-k <= eps/8: the grid that windows of width eps round onto."""
    return (-(-8 * eps.denominator // eps.numerator) - 1).bit_length()


def tight_bound(x: CReal, eps: RationalLike) -> Bracket:
    """A bracket (u, v) with u < x < v and v - u < eps.

    A real with a window is not scanned: its window at eps/2, on the grid
    2^-k of grid_bits(eps/2), is widened by 2^-k at each end to an open
    bracket narrower than 5*eps/8.  Any other real starts from its cached
    bracket when one exists and returns it untouched if
    already tight enough; chained constructions would otherwise multiply
    queries at every level.  Wide brackets shrink by a factor of 6 per
    coarse scan; the last scan uses grid step eps/3, so an interior hit has
    width exactly 2*eps/3.
    """
    eps = require_positive(eps, "eps")
    if x.window is not None:
        lo, hi = x.window(eps / 2)
        step = Fraction(1, 1 << grid_bits(eps / 2))
        return Bracket(lo - step, hi + step)
    lo, hi = lower_bound(x), upper_bound(x)
    # Probing for either bound may certify a tighter other one.
    known_lo, known_hi = x.known_bracket()
    lo, hi = max(lo, known_lo), min(hi, known_hi)
    while hi - lo >= eps:
        width = hi - lo
        step = width / 12 if width >= 6 * eps else eps / 3
        lo, hi = _scan(x, lo, hi, step)
    return Bracket(lo, hi)


def integer_bracket(x: CReal) -> int:
    """An integer k with k - 1 < x < k + 1, from the width-1 bracket."""
    b = tight_bound(x, 1)
    return math.floor(b.lo) + 1


def archimedean_midpoint(x: CReal, y: CReal) -> Rational:
    """A rational strictly between x and y.  Caller asserts x < y.

    Tightens both brackets in lockstep at eps = 10^-j until they separate,
    proposes the midpoint q of the gap, then pins it with the two witness
    queries locatesLeft(q - e < x < q) and locatesRight(q < y < q + e).
    Sound locators must confirm once the brackets separate, since neither
    alternative truth survives; the confirmation guards against a caller
    whose x < y claim is false, which instead exhausts the cap.
    """
    for j in range(get_search_cap()):
        eps = Fraction(1, 10**j)
        bx = tight_bound(x, eps)
        by = tight_bound(y, eps)
        if bx.hi < by.lo:
            gap = by.lo - bx.hi
            q = bx.hi + gap / 2
            margin = gap / 4
            if x.locates_left(q - margin, q) and y.locates_right(q, q + margin):
                return q
    raise SearchExhausted("no separating rational found; is x < y actually true?")


def cotrans_rational(x: CReal, y: CReal, s: RationalLike) -> CotransResult:
    """Given x < y, decide x < s or s < y (both may hold; one is returned)."""
    s = as_rational(s)
    q = archimedean_midpoint(x, y)
    if trichotomy(q, s) is Ordering.GREATER:
        return CotransResult.S_BELOW_Y
    return CotransResult.X_BELOW_S


def refine_lower(x: CReal, q: RationalLike) -> Rational:
    """Given q < x, a strictly better lower bound q' with q < q' < x."""
    return archimedean_midpoint(from_rational(q), x)


def refine_upper(x: CReal, r: RationalLike) -> Rational:
    """Given x < r, a strictly better upper bound r' with x < r' < r."""
    return archimedean_midpoint(x, from_rational(r))


def to_cauchy(x: CReal) -> tuple[Callable[[int], Rational], Callable[[RationalLike], int]]:
    """A Cauchy sequence converging to x, with its modulus.

    sequence(n) is the midpoint of a bracket of width < 10^-n, hence within
    10^-n / 2 of x; modulus(eps) is the least n with 2 * 10^-n < eps, which
    makes |sequence(m) - sequence(n)| < eps for m, n >= modulus(eps).
    """
    memo: dict[int, Rational] = {}
    lock = threading.Lock()

    def sequence(n: int) -> Rational:
        with lock:
            hit = memo.get(n)
        if hit is None:
            mid = tight_bound(x, Fraction(1, 10**n)).midpoint
            with lock:
                hit = memo.setdefault(n, mid)
        return hit

    return sequence, decimal_modulus


def decimal_modulus(eps: RationalLike) -> int:
    """Least n with 2 * 10^-n < eps, tested over integers as 2d < c * 10^n for eps = c/d."""
    eps = require_positive(eps, "eps")
    return bounded_search(lambda n: 2 * eps.denominator < eps.numerator * 10**n)

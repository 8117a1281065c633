"""Expression trees over exact reals: parsing, printing, evaluation.

The grammar covers integer literals, the constants pi and e, the bound
variable x, unary minus, the operators + - * /, and the functions exp,
sin, cos, abs, recip, min, max in call syntax.  Precedence is unary minus,
then * and /, then + and -.  Division desugars to multiplication by a
reciprocal, so evaluating it searches for an apartness witness for the
denominator.

For integration the module also derives what the analysis layer needs
from the tree itself, under two separate rules.  Every integrand gets a
uniform continuity modulus from Lipschitz bounds over the integration
interval, unless a denominator's range touches zero there.  A fast
whole-grid sum enclosure is attached when the integrand is a polynomial
plus rational multiples of exp, sin, cos of affine arguments and of
sin(affine + exp(affine)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from exactreal import arith
from exactreal.arith import RealMap
from exactreal.core import CReal, from_rational
from exactreal.enclosures import (
    Grid,
    Window,
    exp_grid_sum,
    exp_window,
    poly_grid_sum,
    sin_exp_grid_sum,
    trig_grid_sum,
)
from exactreal.rational import Rational, RationalLike, as_rational

_UNARY_OPS = ("neg", "abs", "exp", "sin", "cos", "recip")
_BINARY_OPS = ("add", "sub", "mul", "div", "min", "max")


@dataclass(frozen=True)
class Lit:
    value: Rational


@dataclass(frozen=True)
class Const:
    name: str

    def __post_init__(self) -> None:
        if self.name not in ("pi", "e"):
            raise ValueError(f"unknown constant {self.name!r}")


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Unary:
    op: str
    arg: "Expr"

    def __post_init__(self) -> None:
        if self.op not in _UNARY_OPS:
            raise ValueError(f"unknown unary operation {self.op!r}")


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise ValueError(f"unknown binary operation {self.op!r}")


Expr = Union[Lit, Const, Var, Unary, Binary]


class ParseError(ValueError):
    """Bad expression text; position is a character offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at offset {position}")
        self.position = position


class FreeVariable(ValueError):
    """The expression mentions x but no binding was supplied."""


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------

_FUNCTIONS = {"exp": 1, "sin": 1, "cos": 1, "abs": 1, "recip": 1, "min": 2, "max": 2}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/(),":
            out.append(_Token("sym", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.at = 0

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def take(self) -> _Token:
        token = self.tokens[self.at]
        self.at += 1
        return token

    def expect(self, sym: str) -> None:
        token = self.take()
        if token.kind != "sym" or token.text != sym:
            raise ParseError(f"expected {sym!r}", token.pos)

    def expression(self) -> Expr:
        node = self.term()
        while self.peek().kind == "sym" and self.peek().text in "+-":
            op = self.take().text
            node = Binary("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "sym" and self.peek().text in "*/":
            op = self.take().text
            node = Binary("mul" if op == "*" else "div", node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.peek().kind == "sym" and self.peek().text == "-":
            self.take()
            return Unary("neg", self.factor())
        return self.atom()

    def atom(self) -> Expr:
        token = self.take()
        if token.kind == "int":
            return Lit(Fraction(int(token.text)))
        if token.kind == "name":
            if token.text in _FUNCTIONS:
                self.expect("(")
                args = [self.expression()]
                for _ in range(_FUNCTIONS[token.text] - 1):
                    self.expect(",")
                    args.append(self.expression())
                self.expect(")")
                if len(args) == 1:
                    return Unary(token.text, args[0])
                return Binary(token.text, args[0], args[1])
            if token.text in ("pi", "e"):
                return Const(token.text)
            if token.text == "x":
                return Var()
            raise ParseError(f"unknown name {token.text!r}", token.pos)
        if token.kind == "sym" and token.text == "(":
            node = self.expression()
            self.expect(")")
            return node
        if token.kind == "end":
            raise ParseError("unexpected end of input", token.pos)
        raise ParseError(f"unexpected {token.text!r}", token.pos)


def parse(text: str) -> Expr:
    """Parse expression text; raises ParseError with a character offset."""
    parser = _Parser(text)
    node = parser.expression()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected {trailing.text!r}", trailing.pos)
    return node


# ---------------------------------------------------------------------------
# Printing.  Reparsing the output always reproduces the same text, which
# is what the golden tests pin down.
# ---------------------------------------------------------------------------

_LEVEL = {"add": 1, "sub": 1, "mul": 2, "div": 2}
_SYMBOL = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}


def to_text(expr: Expr) -> str:
    return _render(expr, 0)


def _render(e: Expr, context: int) -> str:
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"-{_render(e.arg, 3)}"
        return f"{e.op}({_render(e.arg, 0)})"
    if e.op in ("min", "max"):
        return f"{e.op}({_render(e.left, 0)}, {_render(e.right, 0)})"
    level = _LEVEL[e.op]
    text = f"{_render(e.left, level)}{_SYMBOL[e.op]}{_render(e.right, level + 1)}"
    return f"({text})" if level < context else text


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


def evaluate(expr: Expr, x: Optional[CReal] = None, shared: Optional[dict] = None) -> CReal:
    """The locator an expression denotes; x binds the variable.

    Structurally equal subexpressions map to one locator, so their query
    memos are shared across the whole tree.  `shared` keeps the locators of
    the constants across calls: a map passes one dict to every point.
    """
    memo: dict[Expr, CReal] = dict(shared) if shared else {}

    def go(e: Expr) -> CReal:
        got = memo.get(e)
        if got is None:
            got = memo[e] = _build(e, go, x)
            if shared is not None and isinstance(e, Const):
                shared.setdefault(e, got)
        return got

    try:
        return go(expr)
    finally:
        go = None  # go holds itself through its closure cell; free the memo now


def _build(e: Expr, go: Callable[[Expr], CReal], x: Optional[CReal]) -> CReal:
    if isinstance(e, Lit):
        return from_rational(e.value)
    if isinstance(e, Const):
        return arith.pi() if e.name == "pi" else arith.e()
    if isinstance(e, Var):
        if x is None:
            raise FreeVariable("expression has a free variable x")
        return x
    if isinstance(e, Unary):
        arg = go(e.arg)
        if e.op == "neg":
            return arith.neg(arg)
        if e.op == "abs":
            return arith.absolute(arg)
        if e.op == "exp":
            return arith.exp(arg)
        if e.op == "sin":
            return arith.sin(arg)
        if e.op == "cos":
            return arith.cos(arg)
        return arith.recip(arg, arith.find_apartness(arg))
    left, right = go(e.left), go(e.right)
    if e.op == "add":
        return arith.add(left, right)
    if e.op == "sub":
        return arith.sub(left, right)
    if e.op == "mul":
        return arith.mul(left, right)
    if e.op == "div":
        return arith.mul(left, arith.recip(right, arith.find_apartness(right)))
    if e.op == "min":
        return arith.minimum(left, right)
    return arith.maximum(left, right)


def eval_exact(expr: Expr, x: Optional[RationalLike] = None) -> Rational:
    """Exact rational value when the expression stays rational.

    Raises ValueError on pi, e, exp, sin, cos and on an unbound variable;
    division by zero raises like rational division does.  The test suite
    uses this as the oracle against evaluate.
    """
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Const):
        raise ValueError(f"{expr.name} is not rational")
    if isinstance(expr, Var):
        if x is None:
            raise FreeVariable("expression has a free variable x")
        return as_rational(x)
    if isinstance(expr, Unary):
        v = eval_exact(expr.arg, x)
        if expr.op == "neg":
            return -v
        if expr.op == "abs":
            return abs(v)
        if expr.op == "recip":
            return 1 / v
        raise ValueError(f"{expr.op} is not rational")
    a, b = eval_exact(expr.left, x), eval_exact(expr.right, x)
    if expr.op == "add":
        return a + b
    if expr.op == "sub":
        return a - b
    if expr.op == "mul":
        return a * b
    if expr.op == "div":
        return a / b
    if expr.op == "min":
        return min(a, b)
    return max(a, b)


# ---------------------------------------------------------------------------
# Integration support: range and Lipschitz bounds, linear shape, and
# whole-grid sum enclosures, all read off the tree.
# ---------------------------------------------------------------------------

# Crude rational brackets for the constants; range analysis only needs
# them to be correct, not sharp.
_CONST_RANGE = {
    "pi": (Fraction(3141, 1000), Fraction(3142, 1000)),
    "e": (Fraction(2718, 1000), Fraction(2719, 1000)),
}

Box = tuple[Rational, Rational]
Bounds = tuple[Rational, Rational, Rational]


def _bounds(e: Expr, box: Box) -> Optional[Bounds]:
    """(lo, hi, slope): lo <= e(x) <= hi and a Lipschitz constant over box.

    One forward pass of interval analysis: each node's range and slope
    come from its children's.  exp is its own derivative and 1/x has slope
    1/x^2 away from zero.  None when a denominator's range touches zero.
    """
    if isinstance(e, Lit):
        return e.value, e.value, Fraction(0)
    if isinstance(e, Const):
        return (*_CONST_RANGE[e.name], Fraction(0))
    if isinstance(e, Var):
        return box[0], box[1], Fraction(1)
    if isinstance(e, Unary):
        inner = _bounds(e.arg, box)
        if inner is None:
            return None
        lo, hi, slope = inner
        if e.op == "neg":
            return -hi, -lo, slope
        if e.op == "abs":
            if lo >= 0:
                return lo, hi, slope
            if hi <= 0:
                return -hi, -lo, slope
            return Fraction(0), max(-lo, hi), slope
        if e.op == "exp":
            top = exp_window(hi, Fraction(1))[1]
            return exp_window(lo, Fraction(1))[0], top, top * slope
        if e.op in ("sin", "cos"):
            return Fraction(-1), Fraction(1), slope
        if lo > 0 or hi < 0:
            gap = min(abs(lo), abs(hi))
            return min(1 / lo, 1 / hi), max(1 / lo, 1 / hi), slope / (gap * gap)
        return None
    left, right = _bounds(e.left, box), _bounds(e.right, box)
    if left is None or right is None:
        return None
    al, ah, ls = left
    bl, bh, rs = right
    if e.op == "add":
        return al + bl, ah + bh, ls + rs
    if e.op == "sub":
        return al - bh, ah - bl, ls + rs
    if e.op == "min":
        return min(al, bl), min(ah, bh), max(ls, rs)
    if e.op == "max":
        return max(al, bl), max(ah, bh), max(ls, rs)
    top = max(abs(al), abs(ah))
    if e.op == "mul":
        corners = (al * bl, al * bh, ah * bl, ah * bh)
        return min(corners), max(corners), top * rs + max(abs(bl), abs(bh)) * ls
    if bl > 0 or bh < 0:
        gap = min(abs(bl), abs(bh))
        corners = (al / bl, al / bh, ah / bl, ah / bh)
        return min(corners), max(corners), ls / gap + top * rs / (gap * gap)
    return None


Linear = tuple[list[Fraction], list[tuple[Fraction, Expr]]]


def _trim(p: list[Fraction]) -> list[Fraction]:
    out = list(p)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _scaled(form: Linear, k: Fraction) -> Linear:
    poly, terms = form
    return _trim([k * c for c in poly]), [(k * c, node) for c, node in terms]


def _linear(e: Expr) -> Linear:
    """e as poly(x) + sum of c*node, with ascending rational coefficients.

    Sums, negation, products of polynomials, and scaling or division by a
    rational constant are distributed; any other node is one whole term.
    Terms are neither merged nor dropped, even with coefficient 0.
    """
    if isinstance(e, Lit):
        return [Fraction(e.value)], []
    if isinstance(e, Var):
        return [Fraction(0), Fraction(1)], []
    if isinstance(e, Unary) and e.op == "neg":
        return _scaled(_linear(e.arg), Fraction(-1))
    if isinstance(e, Binary) and e.op in ("add", "sub", "mul", "div"):
        (p, s), (q, t) = _linear(e.left), _linear(e.right)
        if e.op in ("add", "sub"):
            if e.op == "sub":
                q, t = _scaled((q, t), Fraction(-1))
            total = [Fraction(0)] * max(len(p), len(q))
            for i, c in enumerate(p):
                total[i] += c
            for i, c in enumerate(q):
                total[i] += c
            return _trim(total), s + t
        if e.op == "mul" and not s and not t:
            product = [Fraction(0)] * (len(p) + len(q) - 1)
            for i, a in enumerate(p):
                for j, b in enumerate(q):
                    product[i + j] += a * b
            return _trim(product), []
        if not t and len(q) == 1 and (e.op == "mul" or q[0] != 0):
            return _scaled((p, s), q[0] if e.op == "mul" else 1 / q[0])
        if e.op == "mul" and not s and len(p) == 1:
            return _scaled((q, t), p[0])
    return [Fraction(0)], [(Fraction(1), e)]


def _chain_form(e: Expr) -> Optional[tuple]:
    """exp, sin or cos of a + b*x as (op, a, b), sin(a + b*x + exp(c + d*x))
    as ("sinexp", a, b, c, d), anything else None."""
    if not (isinstance(e, Unary) and e.op in ("exp", "sin", "cos")):
        return None
    poly, terms = _linear(e.arg)
    if len(poly) > 2:
        return None
    a, b = poly[0], poly[1] if len(poly) > 1 else Fraction(0)
    if not terms:
        return (e.op, a, b)
    if e.op == "sin" and len(terms) == 1 and terms[0][0] == 1:
        drift = _chain_form(terms[0][1])
        if drift is not None and drift[0] == "exp":
            return ("sinexp", a, b, drift[1], drift[2])
    return None


def _sum_hook(e: Expr) -> Optional[Callable[[Grid, RationalLike], Window]]:
    """A whole-grid sum enclosure for supported integrand shapes.

    Supported: rational-coefficient sums of polynomials, exp, sin, cos of
    affine arguments, and sin of an affine phase with exponential drift.
    Anything else returns None and integration falls back to per-point
    bracketing.
    """
    coeffs, terms = _linear(e)
    forms = [_chain_form(node) for _, node in terms]
    if None in forms:
        return None
    parts = [(c, form) for (c, _), form in zip(terms, forms) if c != 0]

    def hook(grid: Grid, tol: RationalLike) -> Window:
        budget = as_rational(tol)
        lo, hi = poly_grid_sum(coeffs, grid)
        for c, form in parts:
            share = budget / (len(parts) * abs(c))
            if form[0] == "exp":
                w = exp_grid_sum(form[1], form[2], grid, share)
            elif form[0] in ("sin", "cos"):
                w = trig_grid_sum(form[0], form[1], form[2], grid, share)
            else:
                w = sin_exp_grid_sum(form[1], form[2], form[3], form[4], grid, share)
            lo += min(c * w[0], c * w[1])
            hi += max(c * w[0], c * w[1])
        return lo, hi

    return hook


def _point_map(e: Expr) -> Callable[[CReal], CReal]:
    """u -> e(u), each constant of e built once and shared by every point."""
    constants: dict[Expr, CReal] = {}
    return lambda u: evaluate(e, x=u, shared=constants)


def integrand_map(e: Expr, lo: RationalLike, hi: RationalLike) -> RealMap:
    """Package an expression in x for integration over [lo, hi].

    The modulus eps -> eps/L comes from the Lipschitz bound over the
    interval.  Only a denominator whose range touches zero there leaves
    the integrand without one: it gets modulus None, which integrate
    rejects.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    bounds = _bounds(e, (min(lo, hi), max(lo, hi)))
    modulus = None
    if bounds is not None:
        slope = bounds[2]
        if slope == 0:
            modulus = lambda eps: Fraction(1)
        else:
            modulus = lambda eps: as_rational(eps) / slope
    return RealMap(
        apply=_point_map(e),
        modulus=modulus,
        sum_enclosure=_sum_hook(e),
        name=to_text(e),
    )


def as_real_map(e: Expr) -> RealMap:
    """Package an expression in x as a bare map, enough for root finding."""
    return RealMap(apply=_point_map(e), name=to_text(e))

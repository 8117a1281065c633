import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from exactreal import arith, core
from exactreal.analysis import integrate
from exactreal.core import Side, SearchExhausted, from_rational, tight_bound
from exactreal.expr import (
    Binary,
    Const,
    FreeVariable,
    Lit,
    ParseError,
    Unary,
    Var,
    as_real_map,
    eval_exact,
    evaluate,
    integrand_map,
    parse,
    to_text,
)
from exactreal.expr import _as_poly, _lipschitz, _range, _sum_hook
from exactreal.selftest import check_against_value

F = Fraction


# --- parsing --------------------------------------------------------------------


def test_parse_function_call():
    assert parse("exp(1)") == Unary("exp", Lit(F(1)))


def test_parse_bound_variable():
    assert parse("sin(x + exp(x))") == Unary(
        "sin", Binary("add", Var(), Unary("exp", Var()))
    )


def test_parse_precedence():
    assert parse("1 + 2*3") == Binary(
        "add", Lit(F(1)), Binary("mul", Lit(F(2)), Lit(F(3)))
    )
    assert parse("-x*2") == Binary("mul", Unary("neg", Var()), Lit(F(2)))
    assert parse("2*(1 + x)") == Binary(
        "mul", Lit(F(2)), Binary("add", Lit(F(1)), Var())
    )
    # Left association.
    assert parse("1 - 2 - 3") == Binary(
        "sub", Binary("sub", Lit(F(1)), Lit(F(2))), Lit(F(3))
    )


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("1 + * 2")
    assert err.value.position == 4
    assert "offset 4" in str(err.value)


def test_parse_unknown_name():
    with pytest.raises(ParseError) as err:
        parse("2 + foo(1)")
    assert err.value.position == 4


def test_parse_arity_and_tail_errors():
    with pytest.raises(ParseError):
        parse("min(1)")
    with pytest.raises(ParseError):
        parse("exp(1, 2)")
    with pytest.raises(ParseError):
        parse("1 2")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("1 + 2 @")


# --- printing -------------------------------------------------------------------

CORPUS = [
    "1",
    "x",
    "pi",
    "e",
    "-x",
    "--x",
    "1/3",
    "1/2/3",
    "x*x - 2",
    "1 - 2 - 3",
    "1 - (2 - 3)",
    "-(x + 1)",
    "2*(3 + x)/5",
    "min(x, -2)",
    "max(1/2, x*x)",
    "recip(x)/x",
    "exp(sin(cos(x)))",
    "sin(x + exp(x))",
    "abs(-7)",
    "pi*x + e",
    "x + -2",
    "2 - -3",
    "(x + 1)*(x - 1)",
    "1 + 2*3 - 4/5",
    "exp(-x*x/2)",
]


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["x", "pi", "e", str(rng.randint(0, 9))])
    kind = rng.randrange(5)
    if kind == 0:
        return f"-{_random_expr(rng, depth - 1)}"
    if kind == 1:
        f = rng.choice(["exp", "sin", "cos", "abs", "recip"])
        return f"{f}({_random_expr(rng, depth - 1)})"
    if kind == 2:
        f = rng.choice(["min", "max"])
        return f"{f}({_random_expr(rng, depth - 1)}, {_random_expr(rng, depth - 1)})"
    op = rng.choice([" + ", " - ", "*", "/"])
    return f"({_random_expr(rng, depth - 1)}{op}{_random_expr(rng, depth - 1)})"


def test_parse_print_parse_fixpoint():
    rng = random.Random(7)
    corpus = CORPUS + [_random_expr(rng, 4) for _ in range(50 - len(CORPUS))]
    assert len(corpus) == 50
    for text in corpus:
        tree = parse(text)
        printed = to_text(tree)
        assert parse(printed) == tree
        assert to_text(parse(printed)) == printed


# --- evaluation -----------------------------------------------------------------


def test_evaluate_matches_rational_oracle():
    rng = random.Random(3)
    texts = [
        "2*3+1",
        "1/3",
        "(1 - 4)/6",
        "abs(-7)/2",
        "min(3, 1/2)",
        "max(-1, -2)",
        "recip(4)",
        "1 - 2 - 3",
        "2*(3 + 4)",
        "-5/10",
    ]
    for text in texts:
        tree = parse(text)
        value = eval_exact(tree)
        failures = check_against_value(evaluate(tree), value, rng, 10, label=text)
        assert failures == []


def test_evaluate_binds_variable():
    tree = parse("x*x + 1")
    real = evaluate(tree, x=from_rational(F(1, 2)))
    assert real.locate(F(5, 4), F(9, 4)) is Side.LEFT
    assert real.locate(F(1, 4), F(5, 4)) is Side.RIGHT


def test_evaluate_free_variable_is_an_error():
    with pytest.raises(FreeVariable):
        evaluate(parse("x + 1"))


def test_evaluate_division_by_zero_exhausts():
    # A zero denominator makes the apartness search run to its cap; keep the
    # cap small so the failure is cheap (gap denominators grow like 10^j).
    previous = core.get_search_cap()
    core.set_search_cap(1000)
    try:
        with pytest.raises(SearchExhausted):
            evaluate(parse("1/0"))
    finally:
        core.set_search_cap(previous)


def test_evaluate_shares_equal_subexpressions(monkeypatch):
    calls = []
    real_exp = arith.exp
    monkeypatch.setattr(arith, "exp", lambda u: calls.append(1) or real_exp(u))
    evaluate(parse("exp(x) + exp(x)"), x=from_rational(0))
    assert len(calls) == 1


def test_eval_exact_limits():
    assert eval_exact(parse("1/3 + 1/6")) == F(1, 2)
    with pytest.raises(ValueError):
        eval_exact(parse("pi"))
    with pytest.raises(ValueError):
        eval_exact(parse("exp(1)"))
    with pytest.raises(FreeVariable):
        eval_exact(parse("x"))
    assert eval_exact(parse("x*x"), x=F(3, 2)) == F(9, 4)


# --- integrand analysis ------------------------------------------------------------


def test_polynomial_extraction():
    assert _as_poly(parse("(1 + x)*(1 - x)")) == [F(1), F(0), F(-1)]
    assert _as_poly(parse("x*x*x - x/2 + 3/4")) == [F(3, 4), F(-1, 2), F(0), F(1)]
    assert _as_poly(parse("exp(x)")) is None
    assert _as_poly(parse("x/x")) is None
    assert _as_poly(parse("pi*x")) is None


def test_range_bounds_are_sound():
    box = (F(-1), F(2))
    lo, hi = _range(parse("x*x"), box)
    assert lo <= 0 and hi >= 4
    lo, hi = _range(parse("recip(x)"), (F(1), F(2)))
    assert lo <= F(1, 2) and hi >= 1
    assert _range(parse("recip(x)"), (F(-1), F(1))) is None


def test_lipschitz_bounds():
    assert _lipschitz(parse("2*x + 1"), (F(0), F(1))) == 2
    slope = _lipschitz(parse("exp(x)"), (F(0), F(1)))
    assert slope >= F(2718, 1000)
    assert _lipschitz(parse("recip(x)"), (F(-1), F(1))) is None


def test_sum_hook_supported_shapes():
    assert _sum_hook(parse("x*x - 2")) is not None
    assert _sum_hook(parse("2*exp(x) - x")) is not None
    assert _sum_hook(parse("sin(x + exp(x))")) is not None
    assert _sum_hook(parse("exp(x)*x")) is None


# --- integration through expressions -------------------------------------------------


def test_integrate_polynomial_expression():
    f = integrand_map(parse("x*x"), 0, 2)
    b = tight_bound(integrate(f, 0, 2), F(1, 10**6))
    assert b.lo < F(8, 3) < b.hi
    assert b.width < F(1, 10**6)


def test_integrate_exp_expression():
    f = integrand_map(parse("exp(x)"), 0, F(1, 2))
    b = tight_bound(integrate(f, 0, F(1, 2)), F(1, 1000))
    target = math.exp(0.5) - 1
    assert float(b.lo) - 1e-9 <= target <= float(b.hi) + 1e-9


def test_integrate_sin_expression():
    f = integrand_map(parse("sin(x)"), 0, 1)
    b = tight_bound(integrate(f, 0, 1), F(1, 1000))
    target = 1 - math.cos(1)
    assert float(b.lo) - 1e-9 <= target <= float(b.hi) + 1e-9


def test_integrate_sin_of_affine_plus_exp_against_quadrature(monkeypatch):
    # The sin(x + exp(x)) chain is the only grid sum that still walks every
    # point, so each member must run it once per query width, not per query.
    import mpmath

    from exactreal import expr

    calls = Counter()
    chain = expr.sin_exp_grid_sum

    def counted(a, b, c, d, grid, tol):
        calls[grid, tol] += 1
        return chain(a, b, c, d, grid, tol)

    monkeypatch.setattr(expr, "sin_exp_grid_sum", counted)
    f = integrand_map(parse("sin(x + exp(x))"), 0, 1)
    b = tight_bound(integrate(f, 0, 1), F(1, 100))
    with mpmath.workdps(30):
        value, error = mpmath.quad(
            lambda t: mpmath.sin(t + mpmath.exp(t)), [0, 1], error=True
        )
        slack = 2 * error + mpmath.mpf(10) ** -20
        lo, hi = (F(mpmath.nstr(v, 25)) for v in (value - slack, value + slack))
    assert b.lo < lo and hi < b.hi
    assert b.width < F(1, 100)
    assert calls and set(calls.values()) == {1}


def test_integrate_mixed_expression():
    f = integrand_map(parse("2*exp(x) - x"), 0, 1)
    b = tight_bound(integrate(f, 0, 1), F(1, 1000))
    target = 2 * (math.e - 1) - 0.5
    assert float(b.lo) - 1e-9 <= target <= float(b.hi) + 1e-9


def test_integrate_rejects_modulus_free_integrand():
    f = integrand_map(parse("recip(x)"), -1, 1)
    assert f.modulus is None
    with pytest.raises(ValueError):
        integrate(f, -1, 1)


def test_root_of_expression_map():
    from exactreal.analysis import exact_ivt

    root = exact_ivt(as_real_map(parse("x - 1/2")), 0, 1)
    b = tight_bound(root, F(1, 10**4))
    assert b.lo < F(1, 2) < b.hi

"""The benchmark's three workloads, built from a seed.

`build(workload, seed)` parses every expression, builds the integrand and
root maps and the lazy reals, and returns the tasks of one pass.  Building
is cheap except where the program itself decides to work early (division
searches its apartness witness when `evaluate` meets it).  A task's `run`
does the extraction that a user waits on and returns a plain answer; its
`oracle` and `verdict` check that answer later, apart from the program.

The program is reached through module attributes (`expr.parse`, not a
name imported from `exactreal.expr`) so that the tracer's wrappers, which
replace those attributes, see the benchmark's own calls as well.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from exactreal import analysis, arith, cli, core, digits, expr

from checks import (
    ORACLE_MARGIN,
    Digits,
    Exit,
    Interval,
    Target,
    check_digits,
    check_domain_error,
    check_interval,
    check_verify,
    exact_target,
    mpf_to_fraction,
    parse_bounds,
    parse_rendered,
    target_of,
)

# The CLI raises the limit to this at start-up; the in-process tasks need
# the same headroom whichever of them runs first.
RECURSION_LIMIT = 50_000

ZERO_DIVISOR_CAP = 100
VERIFY_EXPRESSIONS = 50
VERIFY_QUERIES = 10
BATCH_DIGITS = 5


@dataclass
class Task:
    """One timed operation and the way its answer is judged.

    oracle maps the mpmath module to a target bracket (None when the
    verdict needs none); verdict maps the answer and that target to a
    list of failures.
    """

    name: str
    run: Callable[[], object]
    oracle: Optional[Callable[[object], Target]]
    verdict: Callable[[object, Optional[Target]], list[str]]


# --------------------------------------------------------------- answers


def signed_digits(real, n: int) -> Digits:
    rep = digits.to_signed_digits(real)
    return Digits(rep.integer_part, tuple(rep.digit(i) for i in range(n)))


def bracket(real, eps: Fraction) -> Interval:
    b = core.tight_bound(real, eps)
    return Interval(b.lo, b.hi)


def run_cli(argv: list[str]) -> Exit:
    """exactreal.cli.main in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return Exit(code, out.getvalue(), err.getvalue())


def run_cli_capped(argv: list[str]) -> Exit:
    """cli.main under --cap; the cap is put back so task order cannot matter.

    cli.main leaves its --cap in force for the rest of the process.
    """
    saved = core.get_search_cap()
    try:
        return run_cli(["--cap", str(ZERO_DIVISOR_CAP), *argv])
    finally:
        core.set_search_cap(saved)


# -------------------------------------------------------------- verdicts


def digits_verdict(n: int, poly: Optional[list[Fraction]] = None):
    def verdict(answer: Digits, target: Optional[Target]) -> list[str]:
        return check_digits(answer, n, target, poly)

    return verdict


def cli_digits_verdict(n: int, poly: Optional[list[Fraction]] = None):
    def verdict(answer: Exit, target: Optional[Target]) -> list[str]:
        if answer.code != 0 or answer.err:
            return [f"exit status {answer.code}, stderr {answer.err!r}"]
        try:
            parsed = parse_rendered(answer.out)
        except ValueError as exc:
            return [f"unreadable digits {answer.out!r}: {exc}"]
        return check_digits(parsed, n, target, poly)

    return verdict


def cli_bounds_verdict(eps: Fraction):
    def verdict(answer: Exit, target: Optional[Target]) -> list[str]:
        if answer.code != 0 or answer.err:
            return [f"exit status {answer.code}, stderr {answer.err!r}"]
        try:
            parsed = parse_bounds(answer.out)
        except ValueError as exc:
            return [f"unreadable bounds {answer.out!r}: {exc}"]
        return check_interval(parsed, eps, target)

    return verdict


def interval_verdict(eps: Fraction):
    def verdict(answer: Interval, target: Optional[Target]) -> list[str]:
        return check_interval(answer, eps, target)

    return verdict


def domain_error_verdict(answer: Exit, target: Optional[Target]) -> list[str]:
    return check_domain_error(answer)


def verify_verdict(answer: Exit, target: Optional[Target]) -> list[str]:
    return check_verify(answer, VERIFY_EXPRESSIONS, VERIFY_QUERIES)


def mp_target(evaluate: Callable[[object], object]) -> Callable[[object], Target]:
    """An oracle from an mpmath expression, given as a function of mpmath."""
    return lambda mp: target_of(evaluate(mp))


def quad_sin_exp(mp) -> Target:
    """The integral of sin(t + exp(t)) over [0, 1], widened by quad's error."""
    value, error = mp.quad(lambda t: mp.sin(t + mp.exp(t)), [0, 1], error=True)
    return target_of(value, max(ORACLE_MARGIN, 10 * mpf_to_fraction(mp.mpf(error))))


# ------------------------------------------------- seeded expression batch
#
# Grammar of the generated closed expressions:
#
#     expression := rational " + " scale "*" K " + " K "*" F "(" small ")"
#     K          := "pi" | "e"
#     F          := "exp" | "sin" | "cos"
#     rational   := p "/" q       p in [-9, 9] \ {0}, q in [1, 9]
#     scale      := p "/" q       p in [-3, 3] \ {0}, q in [1, 3]
#     small      := p "/" q       p in [-2, 2] \ {0}, q in [2, 4]
#
# A negative rational is written in parentheses.  Division appears only
# under a positive integer literal, so no generated divisor can be zero.
# The batch holds one expression for each (K, K, F) of SHAPES, in an
# order the seed shuffles, and the seed draws every rational.  Free
# choices of K and F made the batch cost vary threefold between seeds,
# which would drown a change in the spread; the narrow ranges of scale
# and small keep the digits each constant and series must deliver close
# to fixed.

SHAPES = (("pi", "e", "exp"), ("e", "pi", "exp"), ("pi", "e", "sin"), ("e", "pi", "cos"))


@dataclass(frozen=True)
class Generated:
    c0: Fraction
    c1: Fraction
    k1: str
    k2: str
    f: str
    arg: Fraction

    def text(self) -> str:
        c0, c1, arg = (_rational_text(v) for v in (self.c0, self.c1, self.arg))
        return f"{c0} + {c1}*{self.k1} + {self.k2}*{self.f}({arg})"

    def mp_value(self, mp):
        """The same expression evaluated by mpmath, apart from exactreal."""

        def rational(q: Fraction):
            return mp.mpf(q.numerator) / q.denominator

        def constant(name: str):
            return +mp.pi if name == "pi" else +mp.e

        function = {"exp": mp.exp, "sin": mp.sin, "cos": mp.cos}[self.f]
        return (
            rational(self.c0)
            + rational(self.c1) * constant(self.k1)
            + constant(self.k2) * function(rational(self.arg))
        )


def _random_rational(rng: random.Random, top: int, den: int, den_from: int = 1) -> Fraction:
    p = rng.choice([k for k in range(-top, top + 1) if k])
    return Fraction(p, rng.randint(den_from, den))


def _rational_text(q: Fraction) -> str:
    body = str(abs(q))
    return f"(-{body})" if q < 0 else body


def seeded_batch(seed: int) -> list[Generated]:
    rng = random.Random(f"constants/{seed}")
    shapes = list(SHAPES)
    rng.shuffle(shapes)
    return [
        Generated(
            _random_rational(rng, 9, 9), _random_rational(rng, 3, 3),
            k1, k2, f, _random_rational(rng, 2, 4, den_from=2),
        )
        for k1, k2, f in shapes
    ]


def seeded_polynomial(seed: int) -> tuple[list[Fraction], Fraction]:
    """Quadratic coefficients (ascending) and an upper endpoint b in 1..3."""
    rng = random.Random(f"integrals/{seed}")
    coeffs = [_random_rational(rng, 9, 9) for _ in range(3)]
    return coeffs, Fraction(rng.randint(1, 3))


def polynomial_text(coeffs: list[Fraction]) -> str:
    c0, c1, c2 = (_rational_text(c) for c in coeffs)
    return f"{c0} + {c1}*x + {c2}*x*x"


def polynomial_integral(coeffs: list[Fraction], b: Fraction) -> Fraction:
    """Exact integral over [0, b] of an ascending-coefficient polynomial."""
    return sum((c * b ** (k + 1) / (k + 1) for k, c in enumerate(coeffs)), Fraction(0))


# ------------------------------------------------------------- workloads


def _digits_of(text: str, n: int, value: Callable[[object], object]) -> Task:
    real = expr.evaluate(expr.parse(text))
    return Task(text, lambda: signed_digits(real, n), mp_target(value), digits_verdict(n))


def build_constants(seed: int) -> list[Task]:
    e_real, pi_real = arith.e(), arith.pi()
    tasks = [
        Task("e, 12 digits", lambda: signed_digits(e_real, 12), mp_target(lambda mp: +mp.e),
             digits_verdict(12)),
        Task("pi, 10 digits", lambda: signed_digits(pi_real, 10),
             mp_target(lambda mp: +mp.pi), digits_verdict(10)),
        Task("cli digits pi + e -n 8", lambda: run_cli(["digits", "pi + e", "-n", "8"]),
             mp_target(lambda mp: mp.pi + mp.e), cli_digits_verdict(8)),
        Task("cli bounds exp(1/2) --eps 1/100000",
             lambda: run_cli(["bounds", "exp(1/2)", "--eps", "1/100000"]),
             mp_target(lambda mp: mp.exp(mp.mpf(1) / 2)),
             cli_bounds_verdict(Fraction(1, 100000))),
        _digits_of("e*pi", 8, lambda mp: mp.e * mp.pi),
        _digits_of("sin(1) + cos(1)", 8, lambda mp: mp.sin(1) + mp.cos(1)),
        _digits_of("1/(pi - 3)", 8, lambda mp: 1 / (mp.pi - 3)),
        _digits_of("exp(pi)", 6, lambda mp: mp.exp(mp.pi)),
        Task(f"cli verify --seed {seed}",
             lambda: run_cli(["--seed", str(seed), "verify",
                              "--expressions", str(VERIFY_EXPRESSIONS),
                              "--queries", str(VERIFY_QUERIES)]),
             None, verify_verdict),
    ]
    for text in ("1/(1/3 - 1/3)", "1/(pi - pi)"):
        tasks.append(Task(f"cli --cap {ZERO_DIVISOR_CAP} digits {text}",
                          lambda text=text: run_cli_capped(["digits", text, "-n", "4"]),
                          None, domain_error_verdict))
    for generated in seeded_batch(seed):
        tasks.append(_digits_of(generated.text(), BATCH_DIGITS, generated.mp_value))
    return tasks


def _integral(text: str, lo: int, hi: int):
    return analysis.integrate(expr.integrand_map(expr.parse(text), lo, hi), lo, hi)


def build_integrals(seed: int) -> list[Task]:
    coeffs, b = seeded_polynomial(seed)
    poly_real = _integral(polynomial_text(coeffs), 0, b)
    hooked = [
        ("exp(x)", 1, Fraction(1, 10**3), mp_target(lambda mp: mp.e - 1)),
        ("sin(x)", 1, Fraction(1, 10**3), mp_target(lambda mp: 1 - mp.cos(1))),
        ("cos(x)", 3, Fraction(1, 10**2), mp_target(lambda mp: mp.sin(3))),
        ("sin(x + exp(x))", 1, Fraction(1, 10**2), quad_sin_exp),
        # No sum hook: every grid point becomes its own locator.
        ("1/(1+x*x)", 1, Fraction(1, 2), mp_target(lambda mp: mp.pi / 4)),
    ]
    tasks = [
        Task("cli integrate x*x --from 0 --to 2 -n 5",
             lambda: run_cli(["integrate", "x*x", "--from", "0", "--to", "2", "-n", "5"]),
             lambda mp: exact_target(Fraction(8, 3)), cli_digits_verdict(5)),
        Task(f"integral of {polynomial_text(coeffs)} over [0, {b}], 6 digits",
             lambda: signed_digits(poly_real, 6),
             lambda mp: exact_target(polynomial_integral(coeffs, b)), digits_verdict(6)),
    ]
    for text, hi, eps, oracle in hooked:
        real = _integral(text, 0, hi)
        tasks.append(Task(f"integral of {text} over [0, {hi}] to {eps}",
                          lambda real=real, eps=eps: bracket(real, eps),
                          oracle, interval_verdict(eps)))
    return tasks


def _root(text: str, lo: int, hi: int):
    return analysis.exact_ivt(expr.as_real_map(expr.parse(text)), lo, hi)


def build_roots(seed: int) -> list[Task]:
    sqrt2_poly = [Fraction(-2), Fraction(0), Fraction(1)]
    cbrt3_poly = [Fraction(-3), Fraction(0), Fraction(0), Fraction(1)]
    sqrt2, cbrt3 = _root("x*x - 2", 1, 2), _root("x*x*x - 3", 1, 2)
    ln2 = _root("exp(x) - 2", 0, 1)
    return [
        Task("cli root x*x - 2 --lo 1 --hi 2 -n 6",
             lambda: run_cli(["root", "x*x - 2", "--lo", "1", "--hi", "2", "-n", "6"]),
             mp_target(lambda mp: mp.sqrt(2)), cli_digits_verdict(6, sqrt2_poly)),
        Task("root of x*x - 2, 7 digits", lambda: signed_digits(sqrt2, 7),
             mp_target(lambda mp: mp.sqrt(2)), digits_verdict(7, sqrt2_poly)),
        Task("root of x*x*x - 3, 3 digits", lambda: signed_digits(cbrt3, 3),
             mp_target(lambda mp: mp.cbrt(3)), digits_verdict(3, cbrt3_poly)),
        Task("root of exp(x) - 2, 1 digit", lambda: signed_digits(ln2, 1),
             mp_target(lambda mp: mp.log(2)), digits_verdict(1)),
    ]


BUILDERS = {
    "constants": build_constants,
    "integrals": build_integrals,
    "roots": build_roots,
}


def build(workload: str, seed: int) -> list[Task]:
    return BUILDERS[workload](seed)

"""End-to-end acceptance checks, one printed pass or fail line each.

Every test drives the public surface at its documented tolerance and
compares against an independent oracle computed here first: factorial
and alternating series brackets so narrow (width under 10^-100) that
containment reduces to exact rational comparison, rational bisection,
and float quadrature where only a 10^-2 target is at stake.  Run with
-rA or -s to see the lines when everything passes.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from exactreal import arith
from exactreal.analysis import exact_ivt, integrate
from exactreal.core import Side, from_rational, tight_bound, to_cauchy
from exactreal.digits import from_signed_digits, prefix_value, to_signed_digits
from exactreal.expr import as_real_map, integrand_map, parse
from exactreal.selftest import check_against_value, random_rational, run_self_test


def _report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} {label}{detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- oracles

Bracket = tuple[Fraction, Fraction]


def exp_series_bracket(q: Fraction, terms: int) -> Bracket:
    """exp(q) in [lo, hi]; tail below twice the first omitted term.

    Valid once terms >= 2|q|, where the factorial ratios at least halve
    every further term.
    """
    assert terms >= 2 * abs(q)
    total = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        total += term
        term *= q / (k + 1)
    spread = 2 * abs(term)
    return total - spread, total + spread


def arctan_bracket(x: Fraction, terms: int) -> Bracket:
    """arctan(x) in [lo, hi] for 0 < x < 1, by series alternation."""
    total = Fraction(0)
    power = x
    for k in range(terms):
        total += power / (2 * k + 1) if k % 2 == 0 else -power / (2 * k + 1)
        power *= x * x
    spread = power / (2 * terms + 1)
    return total - spread, total + spread


def machin_bracket() -> Bracket:
    a_lo, a_hi = arctan_bracket(Fraction(1, 5), 80)
    b_lo, b_hi = arctan_bracket(Fraction(1, 239), 30)
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


def bisect_sqrt2(steps: int) -> Bracket:
    lo, hi = Fraction(1), Fraction(2)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mid * mid < 2:
            lo = mid
        else:
            hi = mid
    return lo, hi


def bisect_ln2(steps: int) -> Bracket:
    """ln 2 by bisection; the sign of exp(mid) - 2 is decided exactly."""
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(steps):
        mid = (lo + hi) / 2
        e_lo, e_hi = exp_series_bracket(mid, 30)
        if e_hi < 2:
            lo = mid
        elif e_lo > 2:
            hi = mid
        else:
            raise AssertionError("series bracket straddles 2; raise terms")
    return lo, hi


E_BRACKET = exp_series_bracket(Fraction(1), 90)
EXP_HALF_BRACKET = exp_series_bracket(Fraction(1, 2), 80)
PI_BRACKET = machin_bracket()
SQRT2_BRACKET = bisect_sqrt2(70)
LN2_BRACKET = bisect_ln2(30)


def _contained(value_bracket: Bracket, lo: Fraction, hi: Fraction) -> bool:
    """True when (lo, hi) provably contains the bracketed value."""
    v_lo, v_hi = value_bracket
    if v_lo == v_hi:
        return lo < v_lo < hi
    return lo <= v_lo and v_hi <= hi


# --------------------------------------------------------------- criteria


def test_criterion_1_forced_side_soundness():
    start = time.monotonic()
    report = run_self_test(expressions=1000, queries=10, depth=5, seed=0)
    elapsed = time.monotonic() - start
    ok = report.ok and elapsed < 60
    _report(
        1,
        "forced-side soundness",
        ok,
        f" ({report.queries} queries, {len(report.failures)} disagreements, {elapsed:.1f}s)",
    )


def test_criterion_2_e_to_twelve_digits():
    start = time.monotonic()
    p12 = prefix_value(to_signed_digits(arith.e()), 12)
    elapsed = time.monotonic() - start
    eps = Fraction(1, 10**12)
    ok = _contained(E_BRACKET, p12 - eps, p12 + eps) and elapsed < 10
    _report(2, "e to 12 signed digits", ok, f" ({elapsed:.1f}s)")


def test_criterion_3_pi_to_ten_digits():
    start = time.monotonic()
    p10 = prefix_value(to_signed_digits(arith.pi()), 10)
    elapsed = time.monotonic() - start
    eps = Fraction(1, 10**10)
    ok = _contained(PI_BRACKET, p10 - eps, p10 + eps) and elapsed < 30
    _report(3, "pi to 10 signed digits", ok, f" ({elapsed:.1f}s)")


def test_criterion_4_tight_bounds_shrink_and_agree():
    cases = [
        ("0", from_rational(0), (Fraction(0), Fraction(0))),
        ("-7/3", from_rational(Fraction(-7, 3)), (Fraction(-7, 3), Fraction(-7, 3))),
        ("355/113", from_rational(Fraction(355, 113)), (Fraction(355, 113), Fraction(355, 113))),
        ("e", arith.e(), E_BRACKET),
        ("pi", arith.pi(), PI_BRACKET),
        ("exp(1/2)", arith.exp(from_rational(Fraction(1, 2))), EXP_HALF_BRACKET),
    ]
    ok = True
    for _, x, oracle in cases:
        brackets = [tight_bound(x, Fraction(1, 10**k)) for k in range(7)]
        for k, b in enumerate(brackets):
            ok = ok and b.width < Fraction(1, 10**k)
            ok = ok and _contained(oracle, b.lo, b.hi)
        for first in brackets:
            for second in brackets:
                ok = ok and max(first.lo, second.lo) < min(first.hi, second.hi)
    _report(4, "tight_bound widths, containment, intersection", ok, " (6 reals x 7 eps)")


def test_criterion_5_integral_of_identity():
    start = time.monotonic()
    value = integrate(integrand_map(parse("x"), 0, 1), Fraction(0), Fraction(1))
    got = tight_bound(value, Fraction(1, 10**6))
    elapsed = time.monotonic() - start
    ok = abs(got.midpoint - Fraction(1, 2)) < Fraction(1, 10**6) and elapsed < 120
    _report(5, "integral of x over [0, 1]", ok, f" ({elapsed:.1f}s)")


def test_criterion_5_integral_of_exp():
    start = time.monotonic()
    value = integrate(integrand_map(parse("exp(x)"), 0, 1), Fraction(0), Fraction(1))
    got = tight_bound(value, Fraction(1, 10**4))
    elapsed = time.monotonic() - start
    target = (E_BRACKET[0] - 1, E_BRACKET[1] - 1)
    ok = _contained(target, got.lo, got.hi) and got.width < Fraction(1, 10**4)
    ok = ok and elapsed < 120
    _report(5, "integral of exp over [0, 1]", ok, f" ({elapsed:.1f}s)")


def _simpson_sin_exp() -> float:
    # Composite Simpson on [0, 8] with 2^21 panels: the classical error
    # bound (b - a) h^4 max|f''''| / 180 stays below 1e-8 even with the
    # crude |f''''| <= 2 (1 + e^8)^4, far inside the 1e-2 target.
    panels = 1 << 21
    h = 8.0 / panels

    def f(t: float) -> float:
        return math.sin(t + math.exp(t))

    body = math.fsum((4.0 if k % 2 else 2.0) * f(k * h) for k in range(1, panels))
    return (f(0.0) + f(8.0) + body) * h / 3.0


def test_criterion_5_oscillatory_integral():
    start = time.monotonic()
    oracle = Fraction(_simpson_sin_exp()).limit_denominator(10**12)
    value = integrate(integrand_map(parse("sin(x + exp(x))"), 0, 8), Fraction(0), Fraction(8))
    eps = Fraction(1, 100)
    # Both queries are forced by the oracle: the value sits within 1e-8
    # of it, so exactly one side of each query is true.
    below = value.locate(oracle - 1, oracle - eps)
    above = value.locate(oracle + eps, oracle + 1)
    elapsed = time.monotonic() - start
    ok = below is Side.RIGHT and above is Side.LEFT
    _report(5, "integral of sin(x + exp(x)) over [0, 8] at 1e-2", ok, f" ({elapsed:.1f}s)")


def test_criterion_6_sqrt2_root():
    start = time.monotonic()
    root = exact_ivt(as_real_map(parse("x*x - 2")), Fraction(1), Fraction(2))
    p8 = prefix_value(to_signed_digits(root), 8)
    elapsed = time.monotonic() - start
    eps = Fraction(1, 10**8)
    ok = _contained(SQRT2_BRACKET, p8 - eps, p8 + eps) and elapsed < 120
    _report(6, "8 digits of sqrt 2 from x*x - 2", ok, f" ({elapsed:.1f}s)")


def test_criterion_6_ln2_root():
    start = time.monotonic()
    root = exact_ivt(as_real_map(parse("exp(x) - 2")), Fraction(0), Fraction(1))
    p6 = prefix_value(to_signed_digits(root), 6)
    elapsed = time.monotonic() - start
    eps = Fraction(1, 10**6)
    ok = _contained(LN2_BRACKET, p6 - eps, p6 + eps) and elapsed < 120
    _report(6, "6 digits of ln 2 from exp(x) - 2", ok, f" ({elapsed:.1f}s)")


def test_criterion_7_representation_round_trips():
    rng = random.Random(7)
    failures: list[str] = []
    for _ in range(100):
        value = random_rational(rng)
        x = from_rational(value)
        digit_trip = from_signed_digits(to_signed_digits(x))
        sequence, modulus = to_cauchy(x)
        cauchy_trip = arith.limit(
            lambda n, s=sequence: from_rational(s(n)), modulus, name="cauchy-trip"
        )
        failures += check_against_value(digit_trip, value, rng, 5, label=f"digits {value}")
        failures += check_against_value(cauchy_trip, value, rng, 5, label=f"cauchy {value}")
    _report(
        7,
        "digit and Cauchy round-trips",
        not failures,
        f" (100 reals, {len(failures)} disagreements)",
    )


def test_criterion_8_digit_prefix_invariants():
    cases = [
        (from_rational(0), (Fraction(0), Fraction(0))),
        (from_rational(Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 3))),
        (from_rational(Fraction(-7, 3)), (Fraction(-7, 3), Fraction(-7, 3))),
        (from_rational(Fraction(355, 113)), (Fraction(355, 113), Fraction(355, 113))),
        (arith.e(), E_BRACKET),
        (arith.pi(), PI_BRACKET),
        (arith.exp(from_rational(Fraction(1, 2))), EXP_HALF_BRACKET),
    ]
    ok = True
    for x, oracle in cases:
        rep = to_signed_digits(x)
        prefixes = [prefix_value(rep, n) for n in range(13)]
        for n in range(12):
            ok = ok and abs(prefixes[n + 1] - prefixes[n]) <= Fraction(9, 10 ** (n + 1))
        for n in range(13):
            lo, hi = oracle
            step = Fraction(1, 10**n)
            ok = ok and prefixes[n] - step < lo and hi < prefixes[n] + step
    _report(8, "digit-prefix step and containment invariants", ok, " (7 reals, n <= 12)")


def test_criterion_9_cli_golden_stability():
    commands = [
        ["digits", "pi + e", "-n", "8"],
        ["bounds", "exp(1/2)", "--eps", "1/100000"],
        ["root", "x*x - 2", "--lo", "1", "--hi", "2", "-n", "6"],
        ["integrate", "x*x", "--from", "0", "--to", "2", "-n", "5"],
    ]
    ok = True
    for command in commands:
        argv = [sys.executable, "-m", "exactreal"] + command
        first = subprocess.run(argv, capture_output=True, timeout=300)
        second = subprocess.run(argv, capture_output=True, timeout=300)
        ok = ok and first.returncode == 0 and second.returncode == 0
        ok = ok and first.stdout == second.stdout and first.stdout.endswith(b"\n")
    _report(9, "CLI golden outputs byte-stable", ok, " (4 commands, 2 runs each)")

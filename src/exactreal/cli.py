"""Command-line interface: digits, bounds, integrals, roots, self test.

Expressions use the grammar of exactreal.expr: rational literals, the
constants pi and e, the functions exp, sin, cos, abs, recip, min, max,
the operators + - * / with the usual precedence, and a variable x in
the integrate and root subcommands.  An expression argument of "-" reads
stdin; one that starts with "-" goes after "--": digits -n 4 -- "-pi".

Output is line-oriented plain text and deterministic for fixed flags.
Any failure prints a single line "error: <kind>: <message>" on stderr;
the exit status is 0 on success, 1 for domain errors (exhausted
searches, integrands without a modulus, nesting beyond the recursion
limit), and 2 for usage errors (bad syntax, bad flags, free variables
where none is bound).
"""

import argparse
import sys
from fractions import Fraction
from typing import Optional, Sequence

from exactreal import core
from exactreal.analysis import exact_ivt, integrate
from exactreal.core import SearchExhausted, tight_bound
from exactreal.digits import render_digits, to_signed_digits
from exactreal.expr import (
    Expr,
    FreeVariable,
    ParseError,
    as_real_map,
    evaluate,
    integrand_map,
    parse,
)
from exactreal.selftest import run_self_test

# Each lifted node asks its operands from inside its own query, so a query
# nests as deep as the expression tree: digits of e+e+...+e with 150 terms
# overflow the default 1,000 frames.  Past this limit main reports a
# domain error.
_RECURSION_LIMIT = 50_000


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with its error line reshaped to the documented format."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: usage: {message}", file=sys.stderr)
        self.exit(2)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _positive_rational(text: str) -> Fraction:
    value = _rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _digit_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"digit count must not be negative: {text!r}")
    return value


def _read_expression(text: str) -> Expr:
    if text == "-":
        text = sys.stdin.read()
    return parse(text)


def _cmd_digits(args: argparse.Namespace) -> int:
    value = evaluate(_read_expression(args.expression))
    print(render_digits(to_signed_digits(value), args.digits))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    value = evaluate(_read_expression(args.expression))
    bracket = tight_bound(value, args.eps)
    print(f"{bracket.lo} {bracket.hi}")
    return 0


def _cmd_integrate(args: argparse.Namespace) -> int:
    e = _read_expression(args.expression)
    total = integrate(integrand_map(e, args.from_, args.to), args.from_, args.to)
    print(render_digits(to_signed_digits(total), args.digits))
    return 0


def _cmd_root(args: argparse.Namespace) -> int:
    if not args.lo < args.hi:
        raise ValueError(f"root interval is empty: lo={args.lo}, hi={args.hi}")
    e = _read_expression(args.expression)
    value = exact_ivt(as_real_map(e), args.lo, args.hi)
    print(render_digits(to_signed_digits(value), args.digits))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_self_test(
        expressions=args.expressions, queries=args.queries, seed=args.seed
    )
    for failure in report.failures:
        print(f"fail {failure}")
    print(f"expressions {report.expressions}")
    print(f"queries {report.queries}")
    print(f"passed {report.queries - len(report.failures)}")
    print(f"failed {len(report.failures)}")
    print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


_EXPR_HELP = '{}, or "-" for stdin; after "--" when it starts with "-"'


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="exactreal",
        description="Exact real arithmetic on locator-represented numbers.",
    )
    parser.add_argument(
        "--cap",
        type=_positive_int,
        metavar="K",
        help="cap for all bounded searches (default 1000000)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="seed for the verify suite (default 0)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="report the locator evaluation count on stderr",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    digits = commands.add_parser(
        "digits", help="signed-digit expansion of an expression"
    )
    digits.add_argument("expression", help=_EXPR_HELP.format("closed expression"))
    digits.add_argument(
        "-n",
        dest="digits",
        type=_digit_count,
        default=10,
        metavar="N",
        help="digit count (default 10)",
    )
    digits.set_defaults(handler=_cmd_digits)

    bounds = commands.add_parser("bounds", help="rational bracket of width below eps")
    bounds.add_argument("expression", help=_EXPR_HELP.format("closed expression"))
    bounds.add_argument(
        "--eps",
        type=_positive_rational,
        required=True,
        metavar="E",
        help="width target, a positive rational such as 1/1000000",
    )
    bounds.set_defaults(handler=_cmd_bounds)

    integrate_cmd = commands.add_parser(
        "integrate", help="integral of an expression in x over [A, B]"
    )
    integrate_cmd.add_argument("expression", help=_EXPR_HELP.format("expression in x"))
    integrate_cmd.add_argument(
        "--from",
        dest="from_",
        type=_rational,
        required=True,
        metavar="A",
        help="lower endpoint, a rational",
    )
    integrate_cmd.add_argument(
        "--to",
        dest="to",
        type=_rational,
        required=True,
        metavar="B",
        help="upper endpoint, a rational",
    )
    integrate_cmd.add_argument(
        "-n",
        dest="digits",
        type=_digit_count,
        default=6,
        metavar="N",
        help="digit count (default 6)",
    )
    integrate_cmd.set_defaults(handler=_cmd_integrate)

    root = commands.add_parser("root", help="zero of an expression in x on [A, B]")
    root.add_argument(
        "expression",
        help=_EXPR_HELP.format("expression in x with f(A) <= 0 <= f(B)"),
    )
    root.add_argument(
        "--lo",
        type=_rational,
        required=True,
        metavar="A",
        help="left endpoint, a rational",
    )
    root.add_argument(
        "--hi",
        type=_rational,
        required=True,
        metavar="B",
        help="right endpoint, a rational",
    )
    root.add_argument(
        "-n",
        dest="digits",
        type=_digit_count,
        default=8,
        metavar="N",
        help="digit count (default 8)",
    )
    root.set_defaults(handler=_cmd_root)

    verify = commands.add_parser(
        "verify", help="randomized soundness suite against the rational oracle"
    )
    verify.add_argument(
        "--expressions",
        type=_positive_int,
        default=100,
        metavar="M",
        help="expression count (default 100)",
    )
    verify.add_argument(
        "--queries",
        type=_positive_int,
        default=10,
        metavar="Q",
        help="forced queries per expression (default 10)",
    )
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    sys.setrecursionlimit(max(sys.getrecursionlimit(), _RECURSION_LIMIT))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    saved_cap = core.get_search_cap()
    if args.cap is not None:
        core.set_search_cap(args.cap)

    evaluations_before = core.evaluation_count()
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: syntax: {exc}", file=sys.stderr)
        return 2
    except FreeVariable as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except SearchExhausted as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: domain: expression nests too deeply to evaluate", file=sys.stderr)
        return 1
    finally:
        core.set_search_cap(saved_cap)
        if args.trace:
            evaluations = core.evaluation_count() - evaluations_before
            print(f"trace: {evaluations} locator evaluations", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

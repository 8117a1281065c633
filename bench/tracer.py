"""Per-layer tracing of exactreal from outside the program.

`Tracer.install()` replaces public functions of each module of
`src/exactreal` under every name a module binds them to, since
`from exactreal.core import tight_bound` copies the binding into `arith`,
`analysis` and `cli`.  `CReal.locate` and `SignedDigitRep.digit` are
replaced on their classes.  The node constructors of `arith` (and the
rational constructors of `core`, and `analysis._grid_sum`) tag each
`CReal` they return with its node kind by swapping in a traced copy of
its decide function; `exp`, `sin` and `cos` retag their limit node as
`series`.  The enclosure chains are wrapped where `expr` imported them,
and the maps from `integrand_map` and `as_real_map` get traced `apply`
and `sum_enclosure` through `dataclasses.replace`.  `uninstall()` puts
every original back.

Each wrapped call is a span with a parent: the span open when it
started.  When a span closes, its duration less the time covered by its
children is its self time.  Self times, calls and inclusive times are
folded into per-name totals at once, because a roots pass opens millions
of `locate` spans; only the spans of each task's first two levels are
kept whole, with their ids and parent ids, for the dump.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from fractions import Fraction
from time import perf_counter
from typing import Callable

from exactreal import analysis, arith, cli, core, digits, enclosures, expr, selftest

MODULES = (core, arith, analysis, digits, enclosures, expr, cli, selftest)

KINDS = ("rational", "add", "mul", "scalar", "neg", "minmax", "recip", "limit", "series", "other")

# Constructors and the kind of node each returns.  None marks a composite
# (sub, absolute, pi, e, ...): its node is tagged by the constructor it
# calls last.  analysis._grid_sum is wrapped apart, as kind grid_sum.
CONSTRUCTORS: dict[object, dict[str, object]] = {
    core: {"from_rational_first": "rational", "from_rational_second": "rational"},
    arith: {
        "neg": "neg", "add": "add", "sub": None, "minimum": "minmax", "maximum": "minmax",
        "absolute": None, "scalar_mul": "scalar", "mul": "mul", "recip": "recip",
        "limit": "limit", "exp": "series", "sin": "series", "cos": "series",
        "arctan_rational": None, "pi": None, "e": None,
    },
}

SPANNED: dict[object, tuple[str, ...]] = {
    core: ("tight_bound", "lower_bound", "upper_bound", "integer_bracket",
           "archimedean_midpoint", "bounded_search", "cotrans_rational", "to_cauchy"),
    arith: ("find_apartness",),
    analysis: ("integrate", "approx_ivt", "exact_ivt", "nonconstant_search"),
    digits: ("to_signed_digits", "from_signed_digits", "prefix_value", "render_digits"),
    expr: ("parse", "evaluate", "eval_exact", "to_text"),
    cli: ("main",),
    selftest: ("run_self_test", "check_against_value"),
}

CHAINS = ("exp_grid_sum", "trig_grid_sum", "sin_exp_grid_sum")
ENCLOSURES_IN_EXPR = CHAINS + ("poly_grid_sum", "exp_window")
MAP_BUILDERS = ("integrand_map", "as_real_map")

# Spans kept whole: a task root (depth 0) and its direct children.
KEEP_DEPTH = 1


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.kept: list[tuple] = []  # (id, parent, name, start, seconds, self_s)
        self.tallies: Counter = Counter({k: 0 for k in KINDS + ("grid_sum",)})
        self.nodes_built = 0
        self.locate_depth = 0
        self.max_depth = 0
        self.max_den_bits = 0
        self.integrand_applies = 0
        self.grid_points_max = 0
        self.chain_points = 0
        self.grids: set = set()
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._next_id = 0
        self._origin = perf_counter()
        self._undo: list[tuple[object, str, object]] = []
        self._evals_at_install = 0
        self.evaluations = 0

    # ------------------------------------------------------------ spans

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])

    def leave(self) -> None:
        span_id, name, start, child = self._stack.pop()
        seconds = perf_counter() - start
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += seconds
        agg[2] += seconds - child
        if self._stack:
            self._stack[-1][3] += seconds
        if len(self._stack) <= KEEP_DEPTH:
            parent = self._stack[-1][0] if self._stack else 0
            self.kept.append(
                (span_id, parent, name, start - self._origin, seconds, seconds - child)
            )

    def spanned(self, name: str, fn: Callable) -> Callable:
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return wrapper

    # ------------------------------------------------------------- nodes

    def tag(self, real: core.CReal, kind: str, force: bool = False) -> None:
        """Mark real's node kind; its decide function becomes a span."""
        decide = real._decide
        if hasattr(decide, "node_kind"):
            if force:
                decide.node_kind = kind
            return
        traced = self.spanned(decide.__module__.rpartition(".")[2] + ".decide", decide)
        traced.node_kind = kind
        real._decide = traced
        if kind != "grid_sum":
            self.nodes_built += 1

    def _constructor(self, layer: str, fname: str, kind, fn: Callable) -> Callable:
        traced = self.spanned(f"{layer}.{fname}", fn)
        tag = self.tag
        force = kind == "series"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            real = traced(*args, **kwargs)
            tag(real, kind or "other", force)
            return real

        if kind is None:
            # Composite nodes are already tagged inside; only time them.
            return traced
        return wrapper

    # -------------------------------------------------------- installing

    def _replace(self, owner: object, name: str, new: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _rebind(self, original: Callable, new: Callable, modules=MODULES) -> None:
        """Replace original under every name the given modules bind it to."""
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, name, new)

    def install(self) -> None:
        for module, kinds in CONSTRUCTORS.items():
            layer = module.__name__.rpartition(".")[2]
            for fname, kind in kinds.items():
                fn = getattr(module, fname)
                self._rebind(fn, self._constructor(layer, fname, kind, fn))
        grid_sum = analysis._grid_sum
        self._rebind(grid_sum, self._grid_sum(grid_sum))
        for module, names in SPANNED.items():
            layer = module.__name__.rpartition(".")[2]
            for fname in names:
                fn = getattr(module, fname)
                self._rebind(fn, self.spanned(f"{layer}.{fname}", fn))
        for fname in ENCLOSURES_IN_EXPR:
            fn = getattr(enclosures, fname)
            self._rebind(fn, self._enclosure(fname, fn), modules=(expr,))
        for fname in MAP_BUILDERS:
            fn = getattr(expr, fname)
            self._rebind(fn, self._map_builder(fname, fn))
        self._replace(core.CReal, "locate", self._locate(core.CReal.locate))
        self._replace(
            digits.SignedDigitRep, "digit",
            self.spanned("digits.digit", digits.SignedDigitRep.digit),
        )
        self._evals_at_install = core.evaluation_count()

    def uninstall(self) -> None:
        self.evaluations = core.evaluation_count() - self._evals_at_install
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # ---------------------------------------------------- special wrappers

    def _locate(self, original: Callable) -> Callable:
        enter, leave, tallies = self.enter, self.leave, self.tallies

        @functools.wraps(original)
        def locate(real, q, r):
            for end in (q, r):
                if type(end) is Fraction:
                    bits = end.denominator.bit_length()
                    if bits > self.max_den_bits:
                        self.max_den_bits = bits
            before = real._evals
            self.locate_depth += 1
            if self.locate_depth > self.max_depth:
                self.max_depth = self.locate_depth
            enter("core.locate")
            try:
                side = original(real, q, r)
            finally:
                leave()
                self.locate_depth -= 1
            if real._evals != before:
                tallies[getattr(real._decide, "node_kind", "other")] += 1
            return side

        return locate

    def _grid_sum(self, fn: Callable) -> Callable:
        build = self._constructor("analysis", "_grid_sum", "grid_sum", fn)

        @functools.wraps(fn)
        def grid_sum(f, grid):
            self.grid_points_max = max(self.grid_points_max, len(grid))
            return build(f, grid)

        return grid_sum

    def _enclosure(self, fname: str, fn: Callable) -> Callable:
        traced = self.spanned(f"enclosures.{fname}", fn)
        if fname not in CHAINS:
            return traced

        @functools.wraps(fn)
        def chain(*args, **kwargs):
            grid = next(a for a in args if isinstance(a, analysis.Grid))
            self.chain_points += len(grid)
            self.grids.add(grid)
            return traced(*args, **kwargs)

        return chain

    def _map_builder(self, fname: str, fn: Callable) -> Callable:
        traced = self.spanned(f"expr.{fname}", fn)

        @functools.wraps(fn)
        def build(*args, **kwargs):
            real_map = traced(*args, **kwargs)
            hook = real_map.sum_enclosure
            return dataclasses.replace(
                real_map,
                apply=self._apply(real_map.apply),
                sum_enclosure=None if hook is None else self.spanned("expr.sum_hook", hook),
            )

        return build

    def _apply(self, apply: Callable) -> Callable:
        traced = self.spanned("expr.apply", apply)

        def counted(u):
            self.integrand_applies += 1
            return traced(u)

        return counted

    # ----------------------------------------------------------- metrics

    def _calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def _inclusive(self, *names: str) -> float:
        return sum(self.spans.get(n, [0, 0.0, 0.0])[1] for n in names)

    def _self(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def layer_self(self, layer: str) -> float:
        return sum(agg[2] for name, agg in self.spans.items() if name.startswith(layer + "."))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric the tracer measures, as (value, unit)."""
        locate_calls = self._calls("core.locate")
        chain_calls = sum(self._calls(f"enclosures.{c}") for c in CHAINS)
        out = {
            "core.locate_calls": (locate_calls, "count"),
            "core.evals": (self.evaluations, "count"),
            "core.memo_hit_ratio": (
                (locate_calls - self.evaluations) / locate_calls if locate_calls else 0.0,
                "ratio",
            ),
            "core.tight_bound_calls": (self._calls("core.tight_bound"), "count"),
            "core.tight_bound_self_s": (self._self("core.tight_bound"), "s"),
            "core.locate_self_s": (self._self("core.locate"), "s"),
            "core.max_depth": (self.max_depth, "frames"),
            "rational.max_den_bits": (self.max_den_bits, "bits"),
        }
        for kind in KINDS:
            out[f"arith.evals.{kind}"] = (self.tallies[kind], "count")
        out.update({
            "arith.nodes_built": (self.nodes_built, "count"),
            "arith.apartness_calls": (self._calls("arith.find_apartness"), "count"),
            "arith.apartness_s": (self._inclusive("arith.find_apartness"), "s"),
            "arith.self_s": (self.layer_self("arith"), "s"),
            "digits.self_s": (self.layer_self("digits"), "s"),
            "analysis.evals.grid_sum": (self.tallies["grid_sum"], "count"),
            "analysis.grid_points_max": (self.grid_points_max, "points"),
            "analysis.integrand_applies": (self.integrand_applies, "count"),
            "analysis.nonconstant_calls": (self._calls("analysis.nonconstant_search"), "count"),
            "analysis.self_s": (self.layer_self("analysis"), "s"),
            "enclosures.calls": (chain_calls, "count"),
            "enclosures.calls_per_grid": (
                chain_calls / len(self.grids) if self.grids else 0.0, "ratio",
            ),
            "enclosures.chain_points": (self.chain_points, "points"),
            "enclosures.self_s": (self.layer_self("enclosures"), "s"),
            "expr.parse_s": (self._inclusive("expr.parse"), "s"),
            "expr.map_build_s": (self._inclusive(*(f"expr.{m}" for m in MAP_BUILDERS)), "s"),
            "expr.evaluate_calls": (self._calls("expr.evaluate"), "count"),
            "cli.self_s": (self.layer_self("cli"), "s"),
        })
        return out

    def dump(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "inclusive_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.spans.items())
            },
            "tallies": dict(self.tallies),
            "evaluations": self.evaluations,
            "kept_spans": [
                {"id": i, "parent": p, "name": n, "start_s": st, "seconds": d, "self_s": s}
                for i, p, n, st, d, s in self.kept
            ],
        }

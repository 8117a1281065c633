import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactreal.core import (
    Bracket,
    CotransResult,
    CReal,
    SearchExhausted,
    Side,
    archimedean_midpoint,
    bounded_search,
    cotrans_rational,
    evaluation_count,
    from_rational,
    from_rational_first,
    from_rational_second,
    integer_bracket,
    lower_bound,
    once,
    refine_lower,
    refine_upper,
    set_search_cap,
    tight_bound,
    to_cauchy,
    upper_bound,
    _scan,
)
from exactreal.rational import unit_rational

# Queries where exactly one side is true: soundness forces the answer, so
# they hold for any correct locator regardless of its bias on ties.
small = st.fractions(min_value=-100, max_value=100)
gaps = st.fractions(min_value=Fraction(1, 1000), max_value=10)


def test_bracket_validates():
    b = Bracket(Fraction(0), Fraction(2, 3))
    assert b.width == Fraction(2, 3)
    assert b.midpoint == Fraction(1, 3)
    with pytest.raises(ValueError):
        Bracket(Fraction(1), Fraction(1))


def test_locate_rejects_bad_interval():
    x = from_rational(0)
    with pytest.raises(ValueError):
        x.locate(1, 1)
    with pytest.raises(ValueError):
        x.locate(Fraction(1, 2), Fraction(1, 3))


def test_rational_locator_constructions():
    assert from_rational_first(Fraction(1, 2)).locate(0, 1) is Side.RIGHT
    assert from_rational_first(0).locate(1, 2) is Side.LEFT
    assert from_rational_first(0).locate(-1, 1) is Side.RIGHT
    assert from_rational_second(Fraction(1, 2)).locate(0, 1) is Side.LEFT
    assert from_rational_second(0).locate(-2, -1) is Side.RIGHT
    # Same real, opposite bias when both answers are true.
    assert from_rational_first(Fraction(1, 2)).locates_right(0, 1)
    assert not from_rational_second(Fraction(1, 2)).locates_right(0, 1)


@given(small, gaps, st.booleans())
def test_forced_queries_on_rational_locators(v, gap, second):
    x = (from_rational_second if second else from_rational_first)(v)
    assert x.locate(v - gap, v) is Side.RIGHT
    assert x.locate(v, v + gap) is Side.LEFT
    assert x.locate(v - 2 * gap, v - gap) is Side.RIGHT
    assert x.locate(v + gap, v + 2 * gap) is Side.LEFT


def test_locate_is_deterministic_and_memoized():
    x = from_rational(Fraction(1, 2))
    first = x.locate(0, 1)
    for _ in range(100):
        assert x.locate(0, 1) is first
    assert x.query_count == 1


def test_memo_key_is_the_reduced_rational():
    x = from_rational(Fraction(1, 2))
    before = evaluation_count()
    first = x.locate(0, 1)
    bracket = x.known_bracket()
    assert x.locate("0", "1") is first
    assert x.locate(Fraction(0), Fraction(2, 2)) is first
    assert x.query_count == 1
    assert evaluation_count() - before == 1
    assert x.known_bracket() == bracket
    # Same numerators as (0, 1), different rational: a miss.
    x.locate(0, Fraction(1, 3))
    assert x.query_count == 2


def test_bounded_search_returns_least_index():
    assert bounded_search(lambda n: n >= 3) == 3
    # unit_rational is far from monotone: 8/9 is its first value above 7/8.
    n = bounded_search(lambda i: unit_rational(i) > Fraction(7, 8))
    assert n == 254
    assert unit_rational(n) == Fraction(8, 9)
    assert all(unit_rational(i) <= Fraction(7, 8) for i in range(n))


@given(st.integers(min_value=0, max_value=200))
def test_bounded_search_matches_linear_scan(k):
    assert bounded_search(lambda n: n * n >= k) == min(n for n in range(30) if n * n >= k)


def test_bounded_search_exhaustion():
    with pytest.raises(SearchExhausted):
        bounded_search(lambda n: False, cap=1000)


def test_search_cap_validation():
    with pytest.raises(ValueError):
        set_search_cap(0)
    with pytest.raises(ValueError):
        set_search_cap(-5)


def test_bounds_on_fresh_rational_five():
    # Replay of the dyadic probe sequence for the first construction.
    x = from_rational(5)
    assert lower_bound(x) == -2
    assert x.query_count == 1
    y = from_rational(5)
    assert upper_bound(y) == 16
    assert y.query_count == 4


def test_bounds_double_past_two_to_the_128():
    # The dyadic probes run up to the search cap, not a fixed 128 steps.
    assert upper_bound(from_rational(2**200)) == 2**201
    assert lower_bound(from_rational(-(2**200))) == -(2**201)


@given(small)
def test_bounds_straddle_the_value(v):
    x = from_rational(v)
    assert lower_bound(x) < v < upper_bound(x)


def test_tight_bound_replay_on_one_third():
    x = from_rational(Fraction(1, 3))
    b = tight_bound(x, 1)
    assert (b.lo, b.hi) == (Fraction(0), Fraction(2, 3))
    assert b.lo < Fraction(1, 3) < b.hi


def test_tight_bound_width_law_on_uniform_grid():
    # Interior scan hits report width exactly 2*eps/3.
    cases = [
        (Fraction(1, 3), Fraction(1), (Fraction(0), Fraction(2, 3))),
        (Fraction(1, 3), Fraction(1, 10), (Fraction(14, 45), Fraction(17, 45))),
        (Fraction(2, 7), Fraction(1, 5), (Fraction(4, 15), Fraction(2, 5))),
    ]
    for v, eps, want in cases:
        b = tight_bound(from_rational(v), eps)
        assert (b.lo, b.hi) == want
        assert b.width == Fraction(2, 3) * eps


@given(small, st.fractions(min_value=Fraction(1, 500), max_value=2))
def test_tight_bound_contains_value_within_eps(v, eps):
    b = tight_bound(from_rational(v), eps)
    assert b.lo < v < b.hi
    assert b.width < eps


def test_tight_bounds_for_same_real_intersect():
    x = from_rational(Fraction(22, 7))
    brackets = [tight_bound(x, Fraction(1, 10**k)) for k in range(5)]
    for a in brackets:
        for b in brackets:
            assert max(a.lo, b.lo) < min(a.hi, b.hi)


@pytest.mark.parametrize(
    "lo, hi, step, v",
    [(0, 1, Fraction(3, 10), Fraction(19, 20)), (-1, Fraction(1, 7), Fraction(1, 30), Fraction(7, 50))],
)
def test_scan_closes_with_the_incoming_hi_when_every_cell_answers_right(lo, hi, step, v):
    # The last grid line sits below v, and from_rational answers RIGHT to
    # every cell that starts below its value, so the walk ends without a
    # LEFT and the incoming hi closes the bracket, narrower than one step.
    x = from_rational(v)
    count = (hi - lo) // step + 1
    assert all(x.locates_right(lo + j * step, lo + (j + 1) * step) for j in range(count))
    b_lo, b_hi = _scan(x, Fraction(lo), Fraction(hi), step)
    assert (b_lo, b_hi) == (lo + (count - 1) * step, hi)
    assert b_lo < v < b_hi and b_hi - b_lo < step


def test_tight_bound_reuses_cached_bracket():
    x = from_rational(Fraction(1, 3))
    tight_bound(x, Fraction(1, 100))
    before = x.query_count
    tight_bound(x, Fraction(1, 100))
    tight_bound(x, Fraction(1, 10))
    assert x.query_count == before


def test_integer_bracket():
    k = integer_bracket(from_rational(Fraction(5, 2)))
    assert k == 3
    assert k - 1 < Fraction(5, 2) < k + 1
    assert integer_bracket(from_rational(0)) in (0, 1)


@given(small)
def test_integer_bracket_contains_value(v):
    k = integer_bracket(from_rational(v))
    assert k - 1 < v < k + 1


def test_archimedean_midpoint_replay():
    assert archimedean_midpoint(from_rational(0), from_rational(1)) == Fraction(1, 2)


@given(small, gaps)
def test_archimedean_midpoint_lands_strictly_between(v, gap):
    q = archimedean_midpoint(from_rational(v), from_rational(v + gap))
    assert v < q < v + gap


def test_cotrans_rational():
    zero, two = from_rational(0), from_rational(2)
    assert cotrans_rational(zero, two, 3) is CotransResult.X_BELOW_S
    assert cotrans_rational(zero, two, -1) is CotransResult.S_BELOW_Y
    # Both disjuncts true; the replayed search fixes the answer.
    assert cotrans_rational(from_rational(0), from_rational(2), 1) is CotransResult.X_BELOW_S


def test_refinement_moves_bounds_inward():
    x = from_rational(1)
    q1 = refine_lower(x, 0)
    assert 0 < q1 < 1
    q2 = refine_lower(x, q1)
    assert q1 < q2 < 1
    r1 = refine_upper(x, 2)
    assert 1 < r1 < 2


def test_to_cauchy_sequence_and_modulus():
    seq, modulus = to_cauchy(from_rational(Fraction(1, 3)))
    assert [seq(n) for n in range(4)] == [
        Fraction(1, 3),
        Fraction(31, 90),
        Fraction(301, 900),
        Fraction(3001, 9000),
    ]
    for n in range(7):
        assert abs(seq(n) - Fraction(1, 3)) < Fraction(1, 10**n)
    m = modulus(Fraction(1, 1000))
    assert m == 4
    for i in range(m, 11):
        for j in range(m, 11):
            assert abs(seq(i) - seq(j)) < Fraction(1, 1000)


def test_concurrent_queries_are_consistent():
    x = from_rational(Fraction(1, 3))
    queries = [(Fraction(j, 7) - 1, Fraction(j, 7)) for j in range(1, 15)]
    results: list[dict] = [None] * 8

    def worker(slot):
        results[slot] = {qr: x.locate(*qr) for qr in queries}

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_once_computes_its_thunk_once_across_threads():
    calls = []

    def thunk():
        calls.append(None)
        time.sleep(0.01)  # widen the window in which a second call could start
        return object()

    get = once(thunk)
    seen: list = [None] * 16

    def worker(slot):
        seen[slot] = get()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert all(value is seen[0] for value in seen)


def test_custom_locator_answer_type_checked():
    bad = CReal(lambda q, r: "right")
    with pytest.raises(TypeError):
        bad.locate(0, 1)


def test_rational_locators_carry_their_value():
    assert from_rational_first(Fraction(1, 2)).exact == Fraction(1, 2)
    assert from_rational_second(-3).exact == Fraction(-3)
    assert CReal(lambda q, r: Side.LEFT, name="opaque").exact is None
    with pytest.raises(AttributeError):
        from_rational(1).exact = Fraction(2)


def test_from_rational_on_huge_rationals():
    # The name clips on bit length instead of printing past Python's
    # 4300-digit int-string limit; the locator itself is unchanged.
    tiny = Fraction(1, 3**10000)
    x = from_rational(tiny)
    assert x.exact == tiny
    assert x.name == "rational(1b/15850b)"
    assert from_rational_second(-1 / tiny).name == "rational'(-15850b/1b)"
    assert x.locate(0, tiny) is Side.RIGHT
    assert x.locate(tiny, 1) is Side.LEFT
    assert from_rational(Fraction(2**127, 3)).name == f"rational({2**127}/3)"

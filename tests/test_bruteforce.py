import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import count_by_scan

from ehrmat import corpus
from ehrmat.bruteforce import count_direct, ehrhart_by_interpolation
from ehrmat.exactmath import poly_eval
from ehrmat.matroid import BudgetExceeded, RankFunction
from ehrmat.vertices import (
    BASES_POLYTOPE, INDEPENDENCE_POLYTOPE, POLYMATROID, PolytopeSpec,
)

K4_EHRHART = tuple(Fraction(x) for x in
                   ("1", "107/30", "21/4", "49/12", "7/4", "7/20"))


def test_count_k4():
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    assert count_direct(spec, 1) == 16


def test_count_u24():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(4, 2))
    assert count_direct(spec, 1) == 6


def test_count_independence_u12_dilated():
    spec = PolytopeSpec(INDEPENDENCE_POLYTOPE, RankFunction.uniform(2, 1))
    assert count_direct(spec, 2) == 6  # triangle 2*conv{0, e1, e2}


def test_count_k0_is_one():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(4, 2))
    assert count_direct(spec, 0) == 1


def test_count_rejects_negative_k():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(4, 2))
    with pytest.raises(ValueError):
        count_direct(spec, -1)


def test_count_matches_naive_scan():
    rng = random.Random(20240823)
    for _ in range(12):
        n = rng.randint(2, 5)
        r = rng.randint(1, n)
        family = rng.choice([BASES_POLYTOPE, INDEPENDENCE_POLYTOPE])
        spec = PolytopeSpec(family, RankFunction.uniform(n, r))
        k = rng.randint(1, 3)
        assert count_direct(spec, k) == count_by_scan(spec, k)


def test_count_matches_naive_scan_polymatroid():
    rng = random.Random(77)
    for _ in range(8):
        n = rng.randint(2, 4)
        # random submodular table: truncated weighted coverage
        weights = [rng.randint(1, 3) for _ in range(n)]
        cap = rng.randint(2, 5)
        table = {}
        for mask in range(1, 1 << n):
            a = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            table[a] = min(cap, sum(weights[i - 1] for i in a))
        spec = PolytopeSpec(POLYMATROID, RankFunction.from_table(n, table))
        k = rng.randint(1, 3)
        assert count_direct(spec, k) == count_by_scan(spec, k)


def _graphic(draw, n):
    """Cycle matroid of a random multigraph with n edges on 4 vertices:
    loops and parallel edges allowed."""
    vertex = st.integers(1, 4)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=n))
    return RankFunction.graphic(n, edges)


@st.composite
def matroid_specs(draw):
    """Bases or independence polytope of a graphic matroid on <= 6
    edges."""
    family = draw(st.sampled_from([BASES_POLYTOPE, INDEPENDENCE_POLYTOPE]))
    return PolytopeSpec(family, _graphic(draw, draw(st.integers(1, 6))))


@st.composite
def polymatroid_specs(draw):
    """Polymatroid a f1 + b f2 of two graphic matroid ranks on the same
    n <= 5 elements, with a, b >= 0 and a + b <= 2 to keep the scan's
    box small."""
    n = draw(st.integers(1, 5))
    f1, f2 = _graphic(draw, n), _graphic(draw, n)
    a = draw(st.integers(0, 2))
    b = draw(st.integers(0, 2 - a))
    table = {frozenset(i + 1 for i in range(n) if mask >> i & 1):
             a * f1.values[mask] + b * f2.values[mask]
             for mask in range(1, 1 << n)}
    return PolytopeSpec(POLYMATROID, RankFunction.from_table(n, table))


@settings(max_examples=100, deadline=None)
@given(st.one_of(matroid_specs(), polymatroid_specs()), st.integers(0, 3))
def test_count_matches_scan_random(spec, k):
    assert count_direct(spec, k) == count_by_scan(spec, k)


def test_interpolation_k4():
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    assert ehrhart_by_interpolation(spec) == K4_EHRHART


def test_interpolation_point_polytope():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(3, 3))
    assert ehrhart_by_interpolation(spec) == (Fraction(1),)


def test_interpolation_extrapolates():
    # the fitted polynomial predicts a count not used in the fit
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(5, 2))
    p = ehrhart_by_interpolation(spec)
    k = len(p) + 1
    assert poly_eval(p, k) == count_direct(spec, k)


def test_budget_guard(monkeypatch):
    monkeypatch.delenv("EHRMAT_BUDGET", raising=False)
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(13, 2))
    with pytest.raises(BudgetExceeded):
        count_direct(spec, 1)

import random
from fractions import Fraction
from itertools import combinations

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import count_by_scan
from strategies import independence_specs, truncated_sum_specs

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
    return RankFunction.graphic(edges)


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


def _table(n, values):
    """The rank table on n elements given by {subset tuple: value}."""
    return RankFunction.from_table(n, {frozenset(a): v
                                       for a, v in values.items()})


@pytest.mark.parametrize("family, f, k, count", [
    # two coordinates, caps a', b' and c = f({1, 2}): with a' + b' <= c
    # the whole box counts
    (POLYMATROID, _table(2, {(1,): 2, (2,): 3, (1, 2): 5}), 1, 12),
    # a' + b' = c + 1: the box less its corner
    (POLYMATROID, _table(2, {(1,): 2, (2,): 3, (1, 2): 4}), 1, 11),
    # a' = b' = c: the triangle x + y <= 3, the box less 6 points
    (POLYMATROID, _table(2, {(1,): 3, (2,): 3, (1, 2): 3}), 1, 10),
    (POLYMATROID, _table(2, {(1,): 3, (2,): 3, (1, 2): 3}), 2, 28),
    # the bases family's difference x(E) <= k r less x(E) <= k r - 1:
    # 10 - 6 points on the segment x + y = 3
    (BASES_POLYTOPE, RankFunction.uniform(2, 1), 3, 4),
    # rank 0: the second count starts from the cap -1 and is 0
    (BASES_POLYTOPE, RankFunction.uniform(2, 0), 2, 1),
    # x_1 = 1 folds the cap of {2, 3} in x(E) <= 0 to -1: 4 - 1 points
    (BASES_POLYTOPE, RankFunction.uniform(3, 1), 1, 3),
    # x_1 = 0 leaves every cap as it is, x_1 = 1 cuts {2, 3} to 2:
    # 8 + 6 points
    (POLYMATROID, _table(3, {(1,): 1, (2,): 2, (3,): 2, (1, 2): 3,
                             (1, 3): 3, (2, 3): 3, (1, 2, 3): 3}), 1, 14),
], ids=["box", "corner_cut", "triangle", "triangle_k2", "bases_segment",
        "bases_rank0", "bases_negative_fold", "equal_children_run"])
def test_count_hand_cases(family, f, k, count):
    spec = PolytopeSpec(family, f)
    assert count_direct(spec, k) == count == count_by_scan(spec, k)


def _count_nested(spec, k):
    """#(kP intersect Z^n) by nested ranges in index order: coordinate i
    runs over 0..min of k f(S) - x(S - i) over the sets S of the first
    i + 1 coordinates that hold i, and the bases family keeps the
    points with x(E) = k r. No memo and no closed form."""
    n, values = spec.n, spec.f.values

    def walk(i, sums):
        # sums[m] = x(m) for the masks m of the first i coordinates
        if i == n:
            return int(spec.family != BASES_POLYTOPE
                       or sums[-1] == k * spec.r)
        bit = 1 << i
        top = min(k * values[m | bit] - sums[m] for m in range(bit))
        return sum(walk(i + 1, sums + [s + x for s in sums])
                   for x in range(top + 1))

    return walk(0, [0])


def _small(specs):
    return specs.filter(lambda spec: spec.n <= 5)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    _small(truncated_sum_specs()),
    _small(independence_specs()),
    _small(independence_specs()).map(
        lambda spec: PolytopeSpec(BASES_POLYTOPE, spec.f))),
    st.integers(0, 3))
def test_count_matches_nested_ranges(spec, k):
    assert count_direct(spec, k) == _count_nested(spec, k)


def _relabelled(spec, perm):
    """The same polytope with new element i + 1 standing for old element
    perm[i] + 1."""
    values = spec.f.values

    def old_mask(mask):
        return sum(1 << perm[i] for i in range(spec.n) if mask >> i & 1)

    f = RankFunction(spec.n, lambda m: values[old_mask(m)])
    return PolytopeSpec(spec.family, f)


@settings(max_examples=100, deadline=None)
@given(st.one_of(truncated_sum_specs(), matroid_specs()), st.integers(0, 3),
       st.data())
def test_count_invariant_under_relabelling(spec, k, data):
    # count_direct fixes coordinates in the order of their singleton
    # caps, ties by index; no order of the ground set may change a count
    perm = data.draw(st.permutations(range(spec.n)))
    assert count_direct(_relabelled(spec, perm), k) == count_direct(spec, k)


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


def _lagrange_over_counts(spec, kmax):
    return oracles.poly_interpolate(
        [(k, count_direct(spec, k)) for k in range(kmax + 1)])


def test_interpolation_independence_matches_lagrange():
    # an independence polytope is full-dimensional: kmax = n
    spec = PolytopeSpec(INDEPENDENCE_POLYTOPE, corpus.rank_function("K4"))
    p = ehrhart_by_interpolation(spec)
    assert len(p) == 7
    assert p == _lagrange_over_counts(spec, 6)


def test_interpolation_polymatroid_matches_lagrange():
    # f(A) = min(w(A), 3) on 4 elements: kmax = n, as for independence
    w = (1, 2, 1, 2)
    table = {a: min(sum(w[i - 1] for i in a), 3)
             for k in range(1, 5) for a in map(frozenset, combinations(
                 range(1, 5), k))}
    spec = PolytopeSpec(POLYMATROID, RankFunction.from_table(4, table))
    p = ehrhart_by_interpolation(spec)
    assert len(p) == 5
    assert p == _lagrange_over_counts(spec, 4)


def test_budget_guard(monkeypatch):
    monkeypatch.delenv("EHRMAT_BUDGET", raising=False)
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(13, 2))
    with pytest.raises(BudgetExceeded):
        count_direct(spec, 1)

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    adjacency_by_lp, adjacency_by_tight_rank, all_generated_vertices,
    bases_adjacency_pairwise, contains_scaled, edmonds_generate,
    enumerate_bases, polymatroid_vertices_by_scan,
    tight_lattice_adjacency_pairwise,
)
from strategies import independence_specs, truncated_sum_specs

from ehrmat import corpus
from ehrmat.exactmath import binomial, vec_sub
from ehrmat.matroid import RankFunction, check_polymatroid_axioms
from ehrmat.vertices import (
    BASES_POLYTOPE, INDEPENDENCE_POLYTOPE, POLYMATROID, PolytopeSpec,
    enumerate_vertices,
)


def _table_of(f):
    table = {}
    for mask in range(1, 1 << f.n):
        a = frozenset(i + 1 for i in range(f.n) if mask >> i & 1)
        table[a] = f.rank(a)
    return RankFunction.from_table(f.n, table)


def test_enumerate_bases_k4():
    bs = enumerate_bases(corpus.rank_function("K4"))
    assert len(bs) == 16
    triangles = [{1, 2, 4}, {1, 3, 5}, {2, 3, 6}, {4, 5, 6}]
    expected = [frozenset(c) for c in combinations(range(1, 7), 3)
                if set(c) not in triangles]
    assert sorted(bs, key=sorted) == sorted(expected, key=sorted)


def test_enumerate_bases_uniform():
    assert len(enumerate_bases(RankFunction.uniform(4, 2))) == 6
    assert enumerate_bases(RankFunction.uniform(3, 3)) == [frozenset({1, 2, 3})]


def test_enumerate_bases_rejects_r_gt_n():
    # a polymatroid table whose value on the ground set exceeds n
    table = {frozenset(c): 4 for k in range(1, 4)
             for c in combinations(range(1, 4), k)}
    with pytest.raises(ValueError):
        enumerate_bases(RankFunction.from_table(3, table))


def test_vertices_bases_k4():
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    vs = enumerate_vertices(spec)
    assert len(vs.vertices) == 16
    assert all(sum(v) == 3 and set(v) <= {0, 1} for v in vs.vertices)


def test_vertices_independence_u23():
    spec = PolytopeSpec(INDEPENDENCE_POLYTOPE, RankFunction.uniform(3, 2))
    vs = enumerate_vertices(spec)
    assert len(vs.vertices) == 7  # empty set, three singletons, three pairs


def test_polymatroid_equals_independence_polytope():
    f = RankFunction.uniform(3, 2)
    ind = enumerate_vertices(PolytopeSpec(INDEPENDENCE_POLYTOPE, f))
    poly = enumerate_vertices(PolytopeSpec(POLYMATROID, _table_of(f)))
    assert sorted(ind.vertices) == sorted(poly.vertices)


def test_polymatroid_vertex_count_bound():
    f = _table_of(RankFunction.uniform(4, 2))
    vs = enumerate_vertices(PolytopeSpec(POLYMATROID, f))
    assert len(vs.vertices) <= binomial(4 + 2, 2)


def test_edmonds_generate_examples():
    f = RankFunction.uniform(3, 2)
    assert edmonds_generate(f, (1, 2)) == (1, 1, 0)
    assert edmonds_generate(f, ()) == (0, 0, 0)
    with pytest.raises(ValueError):
        edmonds_generate(f, (1, 1))


def test_edmonds_generates_exactly_the_vertices():
    for n, r in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        f = _table_of(RankFunction.uniform(n, r))
        enumerated = set(
            enumerate_vertices(PolytopeSpec(POLYMATROID, f)).vertices)
        generated = all_generated_vertices(f)
        assert enumerated == generated


@st.composite
def polymatroid_tables(draw):
    """Polymatroids on n <= 6 elements: a weighted coverage function
    A -> sum of w_j over the blocks T_j that meet A, truncated at c."""
    n = draw(st.integers(1, 6))
    blocks = draw(st.lists(st.tuples(st.integers(1, (1 << n) - 1),
                                     st.integers(1, 3)),
                           min_size=1, max_size=6))
    full = sum(w for _, w in blocks)
    cap = draw(st.integers(0, full))
    table = {}
    for mask in range(1, 1 << n):
        a = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        table[a] = min(cap, sum(w for t, w in blocks if t & mask))
    return RankFunction.from_table(n, table)


@settings(max_examples=100, deadline=None)
@given(polymatroid_tables())
def test_greedy_vertices_equal_scan(f):
    assert check_polymatroid_axioms(f)[0]
    got = enumerate_vertices(PolytopeSpec(POLYMATROID, f)).vertices
    assert got == polymatroid_vertices_by_scan(f)


def test_adjacency_k4_at_123():
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    vs = enumerate_vertices(spec)
    idx = {frozenset(i + 1 for i, x in enumerate(v) if x): j
           for j, v in enumerate(vs.vertices)}
    i = idx[frozenset({1, 2, 3})]
    expected = {idx[frozenset(b)] for b in
                [{2, 3, 5}, {2, 3, 4}, {1, 3, 6}, {1, 3, 4},
                 {1, 2, 6}, {1, 2, 5}]}
    assert set(vs.adjacency[i]) == expected


def test_adjacency_simplex_complete():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(4, 1))
    vs = enumerate_vertices(spec)
    for i in range(4):
        assert set(vs.adjacency[i]) == set(range(4)) - {i}


def test_bases_adjacency_matches_lp():
    for n, r in [(4, 2), (5, 2), (5, 3)]:
        spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(n, r))
        vs = enumerate_vertices(spec)
        assert vs.adjacency == adjacency_by_lp(spec, vs.vertices)
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    vs = enumerate_vertices(spec)
    assert vs.adjacency == adjacency_by_lp(spec, vs.vertices)


def test_tight_rank_adjacency_matches_lp():
    # independence/polymatroid adjacency uses the tight-constraint rank
    # test; the extreme-ray LP is the independent reference
    cases = [
        (INDEPENDENCE_POLYTOPE, RankFunction.uniform(4, 2)),
        (INDEPENDENCE_POLYTOPE, RankFunction.uniform(5, 3)),
        (INDEPENDENCE_POLYTOPE, corpus.rank_function("K4")),
        (POLYMATROID, _table_of(RankFunction.uniform(4, 3))),
    ]
    # a polymatroid with non-0/1 vertices: truncated weighted coverage
    weights, cap = [2, 1, 3, 1], 4
    table = {}
    for mask in range(1, 1 << 4):
        a = frozenset(i + 1 for i in range(4) if mask >> i & 1)
        table[a] = min(cap, sum(weights[i - 1] for i in a))
    cases.append((POLYMATROID, RankFunction.from_table(4, table)))
    for family, f in cases:
        spec = PolytopeSpec(family, f)
        vs = enumerate_vertices(spec)
        assert vs.adjacency == adjacency_by_lp(spec, vs.vertices)


@settings(max_examples=150, deadline=None)
@given(st.one_of(truncated_sum_specs(), independence_specs()))
def test_adjacency_matches_tight_rank_random(spec):
    vs = enumerate_vertices(spec)
    assert vs.adjacency == adjacency_by_tight_rank(spec, vs.vertices)


@settings(max_examples=150, deadline=None)
@given(st.one_of(truncated_sum_specs(), independence_specs()))
def test_adjacency_matches_pairwise_lattice_rule(spec):
    vs = enumerate_vertices(spec)
    assert vs.adjacency == tight_lattice_adjacency_pairwise(spec,
                                                            vs.vertices)


def _table_by_size(n, by_size):
    """The polymatroid with f(A) = by_size[|A| - 1]."""
    return RankFunction(n, lambda m: m and by_size[m.bit_count() - 1])


@pytest.mark.parametrize("by_size, x, y, edge", [
    # the unit square: the diagonal's merged unit {1, 2} is not tight
    ((1, 2), (1, 0), (0, 1), False),
    # U(2,1): the merged unit {1, 2} of value 1 is tight
    ((1, 1), (1, 0), (0, 1), True),
    # f = 2, 3, 3 by size: a side of the hexagonal face x(E) = 3, and a
    # chord of it
    ((2, 3, 3), (2, 1, 0), (1, 2, 0), True),
    ((2, 3, 3), (2, 0, 1), (0, 2, 1), False),
], ids=["square_diagonal", "u21_side", "hexagon_side", "hexagon_chord"])
def test_prefix_walk_on_merged_unit(by_size, x, y, edge):
    # each pair sits alone in its e_a - e_b bucket, so the answer is the
    # walk's on the merged unit of value x_a + x_b
    vs = enumerate_vertices(PolytopeSpec(POLYMATROID,
                                         _table_by_size(len(x), by_size)))
    i, j = vs.vertices.index(x), vs.vertices.index(y)
    assert (j in vs.adjacency[i]) == edge
    assert (i in vs.adjacency[j]) == edge


@pytest.mark.parametrize("n, by_size", [
    # the zero polymatroid: one vertex, largest coordinate 0, base 2
    (3, (0, 0, 0)),
    # one element: the segment [0, 2], with one direction key
    (1, (2,)),
    # f = 2, 4, 4 by size: (2, 2, 0) is a vertex on four edges, and its
    # e_1 - e_2 key puts x_1 + x_2 = 4, twice the largest coordinate, on
    # one digit
    (3, (2, 4, 4)),
], ids=["zero", "n1", "digit_sum_2max"])
def test_integer_bucket_keys_edge_cases(n, by_size):
    spec = PolytopeSpec(POLYMATROID, _table_by_size(n, by_size))
    vs = enumerate_vertices(spec)
    assert vs.adjacency == tight_lattice_adjacency_pairwise(spec,
                                                            vs.vertices)


def _graphic_sum(graphs):
    gs = [RankFunction.graphic(g) for g in graphs]
    return RankFunction(len(graphs[0]),
                        lambda m: sum(g.values[m] for g in gs))


@pytest.mark.parametrize("f", [
    # the bench's min(w(A), c), weights in {1, 2, 3} sorted down
    RankFunction(7, lambda m: min(11, sum(
        w for i, w in enumerate((3, 3, 2, 2, 1, 1, 1)) if m >> i & 1))),
    # a sum of three graphic ranks, a loop included: 637 vertices
    _graphic_sum([
        [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4), (1, 1)],
        [(1, 2), (1, 2), (2, 3), (3, 1), (4, 5), (5, 4), (2, 5)],
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3), (2, 4)]]),
], ids=["truncated_weights", "graphic_sum"])
def test_adjacency_matches_pairwise_lattice_rule_n7(f):
    # the Hypothesis strategies stop at n = 6
    spec = PolytopeSpec(POLYMATROID, f)
    vs = enumerate_vertices(spec)
    assert vs.adjacency == tight_lattice_adjacency_pairwise(spec,
                                                            vs.vertices)


def _edges_by_coordinates(vs):
    return {frozenset((vs.vertices[i], vs.vertices[j]))
            for i, nbrs in enumerate(vs.adjacency) for j in nbrs}


def _assert_swap_rule_matches_polymatroid(f):
    # the independence polytope of M is the polymatroid of M's rank
    # function, so the swap rule and the direction buckets with the
    # lattice test must find the same edges
    ind = enumerate_vertices(PolytopeSpec(INDEPENDENCE_POLYTOPE, f))
    poly = enumerate_vertices(PolytopeSpec(POLYMATROID, f))
    assert sorted(ind.vertices) == poly.vertices
    assert _edges_by_coordinates(ind) == _edges_by_coordinates(poly)


@pytest.mark.parametrize("name", corpus.names())
def test_independence_swap_rule_matches_polymatroid_corpus(name):
    _assert_swap_rule_matches_polymatroid(corpus.rank_function(name))


@settings(max_examples=150, deadline=None)
@given(independence_specs())
def test_independence_swap_rule_matches_polymatroid_random(spec):
    _assert_swap_rule_matches_polymatroid(spec.f)


@pytest.mark.parametrize("name", ["AG32", "F7", "K4"])
def test_independence_adjacency_matches_tight_rank(name):
    spec = PolytopeSpec(INDEPENDENCE_POLYTOPE, corpus.rank_function(name))
    vs = enumerate_vertices(spec)
    assert vs.adjacency == adjacency_by_tight_rank(spec, vs.vertices)


def test_bases_adjacency_directions():
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("Q6"))
    vs = enumerate_vertices(spec)
    for i, nbrs in enumerate(vs.adjacency):
        for j in nbrs:
            d = vec_sub(vs.vertices[j], vs.vertices[i])
            assert sorted(d) == [-1] + [0] * (spec.n - 2) + [1]


@st.composite
def bases_specs(draw):
    """Bases polytope of a cycle matroid of a random multigraph with
    n <= 8 edges on 5 vertices, loops and parallel edges allowed,
    truncated at rank t."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(1, 5)
    g = RankFunction.graphic(draw(st.lists(st.tuples(vertex, vertex),
                                           min_size=n, max_size=n)))
    t = draw(st.integers(0, n))
    f = RankFunction(n, lambda m: min(g.values[m], t))
    return PolytopeSpec(BASES_POLYTOPE, f)


@settings(max_examples=150, deadline=None)
@given(bases_specs())
def test_bases_adjacency_swap_lookup_matches_pairwise_rule(spec):
    vs = enumerate_vertices(spec)
    assert vs.adjacency == bases_adjacency_pairwise(vs.vertices)


def test_independence_adjacency_directions():
    # each neighbor difference is parallel to e_i - e_j, e_i, or -e_j
    spec = PolytopeSpec(INDEPENDENCE_POLYTOPE, RankFunction.uniform(4, 2))
    vs = enumerate_vertices(spec)
    for i, nbrs in enumerate(vs.adjacency):
        for j in nbrs:
            d = vec_sub(vs.vertices[j], vs.vertices[i])
            pos = sum(1 for x in d if x > 0)
            neg = sum(1 for x in d if x < 0)
            assert set(d) <= {-1, 0, 1} and pos <= 1 and neg <= 1


def test_polymatroid_adjacency_directions():
    # tabulated psi, n <= 5: neighbor differences lie in
    # {multiples of e_i, of -e_j, or parallel to e_d - e_c}
    f = _table_of(RankFunction.uniform(4, 2))
    spec = PolytopeSpec(POLYMATROID, f)
    vs = enumerate_vertices(spec)
    for i, nbrs in enumerate(vs.adjacency):
        for j in nbrs:
            d = vec_sub(vs.vertices[j], vs.vertices[i])
            support = [x for x in d if x != 0]
            assert len(support) <= 2
            if len(support) == 2:
                assert support[0] == -support[1]


def test_contains_scaled():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(3, 2))
    assert contains_scaled(spec, (1, 1, 0), 1)
    assert contains_scaled(spec, (2, 1, 1), 2)
    assert not contains_scaled(spec, (1, 1, 1), 1)  # wrong sum
    assert not contains_scaled(spec, (2, 0, 0), 1)  # violates singleton cap
    assert not contains_scaled(spec, (-1, 2, 1), 1)

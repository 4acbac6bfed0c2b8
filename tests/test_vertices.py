from itertools import combinations

import pytest
from oracles import adjacency_by_lp

from ehrmat import corpus
from ehrmat.exactmath import binomial, vec_sub
from ehrmat.matroid import RankFunction
from ehrmat.vertices import (
    BASES_POLYTOPE, INDEPENDENCE_POLYTOPE, POLYMATROID, PolytopeSpec,
    all_generated_vertices, edmonds_generate, enumerate_bases,
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
    with pytest.raises(ValueError):
        enumerate_bases(RankFunction.uniform(3, 2), n=3, r=4)


def test_vertices_bases_k4():
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    vs = enumerate_vertices(spec)
    assert len(vs) == 16
    assert all(sum(v) == 3 and set(v) <= {0, 1} for v in vs.vertices)


def test_vertices_independence_u23():
    spec = PolytopeSpec(INDEPENDENCE_POLYTOPE, RankFunction.uniform(3, 2))
    vs = enumerate_vertices(spec)
    assert len(vs) == 7  # empty set, three singletons, three pairs


def test_polymatroid_equals_independence_polytope():
    f = RankFunction.uniform(3, 2)
    ind = enumerate_vertices(PolytopeSpec(INDEPENDENCE_POLYTOPE, f))
    poly = enumerate_vertices(PolytopeSpec(POLYMATROID, _table_of(f)))
    assert sorted(ind.vertices) == sorted(poly.vertices)


def test_polymatroid_vertex_count_bound():
    f = _table_of(RankFunction.uniform(4, 2))
    vs = enumerate_vertices(PolytopeSpec(POLYMATROID, f))
    assert len(vs) <= binomial(4 + 2, 2)


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


def test_adjacency_k4_at_123():
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    vs = enumerate_vertices(spec)
    idx = {frozenset(i + 1 for i, x in enumerate(v) if x): j
           for j, v in enumerate(vs.vertices)}
    i = idx[frozenset({1, 2, 3})]
    expected = {idx[frozenset(b)] for b in
                [{2, 3, 5}, {2, 3, 4}, {1, 3, 6}, {1, 3, 4},
                 {1, 2, 6}, {1, 2, 5}]}
    assert set(vs.adjacent_vertices(i)) == expected


def test_adjacency_simplex_complete():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(4, 1))
    vs = enumerate_vertices(spec)
    for i in range(4):
        assert set(vs.adjacent_vertices(i)) == set(range(4)) - {i}


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


def test_bases_adjacency_directions():
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("Q6"))
    vs = enumerate_vertices(spec)
    for i, nbrs in enumerate(vs.adjacency):
        for j in nbrs:
            d = vec_sub(vs.vertices[j], vs.vertices[i])
            assert sorted(d) == [-1] + [0] * (spec.n - 2) + [1]


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
    assert spec.contains_scaled((1, 1, 0), 1)
    assert spec.contains_scaled((2, 1, 1), 2)
    assert not spec.contains_scaled((1, 1, 1), 1)  # wrong sum
    assert not spec.contains_scaled((2, 0, 0), 1)  # violates singleton cap
    assert not spec.contains_scaled((-1, 2, 1), 1)

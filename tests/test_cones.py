import os
import re
import subprocess
import sys
from functools import cache
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    _boundary_facets_with_owner, det, fraction_mat_rank, half_open_contains,
    is_extreme_direction, mat_mul, placing_triangulation,
    reference_placing_triangulation, reference_triangulate_cone, visible,
)
from test_bruteforce import matroid_specs, polymatroid_specs

import ehrmat
from ehrmat import cli, cones, corpus
from ehrmat.cones import (
    _arc, _pairing, _place, arc_pattern, assert_unimodular,
    facet_normals_unimodular, half_open_decompose, pick_generic_y,
    tangent_cone, tree_cuts, triangulate_cone,
)
from ehrmat.exactmath import vec_dot, vec_sub
from ehrmat.genfun import affine_lattice_basis, to_working, working_chart
from ehrmat.matroid import RankFunction
from ehrmat.vertices import (
    BASES_POLYTOPE, INDEPENDENCE_POLYTOPE, PolytopeSpec, enumerate_vertices,
)

DATA = Path(ehrmat.__file__).parent / "data"

K4_RAY_BASES = [{2, 3, 5}, {2, 3, 4}, {1, 3, 6}, {1, 3, 4},
                {1, 2, 6}, {1, 2, 5}]
K4_APEX_BASIS = {1, 2, 3}


def _indicator(subset, n=6):
    return tuple(1 if i in subset else 0 for i in range(1, n + 1))


def _k4_rays():
    apex = _indicator(K4_APEX_BASIS)
    return [vec_sub(_indicator(b), apex) for b in K4_RAY_BASES]


def test_tangent_cone_k4_rays():
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    vs = enumerate_vertices(spec)
    i = vs.vertices.index(_indicator(K4_APEX_BASIS))
    assert sorted(tangent_cone(vs, i)) == sorted(_k4_rays())


def test_tangent_cone_segment():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(2, 1))
    vs = enumerate_vertices(spec)
    i = vs.vertices.index((1, 0))
    assert tangent_cone(vs, i) == [(-1, 1)]


def test_tangent_cone_rays_in_elementary_set():
    # every ray direction at a 0/1 vertex v is e_i - e_j, e_i, or -e_j
    # with j in supp(v)
    spec = PolytopeSpec(INDEPENDENCE_POLYTOPE, RankFunction.uniform(4, 2))
    vs = enumerate_vertices(spec)
    for i in range(len(vs.vertices)):
        support = {c + 1 for c, x in enumerate(vs.vertices[i]) if x}
        for ray in tangent_cone(vs, i):
            pos = [c + 1 for c, x in enumerate(ray) if x == 1]
            neg = [c + 1 for c, x in enumerate(ray) if x == -1]
            assert set(ray) <= {-1, 0, 1}
            assert len(pos) <= 1 and len(neg) <= 1
            assert all(j in support for j in neg)


def test_visible_segment():
    points = [(0,), (1,)]
    assert visible(points, [1], (2,))
    assert not visible(points, [0], (2,))


def test_visible_triangle():
    points = [(0, 0), (1, 0), (0, 1)]
    assert visible(points, [1, 2], (1, 1))
    assert not visible(points, [0, 1], (1, 1))


def _rays(dim, arcs):
    """The rays e_head - e_tail in Z^dim of arcs (tail, head), e_0 = 0;
    the apex (0, 0) is the origin."""
    rays = []
    for tail, head in arcs:
        ray = [0] * (dim + 1)
        ray[head] += 1
        ray[tail] -= 1
        rays.append(tuple(ray[1:]))
    return rays


# the points 0, e1 and e2 as arcs on the nodes {root, 1, 2}
TRIANGLE = [(0, 0), (0, 1), (0, 2)]


def test_placing_triangle():
    assert placing_triangulation(TRIANGLE) == {(0, 1, 2)}


def test_placing_square_two_triangles():
    # 0, e1, -e2 and e1 - e2 span a unit square
    tri = placing_triangulation([(0, 0), (0, 1), (2, 0), (2, 1)])
    assert tri == {(0, 1, 2), (1, 2, 3)}


def test_placing_skips_duplicates():
    tri = placing_triangulation([(0, 0), (0, 1), (0, 1), (0, 2)])
    assert tri == {(0, 1, 3)}


def test_placing_interior_point_coverage():
    # rational points of the hexagon of the six arcs +-e1, +-e2 and
    # +-(e1 - e2), with its centre 0 placed first as `triangulate_cone`
    # places the apex, land in at least one simplex, and simplex
    # interiors are disjoint
    from fractions import Fraction
    from math import lcm

    from ehrmat.exactmath import solve_linear
    arcs = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1), (1, 2)]
    points = _rays(2, arcs)
    tri = placing_triangulation(arcs)

    def bary(simplex, p):
        # barycentrics times the common denominator of p: same signs,
        # and an integer system for the integer kernel
        den = lcm(*(x.denominator for x in p))
        rows = [[points[i][c] for i in simplex] for c in range(2)]
        rows.append([1] * len(simplex))
        return solve_linear(rows, [int(x * den) for x in p] + [den])

    queries = [(Fraction(1, 3), Fraction(1, 5)),
               (Fraction(1, 2), Fraction(1, 2)),
               (Fraction(-1, 2), Fraction(2, 5)), (Fraction(1), Fraction(0)),
               (Fraction(0), Fraction(0)), (Fraction(1, 7), Fraction(-2, 3))]
    for q in queries:
        inside = [s for s in tri
                  if all(x >= 0 for x in bary(s, q))]
        assert len(inside) >= 1
        strictly = [s for s in tri
                    if all(x > 0 for x in bary(s, q))]
        assert len(strictly) <= 1


def test_triangulate_simplicial_cone_unchanged():
    # e1 and e2, and e1 alone
    assert triangulate_cone([(0, 1), (0, 2)]) == [[0, 1]]
    assert triangulate_cone([(0, 1)]) == [[0]]


def test_triangulate_k4_cone_golden():
    # the ambient rays are arcs on the nodes {root, 1..6} as well
    pieces = triangulate_cone([_arc(r) for r in _k4_rays()])
    got = {frozenset(p) for p in pieces}
    assert got == {frozenset({0, 1, 2, 3, 4}),
                   frozenset({0, 2, 3, 4, 5}),
                   frozenset({0, 1, 3, 4, 5})}


def test_k4_cone_pieces_unimodular():
    # maximal-cone ray determinants are +-1 in the working lattice
    rays = _k4_rays()
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    chart = working_chart(affine_lattice_basis(
        enumerate_vertices(spec).vertices))
    rays_work = [to_working(chart, r) for r in rays]
    for piece in triangulate_cone([_arc(r) for r in rays_work]):
        work = [rays_work[j] for j in piece]
        assert_unimodular([_arc(r) for r in work], len(work[0]))
        assert det(work) in (1, -1)


def _trees(rays, pieces):
    return [[_arc(rays[j]) for j in piece] for piece in pieces]


def _working_tangent_cones(spec):
    vs = enumerate_vertices(spec)
    basis = affine_lattice_basis(vs.vertices)
    if not basis:
        return []
    chart = working_chart(basis)
    return [[to_working(chart, r) for r in tangent_cone(vs, i)]
            for i in range(len(vs.vertices))]


@settings(max_examples=60, deadline=None)
@given(st.one_of(matroid_specs(), polymatroid_specs()))
def test_triangulate_tangent_cones_match_reference(spec):
    # same pieces in the same order as the elimination-based placing;
    # every piece of a matroid or polymatroid tangent cone is a spanning
    # tree of arcs, whose cuts pair y with facet_normals_unimodular and
    # give the flags pick_generic_y returns
    for rays in _working_tangent_cones(spec):
        arcs = [_arc(r) for r in rays]
        pieces = triangulate_cone(arcs)
        assert pieces == reference_triangulate_cone(rays)
        trees = _trees(rays, pieces)
        y, flags = pick_generic_y(trees, arcs)
        for piece, tree, f in zip(pieces, trees, flags):
            prays = [rays[j] for j in piece]
            assert_unimodular(tree, len(rays[0]))
            assert tree_cuts(tree, y) == [
                vec_dot(nrm, y) for nrm in facet_normals_unimodular(prays)]
            assert f == [c > 0 for c in tree_cuts(tree, y)]


@st.composite
def arc_cones(draw, min_size=1):
    """(dim, arcs) of a pointed arc cone: the nodes {root, 1..dim},
    dim <= 5, in a random order, and min_size to 10 arcs (tail, head),
    repeats allowed, each tail before its head in that order, so every
    ray e_head - e_tail rises along the order; not necessarily
    extremal or full dimensional."""
    dim = draw(st.integers(1, 5))
    order = draw(st.permutations(range(dim + 1)))
    ends = st.lists(st.integers(0, dim), min_size=2, max_size=2,
                    unique=True).map(sorted)
    arcs = draw(st.lists(ends.map(lambda e: (order[e[0]], order[e[1]])),
                         min_size=min_size, max_size=10))
    return dim, arcs


def _assert_cone_matches_reference(dim, arcs):
    # the placing of the apex and the arcs, and the pieces, against the
    # elimination-based references on the dense rays of the same arcs
    rays = _rays(dim, arcs)
    assert (list(placing_triangulation([(0, 0)] + arcs))
            == list(reference_placing_triangulation([(0,) * dim] + rays)))
    assert triangulate_cone(arcs) == reference_triangulate_cone(rays)


@settings(max_examples=300, deadline=None)
@given(arc_cones())
def test_triangulate_random_cones_match_reference(cone):
    _assert_cone_matches_reference(*cone)


@settings(max_examples=100, deadline=None)
@given(arc_cones(min_size=7))
def test_triangulate_crowded_cones_match_reference(cone):
    # 7 to 10 arcs: the hull fills after at most dim + 1 points, and the
    # rest are inserted into a full hull
    _assert_cone_matches_reference(*cone)


def _replayed_chart(points):
    """The chart `_place` keeps, replayed by Fraction ranks: coordinate
    0, then, at each distinct point that raises the rank of the
    homogenized points placed so far, the first other coordinate on
    which that point leaves their span."""
    hom = [(1,) + tuple(p) for p in points]
    chart, placed = [0], []
    for q in hom:
        if q in placed:
            continue
        rows = placed + [q]
        if fraction_mat_rank(rows) > len(chart):
            chart.append(next(
                c for c in range(len(q)) if c not in chart
                and fraction_mat_rank([[r[k] for k in chart + [c]]
                                       for r in rows]) > len(chart)))
        placed.append(q)
    return chart


def _assert_carried_inverses(dim, arcs):
    # t M^T = d I with d = |det M| > 0, M the simplex's homogenized
    # vertex matrix read on the chart, one row per vertex; returns the
    # d seen
    tri, inverse, _ = _place(arcs)
    points = _rays(dim, arcs)
    chart = _replayed_chart(points)
    dets = set()
    for s in tri:
        t, d = inverse[s]
        m = [[((1,) + tuple(points[v]))[c] for c in chart] for v in s]
        assert mat_mul(t, list(zip(*m))) == tuple(
            tuple(d * (i == j) for j in range(len(s)))
            for i in range(len(s)))
        assert d == abs(det(m)) > 0
        dets.add(d)
    return dets


@settings(max_examples=200, deadline=None)
@given(arc_cones())
def test_place_carries_scaled_inverses(cone):
    # the apex first, as `triangulate_cone` places it
    dim, arcs = cone
    _assert_carried_inverses(dim, [(0, 0)] + arcs)


def _logged_updates(monkeypatch):
    # every `_coned` and `_bordered` call as (name, d, d', u), in order
    seen = []
    coned, bordered = cones._coned, cones._bordered

    def logged_coned(t, d, j, u):
        rows, d_new = coned(t, d, j, u)
        seen.append(("coned", d, d_new, u))
        return rows, d_new

    def logged_bordered(t, d, u, e, f):
        rows, d_new = bordered(t, d, u, e, f)
        seen.append(("bordered", d, d_new, u))
        return rows, d_new

    monkeypatch.setattr(cones, "_coned", logged_coned)
    monkeypatch.setattr(cones, "_bordered", logged_bordered)
    return seen


def _shortcut_copies(seen):
    # the d > 1 at which `_coned` or `_bordered` copies a row, u_i = 0
    # and d unchanged, in the order of the logged calls
    return [(name, d) for name, d, d_new, u in seen
            if d > 1 and d_new == d and u.count(0)]


def test_place_carries_scaled_inverses_off_unit_determinant(monkeypatch):
    # placing the apex, then these arcs, reaches a simplex with d = 2
    # and a point with u = 0 at a kept vertex and d' = d, so the row is
    # copied without division: in the rank-one update of a point beyond
    # a facet in the first cone, in the bordered update of a hull growth
    # in the second
    seen = _logged_updates(monkeypatch)
    assert _assert_carried_inverses(4, [(0, 0), (4, 1), (0, 4), (1, 3),
                                        (0, 3), (1, 2), (0, 2)]) == {1, 2}
    assert _shortcut_copies(seen) == [("coned", 2)]
    seen.clear()
    assert _assert_carried_inverses(4, [(0, 0), (1, 3), (4, 1), (3, 2),
                                        (4, 2), (0, 1), (0, 1),
                                        (4, 3)]) == {1, 2}
    assert _shortcut_copies(seen) == [("bordered", 2)]


@st.composite
def arc_point_sets(draw):
    """(dim, arcs): the apex, then up to 10 arcs (tail, head) on the
    nodes {root, 1..dim}, dim <= 5, repeats allowed and not necessarily
    pointed: the points +-e_a and e_a - e_b."""
    dim = draw(st.integers(1, 5))
    ends = st.lists(st.integers(0, dim), min_size=2, max_size=2,
                    unique=True).map(tuple)
    return dim, [(0, 0)] + draw(st.lists(ends, min_size=1, max_size=10))


@settings(max_examples=200, deadline=None)
@given(arc_point_sets())
def test_place_arc_points_match_reference(cone):
    dim, arcs = cone
    assert (list(placing_triangulation(arcs))
            == list(reference_placing_triangulation(_rays(dim, arcs))))
    _assert_carried_inverses(dim, arcs)


@settings(max_examples=200, deadline=None)
@given(arc_point_sets())
def test_place_grows_the_hull_exactly_where_the_rank_rises(cone):
    # `_place` decides hull growth by union-find on the arcs placed so
    # far; it borders the simplices exactly at the points that raise
    # the Fraction rank of the homogenized points placed before them
    dim, arcs = cone
    placed, grown = [], set()
    pairing, bordered = cones._pairing, cones._bordered

    def counted_pairing(arc, pos):
        # one pairing per point placed, the apex excepted
        placed.append(arc)
        return pairing(arc, pos)

    def marked_bordered(t, d, u, e, f):
        grown.add(len(placed))
        return bordered(t, d, u, e, f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "_pairing", counted_pairing)
        mp.setattr(cones, "_bordered", marked_bordered)
        _place(arcs)
    hom = [(1,) + r for r in _rays(dim, arcs)]
    ranks = [fraction_mat_rank(hom[:k]) for k in range(1, len(hom) + 1)]
    assert grown == {k for k in range(1, len(hom))
                     if ranks[k] > ranks[k - 1]}


def test_place_requires_the_apex_first():
    # the hull test reads the span of the arcs placed after the apex
    with pytest.raises(ValueError, match="apex"):
        _place([(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="apex"):
        _place([(0, 1), (0, 0), (0, 2)])
    assert _place([(0, 0)]) == ({(0,)}, {(0,): ([(1,)], 1)},
                                {(): ((0,), 0)})


def test_place_arc_simplex_off_unit_determinant(monkeypatch):
    # a simplex without the apex can have d > 1: after four hull
    # growths and a repeat, e2 is coned onto a facet with d' = 3, the
    # hull growth by e1 - e3 borders that simplex with d = 3, dividing
    # by 3, and e2 - e3, beyond three of its facets, is coned onto each
    # with d' = 1, dividing by 3
    arcs = [(0, 0), (0, 4), (4, 5), (1, 2), (5, 1), (4, 5), (0, 2),
            (3, 1), (3, 2)]
    seen = _logged_updates(monkeypatch)
    assert (list(placing_triangulation(arcs))
            == list(reference_placing_triangulation(_rays(5, arcs))))
    assert [x[:3] for x in seen if 3 in x[1:3]] == [
        ("coned", 1, 3), ("bordered", 3, 3), ("coned", 3, 1),
        ("coned", 3, 1), ("coned", 3, 1)]
    assert _assert_carried_inverses(5, arcs) == {1, 3}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pairing_equals_dense_dot_on_the_chart(data):
    # an arc's pairing reads at most three entries of a row, and equals
    # the dot of the row with its homogenized point's chart entries, for
    # any chart that starts at the homogenizing coordinate
    dim = data.draw(st.integers(1, 5))
    arc = data.draw(st.tuples(st.integers(0, dim), st.integers(0, dim))
                    .filter(lambda e: e[0] != e[1] or e == (0, 0)))
    b = (1,) + _rays(dim, [arc])[0]
    others = data.draw(st.permutations(range(1, dim + 1)))
    chart = [0] + others[:data.draw(st.integers(0, dim))]
    pos = {c: k for k, c in enumerate(chart)}
    row = data.draw(st.tuples(*[st.integers(-9, 9)] * len(chart)))
    assert _pairing(arc, pos)(row) == sum(row[k] * b[c]
                                          for c, k in pos.items())


def _assert_boundary_of_simplices(arcs):
    # the boundary _place keeps through hull growths and insertions is
    # the one a scan of every facet of its simplices finds, facet ->
    # (owner, omitted position)
    tri, _, boundary = _place(arcs)
    assert boundary == {fac: (owner, j) for fac, owner, j
                        in _boundary_facets_with_owner(tri)}


@settings(max_examples=200, deadline=None)
@given(arc_cones())
def test_place_keeps_boundary_of_its_simplices(cone):
    _, arcs = cone
    _assert_boundary_of_simplices([(0, 0)] + arcs)


def test_place_keeps_boundary_on_ag32_tangent_cones():
    # AG32's tangent cones list their rays in adjacency order, so
    # interior insertions come before hull growths
    interior_first = 0
    for rays in _working_tangent_cones(relabelling_specs()["AG32"]):
        _assert_boundary_of_simplices([(0, 0)] + [_arc(r) for r in rays])
        ranks = [fraction_mat_rank(rays[:k]) for k in range(len(rays) + 1)]
        interior_first += any(ranks[k] == ranks[k + 1] < ranks[-1]
                              for k in range(len(rays)))
    assert interior_first > 0


# a pointed cone of 7 arcs in dimension 4 whose placing triangulation,
# the apex being point 0, has a simplex without the apex that owns two
# pieces and two flat facets
OWNER_ARCS = [(3, 1), (4, 1), (3, 4), (0, 4), (0, 1), (0, 2), (3, 2)]
OWNER_PIECES = [[0, 2, 3, 5], [0, 1, 5, 6], [0, 2, 5, 6], [0, 1, 4, 5],
                [0, 3, 4, 5]]


def test_triangulate_owner_without_apex_by_hand():
    # the simplex of arcs 0 1 3 4 5 misses the apex; the apex's
    # barycentric coordinates there, read off its carried inverse, are
    # nonzero opposite its positions 1 and 2, so those two boundary
    # facets are the pieces [0, 3, 4, 5] and [0, 1, 4, 5]
    _, inverse, boundary = _place([(0, 0)] + OWNER_ARCS)
    owner = (1, 2, 4, 5, 6)
    t = inverse[owner][0]
    assert sorted((j, fac, t[j][0] != 0) for fac, (s, j) in boundary.items()
                  if s == owner) == [
        (0, (2, 4, 5, 6), False), (1, (1, 4, 5, 6), True),
        (2, (1, 2, 5, 6), True), (4, (1, 2, 4, 5), False)]
    assert (triangulate_cone(OWNER_ARCS) == OWNER_PIECES
            == reference_triangulate_cone(_rays(4, OWNER_ARCS)))


def test_flat_facets_dropped():
    # the placing triangulation has boundary facets in a hyperplane
    # through the apex, which span flat cones: of the 7 without the
    # apex, the 2 of the owner above are flat, and 5 are pieces
    tri = placing_triangulation([(0, 0)] + OWNER_ARCS)
    assert tri == {(0, 1, 2, 4, 6), (0, 1, 2, 6, 7), (0, 1, 3, 4, 6),
                   (0, 1, 3, 6, 7), (1, 2, 4, 5, 6)}
    assert sum(0 not in fac for fac, _, _
               in _boundary_facets_with_owner(tri)) == 7
    assert (triangulate_cone(OWNER_ARCS) == OWNER_PIECES
            == reference_triangulate_cone(_rays(4, OWNER_ARCS)))
    # a polymatroid tangent cone, every ray extremal, has one too
    rays = [(0, -1, 0, 0, 0), (0, -1, 1, 0, 0), (0, 0, 0, -1, 1),
            (0, 0, 0, 0, -1), (0, 0, 1, -1, 0), (1, -1, 0, 0, 0)]
    assert all(is_extreme_direction(r, [q for q in rays if q != r])
               for r in rays)
    pieces = triangulate_cone([_arc(r) for r in rays])
    assert pieces == [[0, 1, 2, 4, 5], [0, 1, 3, 4, 5], [0, 2, 3, 4, 5]]
    assert pieces == reference_triangulate_cone(rays)


def test_facet_normals():
    normals = facet_normals_unimodular([(1, 0), (1, 1)])
    # normal j pairs to -1 with ray j and 0 with the other
    rays = [(1, 0), (1, 1)]
    for j, nrm in enumerate(normals):
        for i, ray in enumerate(rays):
            assert vec_dot(nrm, ray) == (-1 if i == j else 0)


# the unit rays e1 and e2, as a tree of the arcs (0, 1) and (0, 2)
UNITS = [(0, 1), (0, 2)]


def test_pick_generic_y_examples():
    # y = e1 + xi e2 over the unit rays, interior, so no flag is set
    assert pick_generic_y([UNITS], UNITS) == ((1, 1), [[False, False]])
    # over e1 - e2 and e2, the arcs (2, 1) and (0, 2),
    # y = e1 + (xi - 1) e2 has a zero cut at xi = 1; xi = 2 works
    assert pick_generic_y([UNITS], [(2, 1), (0, 2)]) == (
        (1, 1), [[False, False]])


def test_pick_generic_y_interior_to_rays():
    # every facet normal pairs negatively with an interior point
    rays = [(1, 0), (1, -1)]
    tree = [_arc(r) for r in rays]
    y, flags = pick_generic_y([tree], tree)
    assert tree_cuts(tree, y) == [
        vec_dot(nrm, y) for nrm in facet_normals_unimodular(rays)]
    assert all(c < 0 for c in tree_cuts(tree, y))
    assert flags == [[False, False]]


def test_half_open_single_cone_interior_y_all_closed():
    assert half_open_decompose([UNITS], (1, 1)) == [[False, False]]


# the cone of e1 and e2 - e1, split by the middle ray e2: the image of
# a quadrant split by its diagonal under (x, y) -> (x - y, y)
LEFT, RIGHT = [(-1, 1), (0, 1)], [(0, 1), (1, 0)]


def test_half_open_two_cones_share_one_open_facet():
    trees = [[_arc(r) for r in LEFT], [_arc(r) for r in RIGHT]]
    y, flags = pick_generic_y(trees, [_arc(r) for r in [(-1, 1), (1, 0)]])
    assert flags == half_open_decompose(trees, y)
    assert sum(map(sum, flags)) == 1


def test_half_open_rejects_non_generic_y():
    # some cut of y is 0: on the unit rays a coordinate of y; on the
    # path root -> 1 -> 2, whose arc (0, 1) cuts off {1, 2}, a sum
    with pytest.raises(ValueError, match="not generic"):
        half_open_decompose([UNITS], (0, 1))
    path = [(0, 1), (1, 2)]
    assert tree_cuts(path, (1, -1)) == [0, 1]
    with pytest.raises(ValueError, match="not generic"):
        half_open_decompose([UNITS, path], (1, -1))


def _box_points(apex, radius, dim):
    return product(*(range(apex[c] - radius, apex[c] + radius + 1)
                     for c in range(dim)))


def test_half_open_partition_in_box():
    # pieces of a split cone partition its lattice points exactly
    pieces = [LEFT, RIGHT]
    flags = half_open_decompose(
        [[_arc(r) for r in rays] for rays in pieces], (1, 1))
    for pt in _box_points((0, 0), 3, 2):
        whole = pt[1] >= 0 and pt[0] + pt[1] >= 0
        hits = sum(half_open_contains((0, 0), rays, f, pt)
                   for rays, f in zip(pieces, flags))
        assert hits == (1 if whole else 0)


def test_assert_unimodular_rejects():
    # columns that are no arc fail when read as arcs, before any
    # certificate, even where the determinant is +-1, as for
    # (1, 1), (0, 1) and (1, -1, 1), (1, 0, 0), (0, 1, 0)
    for rays in ([(2, 0), (0, 1)], [(1, 1), (0, 1)], [(0, 1), (2, 0)],
                 [(1, 0, 0), (0, 1, 0), (1, -1, 1)]):
        with pytest.raises(AssertionError, match="no arc"):
            [_arc(r) for r in rays]
    # e1 twice: two arcs root -> 1, a cycle of determinant 0
    with pytest.raises(AssertionError, match="cycle"):
        assert_unimodular([(0, 1), (0, 1)], 2)
    with pytest.raises(AssertionError, match="square"):
        assert_unimodular([(0, 1)], 2)


@st.composite
def arc_sets(draw, max_dim=7, trees=False):
    # dim signed arcs on the nodes {root, 1..dim}: +-e_b from the root,
    # +-(e_a - e_b) otherwise; duplicates and cycles are allowed, unless
    # `trees` asks for a spanning tree, which joins each node of a
    # random order to an earlier one
    dim = draw(st.integers(1, max_dim))
    order = draw(st.permutations(range(dim + 1))) if trees else None
    rays = []
    for k in range(dim):
        if trees:
            a, b = order[draw(st.integers(0, k))], order[k + 1]
        else:
            a = draw(st.integers(0, dim))
            b = draw(st.integers(1, dim).filter(lambda b: b != a))
        sign = draw(st.sampled_from((1, -1)))
        ray = [0] * dim
        if b:
            ray[b - 1] = sign
        if a:
            ray[a - 1] = -sign
        rays.append(tuple(ray))
    return rays


@settings(max_examples=300, deadline=None)
@given(arc_sets())
def test_assert_unimodular_matches_det_oracle(rays):
    # the arc rule passes exactly the square arc sets of det +-1
    unimodular = det(rays) in (1, -1)
    try:
        assert_unimodular([_arc(r) for r in rays], len(rays[0]))
    except AssertionError:
        assert not unimodular
    else:
        assert unimodular


@settings(max_examples=300, deadline=None)
@given(arc_sets(trees=True), st.data())
def test_tree_cuts_match_facet_normals(rays, data):
    # on a spanning tree, the cuts are the pairings of y with the
    # cofactor normals, for any y
    y = data.draw(st.tuples(*[st.integers(-4, 4)] * len(rays)))
    tree = [_arc(r) for r in rays]
    assert_unimodular(tree, len(rays))
    assert tree_cuts(tree, y) == [
        vec_dot(nrm, y) for nrm in facet_normals_unimodular(rays)]


def test_assert_unimodular_rejects_cycle_under_optimize():
    # a triangle of arcs has det 0, and (2, 0) is no arc; both checks
    # must be real exceptions, not bare asserts that `python -O` strips
    code = (
        "import sys\n"
        "from ehrmat.cones import _arc, assert_unimodular\n"
        "if __debug__:\n"
        "    sys.exit(2)\n"
        "rays = [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]\n"
        "for check in (lambda: assert_unimodular(list(map(_arc, rays)), 3),\n"
        "              lambda: _arc((2, 0))):\n"
        "    try:\n"
        "        check()\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        sys.exit(1)\n")
    src = str(Path(ehrmat.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "cycle" in proc.stdout
    assert "ray (2, 0) is no arc" in proc.stdout


def test_visible_agrees_with_barycentric_attachment():
    # the triangulation produced with the fast hyperplane test attaches a
    # new point, here e1 - e2, exactly to the boundary facets the LP
    # reports visible
    arcs = TRIANGLE + [(2, 1)]
    points = _rays(2, arcs)
    assert placing_triangulation(arcs[:3]) == {(0, 1, 2)}
    for fac, expect in [((0, 1), True), ((1, 2), False), ((0, 2), False)]:
        assert visible(points[:3], list(fac), points[3]) is expect
    assert placing_triangulation(arcs) == {(0, 1, 2), (0, 1, 3)}


def test_arc_reads_orientation():
    # ray = e_head - e_tail, the root being node 0 with e_0 = 0
    assert _arc((0, 1, 0)) == (0, 2)
    assert _arc((0, -1, 0)) == (2, 0)
    assert _arc((1, 0, -1)) == (3, 1)
    assert _arc((-1, 0, 1)) == (1, 3)
    # any other vector is no arc, and the error names it
    for ray in ((1, 1), (2, 0), (1, -2), (0, 0), (1, -1, 1)):
        with pytest.raises(AssertionError, match=re.escape(f"ray {ray} is")):
            _arc(ray)


def _pattern(rays):
    return arc_pattern([_arc(r) for r in rays])


def test_arc_pattern_examples():
    # nodes are numbered in order of first appearance, the root included
    assert _pattern([(0, 1, -1), (1, 0, 0), (-1, 0, 0)]) \
        == ((0, 1), (2, 3), (3, 2))
    assert _pattern([(1, 0), (0, 1)]) == ((0, 1), (0, 2))
    # e_a - e_b and e_b - e_a are different arcs
    assert _pattern([(1, -1), (1, 0)]) != _pattern([(-1, 1), (1, 0)])
    # a ray that is no arc fails before any pattern is read
    with pytest.raises(AssertionError, match="no arc"):
        _pattern([(1, 0), (1, 1)])


def relabel_nodes(sigma, ray):
    """The image of a working ray under the node bijection sigma of
    {root, 1..dim}, root = 0: lift x to (-sum x, x) in the sum-zero
    hyperplane of Z^(dim+1), move coordinate k to sigma[k], and drop
    coordinate 0. A unimodular linear map, for any vector."""
    lifted = (-sum(ray),) + tuple(ray)
    moved = [0] * len(lifted)
    for k, x in enumerate(lifted):
        moved[sigma[k]] = x
    return tuple(moved[1:])


@settings(max_examples=300, deadline=None)
@given(arc_sets(max_dim=4), arc_sets(max_dim=4), st.data())
def test_arc_pattern_equal_exactly_under_node_bijection(rays, other, data):
    # a cone, and either its image under a node bijection, possibly
    # with one ray swapped for another arc, or an unrelated cone; the
    # bijections are searched by brute force, so dim stays <= 4
    dim = len(rays[0])
    sigma = data.draw(st.permutations(range(dim + 1)))
    moved = [relabel_nodes(sigma, r) for r in rays]
    if len(other[0]) == dim and data.draw(st.booleans()):
        moved[data.draw(st.integers(0, dim - 1))] = other[0]
    elif data.draw(st.booleans()):
        moved = other
    related = len(moved[0]) == dim and any(
        [relabel_nodes(tau, r) for r in rays] == moved
        for tau in permutations(range(dim + 1)))
    assert (_pattern(rays) == _pattern(moved)) == related


def relabelling_specs():
    """The rows on which the reuse of triangulations is checked: K4,
    AG32, U(7,3) independence and the polymatroid double_rank_table."""
    return {
        "K4": PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4")),
        "AG32": PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("AG32")),
        "U73_independence": PolytopeSpec(INDEPENDENCE_POLYTOPE,
                                         RankFunction.uniform(7, 3)),
        "double_rank_table": cli.load_document(
            str(DATA / "double_rank_table.json"))[1],
    }


def _flagged(rays):
    # the cone stage of one cone, uncached: pieces and half-open flags
    arcs = [_arc(r) for r in rays]
    pieces = triangulate_cone(arcs)
    _, flags = pick_generic_y(_trees(rays, pieces), arcs)
    return list(zip(pieces, flags))


@cache
def _row_cones(name):
    cones = _working_tangent_cones(relabelling_specs()[name])
    return cones, [_flagged(rays) for rays in cones]


@pytest.mark.parametrize("name", sorted(relabelling_specs()))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_cone_stage_invariant_under_node_relabelling(name, data):
    # what lets build_genfun reuse a triangulation: relabelling the
    # nodes of every tangent cone keeps its arc pattern, and the
    # uncached pieces, their order and their flags
    cones, want = _row_cones(name)
    dim = len(cones[0][0])
    sigma = data.draw(st.permutations(range(dim + 1)))
    for rays, flagged in zip(cones, want):
        moved = [relabel_nodes(sigma, r) for r in rays]
        assert _pattern(moved) == _pattern(rays)
        assert _flagged(moved) == flagged

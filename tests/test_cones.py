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
from ehrmat import cli, corpus
from ehrmat.cones import (
    _arc, _pairing, _place, arc_pattern, assert_unimodular, cone_ray_matrix,
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
    for i in range(len(vs)):
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


def test_placing_triangle():
    tri = placing_triangulation([(0, 0), (1, 0), (0, 1)])
    assert tri == {(0, 1, 2)}


def test_placing_square_two_triangles():
    tri = placing_triangulation([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert tri == {(0, 1, 2), (1, 2, 3)}


def test_placing_skips_duplicates():
    tri = placing_triangulation([(0, 0), (1, 0), (1, 0), (0, 1)])
    assert tri == {(0, 1, 3)}


def test_placing_interior_point_coverage():
    # random rational interior points land in at least one simplex, and
    # simplex interiors are disjoint
    from fractions import Fraction
    from math import lcm

    from ehrmat.exactmath import solve_linear
    points = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    tri = placing_triangulation(points)

    def bary(simplex, p):
        # barycentrics times the common denominator of p: same signs,
        # and an integer system for the integer kernel
        den = lcm(*(x.denominator for x in p))
        rows = [[points[i][c] for i in simplex] for c in range(2)]
        rows.append([1] * len(simplex))
        return solve_linear(rows, [int(x * den) for x in p] + [den])

    queries = [(Fraction(1, 3), Fraction(1, 5)), (Fraction(3, 2), Fraction(1)),
               (Fraction(1, 2), Fraction(7, 5)), (Fraction(1), Fraction(1, 7))]
    for q in queries:
        inside = [s for s in tri
                  if all(x >= 0 for x in bary(s, q))]
        assert len(inside) >= 1
        strictly = [s for s in tri
                    if all(x > 0 for x in bary(s, q))]
        assert len(strictly) <= 1


def test_triangulate_simplicial_cone_unchanged():
    assert triangulate_cone([(1, 0), (0, 1)]) == [[0, 1]]
    assert triangulate_cone([(2,)]) == [[0]]


def test_triangulate_k4_cone_golden():
    rays = _k4_rays()
    pieces = triangulate_cone(rays)
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
    for piece in triangulate_cone(rays):
        work = [rays_work[j] for j in piece]
        assert_unimodular([_arc(r) for r in work], len(work[0]))
        assert det(cone_ray_matrix(work)) in (1, -1)


def _trees(rays, pieces):
    return [[_arc(rays[j]) for j in piece] for piece in pieces]


def _working_tangent_cones(spec):
    vs = enumerate_vertices(spec)
    basis = affine_lattice_basis(vs.vertices)
    if not basis:
        return []
    chart = working_chart(basis)
    return [[to_working(chart, r) for r in tangent_cone(vs, i)]
            for i in range(len(vs))]


@settings(max_examples=60, deadline=None)
@given(st.one_of(matroid_specs(), polymatroid_specs()))
def test_triangulate_tangent_cones_match_reference(spec):
    # same pieces in the same order as the elimination-based placing;
    # every piece of a matroid or polymatroid tangent cone is a spanning
    # tree of arcs, whose cuts pair y with facet_normals_unimodular and
    # give the flags pick_generic_y returns
    for rays in _working_tangent_cones(spec):
        pieces = triangulate_cone(rays)
        assert pieces == reference_triangulate_cone(rays)
        trees = _trees(rays, pieces)
        y, flags = pick_generic_y(trees, rays)
        for piece, tree, f in zip(pieces, trees, flags):
            prays = [rays[j] for j in piece]
            assert_unimodular(tree, len(rays[0]))
            assert tree_cuts(tree, y) == [
                vec_dot(nrm, y) for nrm in facet_normals_unimodular(prays)]
            assert f == [c > 0 for c in tree_cuts(tree, y)]


@st.composite
def pointed_cones(draw):
    """Up to 6 small integer rays in dimension <= 4, pointed because
    every first coordinate is positive; not necessarily extremal, full
    dimensional or unimodular."""
    dim = draw(st.integers(1, 4))
    ray = st.tuples(st.integers(1, 3), *[st.integers(-3, 3)] * (dim - 1))
    return draw(st.lists(ray, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(pointed_cones())
def test_triangulate_random_cones_match_reference(rays):
    points = [(0,) * len(rays[0])] + rays
    assert (list(placing_triangulation(points))
            == list(reference_placing_triangulation(points)))
    assert triangulate_cone(rays) == reference_triangulate_cone(rays)


@st.composite
def crowded_cones(draw):
    """7 to 10 small integer rays in dimension <= 5, pointed because
    every first coordinate is positive: the hull fills after at most
    dim + 1 points, and the rest are inserted into a full hull."""
    dim = draw(st.integers(1, 5))
    ray = st.tuples(st.integers(1, 2), *[st.integers(-2, 2)] * (dim - 1))
    return draw(st.lists(ray, min_size=7, max_size=10))


@settings(max_examples=100, deadline=None)
@given(crowded_cones())
def test_triangulate_crowded_cones_match_reference(rays):
    points = [(0,) * len(rays[0])] + rays
    assert (list(placing_triangulation(points))
            == list(reference_placing_triangulation(points)))
    assert triangulate_cone(rays) == reference_triangulate_cone(rays)


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


def _assert_carried_inverses(points):
    # t M^T = d I with d = |det M| > 0, M the simplex's homogenized
    # vertex matrix read on the chart, one row per vertex; returns the
    # d seen
    tri, inverse, _ = _place(points)
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


# up to 9 small integer points in dimension <= 4, repeats allowed
place_points = st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=9))


@settings(max_examples=200, deadline=None)
@given(place_points)
def test_place_carries_scaled_inverses(points):
    _assert_carried_inverses(points)


def test_place_carries_scaled_inverses_off_unit_determinant():
    # (4, 0) lies on the line of the facet (0, 0) (2, 0), so u is 0 at
    # that facet's opposite vertex and u_j = -d, with |d| = 4: the
    # rank-one shortcut; (0, 0, 1) sits at height 1 over the triangle,
    # where u is 0 at two vertices and D = d, with |d| = 4: the
    # bordered shortcut
    assert _assert_carried_inverses(
        [(0, 0), (2, 0), (0, 2), (4, 0)]) == {4}
    assert _assert_carried_inverses(
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1)]) == {4}


def _arc_point(dim, head, tail):
    """e_head - e_tail in Z^dim, with e_0 = 0."""
    point = [0] * dim
    if head:
        point[head - 1] = 1
    if tail:
        point[tail - 1] = -1
    return tuple(point)


# the origin, then up to 10 arc points +-e_a and e_a - e_b in dimension
# <= 5, repeats allowed: points `_place` pairs through their nonzero
# entries alone
arc_point_sets = st.integers(1, 5).flatmap(lambda dim: st.lists(
    st.tuples(st.integers(0, dim), st.integers(0, dim))
    .filter(lambda ends: ends[0] != ends[1])
    .map(lambda ends: _arc_point(dim, *ends)),
    min_size=1, max_size=10).map(lambda rays: [(0,) * dim] + rays))


@settings(max_examples=200, deadline=None)
@given(arc_point_sets)
def test_place_arc_points_match_reference(points):
    assert (list(placing_triangulation(points))
            == list(reference_placing_triangulation(points)))
    _assert_carried_inverses(points)


def test_place_arc_simplex_off_unit_determinant():
    # the homogenized rows (1, e1), (1, e2 - e1), (1, -e2) have det 3:
    # bordering -e2 onto the segment of d = 2 divides by 2, and e2 and
    # -e1, each beyond one facet of that triangle, are coned on with
    # d' = 1, dividing by 3, all through arc pairings
    points = [(1, 0), (-1, 1), (0, -1), (0, 1), (-1, 0)]
    assert (list(placing_triangulation(points))
            == list(reference_placing_triangulation(points)))
    assert _assert_carried_inverses(points) == {1, 3}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pairing_equals_dense_dot_on_the_chart(data):
    # arc points read at most three entries of a row and other points
    # the dense dot; both are the dot of the row with the point's chart
    # entries, for any chart that starts at the homogenizing coordinate
    dim = data.draw(st.integers(1, 5))
    entry = st.sampled_from((-1, 0, 1)) | st.integers(-3, 3)
    b = (1,) + data.draw(st.tuples(*[entry] * dim))
    others = data.draw(st.permutations(range(1, dim + 1)))
    chart = [0] + others[:data.draw(st.integers(0, dim))]
    pos = {c: k for k, c in enumerate(chart)}
    row = data.draw(st.tuples(*[st.integers(-9, 9)] * len(chart)))
    assert _pairing(b, pos)(row) == sum(row[k] * b[c]
                                        for c, k in pos.items())


def _assert_boundary_of_simplices(points):
    # the boundary _place keeps through hull growths and insertions is
    # the one a scan of every facet of its simplices finds, facet ->
    # (owner, omitted position)
    tri, _, boundary = _place(points)
    assert boundary == {fac: (owner, j) for fac, owner, j
                        in _boundary_facets_with_owner(tri)}


@settings(max_examples=200, deadline=None)
@given(place_points)
def test_place_keeps_boundary_of_its_simplices(points):
    _assert_boundary_of_simplices(points)


def test_place_keeps_boundary_on_ag32_tangent_cones():
    # AG32's tangent cones list their rays in adjacency order, so
    # interior insertions come before hull growths
    interior_first = 0
    for rays in _working_tangent_cones(relabelling_specs()["AG32"]):
        points = [(0,) * len(rays[0])] + rays
        _assert_boundary_of_simplices(points)
        ranks = [fraction_mat_rank(rays[:k]) for k in range(len(rays) + 1)]
        interior_first += any(ranks[k] == ranks[k + 1] < ranks[-1]
                              for k in range(len(rays)))
    assert interior_first > 0


def test_triangulate_owner_without_apex_by_hand():
    # (2, 1, -1) lies beyond the facet e1 e2 e3, so both pieces come
    # from the simplex e1 e2 e3 (2, 1, -1), which misses the apex; the
    # apex's barycentric coordinates there, read off its carried
    # inverse, are nonzero at e2 and e1, so neither facet is flat
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, -1)]
    got = triangulate_cone(rays)
    assert got == [[0, 2, 3], [1, 2, 3]] == reference_triangulate_cone(rays)
    # |det| is 1 for the first piece and 2 for the second
    assert [abs(det(cone_ray_matrix([rays[j] for j in piece])))
            for piece in got] == [1, 2]


def test_flat_facets_dropped():
    # the placing triangulation has a boundary facet in a hyperplane
    # through the apex, which spans a flat cone. With e1 + e2, which is
    # not extremal, it is e1 e2 (e1 + e2) in the plane z = 0
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    assert (placing_triangulation([(0, 0, 0)] + rays)
            == {(0, 1, 2, 3), (1, 2, 3, 4)})
    pieces = triangulate_cone(rays)
    assert pieces == [[0, 2, 3], [1, 2, 3]] == reference_triangulate_cone(rays)
    # a polymatroid tangent cone, every ray extremal, has one too
    rays = [(0, -1, 0, 0, 0), (0, -1, 1, 0, 0), (0, 0, 0, -1, 1),
            (0, 0, 0, 0, -1), (0, 0, 1, -1, 0), (1, -1, 0, 0, 0)]
    assert all(is_extreme_direction(r, [q for q in rays if q != r])
               for r in rays)
    pieces = triangulate_cone(rays)
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
    assert pick_generic_y([UNITS], [(1, 0), (0, 1)]) == (
        (1, 1), [[False, False]])
    # over e1 - e2 and e2, y = e1 + (xi - 1) e2 has a zero cut at
    # xi = 1; xi = 2 works
    assert pick_generic_y([UNITS], [(1, -1), (0, 1)]) == (
        (1, 1), [[False, False]])


def test_pick_generic_y_interior_to_rays():
    # every facet normal pairs negatively with an interior point
    rays = [(1, 0), (1, -1)]
    tree = [_arc(r) for r in rays]
    y, flags = pick_generic_y([tree], rays)
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
    y, flags = pick_generic_y(trees, [(-1, 1), (1, 0)])
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
    unimodular = det(cone_ray_matrix(rays)) in (1, -1)
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
    # new point exactly to the boundary facets the LP reports visible
    points = [(0, 0), (2, 0), (0, 2), (3, 3)]
    tri_before = placing_triangulation(points[:3])
    assert tri_before == {(0, 1, 2)}
    for fac, expect in [((1, 2), True), ((0, 1), False), ((0, 2), False)]:
        assert visible(points[:3], list(fac), points[3]) is expect
    tri_after = placing_triangulation(points)
    assert tri_after == {(0, 1, 2), (1, 2, 3)}


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
    pieces = triangulate_cone(rays)
    _, flags = pick_generic_y(_trees(rays, pieces), rays)
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

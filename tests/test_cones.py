from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    half_open_contains, is_extreme_direction, placing_triangulation,
    reference_placing_triangulation, reference_triangulate_cone, visible,
)
from test_bruteforce import matroid_specs, polymatroid_specs

from ehrmat import corpus
from ehrmat.cones import (
    assert_unimodular, cone_ray_matrix, facet_normals_unimodular,
    half_open_decompose, pick_generic_y, tangent_cone, triangulate_cone,
)
from ehrmat.exactmath import det, vec_dot, vec_sub
from ehrmat.genfun import affine_lattice_basis, to_working, working_chart
from ehrmat.matroid import RankFunction
from ehrmat.vertices import (
    BASES_POLYTOPE, INDEPENDENCE_POLYTOPE, PolytopeSpec, enumerate_vertices,
)

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
    assert [p for p, _ in triangulate_cone([(1, 0), (0, 1)])] == [[0, 1]]
    assert [p for p, _ in triangulate_cone([(2,)])] == [[0]]


def test_triangulate_k4_cone_golden():
    rays = _k4_rays()
    pieces = triangulate_cone(rays)
    got = {frozenset(p) for p, _ in pieces}
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
    for piece, _ in triangulate_cone(rays):
        assert_unimodular([rays_work[j] for j in piece]) in (1, -1)


def _check_normals(rays, piece, normals):
    # normal j pairs -|det| with ray j and 0 with the other rays; det is
    # the ray determinant on the chart, the full one in full dimension
    pairings = [[vec_dot(nrm, rays[k]) for k in piece] for nrm in normals]
    delta = -pairings[0][0]
    assert delta > 0
    assert pairings == [[-delta if j == k else 0 for k in range(len(piece))]
                        for j in range(len(piece))]
    if len(piece) == len(rays[0]):
        assert delta == abs(det(cone_ray_matrix([rays[k] for k in piece])))


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
    # same pieces in the same order as the elimination-based placing,
    # and the normals of facet_normals_unimodular (every piece of a
    # matroid or polymatroid tangent cone is unimodular)
    for rays in _working_tangent_cones(spec):
        got = triangulate_cone(rays)
        want = reference_triangulate_cone(rays)
        assert [p for p, _ in got] == [p for p, _ in want]
        for (piece, normals), (_, ref) in zip(got, want):
            assert normals == ref
            _check_normals(rays, piece, normals)


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
    want = reference_triangulate_cone(rays)
    got = triangulate_cone(rays)
    assert [p for p, _ in got] == [p for p, _ in want]
    for (piece, normals), (_, ref) in zip(got, want):
        if ref is not None:
            assert normals == ref
        _check_normals(rays, piece, normals)


def test_triangulate_owner_without_apex_by_hand():
    # (2, 1, -1) lies beyond the facet e1 e2 e3, so both pieces come
    # from the simplex e1 e2 e3 (2, 1, -1), which misses the apex, and
    # their inverses take one rank-one update each
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, -1)]
    got = triangulate_cone(rays)
    assert got == [([0, 2, 3], [(-1, 2, 0), (0, -1, -1), (0, -1, 0)]),
                   ([1, 2, 3], [(1, -2, 0), (-1, 0, -2), (-1, 0, 0)])]
    for piece, normals in got:
        _check_normals(rays, piece, normals)
    # |det| is 1 for the first piece and 2 for the second
    assert got[0][1] == facet_normals_unimodular([rays[j] for j in got[0][0]])
    assert vec_dot(got[1][1][0], rays[1]) == -2


def test_flat_facets_dropped():
    # the placing triangulation has a boundary facet in a hyperplane
    # through the apex, which spans a flat cone. With e1 + e2, which is
    # not extremal, it is e1 e2 (e1 + e2) in the plane z = 0
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    assert (placing_triangulation([(0, 0, 0)] + rays)
            == {(0, 1, 2, 3), (1, 2, 3, 4)})
    pieces = [p for p, _ in triangulate_cone(rays)]
    assert pieces == [[0, 2, 3], [1, 2, 3]]
    # a polymatroid tangent cone, every ray extremal, has one too
    rays = [(0, -1, 0, 0, 0), (0, -1, 1, 0, 0), (0, 0, 0, -1, 1),
            (0, 0, 0, 0, -1), (0, 0, 1, -1, 0), (1, -1, 0, 0, 0)]
    assert all(is_extreme_direction(r, [q for q in rays if q != r])
               for r in rays)
    got = triangulate_cone(rays)
    assert [p for p, _ in got] == [[0, 1, 2, 4, 5], [0, 1, 3, 4, 5],
                                   [0, 2, 3, 4, 5]]
    for piece, normals in got:
        _check_normals(rays, piece, normals)


def test_facet_normals():
    normals = facet_normals_unimodular([(1, 0), (1, 1)])
    # normal j pairs to -1 with ray j and 0 with the other
    rays = [(1, 0), (1, 1)]
    for j, nrm in enumerate(normals):
        for i, ray in enumerate(rays):
            assert vec_dot(nrm, ray) == (-1 if i == j else 0)


def test_pick_generic_y_examples():
    # y = e1 + xi e2 over the unit rays
    units = [(1, 0), (0, 1)]
    assert pick_generic_y([(1, 0)], rays=units) == (1, 1)
    # e1 - e2 kills xi = 1; xi = 2 works
    assert pick_generic_y([(1, -1)], rays=units) == (1, 2)
    with pytest.raises(ValueError):
        pick_generic_y([(0, 0)], rays=units)


def test_pick_generic_y_interior_to_rays():
    rays = [(1, 0), (1, 1)]
    y = pick_generic_y(facet_normals_unimodular(rays), rays=rays)
    for nrm in facet_normals_unimodular(rays):
        assert vec_dot(nrm, y) != 0


def test_half_open_single_cone_interior_y_all_closed():
    normals = facet_normals_unimodular([(1, 0), (0, 1)])
    assert half_open_decompose([normals], (1, 1)) == [[False, False]]


# a 2D quadrant split by the middle ray (1, 1)
LEFT, RIGHT = [(0, 1), (1, 1)], [(1, 1), (1, 0)]


def test_half_open_two_cones_share_one_open_facet():
    normals = [facet_normals_unimodular(LEFT), facet_normals_unimodular(RIGHT)]
    y = pick_generic_y(normals[0] + normals[1], rays=[(0, 1), (1, 0)])
    flags = half_open_decompose(normals, y)
    assert sum(map(sum, flags)) == 1


def test_half_open_rejects_non_generic_y():
    normals = facet_normals_unimodular([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        half_open_decompose([normals], (0, 1))


def _box_points(apex, radius, dim):
    return product(*(range(apex[c] - radius, apex[c] + radius + 1)
                     for c in range(dim)))


def test_half_open_partition_in_box():
    # pieces of a split quadrant partition its lattice points exactly
    pieces = [LEFT, RIGHT]
    flags = half_open_decompose(
        [facet_normals_unimodular(rays) for rays in pieces], (2, 1))
    for pt in _box_points((0, 0), 3, 2):
        whole = pt[0] >= 0 and pt[1] >= 0
        hits = sum(half_open_contains((0, 0), rays, f, pt)
                   for rays, f in zip(pieces, flags))
        assert hits == (1 if whole else 0)


def test_assert_unimodular_rejects():
    with pytest.raises(AssertionError):
        assert_unimodular([(2, 0), (0, 1)])


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

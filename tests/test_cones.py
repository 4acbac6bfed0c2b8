from itertools import product

import pytest
from oracles import half_open_contains, visible

from ehrmat import corpus
from ehrmat.cones import (
    TangentCone, assert_unimodular,
    facet_normals_unimodular, half_open_decompose, pick_generic_y,
    placing_triangulation, tangent_cone, triangulate_cone,
)
from ehrmat.exactmath import vec_dot, vec_sub
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
    return apex, [vec_sub(_indicator(b), apex) for b in K4_RAY_BASES]


def test_tangent_cone_k4_rays():
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    vs = enumerate_vertices(spec)
    i = vs.vertices.index(_indicator(K4_APEX_BASIS))
    cone = tangent_cone(vs, i)
    _, expected = _k4_rays()
    assert sorted(cone.rays) == sorted(expected)


def test_tangent_cone_segment():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(2, 1))
    vs = enumerate_vertices(spec)
    i = vs.vertices.index((1, 0))
    cone = tangent_cone(vs, i)
    assert cone.rays == [(-1, 1)]


def test_tangent_cone_rays_in_elementary_set():
    # every ray direction at a 0/1 vertex v is e_i - e_j, e_i, or -e_j
    # with j in supp(v)
    spec = PolytopeSpec(INDEPENDENCE_POLYTOPE, RankFunction.uniform(4, 2))
    vs = enumerate_vertices(spec)
    for i in range(len(vs)):
        support = {c + 1 for c, x in enumerate(vs.vertices[i]) if x}
        for ray in tangent_cone(vs, i).rays:
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
    cone = TangentCone((0, 0), [(1, 0), (0, 1)])
    assert triangulate_cone(cone) == [[0, 1]]
    single = TangentCone((0,), [(2,)])
    assert triangulate_cone(single) == [[0]]


def test_triangulate_k4_cone_golden():
    apex, rays = _k4_rays()
    pieces = triangulate_cone(TangentCone(apex, rays))
    got = {frozenset(p) for p in pieces}
    assert got == {frozenset({0, 1, 2, 3, 4}),
                   frozenset({0, 2, 3, 4, 5}),
                   frozenset({0, 1, 3, 4, 5})}


def test_k4_cone_pieces_unimodular():
    # maximal-cone ray determinants are +-1 in the working lattice
    from ehrmat.genfun import affine_lattice_basis, to_working
    apex, rays = _k4_rays()
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    basis = affine_lattice_basis(enumerate_vertices(spec).vertices)
    rays_work = [to_working(basis, r) for r in rays]
    for piece in triangulate_cone(TangentCone(apex, rays)):
        assert_unimodular([rays_work[j] for j in piece]) in (1, -1)


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


def _cone(apex, rays):
    return apex, rays, facet_normals_unimodular(rays)


def test_half_open_single_cone_interior_y_all_closed():
    pieces = half_open_decompose([_cone((0, 0), [(1, 0), (0, 1)])], (1, 1))
    assert pieces[0].open_flags == [False, False]


def test_half_open_two_cones_share_one_open_facet():
    # 2D quadrant split by the middle ray (1, 1)
    left = _cone((0, 0), [(0, 1), (1, 1)])
    right = _cone((0, 0), [(1, 1), (1, 0)])
    y = pick_generic_y(left[2] + right[2], rays=[(0, 1), (1, 0)])
    pieces = half_open_decompose([left, right], y)
    opened = sum(sum(p.open_flags) for p in pieces)
    assert opened == 1


def test_half_open_rejects_non_generic_y():
    with pytest.raises(ValueError):
        half_open_decompose([_cone((0, 0), [(1, 0), (0, 1)])], (0, 1))


def _box_points(apex, radius, dim):
    return product(*(range(apex[c] - radius, apex[c] + radius + 1)
                     for c in range(dim)))


def test_half_open_partition_in_box():
    # pieces of a split quadrant partition its lattice points exactly
    left = _cone((0, 0), [(0, 1), (1, 1)])
    right = _cone((0, 0), [(1, 1), (1, 0)])
    y = (2, 1)
    pieces = half_open_decompose([left, right], y)
    for pt in _box_points((0, 0), 3, 2):
        whole = pt[0] >= 0 and pt[1] >= 0
        hits = sum(half_open_contains(p.apex, p.rays, p.open_flags, pt)
                   for p in pieces)
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

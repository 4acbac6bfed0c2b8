import os
import subprocess
import sys
from functools import cache
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    half_open_contains, is_extreme_direction, placing_triangulation,
    reference_placing_triangulation, reference_triangulate_cone, visible,
)
from test_bruteforce import matroid_specs, polymatroid_specs

import ehrmat
from ehrmat import cli, corpus
from ehrmat.cones import (
    _arc, arc_pattern, assert_unimodular, cone_ray_matrix,
    facet_normals_unimodular, half_open_decompose, pick_generic_y,
    tangent_cone, triangulate_cone,
)
from ehrmat.exactmath import det, vec_dot, vec_sub
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
        work = [rays_work[j] for j in piece]
        assert_unimodular(work)
        assert det(cone_ray_matrix(work)) in (1, -1)


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
    # columns that are no arc fail even where the determinant is +-1,
    # as for (1, 1), (0, 1) and (1, -1, 1), (1, 0, 0), (0, 1, 0)
    for rays in ([(1, 1), (0, 1)], [(0, 1), (2, 0)],
                 [(1, 0, 0), (0, 1, 0), (1, -1, 1)], [(1, 0), (-1,)]):
        with pytest.raises(AssertionError, match="no arc"):
            assert_unimodular(rays)
    with pytest.raises(AssertionError, match="square"):
        assert_unimodular([(1, 0)])


@st.composite
def arc_sets(draw, max_dim=7):
    # dim signed arcs on the nodes {root, 1..dim}: +-e_b from the root,
    # +-(e_a - e_b) otherwise; duplicates and cycles are allowed
    dim = draw(st.integers(1, max_dim))
    rays = []
    for _ in range(dim):
        a = draw(st.integers(0, dim))
        b = draw(st.integers(1, dim).filter(lambda b: b != a))
        sign = draw(st.sampled_from((1, -1)))
        ray = [0] * dim
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
        assert_unimodular(rays)
    except AssertionError:
        assert not unimodular
    else:
        assert unimodular


def test_assert_unimodular_rejects_cycle_under_optimize():
    # a triangle of arcs has det 0; the check must be a real exception,
    # not a bare assert that `python -O` strips
    code = (
        "import sys\n"
        "from ehrmat.cones import assert_unimodular\n"
        "if __debug__:\n"
        "    sys.exit(2)\n"
        "try:\n"
        "    assert_unimodular([(1, -1, 0), (0, 1, -1), (-1, 0, 1)])\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n")
    src = str(Path(ehrmat.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "cycle" in proc.stdout


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
    for ray in ((1, 1), (2, 0), (1, -2), (0, 0), (1, -1, 1)):
        assert _arc(ray) is None


def test_arc_pattern_examples():
    # nodes are numbered in order of first appearance, the root included
    assert arc_pattern([(0, 1, -1), (1, 0, 0), (-1, 0, 0)]) \
        == (3, ((0, 1), (2, 3), (3, 2)))
    assert arc_pattern([(1, 0), (0, 1)]) == (2, ((0, 1), (0, 2)))
    # e_a - e_b and e_b - e_a are different arcs
    assert arc_pattern([(1, -1), (1, 0)]) != arc_pattern([(-1, 1), (1, 0)])
    # a ray that is no arc has no pattern
    assert arc_pattern([(1, 0), (1, 1)]) is None


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
    assert (arc_pattern(rays) == arc_pattern(moved)) == related


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
    normal_lists = [normals for _, normals in pieces]
    y = pick_generic_y([nrm for nrms in normal_lists for nrm in nrms],
                       rays=rays)
    return list(zip((piece for piece, _ in pieces),
                    half_open_decompose(normal_lists, y)))


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
        assert arc_pattern(moved) == arc_pattern(rays) is not None
        assert _flagged(moved) == flagged

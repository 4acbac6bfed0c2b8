import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    contains_scaled, dilate, fraction_gauss_jordan, half_open_contains,
)
from strategies import independence_specs, truncated_sum_specs
from test_cones import _working_tangent_cones, relabelling_specs

import ehrmat
from ehrmat import cones, corpus, genfun, specialize, vertices
from ehrmat.bruteforce import ehrhart_by_interpolation
from ehrmat.exactmath import mat_rank, vec_sub
from ehrmat.genfun import (
    GenFunTerm, _vertex_terms, affine_lattice_basis, build_genfun,
    to_working, working_chart,
)
from ehrmat.matroid import RankFunction
from ehrmat.vertices import (
    BASES_POLYTOPE, INDEPENDENCE_POLYTOPE, POLYMATROID, PolytopeSpec,
    enumerate_vertices,
)


def test_term_rejects_zero_denominator():
    with pytest.raises(ValueError):
        GenFunTerm((0,), (0,), [(0,)])


def test_affine_lattice_basis_segment():
    basis = affine_lattice_basis([(1, 0), (0, 1)])
    assert len(basis) == 1
    assert basis[0] in [(1, -1), (-1, 1)]
    assert to_working(working_chart(basis), (-1, 1)) in [(1,), (-1,)]


def test_working_chart_rejects_non_unit_pivot_columns():
    # a pivot entry other than 1, a second row nonzero in a pivot
    # column, and an empty basis have no chart
    for basis in ([(2, 0)], [(1, 1, 0), (1, 0, 1)], []):
        with pytest.raises(ValueError):
            working_chart(basis)


def test_to_working_checks_the_other_columns():
    chart = working_chart([(1, 0, -1), (0, 1, -1)])
    assert chart == ((0, 1), ((2, (-1, -1)),))
    assert to_working(chart, (2, -1, -1)) == (2, -1)
    with pytest.raises(ValueError, match="outside the affine hull"):
        to_working(chart, (1, 0, 0))


def test_affine_lattice_basis_full_dim():
    basis = affine_lattice_basis([(0, 0), (1, 0), (0, 1)])
    assert len(basis) == 2


def test_affine_lattice_basis_point():
    assert affine_lattice_basis([(1, 1)]) == []


@st.composite
def point_sets(draw):
    """Up to 7 points in Z^n, n <= 5: 0/1 points or small entries."""
    n = draw(st.integers(1, 5))
    entries = draw(st.sampled_from([st.integers(0, 1), st.integers(-2, 2)]))
    return draw(st.lists(st.tuples(*[entries] * n), min_size=1, max_size=7))


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_affine_lattice_basis_matches_fraction_echelon(points):
    diffs = [vec_sub(p, points[0]) for p in points[1:]]
    rref, pivots = fraction_gauss_jordan(diffs, len(points[0]))
    rref = rref[:len(pivots)]
    if any(x.denominator != 1 for row in rref for x in row):
        with pytest.raises(ValueError, match="non-integral"):
            affine_lattice_basis(points)
        return
    basis = affine_lattice_basis(points)
    assert basis == [tuple(int(x) for x in row) for row in rref]
    assert len(basis) == mat_rank(diffs)
    for i, c in enumerate(pivots):
        assert [b[c] for b in basis] == [int(j == i) for j in range(len(basis))]
    if not basis:
        return  # a single point: no chart
    chart = working_chart(basis)
    for d in diffs:
        x = to_working(chart, d)
        assert tuple(sum(xi * b[c] for xi, b in zip(x, basis))
                     for c in range(len(d))) == d


def test_segment_genfun():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(2, 1))
    g = build_genfun(spec)
    assert len(g.terms) == 2
    assert g.dim == 1
    p = specialize.ehrhart_polynomial(g)
    assert specialize.count(p, 1) == 2
    assert specialize.count(p, 2) == 3


def test_point_polytope():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(3, 3))
    g = build_genfun(spec)
    assert g.dim == 0 and len(g.terms) == 1
    p = specialize.ehrhart_polynomial(g)
    assert p == (Fraction(1),)
    assert specialize.count(p, 1) == 1


def test_polymatroid_with_flat_cone_facet():
    # a tangent cone of this polymatroid (a table by bitmask of the
    # element set) has a placing facet in a hyperplane through its apex,
    # which no piece may use
    values = (0, 1, 1, 1, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2,
              2, 3, 3, 3, 3, 3, 3, 3, 2, 3, 3, 3, 3, 3, 3, 3)
    table = {frozenset(i + 1 for i in range(5) if mask >> i & 1): v
             for mask, v in enumerate(values) if mask}
    spec = PolytopeSpec(POLYMATROID, RankFunction.from_table(5, table))
    g = build_genfun(spec)
    assert specialize.ehrhart_polynomial(g) == ehrhart_by_interpolation(spec)


def test_dilate_identity_and_composition():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(4, 2))
    g = build_genfun(spec)
    assert dilate(g, 1) is g
    g6 = dilate(g, 6)
    g23 = dilate(dilate(g, 2), 3)
    for t1, t2 in zip(g6.terms, g23.terms):
        assert (t1.a, t1.v, t1.bs) == (t2.a, t2.v, t2.bs)
    with pytest.raises(ValueError):
        dilate(g, 0)


def test_k4_vertex_pieces_partition_tangent_cone():
    # the half-open pieces at one vertex cover each lattice point of
    # that vertex's tangent cone exactly once (box radius 2)
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    g = build_genfun(spec)
    apex = tuple(1 if i in {1, 2, 3} else 0 for i in range(1, 7))
    terms = [t for t in g.terms if t.v == apex]
    assert len(terms) == 3
    f = spec.f
    active = []
    for mask in range(1, 1 << 6):
        a = frozenset(i + 1 for i in range(6) if mask >> i & 1)
        if sum(apex[i - 1] for i in a) == f.rank(a):
            active.append((a, f.rank(a)))

    def in_tangent_cone(pt):
        # the tangent cone is cut out by the constraints tight at the apex
        if sum(pt) != 3:
            return False
        if any(pt[c] < 0 for c in range(6) if apex[c] == 0):
            return False
        return all(sum(pt[i - 1] for i in a) <= val for a, val in active)

    for pt in product(*(range(apex[c] - 2, apex[c] + 3) for c in range(6))):
        hits = 0
        for t in terms:
            # openness is folded into a, so all facets read as closed
            if half_open_contains(t.a, t.bs, [False] * len(t.bs), pt):
                hits += 1
        assert hits == (1 if in_tangent_cone(pt) else 0), pt


def test_k4_vertex_contributes_three_cones():
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    g = build_genfun(spec)
    apex = tuple(1 if i in {1, 2, 3} else 0 for i in range(1, 7))
    assert sum(1 for t in g.terms if t.v == apex) == 3
    assert len(g.terms) >= 16  # every vertex contributes at least one cone


def _eval_genfun(g, z):
    def power(expo):
        val = Fraction(1)
        for zi, e in zip(z, expo):
            val *= Fraction(zi) ** e
        return val

    total = Fraction(0)
    for t in g.terms:
        denom = Fraction(1)
        for b in t.bs:
            factor = 1 - power(b)
            assert factor != 0, "evaluation point hit a pole"
            denom *= factor
        total += power(t.a) / denom
    return total


def _lattice_points(spec, k=1):
    caps = [k * spec.f.rank(frozenset({i + 1})) for i in range(spec.n)]
    return [pt for pt in product(*(range(c + 1) for c in caps))
            if contains_scaled(spec, pt, k)]


@pytest.mark.parametrize("name", ["K4", "W3_whirl", "Q6", "P6", "R6"])
def test_rational_evaluation_matches_lattice_point_sum(name):
    # g(z) evaluated at a generic rational point equals the finite sum
    # of z^m over the polytope's lattice points
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function(name))
    g = build_genfun(spec)
    z = [Fraction(2, 3), Fraction(3, 5), Fraction(5, 7),
         Fraction(7, 11), Fraction(11, 13), Fraction(13, 17)]
    expected = Fraction(0)
    for pt in _lattice_points(spec):
        val = Fraction(1)
        for zi, e in zip(z, pt):
            val *= zi ** e
        expected += val
    assert _eval_genfun(g, z) == expected


def test_term_count_bound():
    # #terms <= #vertices * 2^r * n(n-1)...(n-r+1)
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    g = build_genfun(spec)
    n, r = 6, 3
    bound = 16 * (2 ** r) * n * (n - 1) * (n - 2)
    assert len(g.terms) <= bound


def test_to_working_rejects_unsaturated_basis_under_optimize():
    # the saturation check must be a real exception, not a bare assert
    # that `python -O` strips
    code = (
        "import sys\n"
        "from ehrmat.genfun import to_working, working_chart\n"
        "if __debug__:\n"
        "    sys.exit(2)\n"
        "try:\n"
        "    to_working(working_chart([(2, 0)]), (1, 0))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n")
    src = str(Path(ehrmat.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "not saturated" in proc.stdout


def _term_tuples(terms):
    return [(t.a, t.v, t.bs) for t in terms]


def _basis_at_vertex_0(vs):
    """The lattice basis `build_genfun` takes: from vertex 0 and its
    neighbours, whose edges span the affine hull."""
    near = [vs.vertices[j] for j in vs.adjacency[0]]
    return affine_lattice_basis([vs.vertices[0]] + near)


@pytest.mark.parametrize("family", [BASES_POLYTOPE, INDEPENDENCE_POLYTOPE,
                                    POLYMATROID])
def test_basis_at_vertex_0_equals_basis_of_all_vertices_corpus(family):
    for name in corpus.names():
        vs = enumerate_vertices(PolytopeSpec(family,
                                             corpus.rank_function(name)))
        assert _basis_at_vertex_0(vs) == affine_lattice_basis(vs.vertices)


@settings(max_examples=150, deadline=None)
@given(st.one_of(truncated_sum_specs(), independence_specs(),
                 independence_specs().map(
                     lambda spec: PolytopeSpec(BASES_POLYTOPE, spec.f))))
def test_basis_at_vertex_0_equals_basis_of_all_vertices_random(spec):
    vs = enumerate_vertices(spec)
    assert _basis_at_vertex_0(vs) == affine_lattice_basis(vs.vertices)


def _vertex_cone(vs, chart, i):
    # vertex i's tangent cone read on its own: its rays, each read as
    # an arc, in tangent_cone's order
    return [(r, cones._arc(to_working(chart, r)))
            for r in cones.tangent_cone(vs, i)]


@pytest.mark.parametrize("name", sorted(relabelling_specs()))
def test_reused_triangulations_give_the_uncached_terms(name):
    # build_genfun, which triangulates each arc pattern once and reads
    # each edge's ray once, against every vertex's cone read,
    # triangulated and flagged on its own
    spec = relabelling_specs()[name]
    vs = enumerate_vertices(spec)
    chart = working_chart(affine_lattice_basis(vs.vertices))
    dim = len(chart[0])
    want = [t for i in range(len(vs.vertices))
            for t in _vertex_terms(vs.vertices[i], _vertex_cone(vs, chart, i),
                                   dim, {})]
    assert _term_tuples(build_genfun(spec).terms) == _term_tuples(want)


def _assert_edge_cones_in_adjacency_order(spec):
    vs = enumerate_vertices(spec)
    if len(vs.vertices) < 2:
        return
    chart = working_chart(affine_lattice_basis(vs.vertices))
    got = genfun._edge_cones(vs, chart)
    assert len(got) == len(vs.vertices)
    for i, cone in enumerate(got):
        assert cone == _vertex_cone(vs, chart, i), i


@pytest.mark.parametrize("name", sorted(relabelling_specs()))
def test_edge_cones_list_rays_in_adjacency_order(name):
    # the genfun dump follows each cone's ray order, which the edge walk
    # must keep equal to tangent_cone's, i.e. to adjacency[i]
    _assert_edge_cones_in_adjacency_order(relabelling_specs()[name])


@settings(max_examples=100, deadline=None)
@given(st.one_of(truncated_sum_specs(), independence_specs()))
def test_edge_cones_list_rays_in_adjacency_order_random(spec):
    _assert_edge_cones_in_adjacency_order(spec)


@pytest.mark.parametrize("spec, vertices, calls", [
    (PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(7, 3)), 35, 10),
    (PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("AG32")), 56, 43),
], ids=["U73_bases", "AG32"])
def test_triangulate_once_per_arc_pattern(monkeypatch, spec, vertices,
                                          calls):
    seen = []
    real = genfun.triangulate_cone

    def counted(arcs):
        seen.append(arcs)
        return real(arcs)

    monkeypatch.setattr(genfun, "triangulate_cone", counted)
    g = build_genfun(spec)
    assert len({t.v for t in g.terms}) == vertices
    assert len(seen) == calls


def _simplicial_specs():
    """The corpus rows as independence polytopes and six seeded
    polymatroid tables min(w(A), c) on 6 elements, shaped like the
    bench's: polytopes with many tangent cones of exactly dim rays."""
    specs = {name: PolytopeSpec(INDEPENDENCE_POLYTOPE,
                                corpus.rank_function(name))
             for name in corpus.names()}
    rng = random.Random("simplicial tangent cones")
    for k in range(6):
        w = [rng.choice((1, 2, 3)) for _ in range(6)]
        c = sum(w) - rng.choice((2, 3))
        table = {frozenset(a): min(sum(w[e - 1] for e in a), c)
                 for size in range(1, 7)
                 for a in combinations(range(1, 7), size)}
        specs[f"table_{k}"] = PolytopeSpec(
            POLYMATROID, RankFunction.from_table(6, table))
    return specs


def test_simplicial_tangent_cones_are_their_own_piece():
    # a tangent cone is full-dimensional, so dim rays are independent,
    # and triangulate_cone returns the one piece build_genfun uses
    # without calling it
    simplicial = 0
    for spec in _simplicial_specs().values():
        for rays in _working_tangent_cones(spec):
            if len(rays) == len(rays[0]):
                arcs = [cones._arc(r) for r in rays]
                assert cones.triangulate_cone(arcs) == [list(range(len(arcs)))]
                simplicial += 1
    assert simplicial > 100


def test_triangulate_only_patterns_beyond_dim_rays(monkeypatch):
    # build_genfun triangulates each new arc pattern with more than dim
    # rays once, and never one with exactly dim rays
    seen = []
    real = genfun.triangulate_cone

    def counted(arcs):
        seen.append(arcs)
        return real(arcs)

    monkeypatch.setattr(genfun, "triangulate_cone", counted)
    simplicial = 0
    for spec in _simplicial_specs().values():
        seen.clear()
        g = build_genfun(spec)
        patterns = {cones.arc_pattern([cones._arc(r) for r in rays]):
                    len(rays) for rays in _working_tangent_cones(spec)}
        assert len(seen) == sum(k > g.dim for k in patterns.values())
        assert all(len(arcs) > g.dim for arcs in seen)
        simplicial += sum(k == g.dim for k in patterns.values())
    assert simplicial > 0


@pytest.mark.parametrize("name", sorted(relabelling_specs()))
def test_rays_built_once_per_edge_and_read_once_per_ray(monkeypatch, name):
    # each undirected edge gives its ray once, to both its ends, and a
    # ray that several cones share, with either sign, is read as an arc
    # once per polytope; the pattern key, every piece's certificate and
    # the half-open flags share that reading
    built, read = [], []
    real_primitive, real_arc = genfun.vec_primitive, cones._arc

    def primitive(v):
        built.append(v)
        return real_primitive(v)

    def arc(ray):
        read.append(ray)
        return real_arc(ray)

    monkeypatch.setattr(genfun, "vec_primitive", primitive)
    monkeypatch.setattr(cones, "_arc", arc)
    monkeypatch.setattr(genfun, "_arc", arc)
    spec = relabelling_specs()[name]
    build_genfun(spec)
    vs = enumerate_vertices(spec)
    edges = {frozenset((i, j)) for i in range(len(vs.vertices))
             for j in vs.adjacency[i]}
    rays = {r for i in range(len(vs.vertices))
            for r in cones.tangent_cone(vs, i)}

    def unsigned(r):
        return max(r, tuple(-x for x in r))

    assert len(built) == len(edges)
    assert len({unsigned(r) for r in read}) == len(read)
    assert len(read) == len({unsigned(r) for r in rays}) < len(rays)


@pytest.mark.parametrize("name", ["K4", "U73_independence",
                                  "double_rank_table"])
def test_edges_computed_once_per_polytope(monkeypatch, name):
    # one row per family: enumerate_vertices computes the edges with
    # the vertices, and the record build_genfun reads holds just the two
    calls, records = [], []
    real_adjacency = vertices._compute_adjacency
    real_enumerate = genfun.enumerate_vertices

    def adjacency(spec, verts):
        calls.append(spec)
        return real_adjacency(spec, verts)

    def enumerate_(spec):
        records.append(real_enumerate(spec))
        return records[-1]

    monkeypatch.setattr(vertices, "_compute_adjacency", adjacency)
    monkeypatch.setattr(genfun, "enumerate_vertices", enumerate_)
    spec = relabelling_specs()[name]
    build_genfun(spec)
    assert calls == [spec]
    assert [sorted(vars(vs)) for vs in records] == [["adjacency",
                                                     "vertices"]]


@pytest.mark.parametrize("name", sorted(relabelling_specs()))
def test_no_tree_cut_twice_at_one_y(monkeypatch, name):
    # pick_generic_y returns the flags of the cuts it takes at the y it
    # accepts, so no piece is cut again there
    cuts = []
    real = cones.tree_cuts

    def counted(tree, y):
        cuts.append((tuple(tree), tuple(y)))
        return real(tree, y)

    monkeypatch.setattr(cones, "tree_cuts", counted)
    build_genfun(relabelling_specs()[name])
    assert cuts and len(set(cuts)) == len(cuts)


def test_reused_pieces_are_certified_under_optimize():
    # every cone of K4 given the first cone's pattern reuses its pieces,
    # which do not span a tree on the rays of some other vertex: the
    # arc rule must still reject them, with no bare assert that
    # `python -O` strips
    code = (
        "import sys\n"
        "from ehrmat import corpus, genfun\n"
        "from ehrmat.vertices import BASES_POLYTOPE, PolytopeSpec\n"
        "if __debug__:\n"
        "    sys.exit(2)\n"
        "genfun.arc_pattern = lambda arcs: 'one pattern'\n"
        "try:\n"
        "    genfun.build_genfun(PolytopeSpec(\n"
        "        BASES_POLYTOPE, corpus.rank_function('K4')))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n")
    src = str(Path(ehrmat.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("cones: vertex (")

"""Multivariate rational generating functions of lattice polytopes:
per-cone terms from half-open unimodular cones, summed over vertex
tangent cones. The pieces partition each cone, so every term counts
+1. A term carries its vertex v, so the k-th dilation is the
parametric form

    g_kP(z) = sum_i z^(a_i + (k-1) v_i) / prod_j (1 - z^(b_ij)),

which `specialize.ehrhart_polynomial` reads as a polynomial in k.

Exponent vectors live in the ambient Z^n; every term has exactly N
denominator factors, N the polytope dimension, because all cone work is
done in a lattice basis of the polytope's affine hull. That basis is
the reduced row echelon form of the vertex differences: for matroid and
polymatroid polytopes every edge direction is +-(e_a - e_b) or +-e_a, so
the echelon rows are integral, and a lattice vector's working
coordinates are simply its entries in the pivot columns. The edges at
one vertex span the affine hull and the echelon form depends only on
the span, so `build_genfun` eliminates only the differences from vertex
0 to its neighbours. It reads the basis into a chart once per polytope,
the pivot columns and the basis entries in every other column, so that
`to_working` only takes the pivot entries and checks the remaining
columns.

In working coordinates every ray is an arc e_head - e_tail on the nodes
{root, 1..dim}, e_root = 0. Each tangent-cone ray is an edge direction,
and an edge gives the same ray at both ends with opposite signs, so
`build_genfun` walks each undirected edge once: it takes the edge's
primitive ray, reads it by `to_working` and `cones._arc` once per
distinct ray of the polytope up to sign, since many cones share a ray,
and hands the ray and its arc to one end, and the negated ray and the
reversed arc to the other. The walk lists every cone's rays in
`adjacency[i]` order, as `cones.tangent_cone` does, so the placing
order and the `genfun` dump are those of reading each cone on its own.
The arcs give the cone's key, and a piece's arcs form the spanning tree
that certifies it and whose cuts give its half-open flags. Many tangent
cones of one polytope are the same directed graph up to relabelling its
nodes. `build_genfun` keeps, for one call, the pieces and flags of each
ordered arc pattern (`cones.arc_pattern`) it has triangulated, and a
cone with a known pattern reuses them with its own rays. A relabelling
is a unimodular linear map of the working lattice (lift to the sum-zero
hyperplane of Z^(dim+1) and permute coordinates), under which the
placing decisions, the tree cuts, `pick_generic_y`'s y and so every
flag are invariant, so the terms, and the `genfun` dump, are those of
triangulating every cone. A tangent cone is
full-dimensional, so one with exactly dim rays is simplicial: it is its
own piece, the one `triangulate_cone` would return, and is not placed.
Every piece of every cone is certified on that cone's own arcs.
"""

from operator import mul, sub

from .cones import (
    _arc, arc_pattern, assert_unimodular, pick_generic_y, triangulate_cone,
)
from .exactmath import _gauss_jordan, vec_primitive, vec_sub
from .vertices import enumerate_vertices


class GenFunTerm:
    """One term z^a / prod_j (1 - z^(b_j)) of the generating function,
    for a piece of the tangent cone at vertex v."""

    def __init__(self, a, v, bs):
        if not all(map(any, bs)):
            raise ValueError("genfun: zero denominator exponent")
        self.a = a
        self.v = v
        self.bs = bs


class GenFun:
    def __init__(self, terms, n, dim):
        self.terms = terms
        self.n = n
        self.dim = dim


def affine_lattice_basis(vertices):
    """Basis of the saturated lattice span{v_i - v_0} intersect Z^n: the
    reduced row echelon rows of the differences, as integer vectors.
    ValueError when an echelon row is not integral, i.e. when reading
    the pivot coordinates is not a lattice isomorphism."""
    diffs = [vec_sub(v, vertices[0]) for v in vertices[1:]]
    a, pivots, d = _gauss_jordan(diffs, len(vertices[0]))
    rows = a[:len(pivots)]
    if any(x % d for row in rows for x in row):
        raise ValueError("genfun: affine hull has a non-integral"
                         " echelon basis")
    return [tuple(x // d for x in row) for row in rows]


def working_chart(basis):
    """The chart of an echelon lattice basis, built once per polytope:
    the pivot columns (each row's first nonzero entry) and, for every
    other column, the basis entries in it. ValueError unless each
    pivot entry is 1 and the other rows are 0 in its column, i.e.
    unless reading the pivot entries inverts the basis, and for an
    empty basis, which has no chart."""
    if not basis:
        raise ValueError("genfun: empty lattice basis")
    pivots = tuple(next(c for c, y in enumerate(b) if y) for b in basis)
    for i, c in enumerate(pivots):
        if any(b[c] != int(k == i) for k, b in enumerate(basis)):
            raise ValueError("genfun: lattice basis is not saturated:"
                             f" pivot column {c} is not a unit column")
    others = tuple((c, tuple(b[c] for b in basis))
                   for c in range(len(basis[0])) if c not in pivots)
    return pivots, others


def to_working(chart, vec):
    """Coordinates of an ambient lattice vector in an echelon lattice
    basis: its entries in the chart's pivot columns, checked against
    the vector's entries in the other columns."""
    pivots, others = chart
    x = tuple(vec[c] for c in pivots)
    for c, col in others:
        if sum(map(mul, x, col)) != vec[c]:
            raise ValueError("genfun: vector outside the affine hull")
    return x


def build_genfun(spec):
    """Full pipeline: vertices -> tangent cones -> triangulation ->
    half-open decomposition -> unimodular terms."""
    vs = enumerate_vertices(spec)
    if not vs.vertices:
        raise ValueError("genfun: empty polytope")
    # the edges at a vertex span the affine hull, and the echelon rows
    # depend only on the span
    near = [vs.vertices[j] for j in vs.adjacency[0]]
    basis = affine_lattice_basis([vs.vertices[0]] + near)
    dim = len(basis)
    if dim == 0:
        # a single lattice point
        point = vs.vertices[0]
        return GenFun([GenFunTerm(point, point, [])], spec.n, 0)
    patterns = {}
    terms = []
    for v, cone in zip(vs.vertices,
                       _edge_cones(vs, working_chart(basis))):
        terms.extend(_vertex_terms(v, cone, dim, patterns))
    return GenFun(terms, spec.n, dim)


def _edge_cones(vs, chart):
    """Every vertex's tangent cone as its [(ray, arc)], read off each
    undirected edge {i, j}, i < j, once: the primitive ray r from v_i
    to v_j joins vertex i's cone with its arc (tail, head), and -r joins
    vertex j's with (head, tail). A ray is read as an arc once per
    polytope, up to sign. The walk takes i in ascending order and each
    adjacency list is sorted, so every cone lists its rays in
    `adjacency[i]` order, as `cones.tangent_cone` does. A ray that
    is no arc raises AssertionError naming vertex i."""
    verts = vs.vertices
    cones = [[] for _ in verts]
    read = {}   # ray -> (arc, -ray, reversed arc), both orientations
    for i, (v, near) in enumerate(zip(verts, vs.adjacency)):
        for j in near:
            if j < i:
                continue
            r = vec_primitive(tuple(map(sub, verts[j], v)))
            entry = read.get(r)
            if entry is None:
                try:
                    arc = _arc(to_working(chart, r))
                except AssertionError as exc:
                    raise AssertionError(f"cones: vertex {v}: {exc}") \
                        from exc
                back = (arc[1], arc[0])
                neg = tuple([-x for x in r])
                entry = read[r] = (arc, neg, back)
                read[neg] = (back, r, arc)
            arc, neg, back = entry
            cones[i].append((r, arc))
            cones[j].append((neg, back))
    return cones


def _vertex_terms(v, cone, dim, patterns):
    """The terms of the tangent cone at vertex v, given as its
    [(ray, arc)] (`_edge_cones`): the cone is triangulated on its arcs
    in working coordinates, and each half-open piece is the term with
    numerator exponent the vertex plus the piece's open rays, and the
    piece's ambient rays as denominator exponents.

    `patterns` maps the `arc_pattern` of each cone triangulated so far
    in this polytope to its [(piece, flags)]; a cone whose pattern is
    there reuses them, read against its own rays. A new pattern with
    exactly dim rays is simplicial and is its own one piece, with no
    call to `triangulate_cone`. Every piece, reused or not, must pass
    `assert_unimodular` on this cone's arcs; a piece that does not
    raises AssertionError naming the vertex and the piece's ray
    indices."""
    rays = [r for r, _ in cone]
    arcs = [arc for _, arc in cone]
    key = arc_pattern(arcs)
    flagged = patterns.get(key)
    if flagged is not None:
        pieces = [piece for piece, _ in flagged]
    elif len(rays) == dim:
        # the tangent cone is full-dimensional, so dim rays are
        # independent and span a simplicial cone: its own one piece
        pieces = [list(range(dim))]
    else:
        pieces = triangulate_cone(arcs)
    trees = [[arcs[j] for j in piece] for piece in pieces]
    for piece, tree in zip(pieces, trees):
        try:
            assert_unimodular(tree, dim)
        except AssertionError as exc:
            raise AssertionError(f"cones: vertex {v}, piece of rays"
                                 f" {piece}: {exc}") from exc
    if flagged is None:
        _, flags = pick_generic_y(trees, arcs)
        flagged = patterns[key] = list(zip(pieces, flags))
    out = []
    for piece, flags in flagged:
        a = tuple(map(sum, zip(v, *[rays[j] for j, is_open
                                    in zip(piece, flags) if is_open])))
        out.append(GenFunTerm(a, v, [rays[j] for j in piece]))
    return out

"""Multivariate rational generating functions of lattice polytopes:
per-cone terms from half-open unimodular cones, summed over vertex
tangent cones. A term carries its vertex v, so the k-th dilation is the
parametric form

    g_kP(z) = sum_i eps_i z^(a_i + (k-1) v_i) / prod_j (1 - z^(b_ij)),

which `specialize.ehrhart_polynomial` reads as a polynomial in k.

Exponent vectors live in the ambient Z^n; the number of denominator
factors per term is the polytope dimension N, because all cone work is
done in a lattice basis of the polytope's affine hull. That basis is
the reduced row echelon form of the vertex differences: for matroid and
polymatroid polytopes every edge direction is +-(e_a - e_b) or +-e_a, so
the echelon rows are integral, and a lattice vector's working
coordinates are simply its entries in the pivot columns. `build_genfun`
reads the basis into a chart once per polytope, the pivot columns and
the basis entries in every other column, so that `to_working` only
takes the pivot entries and checks the remaining columns.

In working coordinates every ray is an arc e_head - e_tail on the nodes
{root, 1..dim}, e_root = 0, and many tangent cones of one polytope are
the same directed graph up to relabelling its nodes. `build_genfun`
keeps, for one call, the pieces and half-open flags of each ordered arc
pattern (`cones.arc_pattern`) it has triangulated, and a cone with a
known pattern reuses them with its own rays. A relabelling is a
unimodular linear map of the working lattice (lift to the sum-zero
hyperplane of Z^(dim+1) and permute coordinates), under which the
placing decisions, a unimodular piece's normals, `pick_generic_y`'s y
and so every flag are invariant, so the terms, and the `genfun` dump,
are those of triangulating every cone. `assert_unimodular` still
certifies every piece of every cone on its own rays.
"""

from operator import mul

from .cones import (
    arc_pattern, assert_unimodular, half_open_decompose, pick_generic_y,
    tangent_cone, triangulate_cone,
)
from .exactmath import _gauss_jordan, vec_add, vec_sub
from .vertices import enumerate_vertices


class GenFunTerm:
    """One signed rational-function term of the generating function."""

    def __init__(self, sign, a, v, bs):
        if any(all(x == 0 for x in b) for b in bs):
            raise ValueError("zero denominator exponent")
        self.sign = sign
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
        raise ValueError("affine hull has a non-integral echelon basis")
    return [tuple(x // d for x in row) for row in rows]


def working_chart(basis):
    """The chart of an echelon lattice basis, built once per polytope:
    the pivot columns (each row's first nonzero entry) and, for every
    other column, the basis entries in it. ValueError unless each
    pivot entry is 1 and the other rows are 0 in its column, i.e.
    unless reading the pivot entries inverts the basis, and for an
    empty basis, which has no chart."""
    if not basis:
        raise ValueError("empty lattice basis")
    pivots = tuple(next(c for c, y in enumerate(b) if y) for b in basis)
    for i, c in enumerate(pivots):
        if any(b[c] != int(k == i) for k, b in enumerate(basis)):
            raise ValueError("lattice basis is not saturated: pivot"
                             f" column {c} is not a unit column")
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
            raise ValueError("vector outside the affine hull")
    return x


def build_genfun(spec):
    """Full pipeline: vertices -> tangent cones -> triangulation ->
    half-open decomposition -> unimodular terms."""
    vs = enumerate_vertices(spec)
    if not vs.vertices:
        raise ValueError("empty polytope")
    basis = affine_lattice_basis(vs.vertices)
    dim = len(basis)
    if dim == 0:
        # a single lattice point
        point = vs.vertices[0]
        return GenFun([GenFunTerm(1, point, point, [])], spec.n, 0)
    chart = working_chart(basis)
    patterns = {}
    terms = []
    for i in range(len(vs)):
        terms.extend(_vertex_terms(vs, i, chart, patterns))
    return GenFun(terms, spec.n, dim)


def _vertex_terms(vs, i, chart, patterns):
    """The terms of vertex i's tangent cone: the cone is triangulated in
    working coordinates, and each half-open piece is the term with sign
    +1, numerator exponent the vertex plus the piece's open rays, and
    the piece's ambient rays as denominator exponents.

    `patterns` maps the `arc_pattern` of each cone triangulated so far
    in this polytope to its [(piece, flags)]; a cone whose pattern is
    there reuses them, read against its own rays. Every piece, reused or
    not, must pass `assert_unimodular` on this cone's working rays; one
    that does not raises AssertionError naming the vertex and the
    piece's ray indices."""
    v = vs.vertices[i]
    rays = tangent_cone(vs, i)
    rays_work = [to_working(chart, r) for r in rays]
    key = arc_pattern(rays_work)
    flagged = patterns.get(key)
    pieces = triangulate_cone(rays_work) if flagged is None else flagged
    for piece, _ in pieces:
        try:
            assert_unimodular([rays_work[j] for j in piece])
        except AssertionError as exc:
            raise AssertionError(f"cones: vertex {v}, piece of rays"
                                 f" {piece}: {exc}") from exc
    if flagged is None:
        normal_lists = [normals for _, normals in pieces]
        y = pick_generic_y([nrm for nrms in normal_lists for nrm in nrms],
                           rays=rays_work)
        flagged = list(zip((piece for piece, _ in pieces),
                           half_open_decompose(normal_lists, y)))
        if key is not None:
            patterns[key] = flagged
    out = []
    for piece, flags in flagged:
        a = v
        for j, is_open in zip(piece, flags):
            if is_open:
                a = vec_add(a, rays[j])
        out.append(GenFunTerm(1, a, v, [rays[j] for j in piece]))
    return out

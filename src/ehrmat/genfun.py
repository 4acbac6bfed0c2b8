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
coordinates are simply its entries in the pivot columns.
"""

from .cones import (
    assert_unimodular, half_open_decompose, pick_generic_y, tangent_cone,
    triangulate_cone,
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


def to_working(basis, vec):
    """Coordinates of an ambient lattice vector in an echelon lattice
    basis: its entries in the pivot columns (each row's first nonzero
    entry), checked by rebuilding the vector."""
    x = tuple(vec[next(c for c, y in enumerate(b) if y)] for b in basis)
    rebuilt = tuple(sum(xi * b[c] for xi, b in zip(x, basis))
                    for c in range(len(vec)))
    if rebuilt != tuple(vec):
        raise ValueError("vector outside the affine hull, or lattice basis"
                         " is not saturated")
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
    terms = []
    for i in range(len(vs)):
        terms.extend(_vertex_terms(vs, i, basis))
    return GenFun(terms, spec.n, dim)


def _vertex_terms(vs, i, basis):
    """The terms of vertex i's tangent cone: the cone is triangulated in
    working coordinates, and each half-open piece is the term with sign
    +1, numerator exponent the vertex plus the piece's open rays, and
    the piece's ambient rays as denominator exponents."""
    v = vs.vertices[i]
    rays = tangent_cone(vs, i)
    rays_work = [to_working(basis, r) for r in rays]
    pieces = triangulate_cone(rays_work)
    for piece, _ in pieces:
        assert_unimodular([rays_work[j] for j in piece])
    normal_lists = [normals for _, normals in pieces]
    y = pick_generic_y([nrm for nrms in normal_lists for nrm in nrms],
                       rays=rays_work)
    out = []
    for (piece, _), flags in zip(pieces, half_open_decompose(normal_lists, y)):
        a = v
        for j, is_open in zip(piece, flags):
            if is_open:
                a = vec_add(a, rays[j])
        out.append(GenFunTerm(1, a, v, [rays[j] for j in piece]))
    return out

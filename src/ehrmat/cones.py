"""Tangent cones, placing triangulation with an exact barycentric
visibility test, boundary-join cone triangulation, and half-open
decomposition into unimodular simplicial cones.
"""

from itertools import combinations

from .exactmath import (
    det, mat_inverse_unimodular, mat_rank, solve_linear, vec_dot,
    vec_primitive, vec_sub,
)


class TangentCone:
    """Cone of feasible directions at a vertex, translated to it."""

    def __init__(self, apex, rays):
        self.apex = apex
        self.rays = rays


class HalfOpenSimplicialCone:
    """Unimodular simplicial cone with per-ray strictness flags.

    `rays` is a lattice basis of the cone's span; `open_flags[j]` means
    the facet opposite ray j is excluded (the ray-j coordinate must be
    strictly positive).
    """

    def __init__(self, apex, rays, open_flags):
        self.apex = apex
        self.rays = rays
        self.open_flags = open_flags


def tangent_cone(vs, i):
    """Tangent cone of the polytope at vertex i: apex plus primitive
    directions toward the adjacent vertices."""
    v = vs.vertices[i]
    rays = [vec_primitive(vec_sub(vs.vertices[j], v))
            for j in vs.adjacent_vertices(i)]
    return TangentCone(v, rays)


def _affinely_independent(points, idx, new_point):
    base = points[idx[0]] if idx else new_point
    rows = [vec_sub(points[i], base) for i in idx[1:]]
    return mat_rank(rows + [vec_sub(new_point, base)]) == len(rows) + 1


def placing_triangulation(points):
    """Incremental (placing) triangulation of conv(points).

    Points are inserted in the given order. A point outside the current
    affine hull cones every maximal simplex to itself; a point inside it
    is attached to every visible boundary facet. Visibility is the exact
    hyperplane criterion (query strictly beyond the facet's affine
    hull), decided by the sign of a barycentric coordinate.
    Returns the set of maximal simplices as tuples of point indices.
    """
    simplices = set()
    placed = []
    for idx in range(len(points)):
        p = points[idx]
        if any(points[i] == p for i in placed):
            continue
        if not placed:
            simplices = {(idx,)}
            placed.append(idx)
            continue
        hull = next(iter(simplices))
        if _affinely_independent(points, hull, p):
            simplices = {s + (idx,) for s in simplices}
            placed.append(idx)
            continue
        new = []
        bary_cache = {}
        for fac, owner in _boundary_facets_with_owner(simplices):
            if owner not in bary_cache:
                bary_cache[owner] = _barycentric(points, owner, p)
            bary = bary_cache[owner]
            j = owner.index(next(v for v in owner if v not in fac))
            if bary[j] < 0:
                new.append(tuple(sorted(fac + (idx,))))
        simplices.update(new)
        placed.append(idx)
    return {tuple(sorted(s)) for s in simplices}


def _barycentric(points, simplex, p):
    """Affine coordinates of p with respect to an affinely independent
    simplex whose affine hull contains p."""
    rows = [[points[i][c] for i in simplex] for c in range(len(p))]
    rows.append([1] * len(simplex))
    sol = solve_linear(rows, list(p) + [1])
    if sol is None:
        raise ValueError("point is outside the simplex's affine hull")
    return sol


def _boundary_facets_with_owner(simplices):
    """Facets belonging to exactly one maximal simplex, with that
    simplex."""
    seen = {}
    for s in simplices:
        if len(s) == 1:
            continue
        for fac in combinations(s, len(s) - 1):
            if fac in seen:
                seen[fac] = None
            else:
                seen[fac] = s
    return [(fac, owner) for fac, owner in seen.items() if owner is not None]


def _boundary_facets(simplices):
    return [fac for fac, _ in _boundary_facets_with_owner(simplices)]


def triangulate_cone(cone):
    """Triangulate a pointed cone into simplicial cones, returned as
    lists of ray indices.

    Stage 1 places {0} union rays; stage 2 joins the apex to every
    boundary facet not containing it. Rays must be extremal.
    """
    nrays = len(cone.rays)
    if nrays == 0:
        raise ValueError("trivial cone")
    dim_cone = mat_rank(cone.rays)
    if nrays == dim_cone:
        return [list(range(nrays))]
    zero = tuple(0 for _ in cone.rays[0])
    points = [zero] + list(cone.rays)
    tri = placing_triangulation(points)
    out = []
    for fac in _boundary_facets(tri):
        if 0 in fac:
            continue
        out.append([i - 1 for i in fac])
    return out


def cone_ray_matrix(rays):
    """Matrix whose columns are the rays."""
    return tuple(zip(*rays))


def facet_normals_unimodular(rays):
    """Inward facet normals of a unimodular simplicial cone, one per
    ray: the normal opposite ray j pairs to -1 with ray j and to 0 with
    the others. Integral because the ray matrix is unimodular."""
    inv = mat_inverse_unimodular(cone_ray_matrix(rays))
    return [tuple(-x for x in row) for row in inv]


def pick_generic_y(normals, rays):
    """A vector pairing nonzero with every normal: the first positive
    combination sum xi^(i-1) * r_i of the rays, xi = 1, 2, ..., that
    does so; it stays interior to the cone spanned by the rays.
    """
    if any(all(x == 0 for x in nrm) for nrm in normals):
        raise ValueError("zero normal")
    xi = 1
    while True:
        y = tuple(sum(xi ** i * r[c] for i, r in enumerate(rays))
                  for c in range(len(rays[0])))
        if all(vec_dot(nrm, y) != 0 for nrm in normals):
            return y
        xi += 1


def half_open_decompose(cones, y):
    """Half-open decomposition of a list of full-dimensional unimodular
    simplicial cones sharing an apex.

    Each cone is (apex, rays, normals) with normals as returned by
    `facet_normals_unimodular(rays)`; y must pair nonzero with every
    facet normal and lie in the cone the pieces are meant to partition.
    Facet j of a piece is flagged open when its inward normal pairs
    positively with y, i.e. when y lies on the outside of that facet.
    """
    out = []
    for apex, rays, normals in cones:
        flags = []
        for nrm in normals:
            pairing = vec_dot(nrm, y)
            if pairing == 0:
                raise ValueError("y is not generic for these cones")
            flags.append(pairing > 0)
        out.append(HalfOpenSimplicialCone(apex, list(rays), flags))
    return out


def assert_unimodular(rays):
    d = det(cone_ray_matrix(rays))
    if d not in (1, -1):
        raise AssertionError(f"ray matrix determinant {d}, expected +-1")
    return d

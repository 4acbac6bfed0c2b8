"""Tangent cones, placing triangulation on carried integer inverses,
boundary-join cone triangulation with facet normals, and half-open
decomposition into unimodular simplicial cones.

Every simplex of the placing triangulation carries (t, d): d times the
inverse of its homogenized vertex matrix, restricted to a chart of
coordinates, with d = +-det, so t = +-adj. Coning a facet to a new
point is a rank-one update of the owner's inverse and growing the affine
hull is a bordered (Schur) update; both divide exactly, so no simplex
is ever eliminated. Visibility signs, the hull test and the facet
normals of the cone pieces are all read off these inverses.
"""

from itertools import combinations
from operator import mul

from .exactmath import det, vec_dot, vec_primitive, vec_sub


def tangent_cone(vs, i):
    """Rays of the tangent cone of the polytope at vertex i, whose apex
    is that vertex: the primitive directions toward the adjacent
    vertices."""
    v = vs.vertices[i]
    return [vec_primitive(vec_sub(vs.vertices[j], v))
            for j in vs.adjacent_vertices(i)]


def _apply(t, b):
    """u = t b."""
    return [sum(map(mul, row, b)) for row in t]


def _coned(t, d, j, u):
    """Carried inverse after vertex j is replaced by a point b with
    u = t b (a rank-one update): d' = u_j, row i is
    (u_j t_i - u_i t_j) / d, exact because t is +-adj. The rows come
    in vertex order with j dropped and the new vertex's row t_j last."""
    uj, tj = u[j], t[j]
    rows = [tuple((uj * x - ui * y) // d for x, y in zip(ti, tj))
            for i, (ti, ui) in enumerate(zip(t, u)) if i != j]
    rows.append(tj)
    return rows, uj


def _bordered(t, d, u, e, f):
    """Carried inverse after a vertex b (u = t b) and a chart coordinate
    are appended, the vertices reading e and b reading f there (a Schur
    update): with g = e^T t and D = d f - e u,
    t' = [[(D t + u g^T) / d, -u], [-g, d]] and d' = D."""
    g = [sum(map(mul, e, col)) for col in zip(*t)]
    big = d * f - sum(map(mul, e, u))
    rows = [tuple((big * x + ui * gc) // d for x, gc in zip(ti, g)) + (-ui,)
            for ti, ui in zip(t, u)]
    rows.append(tuple(-gc for gc in g) + (d,))
    return rows, big


def _place(points):
    """Incremental (placing) triangulation of conv(points), with every
    simplex's carried inverse.

    Points are inserted in the given order. A point outside the current
    affine hull cones every maximal simplex to itself; a point inside it
    is attached to every visible boundary facet: one it lies strictly
    beyond, i.e. where its barycentric coordinate at the owner's vertex
    opposite the facet is negative.

    A simplex s (a sorted tuple) carries (t, d): d times the inverse of
    its homogenized vertex matrix restricted to the chart, rows in the
    order of s, with d = +-det. The chart lists coordinates of the
    homogenized points (0 is the homogenizing 1) on which the current
    affine hull projects bijectively; each hull growth appends the first
    coordinate where the new point leaves the hull. So u = t b is d
    times the barycentric coordinates of a point b of the hull, and no
    simplex is ever eliminated.
    Returns (maximal simplices as sorted tuples of point indices,
    inverses by simplex, chart).
    """
    hom = [(1,) + tuple(p) for p in points]
    chart = [0]
    simplices = set()
    inverse = {}
    placed = []
    for idx in range(len(points)):
        p = points[idx]
        if any(points[i] == p for i in placed):
            continue
        if not placed:
            simplices = {(idx,)}
            inverse[(idx,)] = ([(1,)], 1)
            placed.append(idx)
            continue
        b = hom[idx]
        bc = [b[c] for c in chart]
        hull = next(iter(simplices))
        t, d = inverse[hull]
        u = _apply(t, bc)
        off = next((c for c in range(len(b)) if c not in chart
                    and sum(uv * hom[v][c] for uv, v in zip(u, hull))
                    != d * b[c]), None)
        if off is not None:
            chart.append(off)
            for s in simplices:
                t, d = inverse.pop(s)
                inverse[s + (idx,)] = _bordered(
                    t, d, _apply(t, bc), [hom[v][off] for v in s], b[off])
            simplices = {s + (idx,) for s in simplices}
            placed.append(idx)
            continue
        new = []
        for fac, owner, j in _boundary_facets_with_owner(simplices):
            t, d = inverse[owner]
            # u_j = t_j b is d times b's barycentric coordinate at j
            if sum(map(mul, t[j], bc)) * d < 0:
                s = tuple(sorted(fac + (idx,)))
                new.append(s)
                inverse[s] = _coned(t, d, j, _apply(t, bc))
        simplices.update(new)
        placed.append(idx)
    return {tuple(sorted(s)) for s in simplices}, inverse, chart


def _boundary_facets_with_owner(simplices):
    """Facets belonging to exactly one maximal simplex, as (facet,
    that simplex, position in it of the vertex the facet omits)."""
    seen = {}
    for s in simplices:
        if len(s) == 1:
            continue
        # combinations omits the last position first
        for j, fac in zip(range(len(s) - 1, -1, -1),
                          combinations(s, len(s) - 1)):
            if fac in seen:
                seen[fac] = None
            else:
                seen[fac] = (s, j)
    return [(fac, *owner) for fac, owner in seen.items() if owner is not None]


def triangulate_cone(rays):
    """Triangulate the pointed cone spanned by `rays`, apex at the
    origin, into simplicial cones, returned as (piece, normals) pairs:
    the piece a list of ray indices, and one inward facet normal per ray
    of the piece.

    Stage 1 places {0} union rays; stage 2 joins the apex to every
    boundary facet not containing it. The carried inverse of apex union
    piece is the facet's owner's, or one rank-one update of it when the
    owner does not contain the apex. Normal j is read off it on the
    chart coordinates and is 0 elsewhere: it pairs -|det| with ray j
    and 0 with the other rays of the piece, det being the ray
    determinant on the chart, so for a unimodular piece it is
    `facet_normals_unimodular` of the piece's rays. A facet in a
    hyperplane through the apex spans a flat cone and is dropped: the
    placing triangulation makes one when a ray is not extremal, and
    also from some sets of extremal rays.
    """
    if not rays:
        raise ValueError("trivial cone")
    dim = len(rays[0])
    tri, inverse, chart = _place([(0,) * dim] + list(rays))
    out = []
    for fac, owner, j in _boundary_facets_with_owner(tri):
        if 0 in fac:
            continue
        piece = [i - 1 for i in fac]
        t, d = inverse[owner]
        if owner[0] == 0:
            rows = t[1:]
        else:
            # the apex homogenizes to e_0 on the chart, so u = t e_0
            u = [row[0] for row in t]
            if u[j] == 0:
                # the facet lies in a hyperplane through the apex, so
                # its cone is flat, on the boundary of the cone
                continue
            rows, d = _coned(t, d, j, u)
            rows = rows[:-1]
        sign = -1 if d > 0 else 1
        normals = []
        for row in rows:
            nrm = [0] * dim
            for c, x in zip(chart[1:], row[1:]):
                nrm[c - 1] = sign * x
            normals.append(tuple(nrm))
        out.append((piece, normals))
    return out


def cone_ray_matrix(rays):
    """Matrix whose columns are the rays."""
    return tuple(zip(*rays))


def facet_normals_unimodular(rays):
    """Inward facet normals of a unimodular simplicial cone, one per
    ray: the normal opposite ray j pairs to -1 with ray j and to 0 with
    the others. They are minus the inverse of the ray matrix, taken here
    by cofactors: the reference for the normals that `triangulate_cone`
    reads off its carried inverses. ValueError unless the determinant
    is +-1."""
    d = det(cone_ray_matrix(rays))
    if d not in (1, -1):
        raise ValueError(f"ray matrix determinant {d}, not unimodular")
    n = len(rays)
    return [tuple(-d * (-1) ** (j + c) * det(
        [[r[k] for k in range(n) if k != c]
         for i, r in enumerate(rays) if i != j]) for c in range(n))
        for j in range(n)]


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


def half_open_decompose(normal_lists, y):
    """Half-open decomposition of the full-dimensional unimodular
    simplicial cones of one triangulated cone: per piece, the list of
    open flags, one per ray.

    `normal_lists` holds each piece's normals as `triangulate_cone`
    returns them (for a unimodular piece, `facet_normals_unimodular` of
    its rays); y must pair nonzero with every facet normal and lie in
    the cone the pieces are meant to partition. Flag j of a piece is set
    (the facet opposite ray j is excluded, so the ray-j coordinate must
    be strictly positive) when its inward normal pairs positively with
    y, i.e. when y lies on the outside of that facet.
    """
    out = []
    for normals in normal_lists:
        flags = []
        for nrm in normals:
            pairing = vec_dot(nrm, y)
            if pairing == 0:
                raise ValueError("y is not generic for these cones")
            flags.append(pairing > 0)
        out.append(flags)
    return out


def assert_unimodular(rays):
    d = det(cone_ray_matrix(rays))
    if d not in (1, -1):
        raise AssertionError(f"ray matrix determinant {d}, expected +-1")
    return d

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

Each piece is then certified unimodular independently of that
arithmetic. A working ray is +-e_a or +-(e_a - e_b), an arc of a graph
on the nodes {root, 1..dim}; the ray matrix is then a network matrix,
and a square one has determinant +-1 iff its arcs form a spanning tree,
0 otherwise (Postnikov, Permutohedra, associahedra, and beyond, IMRN
2009, section 12). `assert_unimodular` checks this by union-find.

Many tangent cones of one polytope are the same directed graph up to
relabelling these nodes, and `genfun.build_genfun` triangulates each
ordered arc pattern (`arc_pattern`) once. This is exact. A relabelling
is a unimodular linear map of the working lattice: lift Z^dim to the
sum-zero hyperplane of Z^(dim+1), x -> (-sum x, x), and permute
coordinates. Every decision of `triangulate_cone` (hull growth, the
sign of a barycentric coordinate, the flat-facet drop) is
affine-invariant, and its iteration orders depend only on index tuples,
so both cones get the same pieces in the same order. The normal of a
unimodular piece is the functional pairing -1 with its ray and 0 with
the others, and `pick_generic_y`'s y = sum xi^i r_i moves with the
rays, so xi, every pairing and every half-open flag agree as well.
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


def _arc(ray):
    """The oriented arc (tail, head) of a ray on the nodes {root, 1..dim},
    the root being node 0: ray = e_head - e_tail with e_0 = 0, so +e_a
    is (0, a), -e_a is (a, 0) and e_a - e_b is (b, a); None for any
    other vector."""
    ends = [(c, x) for c, x in enumerate(ray, 1) if x]
    if len(ends) == 1 and ends[0][1] in (1, -1):
        c, x = ends[0]
        return (0, c) if x == 1 else (c, 0)
    if len(ends) == 2 and ends[0][1] + ends[1][1] == 0 \
            and ends[0][1] in (1, -1):
        (a, x), (b, _) = ends
        return (b, a) if x == 1 else (a, b)
    return None


def arc_pattern(rays):
    """The ordered arc pattern of a cone's working rays, the key under
    which `genfun.build_genfun` reuses a triangulation: (dim, the rays'
    arcs in order), the nodes {root, 1..dim} relabelled 0, 1, ... in
    order of first appearance. None when some ray is no arc. Two cones
    have equal patterns exactly when a bijection of the nodes maps one
    ordered ray list onto the other."""
    labels = {}
    arcs = []
    for ray in rays:
        arc = _arc(ray)
        if arc is None:
            return None
        arcs.append(tuple(labels.setdefault(a, len(labels)) for a in arc))
    return len(rays[0]) if rays else 0, tuple(arcs)


def assert_unimodular(rays):
    """Certify a simplicial cone's rays as a unimodular basis by the arc
    rule: every ray must be an arc +-e_a or +-(e_a - e_b) on the nodes
    {root, 1..dim}, and the dim arcs, orientation ignored, must form a
    spanning tree, which union-find checks as the absence of a cycle. A
    square arc matrix has determinant +-1 exactly then, and 0
    otherwise. AssertionError naming the ray otherwise, also under
    `python -O`."""
    dim = len(rays[0]) if rays else 0
    if len(rays) != dim:
        raise AssertionError(f"{len(rays)} rays in dimension {dim},"
                             " expected a square ray matrix")
    parent = list(range(dim + 1))

    def root(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for ray in rays:
        arc = _arc(ray) if len(ray) == dim else None
        if arc is None:
            raise AssertionError(f"ray {tuple(ray)} is no arc +-e_a or"
                                 " +-(e_a - e_b), expected a network matrix")
        a, b = map(root, arc)
        if a == b:
            raise AssertionError(f"ray {tuple(ray)} closes a cycle: ray"
                                 " matrix determinant 0, expected +-1")
        parent[a] = b

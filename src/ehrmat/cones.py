"""Tangent cones, placing triangulation on carried integer inverses,
boundary-join cone triangulation, and half-open decomposition into
unimodular simplicial cones read off spanning trees of arcs.

Every simplex of the placing triangulation carries (t, d): d times the
inverse of its homogenized vertex matrix, restricted to a chart of
coordinates, with d = |det| > 0, so t = +-adj and the sign of a
barycentric coordinate is the sign of its entry of u = t b. Coning a
facet to a new point is a rank-one update of the owner's inverse and
growing the affine hull is a bordered (Schur) update; both divide
exactly, so no simplex is ever eliminated. Visibility signs and the
flat-facet drop of the cone stage are read off these inverses. Where
the new point's barycentric coordinate at a kept vertex is 0 and d
does not change, either update copies that vertex's row, with no
division. Each point is an arc (tail, head) standing for
e_head - e_tail, the apex being (0, 0), so pairing it with a row reads
the row at the homogenizing coordinate 0, the head and the tail (the
root has none): at most three entries, not dim + 1.

The apex is placed first, so the affine hull of the points placed is
the linear span of their arcs, and a point leaves it exactly when its
arc joins two components of the arcs' undirected graph: the hull test
is union-find, with no row read. The boundary facets, each with its
owner and the position of the vertex it omits, are kept from the first
point on, and every step toggles the facets of its new simplices: a
hull growth cones every simplex to the new point and starts from an
empty boundary, where the two copies of each old interior ridge
cancel, and an insertion toggles the facets of the simplices it adds
beyond its visible facets. So an insertion costs its visibility tests
and its new simplices, each visible owner's barycentric vector is
taken once, and the cone's pieces are read off the final boundary.
The new simplices still enter in the order a full boundary scan lists
them, since the order of a set of tuples, and so of the pieces,
follows its insertion history.

Each piece is then certified unimodular independently of that
arithmetic. A working ray is +-e_a or +-(e_a - e_b), an arc of a graph
on the nodes {root, 1..dim}, read once per ray of a cone by `_arc`,
which fails on any other ray; the ray matrix is then a network matrix,
and a square one has determinant +-1 iff its arcs form a spanning tree,
0 otherwise (Postnikov, Permutohedra, associahedra, and beyond, IMRN
2009, section 12). `assert_unimodular` checks a piece's arcs by
union-find. The facet normal opposite arc t is -+ the indicator of the
side t cuts off from the root, so `tree_cuts` pairs y with every normal
of a piece in one pass over its tree, and no normal vector is built.

Many tangent cones of one polytope are the same directed graph up to
relabelling these nodes, and `genfun.build_genfun` triangulates each
ordered arc pattern (`arc_pattern`) once. This is exact. A relabelling
is a unimodular linear map of the working lattice: lift Z^dim to the
sum-zero hyperplane of Z^(dim+1), x -> (-sum x, x), and permute
coordinates. Every decision of `triangulate_cone` (hull growth, the
sign of a barycentric coordinate, the flat-facet drop) is
affine-invariant, and its iteration orders depend only on index tuples,
so both cones get the same pieces in the same order. The tree cuts
pair y with the dual basis of the piece's rays, and `pick_generic_y`'s
y = sum xi^i r_i moves with the rays, so xi, every cut and every
half-open flag agree as well.
"""

from .exactmath import _integral_unimodular, vec_primitive, vec_sub


def tangent_cone(vs, i):
    """Rays of the tangent cone of the polytope at vertex i, whose apex
    is that vertex: the primitive directions toward the adjacent
    vertices, in `adjacency[i]` order. This is the per-vertex
    reference: `genfun.build_genfun` reads every cone off its edge
    table instead, one primitive ray per undirected edge, and lists
    each cone's rays in this same order."""
    v = vs.vertices[i]
    return [vec_primitive(vec_sub(vs.vertices[j], v))
            for j in vs.adjacency[i]]


def _pairing(arc, pos):
    """The pairing r -> r . b_chart of the homogenized point b of an arc
    (tail, head) with a row r of a carried inverse, which holds one
    entry per chart coordinate c, at position pos[c]:
    r[0] + r[h] - r[t], leaving out an end that is the root or lies
    outside the chart."""
    tail, head = arc
    t = pos.get(tail) if tail else None
    h = pos.get(head) if head else None
    if h is None:
        return (lambda r: r[0]) if t is None else (lambda r: r[0] - r[t])
    if t is None:
        return lambda r: r[0] + r[h]
    return lambda r: r[0] + r[h] - r[t]


def _coned(t, d, j, u):
    """Carried inverse after vertex j is replaced by a point b with
    u = t b lying beyond the facet opposite j, so u_j < 0 < d (a
    rank-one update): d' = -u_j, row i is (u_i t_j - u_j t_i) / d,
    exact because t is +-adj. Where u_i = 0 that is (-u_j / d) t_i, so
    t_i itself when -u_j = d, with no division. The rows come in vertex
    order with j dropped and the new vertex's row -t_j last."""
    uj, tj = u[j], t[j]
    copy = -uj == d
    rows = []
    for i, (ti, ui) in enumerate(zip(t, u)):
        if i == j:
            continue
        if ui == 0 and copy:
            rows.append(ti)
        else:
            rows.append(tuple([(ui * y - uj * x) // d
                               for x, y in zip(ti, tj)]))
    rows.append(tuple([-y for y in tj]))
    return rows, -uj


def _bordered(t, d, u, e, f):
    """Carried inverse after a vertex b (u = t b) and a chart coordinate
    are appended, the vertices reading e and b reading f there (a Schur
    update): with g = e^T t and D = d f - e u,
    t' = [[(D t + u g^T) / d, -u], [-g, d]] and d' = D, all negated
    when D < 0, so that d' = |D|. g is summed over the rows where e is
    not 0, few when the points are arcs. Where u_i = 0 and d' = d, row
    i is t_i extended by 0, with no division."""
    g = [0] * len(t)
    big = d * f
    for ei, ti, ui in zip(e, t, u):
        if ei:
            g = [gc + ei * x for gc, x in zip(g, ti)]
            big -= ei * ui
    if big < 0:
        big = -big
        u = [-x for x in u]
        last = tuple(g) + (-d,)
    else:
        last = tuple([-gc for gc in g]) + (d,)
    rows = []
    for ti, ui in zip(t, u):
        if ui == 0 and big == d:
            rows.append(ti + (0,))
        else:
            rows.append(tuple([(big * x + ui * gc) // d
                               for x, gc in zip(ti, g)]) + (-ui,))
    rows.append(last)
    return rows, big


def _entry(arc, c):
    """Coordinate c >= 1 of the point of an arc (tail, head)."""
    return (c == arc[1]) - (c == arc[0])


def _place(arcs):
    """Incremental (placing) triangulation of the points of `arcs`, each
    (tail, head) standing for e_head - e_tail, the first being the apex
    (0, 0), with every simplex's carried inverse and the boundary.
    ValueError if the first point is not the apex.

    Points are inserted in the given order. A point outside the current
    affine hull cones every maximal simplex to itself; a point inside it
    is attached to every visible boundary facet: one it lies strictly
    beyond, i.e. where its barycentric coordinate at the owner's vertex
    opposite the facet is negative. A repeated point lies in the hull
    and strictly beyond no boundary facet, so it adds no simplex.

    With the apex placed first, the affine hull is the linear span of
    the arcs placed so far, and an arc leaves it exactly when its two
    ends lie in different components of their undirected graph, which
    union-find decides. Each component is rooted at its largest node,
    or at the root 0 when it holds it, and the coordinates outside the
    chart are the roots other than 0.

    A simplex s (a tuple of point indices, sorted because each new point
    has the largest index placed) carries (t, d): d times the inverse of
    its homogenized vertex matrix restricted to the chart, rows in the
    order of s, with d = |det| > 0. The chart maps the coordinates of
    the homogenized points (0 is the homogenizing 1, c >= 1 is node c)
    on which the current affine hull projects bijectively to their row
    positions; each hull growth adds, at the next position, the first
    coordinate where the new point leaves the hull: the smaller of the
    two roots it joins, or the other one when that is 0. So u = t b is d
    times the barycentric coordinates of a point b of the hull, its sign
    is theirs, and no simplex is ever eliminated. Each point is paired
    with rows by one `_pairing`, built when it is placed from its two
    ends: every visibility test and every u = t b use it.

    The boundary maps each facet of exactly one maximal simplex to (that
    owner, position of the vertex it omits), from the first point on,
    whose one facet is (). Each step toggles the facets of its new
    simplices, so a facet already on the boundary becomes interior and
    any other one joins it. A hull growth by p cones every simplex to p
    and starts from an empty boundary: each facet F + (p,) of an old
    ridge F inside the hull comes from both simplices on F and cancels,
    which leaves each old boundary facet F of owner s at j as F + (p,)
    of owner s + (p,) at j, and each old simplex s as the facet of
    s + (p,) at position len(s). An owner's u = t b is taken once, for
    all of its visible facets.
    Returns (maximal simplices, inverses by simplex, boundary).
    """
    if arcs[0] != (0, 0):
        raise ValueError("cones: the first point placed must be the apex")
    parent = list(range(max(map(max, arcs)) + 1))
    pos = {0: 0}
    simplices = {(0,)}
    inverse = {(0,): ([(1,)], 1)}
    boundary = {(): ((0,), 0)}
    for idx in range(1, len(arcs)):
        arc = a, b = arcs[idx]
        pair = _pairing(arc, pos)
        # the roots of both ends, halving the paths on the way
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            lo, hi = sorted((a, b))
            off = lo or hi
            parent[off] = lo + hi - off
            pos[off] = len(pos)
            for s in simplices:
                t, d = inverse.pop(s)
                inverse[s + (idx,)] = _bordered(
                    t, d, list(map(pair, t)),
                    [_entry(arcs[v], off) for v in s], _entry(arc, off))
            simplices = new = {s + (idx,) for s in simplices}
            boundary = {}
        else:
            visible = {}
            for fac, (owner, j) in boundary.items():
                # t_j b is d > 0 times b's barycentric coordinate at j
                if pair(inverse[owner][0][j]) < 0:
                    visible.setdefault(owner, []).append((j, fac))
            # a set of tuples iterates in an order that depends on its
            # insertion history, and the pieces' order follows it, so
            # the new simplices go in as a full boundary scan lists
            # them: owners in the order `simplices` iterates, then the
            # omitted position j descending
            new = []
            for owner in simplices:
                if owner not in visible:
                    continue
                t, d = inverse[owner]
                u = list(map(pair, t))
                for j, fac in sorted(visible[owner], reverse=True):
                    s = fac + (idx,)
                    new.append(s)
                    inverse[s] = _coned(t, d, j, u)
            simplices.update(new)
        for s in new:
            for j in range(len(s)):
                fac = s[:j] + s[j + 1:]
                if boundary.pop(fac, None) is None:
                    boundary[fac] = (s, j)
    # rebuilt one by one, as the pieces' order has always followed the
    # order of this rebuilt set
    return {s for s in simplices}, inverse, boundary


def triangulate_cone(arcs):
    """Triangulate the pointed cone spanned by the rays of `arcs`
    (`_arc`), apex at the origin, into simplicial cones, returned as
    lists of arc indices.

    Stage 1 places the apex (0, 0), then the arcs; stage 2 joins the
    apex to every boundary facet not containing it, read off the
    boundary `_place` keeps, owner by owner in the order of its
    simplices and, within an owner, by omitted position j descending.
    A facet in a hyperplane through the apex spans a flat cone and is
    dropped: the placing triangulation makes one when a ray is not
    extremal, and also from some sets of extremal rays. The apex
    homogenizes to e_0 on the chart, so entry 0 of row j of the owner's
    carried inverse is d times the apex's barycentric coordinate
    opposite the facet, 0 exactly on a flat facet. An owner containing
    the apex has the apex at position 0 and one facet without it, s[1:],
    where that entry is d, so it is never flat.
    """
    if not arcs:
        raise ValueError("cones: trivial cone")
    tri, inverse, boundary = _place([(0, 0)] + list(arcs))
    facets = {}
    for fac, (owner, j) in boundary.items():
        # the apex is point 0, the first of every facet holding it
        if fac and fac[0]:
            facets.setdefault(owner, []).append((j, fac))
    pieces = []
    for s in tri:
        if s in facets:
            t = inverse[s][0]
            pieces.extend([i - 1 for i in fac]
                          for j, fac in sorted(facets[s], reverse=True)
                          if t[j][0])
    return pieces


def facet_normals_unimodular(rays):
    """Inward facet normals of a unimodular simplicial cone, one per
    ray: the normal opposite ray j pairs to -1 with ray j and to 0 with
    the others. They are the rows of minus the inverse of the ray
    matrix, taken here by elimination: the reference for the tree cuts
    that `half_open_decompose` pairs with y, independent of the arcs.
    ValueError unless the determinant is +-1."""
    identity = [[int(i == j) for j in range(len(rays))]
                for i in range(len(rays))]
    return [tuple(-x for x in row) for row in
            _integral_unimodular(tuple(zip(*rays)), identity)]


def tree_cuts(tree, y):
    """y paired with the facet normals of a unimodular piece, one per
    arc of its spanning tree of arcs (tail, head) on {root, 1..dim}:
    the normal opposite arc t is minus the indicator of the side t cuts
    off from the root when t's head lies there, plus it when t's tail
    does, so the pairing is -+ the sum of y over that side (y_root = 0),
    taken for all arcs in one pass of subtree sums."""
    links = [[] for _ in range(len(tree) + 1)]
    for k, (a, b) in enumerate(tree):
        links[a].append((b, k))
        links[b].append((a, k))
    up = [None] * len(links)
    order = [0]
    for a in order:
        for b, k in links[a]:
            if b and up[b] is None:
                up[b] = (a, k)
                order.append(b)
    total = [0, *y]
    cuts = [0] * len(tree)
    for b in reversed(order[1:]):
        a, k = up[b]
        total[a] += total[b]
        cuts[k] = -total[b] if tree[k][1] == b else total[b]
    return cuts


def pick_generic_y(trees, arcs):
    """(y, the trees' `half_open_decompose` flags at y), for the first
    positive combination y = sum xi^(i-1) * r_i of the rays of `arcs`,
    xi = 1, 2, ..., with no zero `tree_cuts` on any tree; y stays
    interior to the cone spanned by the rays, and each tree is cut once
    per y tried. xi^(i-1) is added at arc i's head and taken off at its
    tail, and the root's entry is dropped."""
    xi = 1
    while True:
        y = [0] * (1 + max(map(max, arcs)))
        for i, (tail, head) in enumerate(arcs):
            y[head] += xi ** i
            y[tail] -= xi ** i
        y = tuple(y[1:])
        try:
            return y, half_open_decompose(trees, y)
        except ValueError:
            xi += 1


def half_open_decompose(trees, y):
    """Half-open decomposition of the full-dimensional unimodular
    simplicial cones of one triangulated cone: per piece, the list of
    open flags, one per ray.

    `trees` holds each piece's rays as arcs, a spanning tree as
    `assert_unimodular` certifies it; y must lie in the cone the pieces
    are meant to partition, ValueError on a zero cut. Flag j of a piece
    is set (the facet opposite ray j is excluded, so the ray-j
    coordinate must be strictly positive) when the cut of arc j
    (`tree_cuts`) is positive, i.e. when y lies outside that facet.
    """
    out = []
    for tree in trees:
        cuts = tree_cuts(tree, y)
        if not all(cuts):
            raise ValueError("cones: y is not generic for these cones")
        out.append([c > 0 for c in cuts])
    return out


def _arc(ray):
    """The oriented arc (tail, head) of a ray on the nodes {root, 1..dim},
    the root being node 0: ray = e_head - e_tail with e_0 = 0, so +e_a
    is (0, a), -e_a is (a, 0) and e_a - e_b is (b, a); AssertionError
    naming any other vector, also under `python -O`."""
    ends = [(c, x) for c, x in enumerate(ray, 1) if x]
    if len(ends) == 1 and ends[0][1] in (1, -1):
        c, x = ends[0]
        return (0, c) if x == 1 else (c, 0)
    if len(ends) == 2 and ends[0][1] + ends[1][1] == 0 \
            and ends[0][1] in (1, -1):
        (a, x), (b, _) = ends
        return (b, a) if x == 1 else (a, b)
    raise AssertionError(f"ray {tuple(ray)} is no arc +-e_a or"
                         " +-(e_a - e_b), expected a network matrix")


def arc_pattern(arcs):
    """The ordered arc pattern of a cone's arcs (`_arc`), the key under
    which `genfun.build_genfun` reuses a triangulation: the arcs in
    order, their nodes relabelled 0, 1, ... in order of first
    appearance. Two cones have equal patterns exactly when a bijection
    of the nodes maps one ordered arc list onto the other; a
    full-dimensional cone's arcs touch all dim + 1 nodes, so the pattern
    fixes dim as well."""
    labels = {}
    return tuple(tuple(labels.setdefault(a, len(labels)) for a in arc)
                 for arc in arcs)


def assert_unimodular(tree, dim):
    """Certify a simplicial cone, its rays read as arcs (`_arc`) on the
    nodes {root, 1..dim}, as a unimodular basis by the arc rule: the dim
    arcs, orientation ignored, must form a spanning tree, which
    union-find checks as the absence of a cycle. A square arc matrix has
    determinant +-1 exactly then, and 0 otherwise. AssertionError naming
    the arc otherwise, also under `python -O`."""
    if len(tree) != dim:
        raise AssertionError(f"{len(tree)} rays in dimension {dim},"
                             " expected a square ray matrix")
    parent = list(range(dim + 1))
    for arc in tree:
        # the roots of both ends, halving the paths on the way
        a, b = arc
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            raise AssertionError(f"arc {arc} closes a cycle: ray matrix"
                                 " determinant 0, expected +-1")
        parent[a] = b

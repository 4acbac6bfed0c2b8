"""Vertex and adjacency enumeration for the three polytope families:
the bases polytope conv{e_B}, the independence polytope conv{e_I}, and
the polymatroid {x >= 0 : sum_{i in A} x_i <= psi(A) for all A}.

Everything reads the rank function's table `f.values` by bitmask (bit
i-1 stands for element i). Bases and independent sets are the masks
whose rank equals their size. The polymatroid's vertices are Edmonds'
greedy vectors: walking a chain of subsets, adding element e to S sets
x_e = psi(S + e) - psi(S), and every other coordinate stays 0.

Edges. The 0/1 families are read by mask lookups. Bases polytope
vertices are adjacent iff they differ by e_a - e_b, so the neighbors
of a basis are the bases among its r (n - r) single swaps. Independent
sets I and J are adjacent iff |I ^ J| = 1, or I ^ J = {a, b} with
|I| = |J| and I + J dependent (Topkis, Adjacency on polymatroids, Math.
Programming 1984; Schrijver, Combinatorial Optimization, ch. 40), so
the neighbors of I are its n single deletions, additions and swaps
that are independent, with a swap I - b + a kept only where I + a is
dependent. Neither family scans 2^n masks, so both stay polynomial for
fixed rank. Every polymatroid edge is parallel to e_c or to e_a - e_b,
so the vertices are bucketed by their coordinates off c, or off a and b
plus x_a + x_b, each key read as one integer whose digits are those
coordinates; a line holds at most two vertices, so a bucket holds at
most one pair x, y. The constraints tight at both are those tight at x
through neither or both moving coordinates, so the pair is an edge iff
(Topkis) x restricted to E - c is a vertex of the deletion f|(E - c),
or x is a vertex of f with a and b merged into one unit of value
x_a + x_b. A point is a vertex iff its nonzero units can be ordered so
that every prefix is tight, which a greedy walk decides (see
`_prefixes_tight`).
"""

from itertools import chain, combinations
from operator import mul

BASES_POLYTOPE = "bases"
INDEPENDENCE_POLYTOPE = "independence"
POLYMATROID = "polymatroid"


class PolytopeSpec:
    """A polytope given by a rank function and a family tag. The bases
    and independence families read `f` as a matroid rank function; that
    its values satisfy the matroid axioms is the caller's to ensure
    (`cli.parse_document` checks every document that can break them)."""

    def __init__(self, family, f):
        if family not in (BASES_POLYTOPE, INDEPENDENCE_POLYTOPE, POLYMATROID):
            raise ValueError(f"vertices: unknown family {family!r}")
        self.family = family
        self.f = f
        self.n = f.n
        self.r = f.values[-1]


class VertexSet:
    """Distinct vertices with symmetric adjacency lists, each sorted in
    ascending vertex index. `genfun.build_genfun` relies on the order:
    it walks the edges {i, j}, i < j, with i ascending, so every
    tangent cone it reads lists its rays in `adjacency[i]` order, and
    that order fixes the placing order and the `genfun` dump."""

    def __init__(self, vertices, adjacency):
        self.vertices = vertices
        self.adjacency = adjacency


def _independent_masks(f, size):
    """Masks of the independent sets of `size` elements, in the
    lexicographic order of their sorted elements."""
    for combo in combinations(range(f.n), size):
        mask = sum(1 << i for i in combo)
        if f.values[mask] == size:
            yield mask


def _indicator(mask, n):
    return tuple(mask >> i & 1 for i in range(n))


def enumerate_vertices(spec):
    """Vertices of the polytope described by `spec`, with their edges.

    Bases and independence families list incidence vectors directly,
    by size; the polymatroid family lists its greedy vectors in sorted
    order. The rank table read here passed the n guard when it was
    built.
    """
    if spec.family == POLYMATROID:
        verts = _greedy_vertices(spec.f)
    else:
        low = spec.r if spec.family == BASES_POLYTOPE else 0
        verts = [_indicator(m, spec.n) for size in range(low, spec.r + 1)
                 for m in _independent_masks(spec.f, size)]
    return VertexSet(verts, _compute_adjacency(spec, verts))


def _greedy_vertices(f):
    """Every vertex of the polymatroid is the greedy vector of a chain
    (Edmonds), and every greedy vector is a vertex: it is tight on the
    chain's sets and on x_e >= 0 off the chain, n independent
    constraints. A depth-first search over distinct (chain top, vector)
    states reaches them all."""
    n, values = f.n, f.values
    start = (0, (0,) * n)
    seen, stack = {start}, [start]
    while stack:
        mask, x = stack.pop()
        for i in range(n):
            top = mask | 1 << i
            if top != mask:
                step = values[top] - values[mask]
                state = (top, x[:i] + (step,) + x[i + 1:])
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return sorted({x for _, x in seen})


def _compute_adjacency(spec, vertices):
    if spec.family == POLYMATROID:
        return _lattice_adjacency(spec, vertices)
    # 0/1 vertices, looked up by mask (see the module docstring): the
    # neighbors of a basis B are the bases B - b + a; those of an
    # independent set I are I - b, I + a where it is independent, and
    # otherwise the independent I - b + a
    index = {sum(x << c for c, x in enumerate(v)): i
             for i, v in enumerate(vertices)}
    bits = [1 << c for c in range(spec.n)]
    bases = spec.family == BASES_POLYTOPE
    adj = []
    for mask in index:
        inside = [bit for bit in bits if mask & bit]
        near = [] if bases else [mask ^ b for b in inside]
        for a in bits:
            if mask & a:
                continue
            if not bases and mask | a in index:
                near.append(mask | a)
            else:
                near += [mask ^ b ^ a for b in inside]
        adj.append(sorted(index[s] for s in near if s in index))
    return adj


def _prefixes_tight(units, fval):
    """Can the (bits, value) units be ordered so that every prefix is
    tight, i.e. its values sum to `fval` of its bits? Tight sets are
    closed under union, so a unit that keeps the prefix tight can always
    be taken: O(len(units)^2) table reads."""
    placed, left = 0, list(units)
    while left:
        for unit in left:
            bits, value = unit
            if fval[placed | bits] == fval[placed] + value:
                placed |= bits
                left.remove(unit)
                break
        else:
            return False
    return True


def _lattice_adjacency(spec, vertices):
    # bucket each vertex under its n + n (n - 1) / 2 direction keys
    # (see the module docstring); a pair of distinct vertices shares at
    # most one bucket, and a bucket holds at most two vertices, so it
    # keeps its first and pairs the second with it. A key is one
    # integer: the vertex's coordinates are digits in a base above
    # every x_a + x_b, the e_c key zeroes digit c, the e_a - e_b key
    # moves x_b onto digit a, and the direction's index is the digit
    # above them all
    n = spec.n
    fval = spec.f.values
    base = max(2, 2 * max(chain.from_iterable(vertices), default=0) + 1)
    powers = [base ** c for c in range(n)]
    top = base ** n
    moves = [(c,) for c in range(n)] + list(combinations(range(n), 2))
    # direction d's key is digits + x[j] * step + d * top
    steps = [(c, -powers[c]) for c in range(n)]
    steps += [(b, powers[a] - powers[b]) for a, b in moves[n:]]
    shifts = [(j, step, d * top) for d, (j, step) in enumerate(steps)]
    buckets, pairs = {}, []
    for i, x in enumerate(vertices):
        digits = sum(map(mul, x, powers))
        for j, step, tag in shifts:
            key = digits + x[j] * step + tag
            other = buckets.setdefault(key, i)
            if other != i:
                pairs.append((other, i, moves[key // top]))
    adj = [[] for _ in vertices]
    for i, j, moving in pairs:
        x = vertices[i]
        units = [(1 << e, x[e]) for e in range(n)
                 if x[e] and e not in moving]
        if len(moving) == 2:
            a, b = moving
            units.append((1 << a | 1 << b, x[a] + x[b]))
        if _prefixes_tight(units, fval):
            adj[i].append(j)
            adj[j].append(i)
    return [sorted(s) for s in adj]

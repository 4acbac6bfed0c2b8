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
so only vertices that agree off one coordinate, or off two coordinates
with the same sum, are candidate pairs; they are found by bucketing.
A vertex x carries its tight sets {A : x(A) = psi(A)} as one int T
(bit `mask` set when the subset `mask` is tight) and its zero
coordinates as an n-bit int Z. Submodularity closes the tight sets of
a point of the polytope under union and intersection, so the sets tight
at two vertices form a ring family, and the rank of the constraints
tight at both is read off T_i & T_j and Z_i & Z_j by integer ANDs (see
`_lattice_adjacency`).
"""

from itertools import combinations

BASES_POLYTOPE = "bases"
INDEPENDENCE_POLYTOPE = "independence"
POLYMATROID = "polymatroid"


class PolytopeSpec:
    """A polytope given by a rank function and a family tag."""

    def __init__(self, family, f):
        if family not in (BASES_POLYTOPE, INDEPENDENCE_POLYTOPE, POLYMATROID):
            raise ValueError(f"vertices: unknown family {family!r}")
        if family in (BASES_POLYTOPE, INDEPENDENCE_POLYTOPE) and not f.is_matroid:
            raise ValueError("vertices: matroid rank function required")
        self.family = family
        self.f = f
        self.n = f.n
        self.r = f.values[-1]


class VertexSet:
    """Distinct vertices with symmetric adjacency lists."""

    def __init__(self, spec, vertices):
        self.spec = spec
        self.vertices = vertices
        self._adjacency = None

    def __len__(self):
        return len(self.vertices)

    @property
    def adjacency(self):
        if self._adjacency is None:
            self._adjacency = _compute_adjacency(self.spec, self.vertices)
        return self._adjacency

    def adjacent_vertices(self, i):
        return self.adjacency[i]


def _subset_sums(x):
    """sums[mask] = the sum of x over the subset with bitmask `mask`."""
    sums = [0] * (1 << len(x))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + x[low.bit_length() - 1]
    return sums


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
    """Vertices of the polytope described by `spec`.

    Bases and independence families list incidence vectors directly;
    the polymatroid family lists its greedy vectors in sorted order.
    The rank table read here passed the n guard when it was built.
    """
    n = spec.n
    if spec.family == BASES_POLYTOPE:
        verts = [_indicator(m, n) for m in _independent_masks(spec.f, spec.r)]
    elif spec.family == INDEPENDENCE_POLYTOPE:
        verts = [_indicator(m, n) for size in range(spec.r + 1)
                 for m in _independent_masks(spec.f, size)]
    else:
        verts = _greedy_vertices(spec.f)
    return VertexSet(spec, verts)


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


def _lattice_adjacency(spec, vertices):
    # every edge of a polymatroid is parallel to e_c or to e_a - e_b,
    # so two vertices can be adjacent only when they agree off one
    # coordinate c, or off two coordinates a < b whose sums agree:
    # bucket each vertex under those n + n (n - 1) / 2 keys and test
    # only the pairs that share a bucket. A pair of distinct vertices
    # shares at most one bucket.
    #
    # The test: two vertices are adjacent iff the constraints tight at
    # both have rank n - 1: the smallest face containing both is the
    # affine solution set of those constraints, so rank n - 1 means that
    # face is a segment. The tight sets common to both form a ring
    # family, and so do their traces off the common zero coordinates Z;
    # a ring family's indicators span as many dimensions as it has
    # distinct nonzero membership patterns (Birkhoff), so the rank is
    # |Z| plus the number of distinct nonzero `common & contains[e]`,
    # e not in Z
    n = spec.n
    fval = spec.f.values
    buckets = {}
    for i, x in enumerate(vertices):
        for c in range(n):
            buckets.setdefault((c, x[:c] + x[c + 1:]), []).append(i)
        for a, b in combinations(range(n), 2):
            key = (a, b, x[a] + x[b], x[:a] + x[a + 1:b] + x[b + 1:])
            buckets.setdefault(key, []).append(i)
    contains = [sum(1 << mask for mask in range(1 << n) if mask >> e & 1)
                for e in range(n)]
    tight, zeros = [], []
    for x in vertices:
        tight.append(sum(1 << mask for mask, (s, v)
                         in enumerate(zip(_subset_sums(x), fval)) if s == v))
        zeros.append(sum(1 << c for c in range(n) if x[c] == 0))
    adj = [[] for _ in vertices]
    for members in buckets.values():
        for i, j in combinations(members, 2):
            z = zeros[i] & zeros[j]
            common = tight[i] & tight[j]
            patterns = {common & contains[e]
                        for e in range(n) if not z >> e & 1}
            patterns.discard(0)
            if z.bit_count() + len(patterns) == n - 1:
                adj[i].append(j)
                adj[j].append(i)
    return [sorted(s) for s in adj]

"""Vertex and adjacency enumeration for the three polytope families:
the bases polytope conv{e_B}, the independence polytope conv{e_I}, and
the polymatroid {x >= 0 : sum_{i in A} x_i <= psi(A) for all A}.
"""

from itertools import combinations, permutations

from .exactmath import mat_rank, vec_sub
from .matroid import guard_n

BASES_POLYTOPE = "bases"
INDEPENDENCE_POLYTOPE = "independence"
POLYMATROID = "polymatroid"

ENUMERATION_GUARD_N = 20


class PolytopeSpec:
    """A polytope given by a rank function and a family tag."""

    def __init__(self, family, f, r=None):
        if family not in (BASES_POLYTOPE, INDEPENDENCE_POLYTOPE, POLYMATROID):
            raise ValueError(f"unknown family {family!r}")
        if family in (BASES_POLYTOPE, INDEPENDENCE_POLYTOPE) and not f.is_matroid:
            raise ValueError("matroid rank function required")
        self.family = family
        self.f = f
        self.n = f.n
        ground = frozenset(range(1, f.n + 1))
        self.r = f.rank(ground) if r is None else r

    def contains_scaled(self, x, k):
        """Is the integer point x in the k-th dilation? Checks all 2^n
        subset inequalities (and the equality for the bases family)."""
        if any(xi < 0 for xi in x):
            return False
        n = self.n
        for mask in range(1, 1 << n):
            a = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            if sum(x[i - 1] for i in a) > k * self.f.rank(a):
                return False
        if self.family == BASES_POLYTOPE and sum(x) != k * self.r:
            return False
        return True


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


def enumerate_bases(f, n=None, r=None):
    """All bases of a matroid oracle by exhaustive scan of r-subsets."""
    n = f.n if n is None else n
    ground = list(range(1, n + 1))
    if r is None:
        r = f.rank(frozenset(ground))
    if r > n:
        raise ValueError("rank exceeds ground set size")
    return [frozenset(b) for b in combinations(ground, r)
            if f.rank(frozenset(b)) == r]


def _indicator(subset, n):
    return tuple(1 if i in subset else 0 for i in range(1, n + 1))


def enumerate_vertices(spec):
    """Vertices of the polytope described by `spec`.

    Bases and independence families list incidence vectors directly;
    the polymatroid family scans all candidate integer points x >= 0
    with sum <= r, keeping those that satisfy every subset inequality
    and whose tight constraints span the ambient space.
    """
    n = spec.n
    guard_n(n, ENUMERATION_GUARD_N, "vertex enumeration")
    if spec.family == BASES_POLYTOPE:
        verts = [_indicator(b, n) for b in enumerate_bases(spec.f, n, spec.r)]
    elif spec.family == INDEPENDENCE_POLYTOPE:
        verts = []
        for size in range(spec.r + 1):
            for sub in combinations(range(1, n + 1), size):
                if spec.f.rank(frozenset(sub)) == size:
                    verts.append(_indicator(frozenset(sub), n))
    else:
        verts = _polymatroid_vertices(spec)
    return VertexSet(spec, verts)


def _polymatroid_vertices(spec):
    n, r, f = spec.n, spec.r, spec.f
    subsets = []
    for mask in range(1, 1 << n):
        a = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        subsets.append((a, f.rank(a)))
    verts = []
    for x in _bounded_points(n, r, subsets):
        tight = [_indicator(a, n) for a, val in subsets
                 if sum(x[i - 1] for i in a) == val]
        tight += [tuple(1 if j == i else 0 for j in range(n))
                  for i in range(n) if x[i] == 0]
        if mat_rank(tight) == n:
            verts.append(x)
    return verts


def _bounded_points(n, r, subsets):
    """Integer points x >= 0 with coordinate sum <= r satisfying all
    subset inequalities."""
    caps = {a: v for a, v in subsets}

    def rec(prefix, total):
        i = len(prefix) + 1
        if i > n:
            yield tuple(prefix)
            return
        hi = min(caps[frozenset([i])], r - total)
        for xi in range(hi + 1):
            prefix.append(xi)
            if all(sum(prefix[j - 1] for j in a if j <= i) <= v
                   for a, v in subsets if i in a and max(a) == i):
                yield from rec(prefix, total + xi)
            prefix.pop()

    yield from rec([], 0)


def edmonds_generate(f, ordered_subset):
    """Greedy vertex of the polymatroid: walk the ordered subset and set
    each coordinate to the rank increment it contributes."""
    seq = list(ordered_subset)
    if len(set(seq)) != len(seq):
        raise ValueError("ordered subset has duplicates")
    x = [0] * f.n
    prev = 0
    seen = set()
    for e in seq:
        seen.add(e)
        cur = f.rank(frozenset(seen))
        x[e - 1] = cur - prev
        prev = cur
    return tuple(x)


def all_generated_vertices(f):
    """Every point produced by edmonds_generate over all ordered subsets
    (exhaustive; intended for small n test oracles)."""
    out = set()
    ground = list(range(1, f.n + 1))
    for size in range(f.n + 1):
        for sub in combinations(ground, size):
            for perm in permutations(sub):
                out.add(edmonds_generate(f, perm))
    return out


def _compute_adjacency(spec, vertices):
    m = len(vertices)
    adj = [set() for _ in range(m)]
    if spec.family == BASES_POLYTOPE:
        # exact two-way characterization: neighbors differ by e_i - e_j
        for i in range(m):
            for j in range(i + 1, m):
                d = vec_sub(vertices[j], vertices[i])
                if sorted(d) == [-1] + [0] * (spec.n - 2) + [1]:
                    adj[i].add(j)
                    adj[j].add(i)
        return [sorted(s) for s in adj]
    # two vertices are adjacent iff the normals of the constraints
    # tight at both have rank n - 1: the smallest face containing both
    # is the affine solution set of its tight constraints, so rank
    # n - 1 means that face is a segment, i.e. an edge
    n = spec.n
    normals = {}
    fval = {}
    for mask in range(1, 1 << n):
        a = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        normals[mask] = tuple(mask >> i & 1 for i in range(n))
        fval[mask] = spec.f.rank(a)
    for i in range(n):
        normals[-(i + 1)] = tuple(1 if j == i else 0 for j in range(n))
    tight = []
    for x in vertices:
        sums = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + x[low.bit_length() - 1]
        ids = {mask for mask in range(1, 1 << n) if sums[mask] == fval[mask]}
        ids.update(-(c + 1) for c in range(n) if x[c] == 0)
        tight.append(ids)
    for i in range(m):
        for j in range(i + 1, m):
            # prefilter: adding a slack coordinate for the full-set
            # inequality turns the polytope into one whose edges swap
            # exactly two coordinates, so an edge direction here is a
            # multiple of e_a or of e_a - e_b
            nz = [x for x in vec_sub(vertices[j], vertices[i]) if x != 0]
            if not (len(nz) == 1 or (len(nz) == 2 and nz[0] == -nz[1])):
                continue
            common = tight[i] & tight[j]
            if mat_rank([normals[c] for c in common]) == n - 1:
                adj[i].add(j)
                adj[j].add(i)
    return [sorted(s) for s in adj]


"""Independent reference oracles used only by the tests.

- An exact rational linear program: two-phase simplex with Bland's rule
  on Fraction scalars, so termination is guaranteed and every result is
  exact.
- Facet visibility and polytope adjacency decided by that LP, the
  references for the visibility test of the placing triangulation and
  for `vertices._compute_adjacency`; adjacency by an exact `mat_rank`
  of the constraints tight at both vertices, the reference for the
  tight-prefix walk on minors in `_compute_adjacency`; a ring-family
  rank test on tight-set bitsets run on every pair of vertices, the
  reference for its direction buckets and prefix walk (polymatroids)
  and its swap lookup (independence polytopes); bases adjacency by the
  pairwise e_a - e_b rule, the reference for its swap lookup.
- The placing triangulation with a `mat_rank` hull test and
  `solve_linear` barycentrics, and the cone triangulation over it that
  keeps the boundary facets with independent rays, the references for
  the carried integer inverses and the flat-facet drop in
  `cones.triangulate_cone`; the placing triangulation read off those
  carried inverses, which the library uses only inside
  `triangulate_cone`. The tests check the tree cuts of
  `cones.half_open_decompose` against `cones.facet_normals_unimodular`,
  normals taken as minus the inverse of the ray matrix by elimination,
  independent of the arcs.
- The pairwise O(4^n) rank-axiom checks, the reference for the local
  checks in `matroid`.
- Half-open cone membership by exact ray coordinates, the reference
  for the half-open decomposition in `genfun`.
- A Gauss-Jordan elimination on Fraction scalars with its rank, solve
  and unimodular-inverse adapters, the reference for the fraction-free
  integer kernel in `exactmath` and for the echelon lattice basis in
  `genfun`; the integer unimodular inverse on that kernel.
- The uniform h*-vector as the four-deep loop over the Katzman triple
  sum and as its Horner evaluation in (1 - x) over strided Katzman rows,
  and the uniform Ehrhart values as the closed-form sum of binomials,
  the references for the Ehrhart values that `hstar.uniform_hstar`
  reads off Katzman rows and for the integer sum in
  `hstar.uniform_ehrhart`; that sum's terms expanded as coefficient
  lists, the reference for its packed products; Ferroni's closed form
  for the minimal matroids, which with the uniform one gives every
  sparse paving corpus row by the relaxation identity; the h* sum
  identity and the symmetry test.
- Rank functions as formulas on frozensets (uniform, graphic, bases,
  table, dual, direct sum), the references for the bitmask tables that
  `matroid.RankFunction` builds; the independence test, the dual and the
  direct sum of `RankFunction` tables, which only the tests use.
- Polymatroid vertices by a scan of the bounded integer points with a
  tight-constraint rank test, and by Edmonds' greedy rule over every
  ordered subset, the references for the greedy search in `vertices`.
- Membership in a dilation by all 2^n subset inequalities, and the
  lattice points of a dilation counted by a scan of the box of
  singleton caps with it, the reference for the memoized recursion in
  `bruteforce.count_direct`; the bases of a matroid by a scan of the
  r-subsets, and the ground-set size of a corpus row.
- The integer matrix product, used to check inverses, and the
  determinant by Bareiss elimination, the reference for the unimodular
  certificate in `cones` and for full rank in `exactmath`.
- The 22 corpus rows built from first principles: graphs by the
  union-find `graphic_rank`, GF(p) and rational matrices by that
  determinant, lines and circuit-hyperplanes by their non-bases, and
  relaxations; the reference that pins the shipped documents which
  `corpus` reads.
- Fraction polynomial sum, product and Lagrange interpolation, the
  references for `exactmath.poly_from_values` (Newton form on integers)
  and for the products the tests take of Ehrhart polynomials.
- The Fraction specialization: lambda on the moment curve, the Todd
  series as the truncated product of its factors and per-term Fraction
  weights, the reference for the full weights that the tests rebuild
  from `specialize.weights`; the series of g(u) = (u/2) / sinh(u/2),
  whose scaled product on integers is the reference for the even
  power-sum recurrence of `specialize.weights`; per-term Fraction sums
  for counts and Ehrhart polynomials, the reference for the integer
  per-class sums along lambda = (1, ..., n) in `specialize`; a single
  Todd coefficient read off that series; the generating function of a
  dilation, whose count the reference takes term by term, against the
  value of the library's Ehrhart polynomial.
- The Katzman coefficients by the multinomial sum and by the rank
  recurrence, the references for the dimension recurrence in
  `hstar.katzman`.
- The rank-2 and rank-3 uniform h* closed forms, a partial
  unimodality scan over the uniform h*-vectors, and a conjecture report
  with witnesses, the test-side checks on `hstar`.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import (
    combinations, combinations_with_replacement, permutations, product,
    zip_longest,
)
from math import comb, factorial, prod

from ehrmat import corpus
from ehrmat.cones import _place
from ehrmat.exactmath import (
    _integral_unimodular, binomial, mat_rank, poly_trim, solve_linear,
    vec_dot, vec_sub,
)
from ehrmat.genfun import GenFun, GenFunTerm
from ehrmat.hstar import is_unimodal, katzman, uniform_hstar
from ehrmat.matroid import RankFunction
from ehrmat.specialize import todd_c
from ehrmat.vertices import BASES_POLYTOPE, _indicator

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def simplex_max(a_eq, b_eq, c):
    """Maximize c.x subject to a_eq x = b_eq, x >= 0.

    Returns (status, value, x) where status is OPTIMAL, INFEASIBLE or
    UNBOUNDED; value and x are None unless OPTIMAL.
    """
    m = len(a_eq)
    n = len(c)
    a = [[Fraction(x) for x in row] for row in a_eq]
    b = [Fraction(x) for x in b_eq]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]

    # phase 1: artificial variables, minimize their sum
    tab = [a[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
           + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    obj = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        obj[n + i] = Fraction(1)  # artificials cost 1 in the minimization
    for i in range(m):
        for j in range(n + m + 1):
            obj[j] -= tab[i][j]
    status = _iterate(tab, basis, obj, n + m)
    assert status == OPTIMAL  # phase 1 is always bounded
    if -obj[-1] != 0:
        return INFEASIBLE, None, None

    # drive remaining artificials out of the basis, then drop them
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is None:
                continue  # redundant row
            _pivot(tab, basis, None, i, piv)
    keep = [i for i in range(m) if basis[i] < n]
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2
    obj = [-Fraction(x) for x in c] + [Fraction(0)]
    for i, bi in enumerate(basis):
        if obj[bi] != 0:
            f = obj[bi]
            for j in range(n + 1):
                obj[j] -= f * tab[i][j]
    status = _iterate(tab, basis, obj, n)
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    return OPTIMAL, obj[-1], x


def _iterate(tab, basis, obj, n):
    while True:
        enter = next((j for j in range(n) if obj[j] < 0), None)  # Bland
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i in range(len(tab)):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(tab, basis, obj, leave, enter)


def _pivot(tab, basis, obj, row, col):
    # a zero entry of the pivot row changes nothing, so the division and
    # the updates touch only its nonzero columns
    prow = tab[row]
    piv = prow[col]
    nonzero = [j for j, x in enumerate(prow) if x != 0]
    for j in nonzero:
        prow[j] /= piv
    for i, other in enumerate(tab):
        if i != row and other[col] != 0:
            f = other[col]
            for j in nonzero:
                other[j] -= f * prow[j]
    if obj is not None and obj[col] != 0:
        f = obj[col]
        for j in nonzero:
            obj[j] -= f * prow[j]
    basis[row] = col


def feasible(a_eq, b_eq, n_vars):
    """Is {x >= 0 : a_eq x = b_eq} non-empty?"""
    status, _, _ = simplex_max(a_eq, b_eq, [0] * n_vars)
    return status == OPTIMAL


def in_cone(target, generators):
    """Is `target` a non-negative combination of `generators`?

    Vectors are integer/rational sequences of equal length.
    """
    if not generators:
        return all(x == 0 for x in target)
    a = [[g[i] for g in generators] for i in range(len(target))]
    return feasible(a, list(target), len(generators))


def visible(points, facet_vertices, query):
    """Is the facet spanned by `facet_vertices` visible from `query`?

    Builds the centroid z of the facet and maximizes lam subject to
    lam*query + (1-lam)*z in conv(points), 0 <= lam <= 1. The program is
    always feasible (lam = 0 puts the point on the facet); the facet is
    visible exactly when no positive step toward the query stays inside.
    """
    facet = [points[i] for i in facet_vertices]
    if not facet:
        raise ValueError("empty facet")
    dim = len(points[0])
    f = Fraction(1, len(facet))
    z = [f * sum(p[i] for p in facet) for i in range(dim)]
    m = len(points)
    # variables: y_1..y_m, lam, slack  (lam + slack = 1)
    a = []
    b = []
    for i in range(dim):
        a.append([p[i] for p in points] + [z[i] - query[i], 0])
        b.append(z[i])
    a.append([1] * m + [0, 0])
    b.append(1)
    a.append([0] * m + [1, 1])
    b.append(1)
    c = [0] * m + [1, 0]
    status, value, _ = simplex_max(a, b, c)
    assert status == OPTIMAL
    return value == 0


def placing_triangulation(arcs):
    """The maximal simplices of the placing triangulation that
    `cones.triangulate_cone` builds on carried integer inverses, of the
    points of `arcs`, (tail, head) standing for e_head - e_tail."""
    return _place(arcs)[0]


def reference_placing_triangulation(points):
    """Placing triangulation of conv(points), in the given order: a
    point off the affine hull (by `mat_rank`) cones every simplex, one
    on it is attached to every boundary facet where its barycentric
    coordinate (by `solve_linear`) of the owner's opposite vertex is
    negative. The set updates are the library's, so the set of maximal
    simplices iterates in the same order."""
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
        base = points[hull[0]]
        rows = [vec_sub(points[i], base) for i in hull[1:]]
        if mat_rank(rows + [vec_sub(p, base)]) == len(rows) + 1:
            simplices = {s + (idx,) for s in simplices}
            placed.append(idx)
            continue
        new = []
        bary_cache = {}
        for fac, owner, _ in _boundary_facets_with_owner(simplices):
            if owner not in bary_cache:
                rows = [[points[i][c] for i in owner] for c in range(len(p))]
                rows.append([1] * len(owner))
                bary_cache[owner] = solve_linear(rows, list(p) + [1])
            j = owner.index(next(v for v in owner if v not in fac))
            if bary_cache[owner][j] < 0:
                new.append(tuple(sorted(fac + (idx,))))
        simplices.update(new)
        placed.append(idx)
    return {tuple(sorted(s)) for s in simplices}


def _boundary_facets_with_owner(simplices):
    """Facets of exactly one of the simplices, as (facet, that simplex,
    position in it of the vertex the facet omits), by a scan of every
    facet of every simplex; a point's one facet is ()."""
    seen = {}
    for s in simplices:
        for fac in combinations(s, len(s) - 1):
            if fac in seen:
                seen[fac] = None
            else:
                j = next(i for i, v in enumerate(s) if v not in fac)
                seen[fac] = (s, j)
    return [(fac, *owner) for fac, owner in seen.items() if owner is not None]


def reference_triangulate_cone(rays):
    """The pieces of the cone spanned by `rays`, as lists of ray
    indices: one piece when the rays are linearly independent, else
    every boundary facet of the placing triangulation of {0} union rays
    that misses 0 and whose rays are independent (by `mat_rank`)."""
    if mat_rank(rays) == len(rays):
        return [list(range(len(rays)))]
    tri = reference_placing_triangulation(
        [tuple(0 for _ in rays[0])] + list(rays))
    # a lone apex's one facet, (), spans no cone
    pieces = [[i - 1 for i in fac]
              for fac, _, _ in _boundary_facets_with_owner(tri)
              if fac and 0 not in fac]
    return [piece for piece in pieces
            if mat_rank([rays[j] for j in piece]) == len(piece)]


def is_extreme_direction(d, others):
    """Is d an extreme ray of cone(others + [d]), i.e. NOT a
    non-negative combination of the other directions?"""
    return not in_cone(d, others)


def adjacency_by_lp(spec, vertices):
    """Adjacency via the extreme-ray LP for every pair."""
    m = len(vertices)
    adj = [set() for _ in range(m)]
    for i in range(m):
        diffs = [vec_sub(vertices[j], vertices[i]) for j in range(m)]
        for j in range(m):
            if j == i:
                continue
            others = [diffs[t] for t in range(m) if t not in (i, j)]
            if is_extreme_direction(diffs[j], others):
                adj[i].add(j)
    for i in range(m):
        for j in adj[i]:
            assert i in adj[j], "adjacency must be symmetric"
    return [sorted(s) for s in adj]


def _subset_sums(x):
    """sums[mask] = the sum of x over the subset with bitmask `mask`."""
    sums = [0] * (1 << len(x))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + x[low.bit_length() - 1]
    return sums


def bases_adjacency_pairwise(vertices):
    """Bases polytope adjacency by the pairwise rule: two bases are
    adjacent iff their incidence vectors differ by e_a - e_b, tested
    for every pair, the reference for the swap lookup in
    `vertices._compute_adjacency`."""
    m = len(vertices)
    adj = [set() for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            d = sorted(vec_sub(vertices[j], vertices[i]))
            if d == [-1] + [0] * (len(d) - 2) + [1]:
                adj[i].add(j)
                adj[j].add(i)
    return [sorted(s) for s in adj]


def tight_lattice_adjacency_pairwise(spec, vertices):
    """Independence and polymatroid adjacency by the ring-family rank
    test on tight-set bitsets, tested for every pair of vertices: the
    reference for the swap lookup and for the direction buckets and
    their tight-prefix walk in `vertices._compute_adjacency`, which
    share no rule with it. Two vertices are adjacent iff the
    constraints tight at both have rank n - 1; that rank is the number
    of common zero coordinates Z plus the number of distinct nonzero
    membership patterns of the common tight sets off Z (Birkhoff)."""
    n = spec.n
    m = len(vertices)
    fval = spec.f.values
    contains = [sum(1 << mask for mask in range(1 << n) if mask >> e & 1)
                for e in range(n)]
    tight, zeros = [], []
    for x in vertices:
        tight.append(sum(1 << mask for mask, (s, v)
                         in enumerate(zip(_subset_sums(x), fval)) if s == v))
        zeros.append(sum(1 << c for c in range(n) if x[c] == 0))
    adj = [set() for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            z = zeros[i] & zeros[j]
            common = tight[i] & tight[j]
            patterns = {common & contains[e]
                        for e in range(n) if not z >> e & 1}
            patterns.discard(0)
            if z.bit_count() + len(patterns) == n - 1:
                adj[i].add(j)
                adj[j].add(i)
    return [sorted(s) for s in adj]


def adjacency_by_tight_rank(spec, vertices):
    """Adjacency by the rank of the constraints tight at both vertices:
    the smallest face containing both is the affine solution set of
    those constraints, so rank n - 1 means that face is an edge. Every
    pair passes through one exact `mat_rank`."""
    n = spec.n
    m = len(vertices)
    adj = [set() for _ in range(m)]
    fval = spec.f.values
    normals = {mask: _indicator(mask, n) for mask in range(1, 1 << n)}
    for i in range(n):
        normals[-(i + 1)] = _indicator(1 << i, n)
    tight = []
    for x in vertices:
        sums = _subset_sums(x)
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


def _all_subsets(n):
    ground = list(range(1, n + 1))
    for mask in range(1 << n):
        yield frozenset(ground[i] for i in range(n) if mask >> i & 1)


def pairwise_matroid_axioms(f):
    """0 <= rank(X) <= |X|, monotonicity, and submodularity checked over
    all pairs of subsets. Returns (True, None) or (False, description)."""
    subs = list(_all_subsets(f.n))
    ranks = {a: f.rank(a) for a in subs}
    for a in subs:
        if not (0 <= ranks[a] <= len(a)):
            return False, f"cardinality axiom fails on {sorted(a)}"
    return _pairwise_monotone_submodular(subs, ranks)


def pairwise_polymatroid_axioms(f):
    """Value 0 on the empty set, non-negativity, monotonicity and
    submodularity checked over all pairs of subsets."""
    subs = list(_all_subsets(f.n))
    ranks = {a: f.rank(a) for a in subs}
    if ranks[frozenset()] != 0:
        return False, "value on the empty set is nonzero"
    if any(ranks[a] < 0 for a in subs):
        return False, "negative value"
    return _pairwise_monotone_submodular(subs, ranks)


def _pairwise_monotone_submodular(subs, ranks):
    for x in subs:
        for y in subs:
            if x <= y and ranks[x] > ranks[y]:
                return False, (f"monotonicity fails on {sorted(x)} subset of"
                               f" {sorted(y)}")
            if ranks[x | y] + ranks[x & y] > ranks[x] + ranks[y]:
                return False, (f"submodularity fails on {sorted(x)},"
                               f" {sorted(y)}")
    return True, None


# ---------------------------------------------------------------------------
# half-open cones

def half_open_contains(apex, rays, open_flags, point):
    """Does the half-open cone contain the point? Decided by the exact
    sign pattern of the (unique) ray coordinates of point - apex."""
    rows = [[r[c] for r in rays] for c in range(len(point))]
    sol = solve_linear(rows, vec_sub(point, apex))
    if sol is None:
        return False
    for lam, is_open in zip(sol, open_flags):
        if is_open and lam <= 0:
            return False
        if not is_open and lam < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Fraction Gauss-Jordan elimination

def fraction_gauss_jordan(rows, ncols):
    """Reduced row echelon form over Q of the first `ncols` columns of
    `rows`; any further columns ride along through the row operations.
    Pivots are taken column by column from the first nonzero row, and
    elimination stops once every row holds a pivot. Returns the reduced
    rows (lists of Fractions) and the list of pivot columns."""
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def fraction_mat_rank(rows):
    return len(fraction_gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def fraction_solve_linear(rows, rhs):
    n = len(rows[0]) if rows else 0
    a, pivots = fraction_gauss_jordan(
        [list(row) + [rhs[i]] for i, row in enumerate(rows)], n)
    if any(row[n] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = a[i][n]
    return x


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_inverse_unimodular(m):
    """Inverse of a square integer matrix with determinant +-1 on the
    integer kernel of `exactmath`: one elimination of [m | I]."""
    return _integral_unimodular(m, mat_identity(len(m)))


def fraction_mat_inverse_unimodular(m):
    """Integral inverse of m; ValueError when m is singular or the
    inverse is not integral."""
    n = len(m)
    a, pivots = fraction_gauss_jordan(
        [list(row) + list(e) for row, e in zip(m, mat_identity(n))], n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    if any(x.denominator != 1 for row in a for x in row[n:]):
        raise ValueError("non-integral solution; matrix not unimodular")
    return tuple(tuple(int(x) for x in row[n:]) for row in a)


# ---------------------------------------------------------------------------
# uniform closed forms: the literal triple sum, its Horner evaluation and
# the Fraction Ehrhart polynomial

# every row the references ask for, kept: `hstar.katzman` holds only the
# newest row per r and restarts when asked for a smaller n
_katzman_row = lru_cache(maxsize=None)(katzman)


def uniform_hstar_triple_sum(n, r):
    """h*-vector of the uniform bases polytope, term by term:
    h*_l = sum_s sum_j sum_k (-1)^(s+j+k) C(n,s) C(s,j) C(j,k)
           A^{n-j,r-s}_{(l-k)(r-s)}, entries l = 0..n-1."""
    if not (1 <= r <= n):
        raise ValueError("need 1 <= r <= n")
    out = [0] * n
    for s in range(r):
        cs = (-1) ** s * binomial(n, s)
        for j in range(s + 1):
            nn, rr = n - j, r - s
            if nn < 1 or rr < 1:
                continue
            vec = _katzman_row(nn, rr)
            cj = cs * (-1) ** j * binomial(s, j)
            for k in range(j + 1):
                c = cj * (-1) ** k * binomial(j, k)
                for l in range(k, n):
                    idx = (l - k) * rr
                    if idx >= len(vec):
                        break
                    out[l] += c * vec[idx]
    return tuple(out)


def uniform_hstar_horner(n, r):
    """The triple sum with its innermost sum, over k with weight
    (-1)^k C(j,k), taken as the multiplication by (1 - x)^j:

        h*(x) = sum_{s<r} (-1)^s C(n,s)
                sum_{j<=s} (-1)^j C(s,j) (1 - x)^j a_{n-j,r-s}(x)  mod x^n

    with the strided Katzman row a_{nn,rr}(x) = sum_m A_{m rr}^{nn,rr} x^m,
    by Horner's rule in (1 - x) for each s: O(r^2 n) per (n, r)."""
    if not (1 <= r <= n):
        raise ValueError("need 1 <= r <= n")
    out = [0] * n
    for s in range(r):
        rr = r - s
        acc = []
        for j in range(s, -1, -1):
            # acc <- (1 - x) acc + (-1)^j C(s,j) a_{n-j,rr}, mod x^n
            acc = [a - b for a, b in zip(acc + [0], [0] + acc)][:n]
            c = (-1) ** j * binomial(s, j)
            acc = [a + c * v for a, v in zip_longest(
                acc, _katzman_row(n - j, rr)[::rr], fillvalue=0)]
        cs = (-1) ** s * binomial(n, s)
        out = [o + cs * a for o, a in zip_longest(out, acc, fillvalue=0)]
    return tuple(out)


def uniform_ehrhart_value(n, r, k):
    """The number of lattice points of the k-th dilate of the uniform
    bases polytope, k >= 0, by the closed form
    sum_{s=0}^{r-1} (-1)^s C(n,s) C(k(r-s) - s + n - 1, n - 1),
    each binomial an integer `math.comb`: its top is at least 0, and
    the binomial polynomial in k vanishes where `comb` returns 0."""
    if not (1 <= r <= n):
        raise ValueError("need 1 <= r <= n")
    return sum((-1) ** s * comb(n, s) * comb(k * (r - s) - s + n - 1, n - 1)
               for s in range(r))


def uniform_ehrhart_scaled_lists(n, r):
    """(n-1)! times the coefficients of the uniform Ehrhart polynomial,
    as integers, trimmed: each term of the closed-form sum expanded as a
    coefficient list, one factor (n - 1 - j - s) + (r - s) k at a time,
    and the lists summed. The reference for the packed products in
    `hstar._uniform_ehrhart_scaled`."""
    if not (1 <= r <= n):
        raise ValueError("need 1 <= r <= n")
    total = [0] * n
    for s in range(r):
        # (n-1)! C(k(r-s) - s + n - 1, n-1) as a polynomial in k
        term = [1]
        for j in range(n - 1):
            c0, c1 = n - 1 - j - s, r - s
            term = [c0 * a + c1 * b
                    for a, b in zip(term + [0], [0] + term)]
        sign = (-1) ** s * binomial(n, s)
        total = [t + sign * c for t, c in zip(total, term)]
    return poly_trim(total)


def _binomial_poly(a, m):
    """C(t + a, m) as a polynomial in t."""
    p = (Fraction(1),)
    for i in range(m):
        p = poly_mul(p, (Fraction(a - i, i + 1), Fraction(1, i + 1)))
    return p


def minimal_ehrhart(n, r):
    """Ehrhart polynomial of the bases polytope of the minimal matroid
    T(r, n), 1 <= r < n, by Ferroni's closed form (On the Ehrhart
    polynomial of minimal matroids, DCG 2022):
    C(t + n - r, n - r) / C(n - 1, r - 1)
    times sum_{j=0}^{r-1} C(n - r - 1 + j, j) C(t + j, j).
    A sparse paving matroid with lambda circuit-hyperplanes has
    ehr(t) = ehr_U(n, r)(t) - lambda ehr_T(r, n)(t - 1) (Ferroni,
    Matroids are not Ehrhart positive, 2022)."""
    s = (Fraction(0),)
    for j in range(r):
        s = poly_add(s, poly_mul((Fraction(comb(n - r - 1 + j, j)),),
                                 _binomial_poly(j, j)))
    return poly_mul(poly_mul(_binomial_poly(n - r, n - r), s),
                    (Fraction(1, comb(n - 1, r - 1)),))


def hstar_sum_identity(hstar, p, d):
    """sum h* = d! * (leading coefficient)."""
    lead = p[d] if len(p) > d else Fraction(0)
    return sum(hstar) == factorial(d) * lead


def is_symmetric(v):
    return list(v) == list(reversed(v))


# ---------------------------------------------------------------------------
# rank functions on frozensets

def uniform_rank(r):
    return lambda a: min(len(a), r)


def graphic_rank(edges):
    """Size of a spanning forest of the edge set, by union-find."""
    def rank(a):
        parent = {}

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            return root

        r = 0
        for e in a:
            u, v = edges[e - 1]
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r
    return rank


def bases_rank(bases):
    bases = [frozenset(b) for b in bases]
    return lambda a: max(len(a & b) for b in bases)


def table_rank(table):
    t = {frozenset(k): v for k, v in table.items()}
    t[frozenset()] = 0
    return t.__getitem__


def dual_rank(rank, n):
    ground = frozenset(range(1, n + 1))
    return lambda a: len(a) + rank(ground - a) - rank(ground)


def direct_sum_rank(rank1, n1, rank2):
    return lambda a: (rank1(frozenset(e for e in a if e <= n1))
                      + rank2(frozenset(e - n1 for e in a if e > n1)))


def is_independent(f, subset):
    a = frozenset(subset)
    return f.rank(a) == len(a)


def dual(f):
    """Dual matroid of a RankFunction table:
    rank*(A) = |A| + rank([n] - A) - rank([n])."""
    if not pairwise_matroid_axioms(f)[0]:
        raise ValueError("dual is defined for matroids only")
    v, full = f.values, (1 << f.n) - 1
    return RankFunction(
        f.n, lambda m: m.bit_count() + v[full ^ m] - v[full])


def direct_sum(f1, f2):
    """Direct sum of two RankFunction tables on the concatenated ground
    set: the second summand's elements are shifted by f1.n, so a mask's
    low f1.n bits index the first table and its high bits the second."""
    if not (pairwise_matroid_axioms(f1)[0]
            and pairwise_matroid_axioms(f2)[0]):
        raise ValueError("direct_sum is defined for matroids only")
    v1, v2, n1 = f1.values, f2.values, f1.n
    low = (1 << n1) - 1
    return RankFunction(
        n1 + f2.n, lambda m: v1[m & low] + v2[m >> n1])


# ---------------------------------------------------------------------------
# polymatroid vertices

def polymatroid_vertices_by_scan(f):
    """The integer points x >= 0 with coordinate sum <= f([n]) that meet
    every subset inequality and whose tight constraints have rank n, in
    lexicographic order."""
    n = f.n
    subsets = [(a, f.rank(a)) for a in _all_subsets(n) if a]
    caps = dict(subsets)
    r = f.rank(frozenset(range(1, n + 1)))

    def indicator(a):
        return tuple(1 if i in a else 0 for i in range(1, n + 1))

    def bounded_points(prefix, total):
        i = len(prefix) + 1
        if i > n:
            yield tuple(prefix)
            return
        for xi in range(min(caps[frozenset([i])], r - total) + 1):
            prefix.append(xi)
            if all(sum(prefix[j - 1] for j in a if j <= i) <= v
                   for a, v in subsets if i in a and max(a) == i):
                yield from bounded_points(prefix, total + xi)
            prefix.pop()

    verts = []
    for x in bounded_points([], 0):
        tight = [indicator(a) for a, v in subsets
                 if sum(x[i - 1] for i in a) == v]
        tight += [indicator({i + 1}) for i in range(n) if x[i] == 0]
        if mat_rank(tight) == n:
            verts.append(x)
    return verts


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
    """Every point produced by edmonds_generate over all ordered
    subsets."""
    out = set()
    ground = list(range(1, f.n + 1))
    for size in range(f.n + 1):
        for sub in combinations(ground, size):
            for perm in permutations(sub):
                out.add(edmonds_generate(f, perm))
    return out


def contains_scaled(spec, x, k):
    """Is the integer point x in the k-th dilation of spec's polytope?
    Checks all 2^n subset inequalities (and the equality for the bases
    family)."""
    if any(xi < 0 for xi in x):
        return False
    if any(s > k * v for s, v in zip(_subset_sums(x), spec.f.values)):
        return False
    if spec.family == BASES_POLYTOPE and sum(x) != k * spec.r:
        return False
    return True


def enumerate_bases(f):
    """All bases of a matroid oracle, as frozensets, by a scan of the
    r-subsets in lexicographic order."""
    n, r = f.n, f.values[-1]
    if r > n:
        raise ValueError("rank exceeds ground set size")
    return [frozenset(c) for c in combinations(range(1, n + 1), r)
            if f.rank(frozenset(c)) == r]


def ground_size(name):
    """Ground-set size of a bundled corpus row."""
    return corpus.document(name)["n"]


# ---------------------------------------------------------------------------
# the corpus rows built from first principles

# complete graph on 4 vertices; edge labels follow the classical
# triangle structure: the non-bases are the four triangles
# {1,2,4}, {1,3,5}, {2,3,6}, {4,5,6}
K4_EDGES = [(1, 2), (2, 3), (2, 4), (1, 3), (1, 4), (3, 4)]

# rank-4 wheel: rim edges 1-4 (cycle on vertices 1..4), spokes 5-8 to
# the hub vertex 5
W4_EDGES = [(1, 2), (2, 3), (3, 4), (4, 1),
            (1, 5), (2, 5), (3, 5), (4, 5)]

FANO_LINES = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6),
              (2, 5, 7), (3, 4, 7), (3, 5, 6)]

P7_LINES = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (3, 5, 7)]

# Vamos: rank 4 on pairs {1,2},{3,4},{5,6},{7,8}; circuit-hyperplanes
# are the pair unions except {5,6,7,8}
VAMOS_CH = [(1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8),
            (3, 4, 5, 6), (3, 4, 7, 8)]

# binary affine cube: homogeneous coordinates (1, x, y, z) over GF(2),
# points in binary order of (x, y, z)
AG32_COLUMNS = [(1, x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]

# real affine cube: same points read over the rationals
S8_COLUMNS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1)]

P8_COLUMNS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (0, 1, 1, -1), (1, 0, 1, 1), (1, 1, 0, 1), (-1, 1, 1, 0)]

J_COLUMNS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 1, 0)]


def _graphic_bases(edges, rank):
    """Spanning trees of a connected graph of the given rank, as 1-based
    edge index sets, by the union-find `graphic_rank`."""
    forest = graphic_rank(edges)
    return [frozenset(c)
            for c in combinations(range(1, len(edges) + 1), rank)
            if forest(frozenset(c)) == rank]


def _linear_bases(columns, p=0):
    """Bases of the column matroid of a matrix over GF(p), or over Q
    when p = 0: the square column subsets whose Bareiss determinant is
    nonzero mod p. The columns are taken as rows, since
    det(M^T) = det(M)."""
    rank = len(columns[0])
    out = []
    for combo in combinations(range(1, len(columns) + 1), rank):
        d = det([columns[i - 1] for i in combo])
        if d and (p == 0 or d % p):
            out.append(frozenset(combo))
    return out


def relaxation_bases(base_bases, r, circuit_hyperplanes):
    """Relax the given circuit-hyperplanes: each becomes a new basis."""
    out = set(base_bases)
    for ch in circuit_hyperplanes:
        ch = frozenset(ch)
        if len(ch) != r or ch in out:
            raise ValueError(f"corpus: not a circuit-hyperplane:"
                             f" {sorted(ch)}")
        out.add(ch)
    return out


def _sparse_paving_bases(n, r, non_bases):
    nb = {frozenset(b) for b in non_bases}
    return [frozenset(c) for c in combinations(range(1, n + 1), r)
            if frozenset(c) not in nb]


def corpus_documents():
    """The bases document of each of the 22 corpus rows, built from its
    graph, matrix, lines or relaxation, with the bases in lexicographic
    order: the reference that the shipped documents must equal."""
    k4 = _graphic_bases(K4_EDGES, 3)
    ag = _linear_bases(AG32_COLUMNS, 2)
    # the 14 non-bases (affine planes) of the binary affine cube
    planes = [p for p in combinations(range(1, 9), 4)
              if frozenset(p) not in ag]
    w4 = _graphic_bases(W4_EDGES, 4)
    rows = {
        "K4": (6, k4),
        # whirl: relax the rim triangle {2,3,6} of the wheel
        "W3_whirl": (6, relaxation_bases(k4, 3, [(2, 3, 6)])),
        "Q6": (6, _sparse_paving_bases(6, 3, [(1, 2, 3), (3, 4, 5)])),
        "P6": (6, _sparse_paving_bases(6, 3, [(1, 2, 3)])),
        "R6": (6, _sparse_paving_bases(6, 3, [(1, 2, 3), (4, 5, 6)])),
        "F7": (7, _sparse_paving_bases(7, 3, FANO_LINES)),
        "F7_minus": (7, _sparse_paving_bases(7, 3, FANO_LINES[:-1])),
        "P7": (7, _sparse_paving_bases(7, 3, P7_LINES)),
        "AG32": (8, ag),
        "AG32_prime": (8, relaxation_bases(ag, 4, planes[:1])),
        "R8": (8, _linear_bases(AG32_COLUMNS)),
        "F8": (8, relaxation_bases(ag, 4, planes[:2])),
        "Q8": (8, relaxation_bases(ag, 4, planes[:3])),
        "T8": (8, relaxation_bases(ag, 4, planes[-3:])),
        "L8": (8, relaxation_bases(ag, 4, planes[:6])),
        "S8": (8, _linear_bases(S8_COLUMNS, 2)),
        "V8": (8, _sparse_paving_bases(8, 4, VAMOS_CH)),
        "V8_plus": (8, _sparse_paving_bases(8, 4, VAMOS_CH + [(5, 6, 7, 8)])),
        "J": (8, _linear_bases(J_COLUMNS, 3)),
        "P8": (8, _linear_bases(P8_COLUMNS, 3)),
        "W4_wheel": (8, w4),
        # rank-4 whirl: relax the rim cycle {1,2,3,4}
        "W4_whirl": (8, relaxation_bases(w4, 4, [(1, 2, 3, 4)])),
    }
    return {name: {"name": name, "family": "bases", "kind": "bases", "n": n,
                   "bases": sorted(map(sorted, bases))}
            for name, (n, bases) in rows.items()}


def count_by_scan(spec, k):
    """#(kP intersect Z^n) by scanning the box of singleton caps and
    keeping the points that `contains_scaled` accepts."""
    caps = [k * spec.f.rank(frozenset({i + 1})) for i in range(spec.n)]
    return sum(1 for pt in product(*(range(c + 1) for c in caps))
               if contains_scaled(spec, pt, k))


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def det(m):
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Fraction polynomials (ascending coefficient tuples)

def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim(tuple(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
        for i in range(n)))


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(tuple(out))


def poly_interpolate(points):
    """Unique polynomial through the given (x, y) pairs, by exact Lagrange
    interpolation. Abscissae must be distinct."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissae")
    result = (Fraction(0),)
    for i, (xi, yi) in enumerate(points):
        term = (Fraction(yi),)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            factor = Fraction(1, xi - xj)
            term = poly_mul(term, (-xj * factor, factor))
        result = poly_add(result, term)
    return result


# ---------------------------------------------------------------------------
# specialization on Fractions, term by term

def series_mul_trunc(a, b, m):
    """Product of two polynomials with every term of degree > m dropped;
    integer inputs give integer coefficients."""
    out = [0] * (m + 1)
    for i, ca in enumerate(a):
        if i > m or ca == 0:
            continue
        for j, cb in enumerate(b):
            if i + j > m:
                break
            out[i + j] += ca * cb
    return poly_trim(tuple(out))


def todd_series(xis, m):
    """All Todd coefficients td_0..td_m of prod_j h(x xi_j), by
    successive truncated multiplications of the factors' Taylor
    polynomials b_n xi^n, b_n = c_n / (n! (n+1)!); any rational xi."""
    c = todd_c(m)
    b = [Fraction(c[n], factorial(n) * factorial(n + 1)) for n in range(m + 1)]
    acc = (Fraction(1),)
    for xi in xis:
        acc = series_mul_trunc(
            acc, tuple(bn * xi ** n for n, bn in enumerate(b)), m)
    return list(acc) + [Fraction(0)] * (m + 1 - len(acc))


def even_todd_series(m):
    """Taylor coefficients g_0..g_m of g(u) = (u/2) / sinh(u/2), the
    even factor of h(u) = exp(u/2) g(u), as the series reciprocal of
    sinh(u/2) / (u/2) = sum_n (u/2)^2n / (2n+1)!."""
    d = [Fraction(1, 2 ** n * factorial(n + 1)) if n % 2 == 0
         else Fraction(0) for n in range(m + 1)]
    g = [Fraction(1)]
    for k in range(1, m + 1):
        g.append(-sum(d[j] * g[k - j] for j in range(1, k + 1)))
    return g


def todd_eval(xis, m):
    """Coefficient of x^m in prod_j h(x xi_j)."""
    return todd_series(xis, m)[m]


def moment_curve_lambda(bs, n):
    """The first integer vector (1, xi, ..., xi^(n-1)) on the moment
    curve pairing nonzero with every exponent in `bs`; each nonzero
    exponent rules out at most n-1 values of xi."""
    if any(all(x == 0 for x in b) for b in bs):
        raise ValueError("zero denominator exponent")
    for xi in range((n - 1) * len(bs) + 2):
        lam = tuple(xi ** i for i in range(n))
        if all(vec_dot(lam, b) != 0 for b in bs):
            return lam
    raise AssertionError("moment-curve scan failed; bound violated")


def fraction_weights(betas):
    """w_l = (-1)^s td_{s-l}(-beta_1, ..., -beta_s)
             / (l! beta_1 ... beta_s), l = 0..s."""
    s = len(betas)
    td = todd_series([-x for x in betas], s)
    denom = (-1) ** s * prod(betas)
    return [td[s - l] / (factorial(l) * denom) for l in range(s + 1)]


def dilate(g, k):
    """Generating function of the k-th dilation, k >= 1: numerator
    exponent a + (k-1)v and vertex k v per term, denominators
    unchanged."""
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    if k == 1:
        return g
    terms = [GenFunTerm(tuple(a + (k - 1) * x for a, x in zip(t.a, t.v)),
                        tuple(k * x for x in t.v),
                        t.bs)
             for t in g.terms]
    return GenFun(terms, g.n, g.dim)


def _term_weights(g):
    lam = moment_curve_lambda([b for t in g.terms for b in t.bs], g.n)
    return lam, [fraction_weights([vec_dot(lam, b) for b in t.bs])
                 for t in g.terms]


def reference_count(g):
    """#lattice points behind g: sum over terms of sum_l w_l
    <lambda, a>^l, one Fraction per term and l."""
    lam, ws = _term_weights(g)
    return sum((w[l] * vec_dot(lam, t.a) ** l
                for t, w in zip(g.terms, ws) for l in range(len(w))),
               Fraction(0))


def reference_ehrhart_polynomial(g):
    """Ehrhart coefficients of k^0..k^dim: each term's sum_l w_l
    (lav + lv k)^l expanded by the binomial theorem, one Fraction per
    term, degree and l."""
    lam, ws = _term_weights(g)
    max_s = max((len(t.bs) for t in g.terms), default=0)
    coeffs = [Fraction(0)] * (max_s + 1)
    for t, w in zip(g.terms, ws):
        lv = vec_dot(lam, t.v)
        lav = vec_dot(lam, t.a) - lv
        for l in range(len(w)):
            for m in range(l + 1):
                coeffs[m] += (w[l] * binomial(l, m)
                              * lav ** (l - m) * lv ** m)
    if any(coeffs[g.dim + 1:]):
        raise AssertionError("coefficients above the dimension should vanish")
    return poly_trim(tuple(coeffs[:g.dim + 1]))


# ---------------------------------------------------------------------------
# Katzman coefficients by two more routes

def katzman_multinomial(n, r):
    """A^{n,r} by the multinomial sum over exponent patterns
    (a_0, ..., a_{r-1}) with sum a_j = n, contributing to T^(sum j a_j).
    """
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    out = [0] * (n * (r - 1) + 1)
    for pattern in combinations_with_replacement(range(r), n):
        i = sum(pattern)
        mult = factorial(n)
        for j in range(r):
            mult //= factorial(pattern.count(j))
        out[i] += mult
    return tuple(out)


def katzman_rankrel(n, r):
    """A^{n,r} by the rank recurrence
    A_i^{n,r} = sum_{k+l=i, 0 <= l <= k(r-2)} C(n,k) A_l^{k,r-1}."""
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    if r == 1:
        return (1,)
    inner = {k: katzman(k, r - 1) for k in range(1, n + 1)}
    out = []
    for i in range(n * (r - 1) + 1):
        acc = 0
        for k in range(n + 1):
            l = i - k
            if l < 0 or l > k * (r - 2):
                continue
            a = 1 if (k == 0 and l == 0) else (
                inner[k][l] if k >= 1 and l < len(inner[k]) else 0)
            acc += binomial(n, k) * a
        out.append(acc)
    return tuple(out)


def hstar_rank2(n):
    """Uniform h* closed form for rank 2: coefficients of
    (sum_l C(n,2l) T^l) - n T, padded to length n."""
    out = [binomial(n, 2 * l) for l in range(n)]
    if n >= 2:
        out[1] -= n
    return tuple(out)


def hstar_rank3(n):
    """Uniform h* closed form for rank 3:
    h*_l = A_{3l}^{n,3} - n C(n, 2l-1) + [l == 2] C(n,2)."""
    kat = katzman(n, 3)
    out = []
    for l in range(n):
        a = kat[3 * l] if 3 * l < len(kat) else 0
        val = a - n * binomial(n, 2 * l - 1)
        if l == 2:
            val += binomial(n, 2)
        out.append(val)
    return tuple(out)


def conjecture_report(ehrhart, hstar):
    """Verdicts for the two conjectured properties, with a witness index
    for any violation."""
    uni = is_unimodal(hstar)
    witness_u = None
    if not uni:
        for i in range(1, len(hstar) - 1):
            if hstar[i] < hstar[i - 1] and any(
                    hstar[j] > hstar[i] for j in range(i + 1, len(hstar))):
                witness_u = i
                break
    pos = all(c > 0 for c in ehrhart)
    witness_p = next((i for i, c in enumerate(ehrhart) if c <= 0), None)
    return {
        "hstarUnimodal": uni,
        "ehrhartCoeffsPositive": pos,
        "witnessUnimodal": witness_u,
        "witnessPositivity": witness_p,
    }


def partial_unimodality_scan(indices, n_max, r=3):
    """Smallest n (if any, up to n_max) such that the rank-r uniform
    h*-vector is non-decreasing from entry 0 through entry I, for each I
    in `indices`; empirical table only."""
    rows = {}
    for n in range(r, n_max + 1):
        rows[n] = uniform_hstar(n, r)
    out = {}
    for bound in indices:
        threshold = None
        for n in range(r, n_max + 1):
            h = rows[n]
            ok = bound < len(h) and all(
                h[i] <= h[i + 1] for i in range(bound))
            if ok and threshold is None:
                threshold = n
            elif not ok:
                threshold = None  # must hold for every larger n in range
        out[bound] = threshold
    return out

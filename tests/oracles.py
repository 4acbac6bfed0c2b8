"""Independent reference oracles used only by the tests.

- An exact rational linear program: two-phase simplex with Bland's rule
  on Fraction scalars, so termination is guaranteed and every result is
  exact.
- Facet visibility and polytope adjacency decided by that LP, the
  references for the barycentric visibility test in
  `cones.placing_triangulation` and for `vertices._compute_adjacency`.
- The pairwise O(4^n) rank-axiom checks, the reference for the local
  checks in `matroid`.
- Half-open cone membership by exact ray coordinates, and the lattice
  points of a generating-function term in a box, the references for
  the half-open decomposition in `genfun`.
- A Gauss-Jordan elimination on Fraction scalars with its rank, solve
  and unimodular-inverse adapters, the reference for the fraction-free
  integer kernel in `exactmath` and for the echelon lattice basis in
  `genfun`.
- The uniform h*-vector as the four-deep loop over the Katzman triple
  sum, the reference for the Horner evaluation in `hstar.uniform_hstar`.
- Rank functions as formulas on frozensets (uniform, graphic, bases,
  table, dual, direct sum), the references for the bitmask tables that
  `matroid.RankFunction` builds.
- Polymatroid vertices by a scan of the bounded integer points with a
  tight-constraint rank test, and by Edmonds' greedy rule over every
  ordered subset, the references for the greedy search in `vertices`.
- The lattice points of a dilation counted by a scan of the box of
  singleton caps, the reference for the memoized recursion in
  `bruteforce.count_direct`.
- The integer matrix product, used to check inverses.
- The Fraction specialization: lambda on the moment curve, the Todd
  series and per-term Fraction weights, and per-term Fraction sums for
  counts and Ehrhart polynomials, the reference for the integer
  per-class sums along lambda = (1, ..., n) in `specialize`; a single
  Todd coefficient read off that series.
- The Katzman coefficients by the multinomial sum and by the rank
  recurrence, the references for the dimension recurrence in
  `hstar.katzman`.
"""

from fractions import Fraction
from itertools import (
    combinations, combinations_with_replacement, permutations, product,
)
from math import factorial, prod

from ehrmat.exactmath import (
    binomial, mat_identity, mat_rank, poly_trim, series_mul_trunc,
    solve_linear, vec_dot, vec_sub,
)
from ehrmat.hstar import katzman
from ehrmat.specialize import todd_c

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
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            f = tab[i][col]
            tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
    if obj is not None and obj[col] != 0:
        f = obj[col]
        for j in range(len(obj)):
            obj[j] -= f * tab[row][j]
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


def term_lattice_points_in_box(term, lo, hi):
    """Lattice points of the term's half-open cone (at k = 1) inside the
    box lo <= x <= hi, by direct scan."""
    n = len(term.a)
    flags_folded = [False] * len(term.bs)  # openness already folded into a
    pts = []
    for x in product(*(range(lo[i], hi[i] + 1) for i in range(n))):
        if half_open_contains(term.a, term.bs, flags_folded, x):
            pts.append(x)
    return pts


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
# uniform h*-vector by the literal triple sum

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
            vec = katzman(nn, rr)
            cj = cs * (-1) ** j * binomial(s, j)
            for k in range(j + 1):
                c = cj * (-1) ** k * binomial(j, k)
                for l in range(k, n):
                    idx = (l - k) * rr
                    if idx >= len(vec):
                        break
                    out[l] += c * vec[idx]
    return tuple(out)


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


def count_by_scan(spec, k):
    """#(kP intersect Z^n) by scanning the box of singleton caps and
    keeping the points that `contains_scaled` accepts."""
    caps = [k * spec.f.rank(frozenset({i + 1})) for i in range(spec.n)]
    return sum(1 for pt in product(*(range(c + 1) for c in caps))
               if spec.contains_scaled(pt, k))


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


# ---------------------------------------------------------------------------
# specialization on Fractions, term by term

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


def _term_weights(g):
    lam = moment_curve_lambda([b for t in g.terms for b in t.bs], g.n)
    return lam, [fraction_weights([vec_dot(lam, b) for b in t.bs])
                 for t in g.terms]


def reference_count(g):
    """#lattice points behind g: sum over terms of sign * sum_l w_l
    <lambda, a>^l, one Fraction per term and l."""
    lam, ws = _term_weights(g)
    return sum((t.sign * w[l] * vec_dot(lam, t.a) ** l
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
                coeffs[m] += (t.sign * w[l] * binomial(l, m)
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

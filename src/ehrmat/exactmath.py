"""Exact arithmetic substrate: rational scalars, integer vectors and
matrices, univariate rational polynomials, truncated power series.

Everything here is exact; no floating point is used anywhere in the
pipeline. Scalars are Python ints and fractions.Fraction; vectors and
matrices are tuples, so all values are immutable and safe to share.
"""

from fractions import Fraction
from math import comb, gcd

IntVec = tuple  # dense integer vector, fixed length
Poly = tuple    # coefficients by ascending degree, trailing zeros trimmed


# ---------------------------------------------------------------------------
# vectors

def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def vec_primitive(v):
    """Divide an integer vector by the gcd of its entries."""
    g = 0
    for a in v:
        g = gcd(g, a)
    if g <= 1:
        return tuple(v)
    return tuple(a // g for a in v)


# ---------------------------------------------------------------------------
# matrices (tuple of row tuples)

def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


def _gauss_jordan(rows, ncols):
    """Reduced row echelon form over Q of the first `ncols` columns of
    `rows`; any further columns ride along through the row operations.
    Pivots are taken column by column from the first nonzero row, and
    elimination stops once every row holds a pivot. Returns the reduced
    rows (lists of Fractions) and the list of pivot columns, so pivot
    column pivots[i] is 1 in row i and 0 in every other row."""
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


def mat_rank(rows):
    """Rank of a matrix with integer or rational entries, by exact
    Gaussian elimination."""
    return len(_gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def _integral_unimodular(m, rhs_rows):
    """Rows of the solution X of m X = R, R given by rows; ValueError
    when m is singular or X is not integral."""
    n = len(m)
    a, pivots = _gauss_jordan(
        [list(row) + list(rhs) for row, rhs in zip(m, rhs_rows, strict=True)],
        n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    if any(x.denominator != 1 for row in a for x in row[n:]):
        raise ValueError("non-integral solution; matrix not unimodular")
    return tuple(tuple(int(x) for x in row[n:]) for row in a)


def solve_unimodular(m, v):
    """Solve m x = v exactly for a square matrix with |det m| = 1 in the
    integers; returns an integer vector."""
    return tuple(row[0] for row in _integral_unimodular(m, [(x,) for x in v]))


def mat_inverse_unimodular(m):
    """Inverse of a square integer matrix with determinant +-1; the
    inverse is integral. One elimination of [m | I]."""
    return _integral_unimodular(m, mat_identity(len(m)))


def solve_linear(rows, rhs):
    """One exact solution of a consistent linear system (possibly
    overdetermined); returns a list of Fractions, or None if the system
    is inconsistent. Free variables are set to zero."""
    n = len(rows[0]) if rows else 0
    a, pivots = _gauss_jordan(
        [list(row) + [rhs[i]] for i, row in enumerate(rows)], n)
    if any(row[n] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = a[i][n]
    return x


def rational_nullspace(rows, n):
    """Basis of {x in Q^n : rows . x = 0}, denominators cleared so every
    basis vector is integral and primitive."""
    a, pivots = _gauss_jordan(rows, n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            x[pc] = -a[i][fc]
        lcm = 1
        for v in x:
            lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        basis.append(vec_primitive(tuple(int(v * lcm) for v in x)))
    return basis


def integer_kernel(rows, n):
    """Basis of the saturated integer kernel {x in Z^n : A x = 0} for an
    integer matrix given by `rows`, via column-style Hermite reduction
    with a tracked unimodular transform. Returns a list of integer
    vectors forming a lattice basis of the kernel."""
    a = [list(row) for row in rows]
    u = [list(r) for r in mat_identity(n)]  # columns of U track column ops on A
    m = len(a)
    # column elimination: bring A*U to column echelon form
    row = 0
    col = 0
    while row < m and col < n:
        # find a column >= col with nonzero entry in this row
        piv = next((j for j in range(col, n) if a[row][j] != 0), None)
        if piv is None:
            row += 1
            continue
        _swap_cols(a, u, col, piv)
        # gcd-reduce the remaining columns against column `col`
        for j in range(col + 1, n):
            while a[row][j] != 0:
                q = a[row][j] // a[row][col]
                _add_col(a, u, j, col, -q)
                if a[row][j] != 0:
                    _swap_cols(a, u, col, j)
        row += 1
        col += 1
    # kernel basis: columns of U where the reduced A column is zero
    basis = []
    for j in range(n):
        if all(a[i][j] == 0 for i in range(m)):
            basis.append(tuple(u[i][j] for i in range(n)))
    return basis


def _swap_cols(a, u, j1, j2):
    if j1 == j2:
        return
    for r in a:
        r[j1], r[j2] = r[j2], r[j1]
    for r in u:
        r[j1], r[j2] = r[j2], r[j1]


def _add_col(a, u, j, src, c):
    for r in a:
        r[j] += c * r[src]
    for r in u:
        r[j] += c * r[src]


# ---------------------------------------------------------------------------
# polynomials (ascending coefficient tuples)

def poly_trim(coeffs):
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


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


def series_mul_trunc(a, b, m):
    """Product of two polynomials with every term of degree > m dropped."""
    out = [Fraction(0)] * (m + 1)
    for i, ca in enumerate(a):
        if i > m or ca == 0:
            continue
        for j, cb in enumerate(b):
            if i + j > m:
                break
            out[i + j] += ca * cb
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


def binomial(n, k):
    """Binomial coefficient; zero outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)

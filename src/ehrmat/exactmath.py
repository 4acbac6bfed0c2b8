"""Exact arithmetic substrate: rational scalars, integer vectors and
matrices, univariate rational polynomials, truncated power series.

Everything here is exact; no floating point is used anywhere in the
pipeline. Matrices come in with integer entries and are eliminated
fraction-free on Python ints; fractions.Fraction appears only in results
(solutions of linear systems, polynomial coefficients). Vectors and
matrices are tuples, so all values are immutable and safe to share.
"""

from fractions import Fraction
from math import comb, gcd
from operator import index, mul


# ---------------------------------------------------------------------------
# vectors

def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


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
    """Fraction-free (Bareiss-Jordan) reduction over the integers of the
    first `ncols` columns of the integer matrix `rows`; any further
    columns ride along through the row operations. Pivots are taken
    column by column from the first nonzero row, and elimination stops
    once every row holds a pivot. Returns (rows, pivots, d): the reduced
    integer rows, the list of pivot columns and the last pivot d (1 when
    there is none). Pivot column pivots[i] is d in row i and 0 in every
    other row, so the rows divided by d are the reduced row echelon
    form. A non-integer entry raises TypeError."""
    a = [[index(x) for x in row] for row in rows]
    m = len(a)
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        for i in range(m):
            f = a[i][c]
            if i == r or (f == 0 and p == prev):
                continue
            # exact: every entry stays a minor of the input (Sylvester)
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[r])]
        prev = p
        pivots.append(c)
    return a, pivots, prev


def mat_rank(rows):
    """Rank of an integer matrix, by fraction-free elimination."""
    return len(_gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def _integral_unimodular(m, rhs_rows):
    """Rows of the solution X of m X = R, R given by rows; ValueError
    when m is singular or X is not integral."""
    n = len(m)
    a, pivots, d = _gauss_jordan(
        [list(row) + list(rhs) for row, rhs in zip(m, rhs_rows, strict=True)],
        n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    if any(x % d for row in a for x in row[n:]):
        raise ValueError("non-integral solution; matrix not unimodular")
    return tuple(tuple(x // d for x in row[n:]) for row in a)


def solve_unimodular(m, v):
    """Solve m x = v exactly for a square matrix with |det m| = 1 in the
    integers; returns an integer vector."""
    return tuple(row[0] for row in _integral_unimodular(m, [(x,) for x in v]))


def solve_linear(rows, rhs):
    """One exact solution of a consistent integer linear system (possibly
    overdetermined); returns a list of Fractions, or None if the system
    is inconsistent. Free variables are set to zero."""
    n = len(rows[0]) if rows else 0
    a, pivots, d = _gauss_jordan(
        [list(row) + [rhs[i]] for i, row in enumerate(rows)], n)
    if any(row[n] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = Fraction(a[i][n], d)
    return x


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

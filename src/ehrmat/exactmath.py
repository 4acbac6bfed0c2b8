"""Exact arithmetic substrate: rational scalars, integer vectors and
matrices, univariate rational polynomials.

Everything here is exact; no floating point is used anywhere in the
pipeline. Matrices come in with integer entries and are eliminated
fraction-free on Python ints by `_gauss_jordan`, the one elimination
routine of the library: rank, linear solves, unimodular inverses and,
through its last pivot (+-det of a full-rank square matrix, by
Sylvester's identity), determinants all read off it. Polynomials
through given values are built in Newton form on integers.
fractions.Fraction appears only in results (solutions of linear
systems, polynomial coefficients). Vectors and matrices are tuples, so
all values are immutable and safe to share.

A whole integer polynomial or vector is often carried as one big
integer, its entries the digits (Kronecker substitution): the Ehrhart
sum of `specialize` and the uniform h*-vectors and Ehrhart numerators
of `hstar` are packed this way. `digit_bytes` and `signed_digits` are
the one codec for that: a digit width in whole bytes from a bound on
the entries, and the signed digits read back, with AssertionError when
the packed value does not fit the digits read.
"""

from fractions import Fraction
from math import comb, factorial, gcd
from operator import index, mul


# ---------------------------------------------------------------------------
# vectors

def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"exactmath: vectors of lengths {len(u)} and"
                         f" {len(v)}")
    return sum(map(mul, u, v))


def vec_primitive(v):
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(a // g for a in v)


# ---------------------------------------------------------------------------
# matrices (tuple of row tuples)

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
        raise ValueError("exactmath: singular matrix")
    if any(x % d for row in a for x in row[n:]):
        raise ValueError("exactmath: non-integral solution;"
                         " matrix not unimodular")
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


def poly_from_values(values):
    """The polynomial of degree <= d through (k, values[k]) for
    k = 0..d, in Newton form on integers: d! p(x) is the sum over j of
    (d!/j!) Delta^j p(0) x(x-1)...(x-j+1), Delta the forward difference,
    and each coefficient is divided by d! once at the end."""
    d = len(values) - 1
    if d < 0:
        raise ValueError("exactmath: no values to interpolate")
    diffs = list(values)
    total = [0] * (d + 1)
    falling = [1]  # x(x-1)...(x-j+1), ascending coefficients
    scale = factorial(d)  # d!/j!
    for j in range(d + 1):
        lead = scale * diffs[0]
        for i, c in enumerate(falling):
            total[i] += lead * c
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        falling = [a - j * b for a, b in zip([0] + falling, falling + [0])]
        scale //= j + 1
    return poly_trim(tuple(Fraction(c, factorial(d)) for c in total))


def binomial(n, k):
    """Binomial coefficient; zero outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


# ---------------------------------------------------------------------------
# Kronecker substitution: signed digits of packed integers

def digit_bytes(bound):
    """Bytes per digit in a Kronecker packing whose digits are read back
    as integers of absolute value at most `bound`: bit_length(bound) + 2
    bits, one for the sign and one to spare, rounded up to whole bytes
    so that each digit is one slice of a byte buffer."""
    return (bound.bit_length() + 9) // 8


def signed_digits(packed, count, width):
    """For each integer p in `packed`, its `count` signed digits in base
    2^(8 width), lowest first: p = sum_j d_j 2^(8 width j), each d_j in
    [-2^(8 width - 1), 2^(8 width - 1)).

    They are read in one pass per p: adding the bias
    sum_j 2^(8 width - 1) 2^(8 width j) makes every digit non-negative,
    so the biased digits are the slices of one byte buffer. The biased p
    lies in [0, 2^(8 width count)) exactly when the digits add up to p;
    anything left above the last digit raises AssertionError, also
    under `python -O`."""
    size = count * width
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    out = []
    for p in packed:
        p += bias
        if p < 0 or p.bit_length() > 8 * size:
            raise AssertionError(f"exactmath: a packed value has digits"
                                 f" beyond the {count} read, {8 * width}"
                                 f" bits each")
        buf = memoryview(p.to_bytes(size, "little"))
        out.append([int.from_bytes(buf[i:i + width], "little") - half
                    for i in range(0, size, width)])
    return out

"""h*-vectors, Katzman coefficients, uniform-matroid closed forms, and
conjecture predicates (h*-unimodality, Ehrhart coefficient positivity).

The Katzman coefficients A_i^{n,r} are the coefficients of
(1 + T + ... + T^(r-1))^n. They are computed by the dimension
recurrence, the polynomial identity A^{n} = A^{n-1} (1 - T^r) / (1 - T):
one difference pass and one running sum per row, over its first half
only, since the row is palindromic; the rest is mirrored. The cache
keeps only the newest full row per r. The rank recurrence and the
multinomial formula live with the tests, as references.

An h*-vector is (1 - x)^(d+1) sum_k L(k) x^k modulo x^(d+1), for the
Ehrhart values L(0..d) of a d-dimensional polytope; `ehrhart_to_hstar`
and `uniform_hstar` share that one transform. The k-th dilate of the
bases polytope of U(n, r) is {x in {0..k}^n : sum x = kr}, so its
Ehrhart values L(k) = A_{kr}^{n,k+1} are read off Katzman rows, and
the uniform h*-vector costs O(n^2) integer operations per (n, r) once
the rows are built. U(n, r) and its dual U(n, n-r) share it, so it is
computed once per dual pair with its unimodality verdict, and the
vectors of the newest n are cached: a scan to n runs n // 2 transforms
and checks at n. Katzman's closed triple sum and its Horner evaluation
live with the tests, as references.
"""

from fractions import Fraction
from itertools import accumulate
from math import factorial
from operator import sub

from .exactmath import binomial, poly_eval, poly_trim


def _times_one_minus_x_power(values, e):
    """Coefficients of (1 - x)^e * sum_k values[k] x^k, modulo
    x^len(values), so entry j is sum_{i<=j} (-1)^i C(e, i) values[j-i]:
    e difference passes, each a multiplication by (1 - x)."""
    out = list(values)
    for _ in range(e):
        out[1:] = map(sub, out[1:], out)
    return out


def ehrhart_to_hstar(p, d):
    """h*-vector of a d-dimensional lattice polytope from its Ehrhart
    polynomial: h*_j = sum_{i=0}^{j} (-1)^i C(d+1, i) p(j-i)."""
    if len(p) - 1 > d:
        raise ValueError("hstar: polynomial degree exceeds dimension")
    out = []
    values = [poly_eval(p, k) for k in range(d + 1)]
    for j, h in enumerate(_times_one_minus_x_power(values, d + 1)):
        if h.denominator != 1:
            raise ValueError(f"hstar: non-integral h* entry at index {j}")
        if h < 0:
            raise ValueError(f"hstar: negative h* entry at index {j}")
        out.append(int(h))
    return tuple(out)


# ---------------------------------------------------------------------------
# Katzman coefficients

_KATZMAN_CACHE = {}


def katzman(n, r):
    """A^{n,r} by the dimension recurrence
    A_i^{n,r} = sum_{k=i-r+1}^{i} A_k^{n-1,r}, out-of-range terms 0.

    As polynomials in T this is A^{n} = A^{n-1} (1 - T^r) / (1 - T): each
    row is the running sum of the differences A_i^{n-1} - A_{i-r}^{n-1}.
    A row of degree deg = n(r-1) is palindromic, A_i = A_{deg-i}, so a
    step sums only the entries 0..deg//2 and mirrors the rest; those
    entries read only the first deg//2 + 1 <= (n-1)(r-1) + 1 entries of
    the row before, so a step costs about deg/2 + r additions. The
    cache keeps the newest full row per r, as
    r -> (n, row): a request at or above the cached n extends it, one
    below restarts from n = 1. A scan in increasing n so builds each row
    once and holds one n's rows.
    """
    if n < 1 or r < 1:
        raise ValueError("hstar: need n >= 1 and r >= 1")
    cached = _KATZMAN_CACHE.get(r)
    # n = 1: the coefficients of 1 + T + ... + T^(r-1)
    start, row = cached if cached and cached[0] <= n else (1, (1,) * r)
    for m in range(start + 1, n + 1):
        deg = m * (r - 1)
        head = row[:deg // 2 + 1]
        half = tuple(accumulate(map(sub, head, (0,) * r + head)))
        row = half + half[:deg - deg // 2][::-1]
    _KATZMAN_CACHE[r] = (n, row)
    return row


def is_unimodal(v):
    """Non-decreasing up to some index, non-increasing after."""
    v = list(v)
    if not v:
        return True
    i = 0
    while i + 1 < len(v) and v[i] <= v[i + 1]:
        i += 1
    while i + 1 < len(v) and v[i] >= v[i + 1]:
        i += 1
    return i == len(v) - 1


# ---------------------------------------------------------------------------
# uniform-matroid closed forms

def _uniform_ehrhart_scaled(n, r):
    """(n-1)! times the coefficients of `uniform_ehrhart(n, r)`, as
    integers, trimmed: the terms of its sum scaled by (n-1)! and summed
    on integers. Their signs are the coefficients' signs."""
    if not (1 <= r <= n):
        raise ValueError("hstar: need 1 <= r <= n")
    total = [0] * n
    for s in range(r):
        # (n-1)! C(k(r-s) - s + n - 1, n-1) as a polynomial in k
        term = [1]
        for j in range(n - 1):
            # times the factor (n - 1 - j - s) + (r - s) k
            c0, c1 = n - 1 - j - s, r - s
            term = [c0 * a + c1 * b
                    for a, b in zip(term + [0], [0] + term)]
        sign = (-1) ** s * binomial(n, s)
        total = [t + sign * c for t, c in zip(total, term)]
    return poly_trim(total)


def uniform_ehrhart(n, r):
    """Ehrhart polynomial of the bases polytope of the uniform matroid
    with n elements and rank r:
    sum_{s=0}^{r-1} (-1)^s C(n,s) C(k(r-s) - s + n - 1, n - 1).

    The sum is taken on integers, scaled by (n-1)!, and divided once per
    coefficient at the end."""
    scaled = _uniform_ehrhart_scaled(n, r)
    scale = factorial(n - 1)
    return tuple(Fraction(c, scale) for c in scaled)


_UNIFORM_HSTAR_CACHE = {}


def uniform_hstar(n, r):
    """h*-vector of the uniform bases polytope, entries l = 0..n-1
    (dimension n-1), from its Ehrhart values.

    The k-th dilate has L(k) = #{x in {0..k}^n : sum x = kr} lattice
    points, the coefficient of T^(kr) in (1 + ... + T^k)^n, which is
    katzman(n, k+1)[k*r]. Then h*(x) = (1 - x)^n sum_{k<n} L(k) x^k
    modulo x^n: O(n^2) integer operations per dual pair, after the rows
    katzman(n, 1..n). A scan in increasing n extends each of them by one
    step per n, about n^3 / 4 operations shared by the n - 1 values of
    r, since each step sums half a row; a lone call at a new n builds
    them from n = 1, O(n^4). The vector is cached as
    `_uniform_hstar_entry` describes."""
    return _uniform_hstar_entry(n, r)[0]


def _uniform_hstar_entry(n, r):
    """(h, unimodal): `uniform_hstar(n, r)` and whether it is unimodal,
    trailing zeros trimmed.

    U(n, r) and its dual U(n, n-r) have the same h*-vector: row
    katzman(n, k+1) is palindromic of degree kn, so T^(kr) and
    T^(k(n-r)) have the same coefficient (x -> 1 - x maps one polytope
    onto the other). So for r < n the pair is computed at
    r' = min(r, n-r) and cached as r' -> (n, (h, unimodal)), the newest
    n per r' as in `_KATZMAN_CACHE`: a scan in increasing n runs n // 2
    transforms and unimodality checks per n and holds one n's vectors.
    The point r = n is not cached.
    """
    if not (1 <= r <= n):
        raise ValueError("hstar: need 1 <= r <= n")
    if r < n:
        r = min(r, n - r)
        cached = _UNIFORM_HSTAR_CACHE.get(r)
        if cached and cached[0] == n:
            return cached[1]
    values = [katzman(n, k + 1)[k * r] for k in range(n)]
    h = tuple(_times_one_minus_x_power(values, n))
    entry = h, is_unimodal(poly_trim(h))
    if r < n:
        _UNIFORM_HSTAR_CACHE[r] = (n, entry)
    return entry


# ---------------------------------------------------------------------------
# conjecture predicates

def uniform_conjecture_report(n, r):
    """Conjecture verdicts for a uniform matroid from the closed forms
    (no geometric pipeline involved): the unimodality verdict cached
    with the h*-vector, and at r = 2 the signs of the Ehrhart
    coefficients, read off their integer numerators."""
    report = {"n": n, "r": r,
              "hstarUnimodal": _uniform_hstar_entry(n, r)[1]}
    if r == 2:
        report["ehrhartCoeffsPositive"] = all(
            c > 0 for c in _uniform_ehrhart_scaled(n, 2))
    return report

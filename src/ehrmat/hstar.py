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
Ehrhart values L(k) = A_{kr}^{n,k+1} are read off Katzman rows. U(n, r)
and its dual U(n, n-r) share the h*-vector, so `uniform_conjecture_rows`
computes it once per dual pair, with its unimodality verdict, and
builds the scan's rows of one n from them. The transform is linear with
integer coefficients, so the pairs of one n share it by Kronecker
substitution: each Ehrhart value is one digit of a packed integer, one
digit per rank, and the h*-vectors are the signed digits of one
transform of n packed integers, read back by `exactmath.signed_digits`.
A scan to n runs one transform per n, O(n^2) big-integer operations,
and checks unimodality once per pair. The integer numerators of the
uniform Ehrhart polynomial are packed the same way, one integer product
per term of their closed-form sum. Katzman's closed triple sum, its
Horner evaluation and the numerators expanded as coefficient lists live
with the tests, as references.
"""

from fractions import Fraction
from itertools import accumulate
from math import factorial, prod
from operator import lshift, sub

from .exactmath import (
    binomial, digit_bytes, poly_eval, poly_trim, signed_digits,
)


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
    once and holds one n's rows; its packed h* transform reads each row
    katzman(n, 1..n) once per n, at every rank it packs.
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
    integers, trimmed. Their signs are the coefficients' signs.

    Term s of the sum, scaled by (n-1)!, is (-1)^s C(n, s) times the
    product of the n - 1 factors (n - 1 - j - s) + (r - s) k, j < n - 1.
    The sum is taken by Kronecker substitution: each product is one
    integer product at k = 2^(8 width), and the coefficients of
    k^0..k^(n-1) are the signed digits of the summed terms. No
    coefficient exceeds sum_s C(n, s) prod_j (|n - 1 - j - s| + r - s)
    in size, the sum at k = 1 with every coefficient made positive, and
    the width holds that bound."""
    if not (1 <= r <= n):
        raise ValueError("hstar: need 1 <= r <= n")
    bound = sum(binomial(n, s) * prod(abs(n - 1 - j - s) + r - s
                                      for j in range(n - 1))
                for s in range(r))
    width = digit_bytes(bound)
    k = 1 << (8 * width)
    total = 0
    for s in range(r):
        # the factors, from j = 0 down: (n - 1 - s + (r - s) k) - j
        top = n - 1 - s + (r - s) * k
        term = binomial(n, s) * prod(range(top, top - (n - 1), -1))
        total += -term if s % 2 else term
    return poly_trim(signed_digits([total], n, width)[0])


def uniform_ehrhart(n, r):
    """Ehrhart polynomial of the bases polytope of the uniform matroid
    with n elements and rank r:
    sum_{s=0}^{r-1} (-1)^s C(n,s) C(k(r-s) - s + n - 1, n - 1).

    The sum is taken on integers, scaled by (n-1)!, by one packed product
    per term, and divided once per coefficient at the end."""
    scaled = _uniform_ehrhart_scaled(n, r)
    scale = factorial(n - 1)
    return tuple(Fraction(c, scale) for c in scaled)


def _uniform_hstars(n, ranks):
    """`uniform_hstar(n, r)` for each r in `ranks`, from one transform.

    Each Ehrhart value L_r(k) = katzman(n, k+1)[k*r] is one base
    2^(8 width) digit of an integer P_k, digit j for the j-th rank, and
    (1 - x)^n sum_k P_k x^k is taken once, on the n integers P_k. The
    transform is linear with integer coefficients, so its outputs are
    the packed h*-vectors, whatever the digits carried in between: only
    the final entries must fit a digit. They are non-negative and sum to
    the normalized volume, at most (n-1)!, and the width holds that."""
    width = digit_bytes(factorial(n - 1))
    shifts = range(0, 8 * width * len(ranks), 8 * width)
    packed = []
    for k in range(n):
        row = katzman(n, k + 1)
        packed.append(sum(map(lshift, [row[k * r] for r in ranks], shifts)))
    digits = signed_digits(_times_one_minus_x_power(packed, n),
                           len(ranks), width)
    return list(zip(*digits))


def uniform_hstar(n, r):
    """h*-vector of the uniform bases polytope, entries l = 0..n-1
    (dimension n-1), from its Ehrhart values.

    The k-th dilate has L(k) = #{x in {0..k}^n : sum x = kr} lattice
    points, the coefficient of T^(kr) in (1 + ... + T^k)^n, which is
    katzman(n, k+1)[k*r]. Then h*(x) = (1 - x)^n sum_{k<n} L(k) x^k
    modulo x^n, one transform of n packed integers by `_uniform_hstars`
    at r' = min(r, n-r), the rank that names the dual pair; the point
    r = n is computed at r' = n. It reads the rows katzman(n, 1..n):
    calls in increasing n extend each of them by one step per n, about
    n^3 / 4 operations, since each step sums half a row; a call below
    the newest n builds them from n = 1, O(n^4)."""
    if not (1 <= r <= n):
        raise ValueError("hstar: need 1 <= r <= n")
    return _uniform_hstars(n, (min(r, n - r) or n,))[0]


# ---------------------------------------------------------------------------
# conjecture predicates

def uniform_conjecture_rows(n, rmax):
    """The conjecture rows of U(n, r) for r = 1..min(rmax, n-1), in
    order, each by `uniform_conjecture_report`.

    U(n, r) and its dual U(n, n-r) have the same h*-vector: row
    katzman(n, k+1) is palindromic of degree kn, so T^(kr) and
    T^(k(n-r)) have the same coefficient (x -> 1 - x maps one polytope
    onto the other), so r' = min(r, n-r) names the pair. The rows read
    the pairs r' = 1..min(rmax, n//2): one packed transform computes
    them all, and each pair's vector is trimmed and checked for
    unimodality once."""
    ranks = range(1, min(rmax, n // 2) + 1)
    unimodal = [is_unimodal(poly_trim(h)) for h in _uniform_hstars(n, ranks)]
    return [uniform_conjecture_report(n, r, unimodal[min(r, n - r) - 1])
            for r in range(1, min(rmax, n - 1) + 1)]


def uniform_conjecture_report(n, r, unimodal):
    """Conjecture verdicts for a uniform matroid from the closed forms
    (no geometric pipeline involved): the given unimodality verdict of
    its h*-vector, and at r = 2 the signs of the Ehrhart coefficients,
    read off their integer numerators."""
    report = {"n": n, "r": r, "hstarUnimodal": unimodal}
    if r == 2:
        report["ehrhartCoeffsPositive"] = all(
            c > 0 for c in _uniform_ehrhart_scaled(n, 2))
    return report

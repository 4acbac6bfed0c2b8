"""h*-vectors, Katzman coefficients, uniform-matroid closed forms, and
conjecture predicates (h*-unimodality, Ehrhart coefficient positivity).

The Katzman coefficients A_i^{n,r} are the coefficients of
(1 + T + ... + T^(r-1))^n. They are computed by the dimension
recurrence, the polynomial identity A^{n} = A^{n-1} (1 - T^r) / (1 - T):
one difference pass and one running sum per row. The rank recurrence
and the multinomial formula live with the tests, as references.

The uniform h*-vector is Katzman's closed triple sum. Its innermost
sum is multiplication by (1 - x)^j, so `uniform_hstar` evaluates it by
Horner's rule in (1 - x) over strided Katzman rows, in O(r^2 n)
integer operations per (n, r).
"""

from fractions import Fraction
from itertools import accumulate, zip_longest
from math import factorial

from .exactmath import binomial, poly_eval, poly_mul, poly_trim


def ehrhart_to_hstar(p, d):
    """h*-vector of a d-dimensional lattice polytope from its Ehrhart
    polynomial: h*_j = sum_{i=0}^{j} (-1)^i C(d+1, i) p(j-i)."""
    if len(p) - 1 > d:
        raise ValueError("polynomial degree exceeds dimension")
    out = []
    values = [poly_eval(p, k) for k in range(d + 1)]
    for j in range(d + 1):
        h = sum((-1) ** i * binomial(d + 1, i) * values[j - i]
                for i in range(j + 1))
        if h.denominator != 1:
            raise ValueError(f"non-integral h* entry at index {j}")
        if h < 0:
            raise ValueError(f"negative h* entry at index {j}")
        out.append(int(h))
    return tuple(out)


def hstar_sum_identity(hstar, p, d):
    """sum h* = d! * (leading coefficient)."""
    lead = p[d] if len(p) > d else Fraction(0)
    return sum(hstar) == factorial(d) * lead


# ---------------------------------------------------------------------------
# Katzman coefficients

_KATZMAN_CACHE = {}


def katzman(n, r):
    """A^{n,r} by the dimension recurrence
    A_i^{n,r} = sum_{k=i-r+1}^{i} A_k^{n-1,r}, out-of-range terms 0.

    As polynomials in T this is A^{n} = A^{n-1} (1 - T^r) / (1 - T): each
    row is the running sum of the differences A_i^{n-1} - A_{i-r}^{n-1}.
    Every intermediate row is cached, so grid scans pay for each row once.
    """
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    if (n, r) in _KATZMAN_CACHE:
        return _KATZMAN_CACHE[(n, r)]
    row = (1,) * r  # n = 1: coefficients of 1 + T + ... + T^(r-1)
    _KATZMAN_CACHE.setdefault((1, r), row)
    start = n
    while start > 1 and (start, r) not in _KATZMAN_CACHE:
        start -= 1
    row = _KATZMAN_CACHE[(start, r)]
    for nn in range(start + 1, n + 1):
        padded = row + (0,) * (r - 1)
        row = tuple(accumulate(
            a - b for a, b in zip(padded, (0,) * r + padded)))
        _KATZMAN_CACHE[(nn, r)] = row
    return row


def is_symmetric(v):
    return list(v) == list(reversed(v))


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

def uniform_ehrhart(n, r):
    """Ehrhart polynomial of the bases polytope of the uniform matroid
    with n elements and rank r:
    sum_{s=0}^{r-1} (-1)^s C(n,s) C(k(r-s) - s + n - 1, n - 1)."""
    if not (1 <= r <= n):
        raise ValueError("need 1 <= r <= n")
    total = (Fraction(0),)
    for s in range(r):
        # C(k(r-s) - s + n - 1, n-1) as a polynomial in k
        term = (Fraction(1, factorial(n - 1)),)
        for j in range(n - 1):
            # factor (k(r-s) - s + n - 1 - j)
            term = poly_mul(term, (Fraction(n - 1 - j - s), Fraction(r - s)))
        sign = (-1) ** s * binomial(n, s)
        total = poly_trim(tuple(
            (total[i] if i < len(total) else 0)
            + sign * (term[i] if i < len(term) else 0)
            for i in range(max(len(total), len(term)))))
    return total


def uniform_hstar(n, r):
    """h*-vector of the uniform bases polytope by the closed triple sum
    over Katzman coefficients; entries l = 0..n-1 (dimension n-1).

    The innermost sum, over k with weight (-1)^k C(j,k), is the
    multiplication by (1 - x)^j, so the triple sum reads

        h*(x) = sum_{s<r} (-1)^s C(n,s)
                sum_{j<=s} (-1)^j C(s,j) (1 - x)^j a_{n-j,r-s}(x)  mod x^n

    with the strided Katzman row a_{nn,rr}(x) = sum_m A_{m rr}^{nn,rr} x^m.
    For each s the sum over j is taken by Horner's rule in (1 - x): one
    difference pass and one row addition per j, O(r^2 n) per (n, r).
    """
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
                acc, katzman(n - j, rr)[::rr], fillvalue=0)]
        cs = (-1) ** s * binomial(n, s)
        out = [o + cs * a for o, a in zip_longest(out, acc, fillvalue=0)]
    return tuple(out)


def hstar_rank2(n):
    """Closed form for rank 2: coefficients of
    (sum_l C(n,2l) T^l) - n T, padded to length n."""
    out = [binomial(n, 2 * l) for l in range(n)]
    if n >= 2:
        out[1] -= n
    return tuple(out)


def hstar_rank3(n):
    """Closed form for rank 3:
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


# ---------------------------------------------------------------------------
# conjecture predicates

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


def uniform_conjecture_report(n, r):
    """Conjecture verdicts for a uniform matroid from the closed forms
    (no geometric pipeline involved)."""
    h = trim_trailing_zeros(uniform_hstar(n, r))
    report = {"n": n, "r": r, "hstarUnimodal": is_unimodal(h)}
    if r == 2:
        report["ehrhartCoeffsPositive"] = all(
            c > 0 for c in uniform_ehrhart(n, 2))
    return report


def trim_trailing_zeros(v):
    out = list(v)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


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

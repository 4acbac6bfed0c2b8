"""Todd-polynomial machinery and the exact specialization of a rational
generating function at z = 1, yielding lattice-point counts and the
full Ehrhart polynomial.

The m-th Todd polynomial td_m(xi_1..xi_s) is the coefficient of x^m in
prod_j h(x xi_j) with h(x) = x / (1 - exp(-x)). The Taylor coefficients
b_n of h are b_n = c_n / (n! (n+1)!) with an all-integer recursion for
the c_n.

Every exponent is paired with lambda = (1, 2, ..., n). A denominator
exponent is a tangent-cone ray of a matroid or polymatroid polytope,
+-(e_a - e_b) or +-e_a, so its pairing beta is a nonzero integer with
|beta| <= n. Every term is a full-dimensional unimodular cone counted
+1, with s = dim denominator pairings beta_1..beta_s of sum sigma; with
numerator pairing x it contributes

    sum_l (-1)^s td_{s-l}(-beta) x^l / (l! beta_1 ... beta_s)
        = (-1)^s [t^s] exp(x t) prod_j h(-beta_j t) / (beta_1 ... beta_s).

Since h(u) = exp(u/2) g(u) with g(u) = (u/2) / sinh(u/2) even (the Todd
class as exp(c_1/2) times the A-hat class), the product is
exp(-sigma t/2) G(t) with G(t) = prod_j g(|beta_j| t): its odd part is
that one exponential, which moves into the pairing y = 2x - sigma, and
G depends only on the multiset of |beta_j| and has only even powers.
So the term contributes

    sum_i V_i y^(s-2i) / D,   D = R^s s! (-1)^s beta_1 ... beta_s,
    V_i = (s!/(s-2i)!) Q^(s-2i) R^2i G_2i,   i = 0..s//2,

where Q is the product of the primes <= s + 1 and R = 2Q. The V_i are
integers: R^n g_n = (2 - 2^n) Q^n b_n at even n, and b_n Q^n is an
integer for n <= s (von Staudt-Clausen). With M the lcm of
|beta_1 ... beta_s| over the tuples, each tuple's V scaled by
M / (beta_1 ... beta_s) shares the one denominator R^s s! (-1)^s M. So
the scaled numerators of the terms with equal pairing
y = (2 lav - sigma) + 2 lv k at dilation k are summed on integers, the
sums are expanded in k together by one Kronecker substitution, whose
coefficients of k are read back as byte digits by `exactmath`'s codec,
and the result is divided once. The count of the k-th dilation is the
polynomial's value at k.

A polytope has at most 2n^2 distinct rays, so lambda is checked and
paired once per distinct ray. The numerators V of each distinct
multiset of |beta| are computed once per polytope, from its even power
sums by Newton's identity for the logarithmic derivative of G: O(s^2)
integer operations per multiset, with no product of series. No memo of
multisets outlives the polytope.
"""

from fractions import Fraction
from functools import cache
from itertools import chain
from math import factorial, lcm, prod
from operator import add, mul

from .exactmath import (
    binomial, digit_bytes, poly_eval, poly_trim, signed_digits, vec_dot,
)


def todd_c(m):
    """Integers c_0..c_m with h's Taylor coefficient b_n equal to
    c_n / (n! (n+1)!)."""
    if m < 0:
        raise ValueError("specialize: order must be >= 0")
    c = [1]
    for n in range(1, m + 1):
        acc = 0
        for j in range(1, n + 1):
            acc += ((-1) ** (j + 1) * binomial(n + 1, j + 1)
                    * factorial(n) // factorial(n - j + 1) * c[n - j])
        c.append(acc)
    return c


@cache
def _todd_scaled(m):
    """Q, the product of the primes <= m + 1, and the integers b_n Q^n
    for n = 0..m. By von Staudt-Clausen the denominator of b_n divides
    Q^n; AssertionError if some b_n Q^n is not an integer. Each order
    is computed once, because weights asks for only a few orders per
    run."""
    c = todd_c(m)
    q = prod(p for p in range(2, m + 2) if all(p % d for d in range(2, p)))
    scaled = []
    for n in range(m + 1):
        bq, rem = divmod(c[n] * q ** n, factorial(n) * factorial(n + 1))
        if rem:
            raise AssertionError(f"specialize: b_{n} Q^{n} is not an"
                                 f" integer at order {m}")
        scaled.append(bq)
    return q, tuple(scaled)


def find_lambda(bs, n):
    """lambda = (1, 2, ..., n), which pairs nonzero with every ray of a
    matroid or polymatroid tangent cone. ValueError if some exponent in
    `bs` pairs to zero with it."""
    lam = tuple(range(1, n + 1))
    for b in bs:
        if vec_dot(lam, b) == 0:
            raise ValueError(f"specialize: denominator exponent {tuple(b)}"
                             f" pairs to zero with lambda = (1, ..., {n})")
    return lam


@cache
def _even_row(s):
    """The integers `weights` needs at order s: the halved coefficients
    a_i = -2^(2i-1) Q^2i b_2i, i = 1..s//2, of the logarithmic
    derivative t (log g(Rt))' = -sum_{even k} b_k R^k t^k, and the scale
    row (s!/(s-2i)!) Q^(s-2i), i = 0..s//2."""
    q, scaled = _todd_scaled(s)
    half = tuple(-scaled[2 * i] << (2 * i - 1) for i in range(1, s // 2 + 1))
    scale = tuple(factorial(s) // factorial(s - 2 * i) * q ** (s - 2 * i)
                  for i in range(s // 2 + 1))
    return half, scale


def weights(magnitudes):
    """Integer numerators V_0..V_{s//2} of the terms whose pairings have
    the sorted magnitudes |beta_1| <= ... <= |beta_s|: V_i is the
    coefficient of y^(s-2i) in the module docstring's sum, so
    V_i = (s!/(s-2i)!) Q^(s-2i) G_2i, where G is the product of the
    factors g(R |beta_j| t) truncated at order s, R = 2Q. G has only
    even powers, and is taken from the even power sums
    p_2i = sum beta^2i: since t (log G)' = -sum_{even k} b_k R^k p_k t^k,

        j G_2j = sum_{1 <= i <= j} a_i p_2i G_{2j-2i},

    with a_i = -2^(2i-1) Q^2i b_2i, each division by j exact (G_0 = 1).
    AssertionError on a remainder, also under `python -O`."""
    half, scale = _even_row(len(magnitudes))
    ap = []
    squares = powers = [b * b for b in magnitudes]
    for a in half:
        ap.append(a * sum(powers))
        powers = list(map(mul, powers, squares))
    # G_2(j-1), ..., G_0, newest first, so that ap pairs with it in order
    f = [1]
    for j in range(1, len(half) + 1):
        fj, rem = divmod(sum(map(mul, ap, f)), j)
        if rem:
            raise AssertionError(f"specialize: even Todd coefficient"
                                 f" {2 * j} of {magnitudes} is not an"
                                 f" integer")
        f.insert(0, fj)
    return tuple(map(mul, scale, reversed(f)))


def count(p, k):
    """Exact number of lattice points of the k-th dilation of the
    polytope whose Ehrhart polynomial is p: p(k), checked to be a
    non-negative integer. p(k) is the specialization of the k-th dilated
    generating function, whose terms have the pairings
    y = (2 lav - sigma) + 2 lv k of `ehrhart_polynomial`."""
    total = poly_eval(p, k)
    if total.denominator != 1 or total < 0:
        raise AssertionError(f"specialize: count {total} is not a"
                             f" non-negative integer")
    return int(total)


def ehrhart_polynomial(g):
    """Exact Ehrhart polynomial of the polytope behind the parametric
    generating function g, as coefficients of k^0..k^dim. Every term
    must be a full-dimensional unimodular cone counted with +1, as
    `genfun.build_genfun` builds them: a term with other than g.dim rays
    raises AssertionError, also under `python -O`.

    The terms are first collected per sorted beta tuple, the tuples per
    sorted multiset of |beta|, and M, the lcm of prod |beta| over the
    multisets, is taken. Then each multiset's `weights` are scaled once
    by M / prod |beta|, and each tuple's terms add them, negated if
    prod beta < 0, to the sum of their group (lv, 2 lav - sigma), where
    lv = <lambda, v>, lav = <lambda, a> - lv and sigma = sum beta make
    up the pairing y = (2 lav - sigma) + 2 lv k at dilation k.

    The groups' P(y), P(y) = sum_i V_i y^(dim-2i), are then summed by
    Kronecker substitution: P is evaluated by Horner's rule in y^2,
    times y when dim is odd, at the integer y = (2 lav - sigma)
    + 2 lv 2^(8 width), so the sum is the integer whose signed digits
    in base 2^(8 width), each `width` bytes, are the coefficients of
    k^0..k^dim. Every such coefficient is below (sum of |V_i| over the
    groups) times (max 2|lv| + |2 lav - sigma|)^dim in size, and
    `exactmath.digit_bytes` picks the width from that bound. The digits
    are read off once by `exactmath.signed_digits`, which raises
    AssertionError if the sum does not fit them, and divided by
    R^dim dim! (-1)^dim M."""
    dim = g.dim
    rays = dict.fromkeys(chain.from_iterable(t.bs for t in g.terms))
    lam = find_lambda(rays, g.n)
    pairing = {b: vec_dot(lam, b) for b in rays}
    runs = {}
    for t in g.terms:
        if len(t.bs) != dim:
            raise AssertionError(f"specialize: a term has {len(t.bs)} rays"
                                 f" in dimension {dim}")
        runs.setdefault(tuple(sorted(map(pairing.__getitem__, t.bs))),
                        []).append(t)
    classes = {}
    for key in runs:
        classes.setdefault(tuple(sorted(map(abs, key))), []).append(key)
    m = lcm(*map(prod, classes))
    groups = {}
    for mags, keys in classes.items():
        f = m // prod(mags)
        scaled = [f * x for x in weights(mags)]
        for key in keys:
            w = [-x for x in scaled] if prod(key) < 0 else scaled
            sigma = sum(key)
            # each run is dropped once summed, as the groups grow
            for t in runs.pop(key):
                lv = sum(map(mul, lam, t.v))
                y0 = 2 * (sum(map(mul, lam, t.a)) - lv) - sigma
                acc = groups.get((lv, y0))
                # no list is changed in place, so groups may share w
                groups[lv, y0] = w if acc is None else list(map(add, acc, w))
    total = reach = 1
    for (lv, y0), w in groups.items():
        total += sum(map(abs, w))
        reach = max(reach, 2 * abs(lv) + abs(y0))
    width = digit_bytes(total * reach ** dim)
    packed = 0
    for (lv, y0), w in groups.items():
        y = y0 + (lv << (8 * width + 1))
        y2 = y * y
        p = 0
        for v in w:
            p = p * y2 + v
        packed += p * y if dim % 2 else p
    d = (2 * _todd_scaled(dim)[0]) ** dim * factorial(dim) * (-1) ** dim * m
    coeffs = signed_digits([packed], dim + 1, width)[0]
    return poly_trim(tuple(Fraction(c, d) for c in coeffs))

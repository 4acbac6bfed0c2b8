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
+1, with s = dim denominator pairings beta_1..beta_s; with numerator
pairing x it contributes sum_l w_l x^l, where

    w_l = (-1)^s td_{s-l}(-beta_1, ..., -beta_s) / (l! beta_1 ... beta_s)
        = W_l / D,   D = Q^s s! (-1)^s beta_1 ... beta_s,

Q is the product of the primes <= s + 1 and the numerators W_l are
integers: substituting x -> Q x in h clears the denominator of every
b_n with n <= s (von Staudt-Clausen). With M the lcm of
|beta_1 ... beta_s| over the tuples, each tuple's W scaled by
M / (beta_1 ... beta_s) shares the one denominator Q^s s! (-1)^s M. So
the scaled numerators of the terms with equal numerator pairing
lav + lv k at dilation k are summed on integers, the sums are expanded
in k together by one Kronecker substitution, and the result is divided
once. The count of the k-th dilation is the polynomial's value at k.

A polytope has at most 2n^2 distinct rays, so lambda is checked and
paired once per distinct ray. Each distinct sorted beta tuple's weights
are computed once per polytope, from the tuple's power sums by
Newton's identity for the logarithmic derivative of the Todd product:
O(s^2) integer operations per tuple, with no product of series. No
memo of tuples outlives the polytope.
"""

from fractions import Fraction
from functools import cache
from itertools import chain
from math import factorial, lcm, prod
from operator import add, mul

from .exactmath import (
    binomial, poly_eval, poly_trim, vec_dot,
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


@cache
def _weight_scale(s):
    """The row (s!/l!) Q^l, l = 0..s, that scales the Todd product's
    coefficient s - l into the weight numerator W_l of `weights`."""
    q = _todd_scaled(s)[0]
    return tuple(factorial(s) // factorial(l) * q ** l for l in range(s + 1))


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


def weights(betas):
    """Integer weight numerators W_0..W_s of one term, from its tuple of
    pairings beta_j = <lambda, b_j>: W_l = (s!/l!) Q^l f_{s-l}, where
    f is the product of the factors h(-Q x beta_j) truncated at order
    s, so that f_m = Q^m td_m(-beta) and W_l / D is w_l with
    D = `_denominator(s, prod beta)`. The product is taken from power
    sums: since x (log h)'(x) = x/2 - sum_{even k} b_k x^k,

        m f_m = sum_{k in {1} and even k <= m} e_k p_k f_{m-k},

    with e_1 = Q/2, p_1 = -sum beta, e_k = -b_k Q^k and p_k = sum
    beta^k, each division by m exact (f_0 = 1). AssertionError on a
    remainder, also under `python -O`."""
    s = len(betas)
    q, scaled = _todd_scaled(s)
    # ep[k - 1] = e_k p_k, 0 at every odd k >= 3
    ep = [0] * s
    if s:
        ep[0] = -(q // 2) * sum(betas)
    squares = powers = [b * b for b in betas]
    for k in range(2, s + 1, 2):
        ep[k - 1] = -scaled[k] * sum(powers)
        powers = list(map(mul, powers, squares))
    # f_m, ..., f_0, newest first, so that ep pairs with it in order
    f = [1]
    for m in range(1, s + 1):
        fm, rem = divmod(sum(map(mul, ep, f)), m)
        if rem:
            raise AssertionError(f"specialize: Todd product coefficient"
                                 f" {m} of {betas} is not an integer")
        f.insert(0, fm)
    return tuple(map(mul, _weight_scale(s), f))


def _denominator(s, beta_prod):
    """D = Q^s s! (-1)^s beta_prod: the denominator of the weights of a
    tuple with product beta_prod, and, with beta_prod = M, the one
    denominator of `ehrhart_polynomial`'s sum."""
    return _todd_scaled(s)[0] ** s * factorial(s) * (-1) ** s * beta_prod


def count(p, k):
    """Exact number of lattice points of the k-th dilation of the
    polytope whose Ehrhart polynomial is p: p(k), checked to be a
    non-negative integer. p(k) is the specialization of the k-th dilated
    generating function, whose terms have numerator pairing lav + lv k
    and the weights of `ehrhart_polynomial`."""
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

    The terms are first collected per sorted beta tuple, and M, the lcm
    of |prod beta| over the tuples, is taken. Then each tuple's weights
    are scaled once by M / prod beta, and each of its terms adds them to
    the sum of its group (lv, lav), where lv = <lambda, v> and
    lav = <lambda, a> - lv make up its numerator pairing lav + lv k at
    dilation k.

    The groups' P(lav + lv k), P(x) = sum_l W_l x^l, are then summed by
    Kronecker substitution: P is evaluated by Horner's rule at the
    integer lav + lv 2^bits, so the sum is the integer whose
    base-2^bits digits, each in [-2^(bits-1), 2^(bits-1)), are the
    coefficients of k^0..k^dim. Every such coefficient is below (sum of
    |W_l| over the groups) times (max |lv| + |lav|)^dim in size, and
    bits is one more bit than that bound needs. The digits are read off
    once and divided by `_denominator(dim, M)`."""
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
    m = lcm(*map(prod, runs))
    groups = {}
    for key, terms in runs.items():
        f = m // prod(key)
        w = [f * x for x in weights(key)]
        for t in terms:
            lv = sum(map(mul, lam, t.v))
            lav = sum(map(mul, lam, t.a)) - lv
            acc = groups.get((lv, lav))
            # no list is changed in place, so groups may share w
            groups[lv, lav] = w if acc is None else list(map(add, acc, w))
    total = reach = 1
    for (lv, lav), w in groups.items():
        total += sum(map(abs, w))
        reach = max(reach, abs(lv) + abs(lav))
    bits = (total * reach ** dim).bit_length() + 1
    packed = 0
    for (lv, lav), w in groups.items():
        x = lav + (lv << bits)
        p = 0
        for wl in reversed(w):
            p = p * x + wl
        packed += p
    d = _denominator(dim, m)
    coeffs = []
    for _ in range(dim + 1):
        c = packed & ((1 << bits) - 1)
        if c >> (bits - 1):
            c -= 1 << bits
        coeffs.append(Fraction(c, d))
        packed = (packed - c) >> bits
    if packed:
        raise AssertionError(f"specialize: the sum has digits beyond"
                             f" k^{dim}")
    return poly_trim(tuple(coeffs))

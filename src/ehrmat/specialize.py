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
|beta| <= n. A term with s denominator pairings beta_1..beta_s and
numerator pairing x contributes sum_l w_l x^l, with

    w_l = (-1)^s td_{s-l}(-beta_1, ..., -beta_s) / (l! beta_1 ... beta_s)
        = W_l / D,   D = Q^s s! (-1)^s beta_1 ... beta_s,

where Q is the product of the primes <= s + 1 and the numerators W_l
are integers: substituting x -> Q x in h clears the denominator of
every b_n with n <= s (von Staudt-Clausen). With M_s the lcm of
|beta_1 ... beta_s| over the tuples of length s, each tuple's W scaled
by M_s / (beta_1 ... beta_s) shares the one denominator
Q^s s! (-1)^s M_s. So the scaled numerators of the terms with equal s
and equal numerator pairing lav + lv k at dilation k are summed on
integers, the sums of each order are expanded in k together by one
Kronecker substitution, and each order s is divided once. The count of
the k-th dilation is the polynomial's value at k.

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
from operator import add, mul, sub

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
    tuple with product beta_prod, and, with beta_prod = M_s, the one
    denominator of every order-s sum of `ehrhart_polynomial`."""
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
    generating function g, as coefficients of k^0..k^dim. The terms are
    first collected per sorted beta tuple, and M_s, the lcm of
    |prod beta| over the tuples of length s, is taken. Then each
    tuple's weights are scaled once by M_s / prod beta, and each of its
    terms adds them, times its sign, to the sum of its group (s, lv,
    lav), where lv = <lambda, v> and lav = <lambda, a> - lv make up its
    numerator pairing lav + lv k at dilation k.

    Each order s then sums the groups' P(lav + lv k), P(x) =
    sum_l W_l x^l, by Kronecker substitution: P is evaluated by Horner's
    rule at the integer lav + lv 2^bits, so the sum is the integer whose
    signed base-2^bits digits are the coefficients of k^0..k^s. Every
    such coefficient is below (sum of |W_l| over the groups) times
    (max |lv| + |lav|)^s in size, and bits leaves room for that and a
    sign. The digits are read off once per order and divided by
    `_denominator(s, M_s)`."""
    rays = dict.fromkeys(chain.from_iterable(t.bs for t in g.terms))
    lam = find_lambda(rays, g.n)
    pairing = {b: vec_dot(lam, b) for b in rays}
    runs = {}
    for t in g.terms:
        runs.setdefault(tuple(sorted(map(pairing.__getitem__, t.bs))),
                        []).append(t)
    lcms = {}
    for key in runs:
        lcms[len(key)] = lcm(lcms.get(len(key), 1), prod(key))
    groups = {}
    for key, terms in runs.items():
        s = len(key)
        f = lcms[s] // prod(key)
        w = [f * x for x in weights(key)]
        order = groups.setdefault(s, {})
        for t in terms:
            lv = sum(map(mul, lam, t.v))
            lav = sum(map(mul, lam, t.a)) - lv
            acc = order.get((lv, lav))
            # no list is changed in place, so groups may share w
            if acc is None:
                order[lv, lav] = w if t.sign == 1 else [-x for x in w]
            else:
                order[lv, lav] = list(map(add if t.sign == 1 else sub,
                                          acc, w))
    max_s = max(groups, default=0)
    coeffs = [Fraction(0)] * (max_s + 1)
    for s, order in groups.items():
        total = reach = 1
        for (lv, lav), w in order.items():
            total += sum(map(abs, w))
            reach = max(reach, abs(lv) + abs(lav))
        bits = (total * reach ** s).bit_length() + 1
        packed = 0
        for (lv, lav), w in order.items():
            x = lav + (lv << bits)
            p = 0
            for wl in reversed(w):
                p = p * x + wl
            packed += p
        d = _denominator(s, lcms[s])
        for m in range(s + 1):
            c = packed & ((1 << bits) - 1)
            if c >> (bits - 1):
                c -= 1 << bits
            coeffs[m] += Fraction(c, d)
            packed = (packed - c) >> bits
        if packed:
            raise AssertionError(f"specialize: order {s} sum has digits"
                                 f" beyond k^{s}")
    for m in range(g.dim + 1, max_s + 1):
        if coeffs[m] != 0:
            raise AssertionError(f"specialize: coefficient of k^{m} should"
                                 f" vanish")
    return poly_trim(tuple(coeffs[:g.dim + 1]))

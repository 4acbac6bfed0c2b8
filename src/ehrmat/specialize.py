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
        = W_l / D,   D = L^s s! (-1)^s beta_1 ... beta_s,  L = s! (s+1)!,

where the numerators W_l are integers. D depends only on s and the
product of the betas, so Ehrhart polynomials are summed on integers per
(s, prod beta) class and divided once per class. The count of the k-th
dilation is the polynomial's value at k.

A polytope has at most 2n^2 distinct rays, so lambda is checked and
paired once per distinct ray. `ehrhart_polynomial` is one pass over the
terms in lexicographic order of their sorted beta tuples: each distinct
tuple's weights are computed once per polytope, extending the Todd
product of its longest common prefix with the previous tuple of the
same s, from a prefix stack that the call owns, and each term is folded
straight into its class sum. No memo of tuples or prefixes outlives the
polytope.
"""

from fractions import Fraction
from functools import cache
from itertools import groupby
from math import factorial, prod

from .exactmath import (
    binomial, poly_eval, poly_trim, series_mul_trunc, vec_dot,
)


def todd_c(m):
    """Integers c_0..c_m with h's Taylor coefficient b_n equal to
    c_n / (n! (n+1)!)."""
    if m < 0:
        raise ValueError("order must be >= 0")
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
    """L = m! (m+1)! and the integers L b_0, ..., L b_m; each order is
    computed once, because weights asks for only a few orders per run."""
    c = todd_c(m)
    scale = factorial(m) * factorial(m + 1)
    return scale, tuple(c[n] * scale // (factorial(n) * factorial(n + 1))
                        for n in range(m + 1))


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
def _todd_factor(s, beta):
    """The L-scaled factor h(-x beta) of a term with s denominator
    pairings, truncated at order s."""
    return tuple(bn * (-beta) ** n for n, bn in enumerate(_todd_scaled(s)[1]))


def weights(betas, stack):
    """Integer weight numerators W_0..W_s of one term, from its sorted
    tuple of pairings beta_j = <lambda, b_j>: W_l = (s!/l!) acc_{s-l},
    where acc is the product of the L-scaled factors h(-x beta_j)
    truncated at order s. `stack` is the caller's list, one per s and
    empty at first, of the prefix products (beta_i, product of the
    factors of beta_0..beta_i) of the previous tuple of the same s. The
    tuple extends the product of its longest common prefix with that
    one and leaves its own prefixes there, so calls in lexicographic
    order cost one truncated product per node of the trie of the
    tuples; any order gives the same numerators."""
    s = len(betas)
    k = 0
    while k < len(stack) and stack[k][0] == betas[k]:
        k += 1
    del stack[k:]
    acc = stack[-1][1] if stack else (1,)
    for beta in betas[k:]:
        acc = series_mul_trunc(acc, _todd_factor(s, beta), s)
        stack.append((beta, acc))
    acc += (0,) * (s + 1 - len(acc))
    return tuple(factorial(s) // factorial(l) * acc[s - l]
                 for l in range(s + 1))


def _denominator(s, beta_prod):
    # the common denominator D of a class's weights
    return _todd_scaled(s)[0] ** s * factorial(s) * (-1) ** s * beta_prod


def count(p, k):
    """Exact number of lattice points of the k-th dilation of the
    polytope whose Ehrhart polynomial is p: p(k), checked to be a
    non-negative integer. p(k) is the specialization of the k-th dilated
    generating function, whose terms, weights and (s, prod beta)
    classes are those of `ehrhart_polynomial`, numerator pairing
    lav + lv k."""
    total = poly_eval(p, k)
    if total.denominator != 1 or total < 0:
        raise AssertionError(f"specialize: count {total} is not a"
                             f" non-negative integer")
    return int(total)


def ehrhart_polynomial(g):
    """Exact Ehrhart polynomial of the polytope behind the parametric
    generating function g, as coefficients of k^0..k^dim, in one pass
    over the terms grouped by sorted beta tuple. A term's numerator
    pairing at dilation k is lav + lv k, so it adds P_W(lav + lv k),
    with P_W(x) = sum_l W_l x^l expanded in k by Horner's rule, to its
    (s, prod beta) class sum."""
    rays = dict.fromkeys(b for t in g.terms for b in t.bs)
    lam = find_lambda(rays, g.n)
    pairing = {b: vec_dot(lam, b) for b in rays}
    betas = [tuple(sorted(map(pairing.__getitem__, t.bs))) for t in g.terms]
    stacks = {}
    sums = {}
    order = sorted(range(len(betas)), key=betas.__getitem__)
    for key, group in groupby(order, key=betas.__getitem__):
        s = len(key)
        w = weights(key, stacks.setdefault(s, []))
        acc = sums.setdefault((s, prod(key)), [0] * (s + 1))
        for i in group:
            t = g.terms[i]
            lv = vec_dot(lam, t.v)
            lav = vec_dot(lam, t.a) - lv
            p = [w[-1]]
            for wl in w[-2::-1]:
                p = [lav * c + lv * d for c, d in zip(p + [0], [0] + p)]
                p[0] += wl
            for m, c in enumerate(p):
                acc[m] += t.sign * c
    max_s = max((s for s, _ in sums), default=0)
    coeffs = [Fraction(0)] * (max_s + 1)
    for cls, acc in sums.items():
        d = _denominator(*cls)
        for m, c in enumerate(acc):
            coeffs[m] += Fraction(c, d)
    for m in range(g.dim + 1, max_s + 1):
        if coeffs[m] != 0:
            raise AssertionError(f"specialize: coefficient of k^{m} should"
                                 f" vanish")
    return poly_trim(tuple(coeffs[:g.dim + 1]))

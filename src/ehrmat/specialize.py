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
"""

from fractions import Fraction
from functools import cache
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
            raise ValueError(f"denominator exponent {tuple(b)} pairs to zero"
                             f" with lambda = (1, ..., {n})")
    return lam


@cache
def weights(betas):
    """Integer weight numerators W_0..W_s of one term, from its sorted
    tuple of pairings beta_j = <lambda, b_j>: W_l = (s!/l!) acc_{s-l},
    where acc is the product of the L-scaled factors h(-x beta_j)
    truncated at order s. The Todd product is symmetric in the betas, so
    a run computes each sorted tuple once."""
    s = len(betas)
    b = _todd_scaled(s)[1]
    acc = (1,)
    for beta in betas:
        acc = series_mul_trunc(
            acc, tuple(bn * (-beta) ** n for n, bn in enumerate(b)), s)
    acc += (0,) * (s + 1 - len(acc))
    return tuple(factorial(s) // factorial(l) * acc[s - l]
                 for l in range(s + 1))


def _denominator(s, beta_prod):
    # the common denominator D of a class's weights
    return _todd_scaled(s)[0] ** s * factorial(s) * (-1) ** s * beta_prod


def _plan(g):
    """lambda and, per term, its class (s, prod beta) and weight
    numerators."""
    lam = find_lambda([b for t in g.terms for b in t.bs], g.n)
    plan = []
    for t in g.terms:
        betas = tuple(sorted(vec_dot(lam, b) for b in t.bs))
        plan.append(((len(betas), prod(betas)), weights(betas)))
    return lam, plan


def count(p, k):
    """Exact number of lattice points of the k-th dilation of the
    polytope whose Ehrhart polynomial is p: p(k), checked to be a
    non-negative integer. p(k) is the specialization of the k-th dilated
    generating function, whose terms, weights and (s, prod beta)
    classes are those of `ehrhart_polynomial`, numerator pairing
    lav + lv k."""
    total = poly_eval(p, k)
    if total.denominator != 1 or total < 0:
        raise AssertionError(f"count {total} is not a non-negative integer")
    return int(total)


def ehrhart_polynomial(g):
    """Exact Ehrhart polynomial of the polytope behind the parametric
    generating function g, as coefficients of k^0..k^dim. A term's
    numerator pairing at dilation k is lav + lv k, so it contributes
    P_W(lav + lv k) with P_W(x) = sum_l W_l x^l, expanded in k by
    Horner's rule on integer polynomials."""
    lam, plan = _plan(g)
    sums = {}
    for t, (cls, w) in zip(g.terms, plan):
        lv = vec_dot(lam, t.v)
        lav = vec_dot(lam, t.a) - lv
        p = [w[-1]]
        for wl in w[-2::-1]:
            p = [lav * c + lv * d for c, d in zip(p + [0], [0] + p)]
            p[0] += wl
        acc = sums.setdefault(cls, [0] * len(p))
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
            raise AssertionError(f"coefficient of k^{m} should vanish")
    return poly_trim(tuple(coeffs[:g.dim + 1]))

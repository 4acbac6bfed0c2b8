"""Todd-polynomial machinery and the exact specialization of a rational
generating function at z = 1, yielding lattice-point counts and the
full Ehrhart polynomial.

The m-th Todd polynomial td_m(xi_1..xi_s) is the coefficient of x^m in
prod_j h(x xi_j) with h(x) = x / (1 - exp(-x)). The Taylor coefficients
b_n of h are b_n = c_n / (n! (n+1)!) with an all-integer recursion for
the c_n.
"""

from fractions import Fraction
from functools import cache
from math import factorial, prod

from .exactmath import binomial, poly_trim, series_mul_trunc, vec_dot


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


def todd_series(xis, m):
    """All Todd coefficients td_0..td_m of prod_j h(x xi_j), by
    successive truncated multiplications. Each factor's coefficients
    are scaled by L = m! (m+1)!, which makes them integers for integer
    xi; the product is divided by L^s once at the end."""
    scale, b = _todd_scaled(m)
    acc = (1,)
    for xi in xis:
        acc = series_mul_trunc(
            acc, tuple(bn * xi ** n for n, bn in enumerate(b)), m)
    total = scale ** len(xis)
    return ([Fraction(x, total) for x in acc]
            + [Fraction(0)] * (m + 1 - len(acc)))


def todd_eval(xis, m):
    """Coefficient of x^m in prod_j h(x xi_j)."""
    return todd_series(xis, m)[m]


def find_lambda(bs, n):
    """Integer vector on the moment curve (1, xi, ..., xi^(n-1)) pairing
    nonzero with every denominator exponent in `bs`. Each exponent rules
    out at most n-1 integer values of xi, so the scan terminates within
    the stated bound."""
    bs = [b for b in bs]
    if any(all(x == 0 for x in b) for b in bs):
        raise ValueError("zero denominator exponent")
    bound = (n - 1) * len(bs) + 1
    for xi in range(bound + 1):
        lam = tuple(xi ** i for i in range(n))
        if all(vec_dot(lam, b) != 0 for b in bs):
            return lam
    raise AssertionError("moment-curve scan failed; bound violated")


def weights(betas):
    """Exact weights w_0..w_s of one term, from its denominator pairings
    beta_j = <lambda, b_j>:

        w_l = (-1)^s td_{s-l}(-beta_1, ..., -beta_s)
              / (l! * beta_1 * ... * beta_s).
    """
    s = len(betas)
    if any(b == 0 for b in betas):
        raise ValueError("zero pairing")
    td = todd_series([-b for b in betas], s)
    denom = (-1) ** s * prod(betas)
    return [td[s - l] / (factorial(l) * denom) for l in range(s + 1)]


def _plan(g):
    """lambda and the weights of every term, in term order. Both depend
    only on the denominators, which `dilate` leaves unchanged and which
    carries the plan over, so a family of dilations is planned once."""
    if g.plan is None:
        lam = find_lambda([b for t in g.terms for b in t.bs], g.n)
        g.plan = lam, [weights([vec_dot(lam, b) for b in t.bs])
                       for t in g.terms]
    return g.plan


def count(g):
    """Exact number of lattice points of the polytope behind g."""
    lam, ws = _plan(g)
    total = Fraction(0)
    for t, w in zip(g.terms, ws):
        la = vec_dot(lam, t.a)
        acc = Fraction(0)
        power = Fraction(1)
        for l in range(len(w)):
            acc += w[l] * power
            power *= la
        total += t.sign * acc
    if total.denominator != 1 or total < 0:
        raise AssertionError(f"count {total} is not a non-negative integer")
    return int(total)


def ehrhart_polynomial(g):
    """Exact Ehrhart polynomial of the polytope behind the parametric
    generating function g, as coefficients of k^0..k^dim."""
    lam, ws = _plan(g)
    max_s = max((len(t.bs) for t in g.terms), default=0)
    coeffs = [Fraction(0)] * (max_s + 1)
    for t, w in zip(g.terms, ws):
        lv = vec_dot(lam, t.v)
        lav = vec_dot(lam, t.a) - lv
        for m in range(len(w)):
            inner = Fraction(0)
            for l in range(m, len(w)):
                inner += binomial(l, m) * w[l] * _ipow(lav, l - m)
            coeffs[m] += t.sign * _ipow(lv, m) * inner
    for m in range(g.dim + 1, max_s + 1):
        if coeffs[m] != 0:
            raise AssertionError(f"coefficient of k^{m} should vanish")
    return poly_trim(tuple(coeffs[:g.dim + 1]))


def _ipow(base, e):
    # integer power with the 0^0 = 1 convention
    if e == 0:
        return 1
    return base ** e

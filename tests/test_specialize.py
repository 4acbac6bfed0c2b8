import os
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dilate, even_todd_series, fraction_weights, reference_count,
    reference_ehrhart_polynomial, series_mul_trunc, todd_eval, todd_series,
)
from test_bruteforce import matroid_specs, polymatroid_specs

import ehrmat
from ehrmat.genfun import GenFun, GenFunTerm, build_genfun
from ehrmat.matroid import RankFunction
from ehrmat.specialize import (
    _even_row, _todd_scaled, count, ehrhart_polynomial, find_lambda, todd_c,
    weights,
)
from ehrmat.vertices import BASES_POLYTOPE, PolytopeSpec

small_rats = st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                          max_denominator=4).filter(lambda x: x != 0)


def _series_reciprocal(coeffs, m):
    """1 / (c_0 + c_1 x + ...) truncated at order m; requires c_0 != 0."""
    out = [Fraction(0)] * (m + 1)
    out[0] = 1 / Fraction(coeffs[0])
    for k in range(1, m + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            cj = coeffs[j] if j < len(coeffs) else Fraction(0)
            acc += cj * out[k - j]
        out[k] = -acc / coeffs[0]
    return tuple(out)


def _h_oracle(xi, m):
    """Taylor polynomial of x*xi / (1 - exp(-x*xi)) by direct series
    reciprocal of sum (-x*xi)^n / (n+1)!."""
    q = tuple(Fraction((-1) ** n) * xi ** n / factorial(n + 1)
              for n in range(m + 1))
    return _series_reciprocal(q, m)


def test_todd_c_first_values():
    assert todd_c(2) == [1, 1, 1]


def test_todd_c_bound():
    c = todd_c(10)
    for n in range(11):
        assert abs(c[n]) <= factorial(n + 1) ** (2 * n)


def test_todd_zero_order():
    assert todd_eval([Fraction(3), Fraction(-2)], 0) == 1


def test_todd_first_order_is_half_sum():
    xis = [Fraction(1), Fraction(2), Fraction(-3, 2)]
    assert todd_eval(xis, 1) == sum(xis) / 2


def test_todd_matches_series_division_oracle_fixed():
    xis = [Fraction(1), Fraction(1)]
    oracle = (Fraction(1),)
    for xi in xis:
        oracle = series_mul_trunc(oracle, _h_oracle(xi, 2), 2)
    assert todd_eval(xis, 2) == oracle[2]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.data())
def test_todd_matches_series_division_oracle(s, data):
    # integer xi up to 128 in size: the pipeline's pairings beta reach
    # 127 on 8-element matroids such as AG32
    xi_values = st.one_of(small_rats, st.integers(-128, 128))
    xis = [data.draw(xi_values) for _ in range(s)]
    m = data.draw(st.integers(0, 8))
    oracle = (Fraction(1),)
    for xi in xis:
        oracle = series_mul_trunc(oracle, _h_oracle(xi, m), m)
    got = todd_series(xis, m)
    want = list(oracle) + [Fraction(0)] * (m + 1 - len(oracle))
    assert got == want[:m + 1]


def test_find_lambda_examples():
    # lambda = (1, ..., n), whatever the exponents, as long as none pairs
    # to zero with it
    assert find_lambda([(1, 0)], 2) == (1, 2)
    assert find_lambda([(1, -1), (-1, 1)], 2) == (1, 2)
    assert find_lambda([(1, -1), (0, 1)], 2) == (1, 2)
    assert find_lambda([], 4) == (1, 2, 3, 4)


def test_find_lambda_rejects_zero_exponent():
    with pytest.raises(ValueError):
        find_lambda([(0, 0)], 2)


def test_find_lambda_rejects_zero_pairing_under_optimize():
    # (2, -1) is no tangent-cone ray; it pairs to 2 - 2 = 0. The check
    # must be a real exception, not a bare assert that `python -O` strips
    code = (
        "import sys\n"
        "from ehrmat.specialize import find_lambda\n"
        "if __debug__:\n"
        "    sys.exit(2)\n"
        "try:\n"
        "    find_lambda([(2, -1)], 2)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n")
    src = str(Path(ehrmat.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "pairs to zero" in proc.stdout


def _primes_upto(m):
    return [p for p in range(2, m + 1)
            if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def _fractions(betas):
    # the weights w_l of one term, the coefficients of x^l, rebuilt from
    # the even numerators of its |beta| multiset and sigma = sum beta:
    # sum_i V_i (2x - sigma)^(s-2i) / D, D = R^s s! (-1)^s prod beta,
    # R = 2Q, Q the product of the primes <= s + 1
    s = len(betas)
    v = weights(tuple(sorted(map(abs, betas))))
    assert len(v) == s // 2 + 1 and all(type(x) is int for x in v)
    sigma = sum(betas)
    d = ((2 * prod(_primes_upto(s + 1))) ** s * factorial(s) * (-1) ** s
         * prod(betas))
    w = [Fraction(0)] * (s + 1)
    for i, vi in enumerate(v):
        e = s - 2 * i
        for l in range(e + 1):
            w[l] += Fraction(vi * comb(e, l) * 2 ** l * (-sigma) ** (e - l),
                             d)
    return w


def test_weights_empty_denominator():
    assert weights(()) == (1,)
    assert _fractions([]) == fraction_weights([]) == [Fraction(1)]


def test_weights_one_dimensional():
    # s = 1: one numerator V_0 = Q = 2, over R s! (-1) beta = -4 beta
    assert weights((3,)) == (2,)
    w = _fractions([3])
    assert w == fraction_weights([3])
    assert w[1] == Fraction(-1, 3)
    assert w[0] == Fraction(1, 2)
    assert _fractions([-3]) == fraction_weights([-3]) \
        == [Fraction(1, 2), Fraction(1, 3)]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-8, 8).filter(bool), max_size=8))
def test_weights_match_fraction_reference(betas):
    # signed pairings: the full weights rebuilt from weights(sorted
    # |beta|) and sigma against the Todd series of the factors
    assert _fractions(betas) == fraction_weights(betas)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(-20, 20).filter(bool), min_size=9, max_size=14))
def test_long_weights_match_fraction_reference(betas):
    # the orders where Q^s and M_s grow fastest; U(n,3) reaches s = 2n - 4
    assert _fractions(betas) == fraction_weights(betas)


def _product_form_weights(magnitudes):
    # the even part as the truncated product of its factors
    # g(R beta t) = sum_n R^n g_n beta^n t^n, one series product per
    # beta, scaled into V_i as `weights` documents
    s = len(magnitudes)
    q = prod(_primes_upto(s + 1))
    g = even_todd_series(s)
    acc = (1,)
    for beta in magnitudes:
        acc = series_mul_trunc(
            tuple((2 * q * beta) ** n * gn for n, gn in enumerate(g)), acc, s)
    acc += (0,) * (s + 1 - len(acc))
    return tuple(factorial(s) // factorial(s - 2 * i) * q ** (s - 2 * i)
                 * acc[2 * i] for i in range(s // 2 + 1))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 20), max_size=12))
def test_weights_match_product_form(magnitudes):
    # the even power-sum recurrence against the product of the factors
    magnitudes = tuple(sorted(magnitudes))
    assert weights(magnitudes) == _product_form_weights(magnitudes)


def test_todd_scaled_is_integral_up_to_order_40():
    # b_n from the series reciprocal of (1 - exp(-x)) / x, not from c_n;
    # by von Staudt-Clausen b_n Q^n is an integer when Q is the product
    # of the primes <= m + 1 and n <= m
    b = _h_oracle(Fraction(1), 40)
    c = todd_c(40)
    for m in range(41):
        q, scaled = _todd_scaled(m)
        assert q == prod(_primes_upto(m + 1))
        assert len(scaled) == m + 1
        for n, bq in enumerate(scaled):
            assert type(bq) is int
            assert bq == Fraction(c[n], factorial(n) * factorial(n + 1)) \
                * q ** n == b[n] * q ** n


def test_even_part_is_integral_up_to_order_40():
    # g(u) = (u/2) / sinh(u/2) from its own series reciprocal: g is
    # even, R^n g_n is an integer for R = 2Q and n <= m, equal to
    # (2 - 2^n) Q^n b_n, and the halved log-derivative coefficients of
    # g(Rt), read off its series by Newton's identity, are the a_i of
    # `_even_row`; so every product of the factors g(R |beta| t), and
    # every numerator of `weights`, is an integer up to order 40
    g = even_todd_series(40)
    b = _h_oracle(Fraction(1), 40)
    assert g[:3] == [1, 0, Fraction(-1, 24)]
    for m in range(41):
        q, scaled = _todd_scaled(m)
        r = 2 * q
        gr = [r ** n * gn for n, gn in enumerate(g[:m + 1])]
        log_derivative = [Fraction(0)]
        for n in range(1, m + 1):
            log_derivative.append(n * gr[n] - sum(
                log_derivative[k] * gr[n - k] for k in range(1, n)))
        for n in range(m + 1):
            assert gr[n].denominator == 1
            assert gr[n] == (0 if n % 2 else (2 - 2 ** n) * scaled[n])
            if n:
                assert log_derivative[n] == (0 if n % 2 else -r ** n * b[n])
        half, scale = _even_row(m)
        assert list(half) == [log_derivative[2 * i] / 2
                              for i in range(1, m // 2 + 1)]
        assert all(type(a) is int for a in half + scale)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-8, 8).filter(bool), max_size=7)
                .map(lambda b: tuple(sorted(b))), max_size=20))
def test_weights_do_not_depend_on_call_order(tuples):
    # weights reads its Todd row and scale row off caches kept per s;
    # tuples of mixed s in any order must still give the reference weights
    for betas in tuples:
        assert _fractions(betas) == fraction_weights(betas)


@settings(max_examples=100, deadline=None)
@given(st.one_of(matroid_specs(), polymatroid_specs()))
def test_specialization_matches_fraction_reference(spec):
    # lambda = (1, ..., n) with per-class integer sums against the
    # moment-curve lambda with per-term Fraction sums; a count is the
    # polynomial's value, the reference's the sum over the dilated terms
    g = build_genfun(spec)
    # every term is a full-dimensional cone, the one order specialized
    assert all(len(t.bs) == g.dim for t in g.terms)
    p = ehrhart_polynomial(g)
    assert p == reference_ehrhart_polynomial(g)
    for k in range(1, 4):
        assert count(p, k) == reference_count(dilate(g, k))


def test_segment_count_by_hand_terms():
    # [0, 1]: closed cone at 0 with ray +1, open cone at 1 with ray -1
    g = GenFun([GenFunTerm((0,), (0,), [(1,)]),
                GenFunTerm((1,), (1,), [(-1,)])], 1, 1)
    assert count(ehrhart_polynomial(g), 1) == 2


def test_mixed_orders_by_hand():
    # the closed vertex cones of the unit square (s = 2) and of the unit
    # segments along e1 and e2 (s = 1) in one GenFun of dimension 2: no
    # polytope's pieces have fewer rays than its dimension, so the
    # segments' terms are rejected, not specialized
    square = [((0, 0), [(1, 0), (0, 1)]), ((1, 0), [(-1, 0), (0, 1)]),
              ((0, 1), [(1, 0), (0, -1)]), ((1, 1), [(-1, 0), (0, -1)])]
    segments = [((0, 0), [(1, 0)]), ((1, 0), [(-1, 0)]),
                ((0, 0), [(0, 1)]), ((0, 1), [(0, -1)])]
    g = GenFun([GenFunTerm(v, v, bs) for v, bs in square], 2, 2)
    assert ehrhart_polynomial(g) == reference_ehrhart_polynomial(g) \
        == (1, 2, 1)
    g = GenFun([GenFunTerm(v, v, bs) for v, bs in square + segments],
               2, 2)
    with pytest.raises(AssertionError,
                       match="a term has 1 rays in dimension 2"):
        ehrhart_polynomial(g)


def test_groups_share_pairings_across_products_and_orders():
    # n = 1, so a term's value does not depend on lambda's length and
    # any terms of one order may be summed. The first three terms have
    # numerator pairing 1 + 0 k and products 6, -5 and 4, so one group
    # holds terms whose weights differ in denominator; two more share
    # the pairing 5 + 3 k with products 4 and -7, so M = 420. Summing a
    # group's weights unscaled gives another polynomial
    def term(a, v, betas):
        return GenFunTerm((a,), (v,), [(x,) for x in betas])

    g = GenFun([term(1, 0, [2, 3]), term(1, 0, [1, -5]),
                term(1, 0, [-1, -4]), term(8, 3, [2, 2]),
                term(8, 3, [7, -1])], 1, 2)
    p = ehrhart_polynomial(g)
    assert p == reference_ehrhart_polynomial(g)
    assert len(p) == 3 and p[2] != 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda s: st.tuples(
    st.just(s),
    st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000),
                       st.lists(st.integers(-20, 20).filter(bool),
                                min_size=s, max_size=s)),
             min_size=1, max_size=12))))
def test_signed_terms_match_reference(case):
    # n = 1 terms of one order s = dim with pairings of both signs: the
    # groups are summed as one integer in base 2^bits, and its
    # coefficients, of either sign, must come back exactly
    s, terms = case
    g = GenFun([GenFunTerm((a,), (v,), [(x,) for x in betas])
                for a, v, betas in terms], 1, s)
    assert ehrhart_polynomial(g) == reference_ehrhart_polynomial(g)


def test_checks_raise_under_optimize():
    # the integrality of b_n Q^n and the order of every term must be
    # real exceptions, not bare asserts.
    # c_4 = 1 in place of -4 makes b_4 Q^4 = 30^4 / 2880 non-integral
    code = (
        "import sys\n"
        "from ehrmat import specialize\n"
        "from ehrmat.genfun import GenFun, GenFunTerm\n"
        "if __debug__:\n"
        "    sys.exit(2)\n"
        "specialize.todd_c = lambda m: [1, 1, 1, 0, 1][:m + 1]\n"
        "try:\n"
        "    specialize._todd_scaled(4)\n"
        "    sys.exit(1)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    specialize.ehrhart_polynomial(GenFun(\n"
        "        [GenFunTerm((1,), (1,), [(1,)])], 1, 0))\n"
        "    sys.exit(1)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n")
    src = str(Path(ehrmat.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "specialize: b_4 Q^4 is not an integer at order 4",
        "specialize: a term has 1 rays in dimension 0"]


def test_count_examples():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(4, 2))
    g = build_genfun(spec)
    p = ehrhart_polynomial(g)
    assert count(p, 1) == reference_count(g) == 6
    # C(7,3) - 4*C(4,3) = 35 - 16
    assert count(p, 2) == reference_count(dilate(g, 2)) == 19


def test_count_rejects_values_that_are_no_counts():
    # a value that is not a non-negative integer is a broken invariant
    for p in [(Fraction(1), Fraction(1, 2)), (Fraction(1), Fraction(-2))]:
        with pytest.raises(AssertionError, match="non-negative integer"):
            count(p, 1)


def test_ehrhart_segment():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(2, 1))
    p = ehrhart_polynomial(build_genfun(spec))
    assert p == (Fraction(1), Fraction(1))  # k + 1


def test_ehrhart_constant_term_and_consistency():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(5, 2))
    g = build_genfun(spec)
    p = ehrhart_polynomial(g)
    assert p[0] == 1
    assert p[-1] > 0
    for k in range(1, len(p)):
        assert count(p, k) == reference_count(dilate(g, k))

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrmat.exactmath import poly_eval, series_mul_trunc
from ehrmat.genfun import GenFun, GenFunTerm, build_genfun, dilate
from ehrmat.matroid import RankFunction
from ehrmat.specialize import (
    count, ehrhart_polynomial, find_lambda, todd_c, todd_eval, todd_series,
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
    assert find_lambda([(1, 0)], 2) == (1, 0)
    assert find_lambda([(1, -1)], 2) == (1, 0)
    assert find_lambda([(1, -1), (-1, 1)], 2) == (1, 0)
    # (1, -1) and (0, 1) both nonzero against lambda(1) = (1, 1)? pairing
    # of (1,-1) with (1,1) is 0, so the scan must move past xi = 1
    lam = find_lambda([(1, -1), (0, 1)], 2)
    assert lam[0] * 1 + lam[1] * (-1) != 0 and lam[1] != 0


def test_find_lambda_rejects_zero_exponent():
    with pytest.raises(ValueError):
        find_lambda([(0, 0)], 2)


def test_weights_empty_denominator():
    assert weights([]) == [Fraction(1)]


def test_weights_one_dimensional():
    beta = Fraction(3)
    w = weights([beta])
    assert w[1] == -1 / beta
    assert w[0] == Fraction(1, 2)


def test_segment_count_by_hand_terms():
    # [0, 1]: closed cone at 0 with ray +1, open cone at 1 with ray -1
    g = GenFun([GenFunTerm(1, (0,), (0,), [(1,)]),
                GenFunTerm(1, (1,), (1,), [(-1,)])], 1, 1)
    assert count(g) == 2


def test_count_examples():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(4, 2))
    g = build_genfun(spec)
    assert count(g) == 6
    assert count(dilate(g, 2)) == 19  # C(7,3) - 4*C(4,3) = 35 - 16


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
        assert poly_eval(p, k) == count(dilate(g, k))

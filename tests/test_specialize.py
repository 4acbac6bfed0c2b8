import os
import subprocess
import sys
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dilate, fraction_weights, reference_count, reference_ehrhart_polynomial,
    todd_eval, todd_series,
)
from test_bruteforce import matroid_specs, polymatroid_specs

import ehrmat
from ehrmat.exactmath import series_mul_trunc
from ehrmat.genfun import GenFun, GenFunTerm, build_genfun
from ehrmat.matroid import RankFunction
from ehrmat.specialize import (
    _denominator, count, ehrhart_polynomial, find_lambda, todd_c, weights,
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


def _fractions(betas):
    # the weights w_l = W_l / D of one term
    w = weights(tuple(sorted(betas)))
    d = _denominator(len(betas), prod(betas))
    return [Fraction(x, d) for x in w]


def test_weights_empty_denominator():
    assert weights(()) == (1,)
    assert _fractions([]) == fraction_weights([]) == [Fraction(1)]


def test_weights_one_dimensional():
    w = _fractions([3])
    assert w == fraction_weights([3])
    assert w[1] == Fraction(-1, 3)
    assert w[0] == Fraction(1, 2)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-8, 8).filter(bool), max_size=8))
def test_weights_match_fraction_reference(betas):
    assert _fractions(betas) == fraction_weights(betas)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-8, 8).filter(bool), max_size=7)
                .map(lambda b: tuple(sorted(b))), max_size=20))
def test_weights_do_not_depend_on_call_order(tuples):
    # weights extends the prefix product of the previous new tuple; with
    # an empty cache, tuples of mixed s in any order must still give the
    # reference weights
    weights.cache_clear()
    for betas in tuples:
        w = weights(betas)
        d = _denominator(len(betas), prod(betas))
        assert [Fraction(x, d) for x in w] == fraction_weights(betas)


@settings(max_examples=100, deadline=None)
@given(st.one_of(matroid_specs(), polymatroid_specs()))
def test_specialization_matches_fraction_reference(spec):
    # lambda = (1, ..., n) with per-class integer sums against the
    # moment-curve lambda with per-term Fraction sums; a count is the
    # polynomial's value, the reference's the sum over the dilated terms
    g = build_genfun(spec)
    p = ehrhart_polynomial(g)
    assert p == reference_ehrhart_polynomial(g)
    for k in range(1, 4):
        assert count(p, k) == reference_count(dilate(g, k))


def test_segment_count_by_hand_terms():
    # [0, 1]: closed cone at 0 with ray +1, open cone at 1 with ray -1
    g = GenFun([GenFunTerm(1, (0,), (0,), [(1,)]),
                GenFunTerm(1, (1,), (1,), [(-1,)])], 1, 1)
    assert count(ehrhart_polynomial(g), 1) == 2


def test_signed_terms_by_hand():
    # [0, 3k - 1]: the cone at 0 with ray +1 minus the cone at 3k
    g = GenFun([GenFunTerm(1, (0,), (0,), [(1,)]),
                GenFunTerm(-1, (3,), (3,), [(1,)])], 1, 1)
    p = ehrhart_polynomial(g)
    assert p == reference_ehrhart_polynomial(g) == (0, 3)
    assert count(p, 1) == reference_count(g) == 3
    assert count(p, 2) == reference_count(dilate(g, 2)) == 6


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

from fractions import Fraction

import pytest

from ehrmat import hstar
from ehrmat.exactmath import binomial, poly_eval, poly_mul
from ehrmat.hstar import (
    conjecture_report, ehrhart_to_hstar, hstar_rank2, hstar_rank3,
    hstar_sum_identity, is_symmetric, is_unimodal, katzman,
    partial_unimodality_scan, trim_trailing_zeros,
    uniform_conjecture_report, uniform_ehrhart, uniform_hstar,
)
from oracles import (
    katzman_multinomial, katzman_rankrel, uniform_hstar_triple_sum,
)

K4_EHRHART = tuple(Fraction(x) for x in
                   ("1", "107/30", "21/4", "49/12", "7/4", "7/20"))
Q6_EHRHART = tuple(Fraction(x) for x in
                   ("1", "109/30", "23/4", "59/12", "9/4", "9/20"))


def test_transform_k4():
    assert ehrhart_to_hstar(K4_EHRHART, 5) == (1, 10, 20, 10, 1, 0)


def test_transform_q6():
    assert ehrhart_to_hstar(Q6_EHRHART, 5) == (1, 12, 28, 12, 1, 0)


def test_transform_point():
    assert ehrhart_to_hstar((Fraction(1),), 0) == (1,)


def test_transform_rejects_non_ehrhart_input():
    with pytest.raises(ValueError):
        ehrhart_to_hstar((Fraction(1), Fraction(1, 3)), 1)
    with pytest.raises(ValueError):
        ehrhart_to_hstar((Fraction(1), Fraction(1)), 0)


def test_sum_identity():
    h = ehrhart_to_hstar(K4_EHRHART, 5)
    assert hstar_sum_identity(h, K4_EHRHART, 5)
    assert sum(h) == 42


def test_katzman_rank2_is_binomials():
    for n in range(1, 8):
        assert katzman(n, 2) == tuple(binomial(n, j) for j in range(n + 1))


def test_katzman_small_cases():
    assert katzman(2, 3) == (1, 2, 3, 2, 1)
    assert katzman(5, 1) == (1,)


def test_katzman_equals_power_of_geometric_sum(monkeypatch):
    # an empty cache makes every row come from the recurrence
    monkeypatch.setattr(hstar, "_KATZMAN_CACHE", {})
    for r in range(1, 9):
        power = (1,)
        for n in range(1, 16):
            power = poly_mul(power, (1,) * r)
            assert katzman(n, r) == power, (n, r)


def test_katzman_three_routes_agree_small():
    for n in range(1, 7):
        for r in range(1, 5):
            a = katzman(n, r)
            assert a == katzman_multinomial(n, r)
            assert a == katzman_rankrel(n, r)


def test_katzman_symmetric_unimodal_small():
    for n in range(1, 12):
        for r in range(1, 5):
            a = katzman(n, r)
            assert is_symmetric(a)
            assert is_unimodal(a)


def test_is_unimodal():
    assert is_unimodal((1, 10, 20, 10, 1))
    assert not is_unimodal((1, 2, 1, 2))
    assert is_unimodal((5,))
    assert is_unimodal(())
    assert is_unimodal((3, 3, 3))


def test_is_symmetric():
    assert is_symmetric((1, 2, 1))
    assert not is_symmetric((1, 2, 3))


def test_uniform_ehrhart_values():
    p = uniform_ehrhart(4, 2)
    assert poly_eval(p, 0) == 1
    assert poly_eval(p, 1) == 6
    assert poly_eval(p, 2) == 19
    # segment
    assert uniform_ehrhart(2, 1) == (Fraction(1), Fraction(1))


def test_uniform_ehrhart_degree_is_dimension():
    for n, r in [(4, 2), (5, 2), (6, 3)]:
        assert len(uniform_ehrhart(n, r)) == n  # degree n - 1


def test_uniform_hstar_u24():
    assert trim_trailing_zeros(uniform_hstar(4, 2)) == (1, 2, 1)


def test_uniform_hstar_matches_transform_small():
    for n in range(2, 7):
        for r in range(1, n):
            p = uniform_ehrhart(n, r)
            assert uniform_hstar(n, r) == ehrhart_to_hstar(p, n - 1)


def test_uniform_hstar_equals_literal_triple_sum():
    for n in range(1, 31):
        for r in range(1, n + 1):
            assert uniform_hstar(n, r) == uniform_hstar_triple_sum(n, r), (n, r)


def test_rank2_closed_form_matches_triple_sum():
    for n in range(2, 10):
        assert hstar_rank2(n) == uniform_hstar(n, 2)


def test_rank3_closed_form_matches_triple_sum():
    for n in range(3, 10):
        assert hstar_rank3(n) == uniform_hstar(n, 3)


def test_conjecture_report_k4():
    h = ehrhart_to_hstar(K4_EHRHART, 5)
    rep = conjecture_report(K4_EHRHART, h)
    assert rep["hstarUnimodal"] and rep["ehrhartCoeffsPositive"]
    assert rep["witnessUnimodal"] is None
    assert rep["witnessPositivity"] is None


def test_conjecture_report_witnesses():
    rep = conjecture_report((Fraction(1), Fraction(0)), (1, 0, 2))
    assert not rep["hstarUnimodal"] and rep["witnessUnimodal"] == 1
    assert not rep["ehrhartCoeffsPositive"] and rep["witnessPositivity"] == 1


def test_uniform_conjecture_report_rank2_positivity():
    rep = uniform_conjecture_report(8, 2)
    assert rep["hstarUnimodal"]
    assert rep["ehrhartCoeffsPositive"]


def test_partial_unimodality_scan():
    out = partial_unimodality_scan([0, 1, 2], 20)
    assert out[0] == 3  # index 0 holds for every n
    # thresholds are non-decreasing in the index bound
    thresholds = [out[i] for i in (0, 1, 2)]
    assert all(t is not None for t in thresholds)
    assert thresholds == sorted(thresholds)

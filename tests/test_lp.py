from fractions import Fraction

import oracles as lp


def test_simple_maximization():
    # max x + y s.t. x + y + s = 1
    status, value, x = lp.simplex_max([[1, 1, 1]], [1], [1, 1, 0])
    assert status == lp.OPTIMAL
    assert value == 1


def test_infeasible():
    # x + y = -1 has no non-negative solution after sign normalization:
    # x + y = 1 and x + y = 2 simultaneously
    status, _, _ = lp.simplex_max([[1, 1], [1, 1]], [1, 2], [0, 0])
    assert status == lp.INFEASIBLE


def test_unbounded():
    # max x s.t. x - y = 0: x can grow without bound
    status, _, _ = lp.simplex_max([[1, -1]], [0], [1, 0])
    assert status == lp.UNBOUNDED


def test_exact_rational_optimum():
    # max x s.t. 3x + s = 1  =>  x = 1/3
    status, value, x = lp.simplex_max([[3, 1]], [1], [1, 0])
    assert status == lp.OPTIMAL
    assert value == Fraction(1, 3)
    assert x[0] == Fraction(1, 3)


def test_in_cone_positive_combination():
    assert lp.in_cone((1, 1), [(1, 0), (0, 1)])
    assert lp.in_cone((2, 3), [(1, 0), (0, 1)])
    assert lp.in_cone((0, 0), [(1, 0)])


def test_in_cone_outside():
    assert not lp.in_cone((1, 0), [(0, 1)])
    assert not lp.in_cone((-1, 0), [(1, 0), (0, 1)])
    assert not lp.in_cone((1, 1), [])


def test_in_cone_needs_both_generators():
    # (1, 1) is in cone{(2, 1), (1, 2)} but not in either half alone
    assert lp.in_cone((1, 1), [(2, 1), (1, 2)])
    assert not lp.in_cone((1, 1), [(2, 1)])


def test_feasible():
    assert lp.feasible([[1, 1]], [1], 2)
    assert not lp.feasible([[1, 1], [1, 1]], [1, 2], 2)

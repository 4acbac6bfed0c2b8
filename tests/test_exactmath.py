from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    det, mat_identity, mat_inverse_unimodular, series_mul_trunc,
)

from ehrmat.exactmath import (
    binomial, mat_rank, poly_eval, poly_from_values, poly_trim,
    solve_linear, vec_dot,
)

rats = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def test_det_identity():
    assert det(mat_identity(3)) == 1


def test_det_upper_triangular_unimodular():
    assert det(((1, 1), (0, 1))) == 1


def test_vec_dot_rejects_unequal_lengths():
    assert vec_dot((1, 2, 3), (4, 5, 6)) == 32
    assert vec_dot((), ()) == 0
    for u, v in [((1, 2), (1, 2, 3)), ((1,), ())]:
        with pytest.raises(ValueError):
            vec_dot(u, v)
        with pytest.raises(ValueError):
            vec_dot(v, u)


def test_det_rejects_non_square():
    import pytest
    with pytest.raises(ValueError):
        det(((1, 2, 3), (4, 5, 6)))


def _cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _cofactor_det(minor)
    return total


@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_det_matches_cofactor_expansion(m):
    assert det(tuple(map(tuple, m))) == _cofactor_det(m)


def test_interpolate_constant():
    assert poly_from_values([1, 1]) == (Fraction(1),)
    assert poly_from_values([0]) == (Fraction(0),)
    with pytest.raises(ValueError):
        poly_from_values([])


def test_interpolate_reevaluates_exactly():
    values = [1, 6, 19]
    p = poly_from_values(values)
    assert p == (1, 1, 4)
    for k, v in enumerate(values):
        assert poly_eval(p, k) == v


def test_interpolate_rejects_duplicates():
    # the Lagrange oracle that poly_from_values is checked against
    with pytest.raises(ValueError):
        oracles.poly_interpolate([(1, 2), (1, 3)])


@settings(max_examples=50)
@given(st.lists(rats, min_size=1, max_size=7))
def test_interpolate_roundtrip(coeffs):
    p = poly_trim(tuple(coeffs))
    values = [poly_eval(p, k) for k in range(len(p))]
    assert poly_from_values(values) == p
    assert poly_from_values(values) == oracles.poly_interpolate(
        list(enumerate(values)))


def test_series_mul_trunc_drops_high_terms():
    one_plus_x = (Fraction(1), Fraction(1))
    assert series_mul_trunc(one_plus_x, one_plus_x, 1) == (
        Fraction(1), Fraction(2))
    half = (Fraction(1), Fraction(1, 2))
    assert series_mul_trunc(half, half, 2) == (
        Fraction(1), Fraction(1), Fraction(1, 4))


def test_binomial():
    assert binomial(4, 2) == 6
    assert binomial(7, 3) == 35
    assert binomial(5, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0


@given(rats, rats, rats)
def test_rational_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


def test_solve_linear_consistent_overdetermined():
    # x = 2, y = 3 seen through three equations
    rows = [[1, 0], [0, 1], [1, 1]]
    assert solve_linear(rows, [2, 3, 5]) == [2, 3]
    assert solve_linear(rows, [2, 3, 6]) is None


def test_unimodular_inverse():
    m = ((1, 2), (1, 3))
    inv = mat_inverse_unimodular(m)
    assert oracles.mat_mul(m, inv) == mat_identity(2)


@st.composite
def unimodular_matrices(draw):
    """I transformed by random integer row operations: adding a multiple
    of one row to another, swapping two rows, negating a row."""
    n = draw(st.integers(1, 6))
    m = [list(row) for row in mat_identity(n)]
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            c = draw(st.integers(-3, 3))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "negate":
            m[i] = [-x for x in m[i]]
    return tuple(map(tuple, m))


@settings(max_examples=100)
@given(unimodular_matrices())
def test_unimodular_inverse_random(m):
    assert det(m) in (1, -1)
    inv = mat_inverse_unimodular(m)
    assert oracles.mat_mul(m, inv) == mat_identity(len(m))
    assert inv == oracles.fraction_mat_inverse_unimodular(m)


def test_unimodular_inverse_rejects_det_2_and_singular():
    import pytest
    with pytest.raises(ValueError, match="not unimodular"):
        mat_inverse_unimodular(((1, 1), (-1, 1)))
    with pytest.raises(ValueError, match="singular"):
        mat_inverse_unimodular(((1, 2), (2, 4)))


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_full_rank_iff_nonzero_det(m):
    m = tuple(map(tuple, m))
    assert (mat_rank(m) == len(m)) == (det(m) != 0)


@st.composite
def integer_systems(draw):
    """An m x n integer matrix (m, n <= 7) with some rows forced to be
    integer combinations of earlier rows and some large entries, plus a
    right-hand side, random or in the column space."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    entries = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            row = [0] * n
            for r in rows:
                c = draw(st.integers(-2, 2))
                row = [x + c * y for x, y in zip(row, r)]
        else:
            row = draw(st.lists(entries, min_size=n, max_size=n))
        rows.append(row)
    order = draw(st.permutations(range(m)))
    rows = [tuple(rows[i]) for i in order]
    if draw(st.booleans()):
        rhs = draw(st.lists(entries, min_size=m, max_size=m))
    else:  # consistent by construction
        x = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rhs = [vec_dot(row, x) for row in rows]
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_integer_kernel_matches_fraction_reference(system):
    rows, rhs = system
    assert mat_rank(rows) == oracles.fraction_mat_rank(rows)
    assert solve_linear(rows, rhs) == oracles.fraction_solve_linear(rows, rhs)
    k = min(len(rows), len(rows[0]))
    square = tuple(row[:k] for row in rows[:k])
    try:
        want = oracles.fraction_mat_inverse_unimodular(square)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            mat_inverse_unimodular(square)
    else:
        assert mat_inverse_unimodular(square) == want


def test_kernel_rejects_non_integer_entries():
    with pytest.raises(TypeError):
        mat_rank([[1, Fraction(1, 2)], [0, 1]])
    with pytest.raises(TypeError):
        solve_linear([[1, 0], [0, 1]], [2.0, 1])

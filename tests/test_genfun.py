import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import ehrmat
from ehrmat import corpus, specialize
from ehrmat.cones import HalfOpenSimplicialCone
from ehrmat.genfun import (
    GenFunTerm, affine_lattice_basis, build_genfun, dilate,
    term_lattice_points_in_box, to_working, unimodular_term,
)
from ehrmat.matroid import RankFunction
from ehrmat.vertices import BASES_POLYTOPE, PolytopeSpec


def test_unimodular_term_closed_1d():
    cone = HalfOpenSimplicialCone((0,), [(1,)], [False])
    t = unimodular_term(cone)
    # z^0 / (1 - z): series 1 + z + z^2 + ...
    assert t.a == (0,) and t.bs == [(1,)]
    assert term_lattice_points_in_box(t, (0,), (3,)) == [
        (0,), (1,), (2,), (3,)]


def test_unimodular_term_open_1d():
    cone = HalfOpenSimplicialCone((0,), [(1,)], [True])
    t = unimodular_term(cone)
    # open facet shifts the numerator: z / (1 - z) = z + z^2 + ...
    assert t.a == (1,)
    assert term_lattice_points_in_box(t, (0,), (3,)) == [(1,), (2,), (3,)]


def test_term_rejects_zero_denominator():
    with pytest.raises(ValueError):
        GenFunTerm(1, (0,), (0,), [(0,)])


def test_unimodular_term_rejects_fractional_apex():
    cone = HalfOpenSimplicialCone((Fraction(1, 2),), [(1,)], [False])
    with pytest.raises(ValueError):
        unimodular_term(cone)


def test_affine_lattice_basis_segment():
    basis = affine_lattice_basis([(1, 0), (0, 1)])
    assert len(basis) == 1
    assert basis[0] in [(1, -1), (-1, 1)]
    assert to_working(basis, (-1, 1)) in [(1,), (-1,)]


def test_affine_lattice_basis_full_dim():
    basis = affine_lattice_basis([(0, 0), (1, 0), (0, 1)])
    assert len(basis) == 2


def test_affine_lattice_basis_point():
    assert affine_lattice_basis([(1, 1)]) == []


def test_segment_genfun():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(2, 1))
    g = build_genfun(spec)
    assert len(g.terms) == 2
    assert g.dim == 1
    assert specialize.count(g) == 2
    assert specialize.count(dilate(g, 2)) == 3


def test_point_polytope():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(3, 3))
    g = build_genfun(spec)
    assert g.dim == 0 and len(g.terms) == 1
    assert specialize.count(g) == 1
    assert specialize.ehrhart_polynomial(g) == (Fraction(1),)


def test_dilate_identity_and_composition():
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(4, 2))
    g = build_genfun(spec)
    assert dilate(g, 1) is g
    g6 = dilate(g, 6)
    g23 = dilate(dilate(g, 2), 3)
    for t1, t2 in zip(g6.terms, g23.terms):
        assert (t1.a, t1.v, t1.bs) == (t2.a, t2.v, t2.bs)
    with pytest.raises(ValueError):
        dilate(g, 0)


def test_k4_vertex_pieces_partition_tangent_cone():
    # the half-open pieces at one vertex cover each lattice point of
    # that vertex's tangent cone exactly once (box radius 2)
    from ehrmat.genfun import half_open_contains
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    g = build_genfun(spec)
    apex = tuple(1 if i in {1, 2, 3} else 0 for i in range(1, 7))
    terms = [t for t in g.terms if t.v == apex]
    assert len(terms) == 3
    f = spec.f
    active = []
    for mask in range(1, 1 << 6):
        a = frozenset(i + 1 for i in range(6) if mask >> i & 1)
        if sum(apex[i - 1] for i in a) == f.rank(a):
            active.append((a, f.rank(a)))

    def in_tangent_cone(pt):
        # the tangent cone is cut out by the constraints tight at the apex
        if sum(pt) != 3:
            return False
        if any(pt[c] < 0 for c in range(6) if apex[c] == 0):
            return False
        return all(sum(pt[i - 1] for i in a) <= val for a, val in active)

    for pt in product(*(range(apex[c] - 2, apex[c] + 3) for c in range(6))):
        hits = 0
        for t in terms:
            # openness is folded into a, so all facets read as closed
            if half_open_contains(t.a, t.bs, [False] * len(t.bs), pt):
                hits += 1
        assert hits == (1 if in_tangent_cone(pt) else 0), pt


def test_k4_vertex_contributes_three_cones():
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    g = build_genfun(spec)
    apex = tuple(1 if i in {1, 2, 3} else 0 for i in range(1, 7))
    assert sum(1 for t in g.terms if t.v == apex) == 3
    assert len(g.terms) >= 16  # every vertex contributes at least one cone


def _eval_genfun(g, z):
    def power(expo):
        val = Fraction(1)
        for zi, e in zip(z, expo):
            val *= Fraction(zi) ** e
        return val

    total = Fraction(0)
    for t in g.terms:
        denom = Fraction(1)
        for b in t.bs:
            factor = 1 - power(b)
            assert factor != 0, "evaluation point hit a pole"
            denom *= factor
        total += t.sign * power(t.a) / denom
    return total


def _lattice_points(spec, k=1):
    caps = [k * spec.f.rank(frozenset({i + 1})) for i in range(spec.n)]
    return [pt for pt in product(*(range(c + 1) for c in caps))
            if spec.contains_scaled(pt, k)]


@pytest.mark.parametrize("name", ["K4", "W3_whirl", "Q6", "P6", "R6"])
def test_rational_evaluation_matches_lattice_point_sum(name):
    # g(z) evaluated at a generic rational point equals the finite sum
    # of z^m over the polytope's lattice points
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function(name))
    g = build_genfun(spec)
    z = [Fraction(2, 3), Fraction(3, 5), Fraction(5, 7),
         Fraction(7, 11), Fraction(11, 13), Fraction(13, 17)]
    expected = Fraction(0)
    for pt in _lattice_points(spec):
        val = Fraction(1)
        for zi, e in zip(z, pt):
            val *= zi ** e
        expected += val
    assert _eval_genfun(g, z) == expected


def test_term_count_bound():
    # #terms <= #vertices * 2^r * n(n-1)...(n-r+1)
    spec = PolytopeSpec(BASES_POLYTOPE, corpus.rank_function("K4"))
    g = build_genfun(spec)
    n, r = 6, 3
    bound = 16 * (2 ** r) * n * (n - 1) * (n - 2)
    assert len(g.terms) <= bound


def test_to_working_rejects_unsaturated_basis_under_optimize():
    # the saturation check must be a real exception, not a bare assert
    # that `python -O` strips
    code = (
        "import sys\n"
        "from ehrmat.genfun import to_working\n"
        "if __debug__:\n"
        "    sys.exit(2)\n"
        "try:\n"
        "    to_working([(2, 0)], (1, 0))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n")
    src = str(Path(ehrmat.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "not saturated" in proc.stdout

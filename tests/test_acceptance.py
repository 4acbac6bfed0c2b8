"""Acceptance gate: nine criteria, one test (and one PASS line) each.

Reference Ehrhart rows and h*-vectors for the bundled corpus are frozen
here as exact rationals. Printed h* reference rows list entries from the
top degree down; computed vectors are ascending, so rows are compared
against the reversed, trailing-zero-trimmed transform output. The W3
whirl row carries a known inconsistency in its final entry, which is
validated through the sum identity instead.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import factorial

from oracles import (
    det, direct_sum, dual, ground_size, half_open_contains, hstar_rank2,
    hstar_sum_identity, is_symmetric, katzman_multinomial, katzman_rankrel,
    poly_mul, series_mul_trunc, todd_eval,
)

from ehrmat import bruteforce, corpus, hstar, specialize
from ehrmat.exactmath import poly_trim
from ehrmat.genfun import (
    affine_lattice_basis, build_genfun, to_working, working_chart,
)
from ehrmat.matroid import RankFunction
from ehrmat.vertices import (
    BASES_POLYTOPE, INDEPENDENCE_POLYTOPE, POLYMATROID, PolytopeSpec,
    enumerate_vertices,
)

EXPECTED_EHRHART = {
    "K4": "1 107/30 21/4 49/12 7/4 7/20",
    "W3_whirl": "1 18/5 11/2 9/2 2 2/5",
    "Q6": "1 109/30 23/4 59/12 9/4 9/20",
    "P6": "1 11/3 6 16/3 5/2 1/2",
    "R6": "1 109/30 23/4 59/12 9/4 9/20",
    "F7": "1 21/5 343/45 63/8 91/18 77/40 29/90",
    "F7_minus": "1 253/60 2809/360 33/4 193/36 61/30 121/360",
    "P7": "1 127/30 479/60 69/8 17/3 257/120 7/20",
    "AG32": "1 209/42 1981/180 881/60 119/9 95/12 499/180 89/210",
    "AG32_prime": "1 299/60 4007/360 5401/360 122/9 2911/360 1013/360 77/180",
    "R8": "1 524/105 1013/90 1379/90 125/9 743/90 257/90 136/315",
    "F8": "1 524/105 1013/90 1379/90 125/9 743/90 257/90 136/315",
    "Q8": "1 2099/420 4097/360 1877/120 128/9 337/40 1043/360 61/140",
    "S8": "1 1021/210 377/36 475/36 193/18 511/90 65/36 67/252",
    "V8": "1 2117/420 4367/360 2107/120 146/9 1133/120 1133/360 193/420",
    "T8": "1 2099/420 4097/360 1877/120 128/9 337/40 1043/360 61/140",
    "V8_plus": "1 151/30 2161/180 3103/180 143/9 1669/180 559/180 41/90",
    "L8": "1 527/105 529/45 83/5 137/9 134/15 136/45 47/105",
    "J": "1 512/105 193/18 83/6 205/18 361/60 17/9 23/84",
    "P8": "1 1051/210 2071/180 2873/180 131/9 1547/180 529/180 277/630",
    "W4_wheel": "1 135/28 3691/360 1511/120 88/9 39/8 529/360 89/420",
    "W4_whirl": "1 169/35 467/45 581/45 91/9 227/45 68/45 68/315",
}

# printed top-degree-first; the W3 whirl final entry is flagged below
EXPECTED_HSTAR_PRINTED = {
    "K4": (1, 10, 20, 10, 1),
    "W3_whirl": (1, 11, 24, 11, 10),
    "Q6": (1, 12, 28, 12, 1),
    "P6": (1, 13, 32, 13, 1),
    "R6": (1, 12, 28, 12, 1),
    "F7": (21, 98, 91, 21, 1),
    "F7_minus": (21, 101, 97, 22, 1),
    "P7": (21, 104, 103, 23, 1),
    "AG32": (1, 62, 561, 1014, 449, 48, 1),
    "AG32_prime": (1, 62, 562, 1023, 458, 49, 1),
    "R8": (1, 62, 563, 1032, 467, 50, 1),
    "F8": (1, 62, 563, 1032, 467, 50, 1),
    "Q8": (1, 62, 564, 1041, 476, 51, 1),
    "S8": (1, 44, 337, 612, 305, 40, 1),
    "V8": (1, 62, 570, 1095, 530, 57, 1),
    "T8": (1, 62, 564, 1041, 476, 51, 1),
    "V8_plus": (1, 62, 569, 1086, 521, 56, 1),
    "L8": (1, 62, 567, 1068, 503, 54, 1),
    "J": (1, 44, 339, 630, 323, 42, 1),
    "P8": (1, 62, 565, 1050, 485, 52, 1),
    "W4_wheel": (1, 38, 262, 475, 254, 37, 1),
    "W4_whirl": (1, 38, 263, 484, 263, 38, 1),
}

N6_NAMES = ["K4", "W3_whirl", "Q6", "P6", "R6"]
N7_NAMES = ["F7", "F7_minus", "P7"]
N8_NAMES = [n for n in corpus.names() if ground_size(n) == 8]


def _expected_poly(name):
    return tuple(Fraction(x) for x in EXPECTED_EHRHART[name].split())


def _descending(h):
    return tuple(reversed(poly_trim(h)))


def test_criterion_1_small_corpus_rows(pipelines):
    for name in N6_NAMES:
        res = pipelines.corpus(name)
        assert res["poly"] == _expected_poly(name), name
        got = _descending(res["hstar"])
        printed = EXPECTED_HSTAR_PRINTED[name]
        if name == "W3_whirl":
            # known-inconsistent final entry: the sum identity forces 1
            assert got[:-1] == printed[:-1]
            assert sum(res["hstar"]) == 48
            assert got[-1] == 1 and printed[-1] != 1
        else:
            assert got == printed, name
        assert hstar_sum_identity(res["hstar"], res["poly"], res["dim"])
        assert res["seconds"] < 10, (name, res["seconds"])
    print("CRITERION 1: PASS - 5 rank-3/n=6 corpus rows reproduced exactly, "
          "inconsistent W3-whirl entry flagged via the sum identity")


def test_criterion_2_large_corpus_rows(pipelines):
    for name in N7_NAMES + N8_NAMES:
        res = pipelines.corpus(name)
        assert res["poly"] == _expected_poly(name), name
        assert hstar_sum_identity(res["hstar"], res["poly"], res["dim"])
        assert _descending(res["hstar"]) == EXPECTED_HSTAR_PRINTED[name], name
        assert res["seconds"] < 120, (name, res["seconds"])
    print("CRITERION 2: PASS - all n=7 and n=8 corpus rows reproduced "
          "exactly (coefficients, h*, sum identity, under 2 min each)")


def test_criterion_3_oracle_equivalence(pipelines):
    checked = 0
    for name in N6_NAMES + N7_NAMES:
        res = pipelines.corpus(name)
        assert res["poly"] == bruteforce.ehrhart_by_interpolation(
            res["spec"]), name
        checked += 1
    for n in range(1, 8):
        for r in range(1, n + 1):
            for family in (BASES_POLYTOPE, INDEPENDENCE_POLYTOPE,
                           POLYMATROID):
                res = pipelines.uniform(n, r, family)
                assert res["poly"] == bruteforce.ehrhart_by_interpolation(
                    res["spec"]), (n, r, family)
                checked += 1
    print(f"CRITERION 3: PASS - pipeline == brute-force interpolation on "
          f"{checked} polytopes (corpus n<=7 and uniform grid, 3 families)")


def test_criterion_4_uniform_closed_forms(pipelines):
    for n in range(1, 9):
        for r in range(1, n + 1):
            closed = hstar.uniform_ehrhart(n, r)
            res = pipelines.uniform(n, r, BASES_POLYTOPE)
            assert closed == res["poly"], (n, r)
            assert closed == bruteforce.ehrhart_by_interpolation(
                res["spec"]), (n, r)
    for n in range(1, 13):
        # r == n degenerates to a point; the triple sum is an h*-vector
        # only for the (n-1)-dimensional polytopes with r < n
        assert hstar.uniform_ehrhart(n, n) == (Fraction(1),)
        for r in range(1, n):
            closed = hstar.uniform_ehrhart(n, r)
            transform = hstar.ehrhart_to_hstar(closed, len(closed) - 1)
            assert (poly_trim(hstar.uniform_hstar(n, r))
                    == poly_trim(transform)), (n, r)
    for n in range(2, 31):
        assert hstar_rank2(n) == hstar.uniform_hstar(n, 2), n
    print("CRITERION 4: PASS - uniform closed form == pipeline == brute "
          "force (n<=8); triple sum == transform (n<=12); rank-2 closed "
          "form (n<=30)")


def test_criterion_5_conjecture_scan():
    # up to the CLI's scan guard, cli.SCAN_GUARD_NMAX = 100
    t0 = time.monotonic()
    for n in range(2, 101):
        for r in range(1, n):
            h = poly_trim(hstar.uniform_hstar(n, r))
            assert hstar.is_unimodal(h), (n, r)
    elapsed = time.monotonic() - t0
    assert elapsed < 300, elapsed
    for n in range(2, 101):
        assert all(c > 0 for c in hstar.uniform_ehrhart(n, 2)), n
    print(f"CRITERION 5: PASS - uniform h* unimodal for all 1<=r<n<=100 "
          f"({elapsed:.0f}s) and rank-2 coefficient positivity for n<=100")


def test_criterion_6_katzman_identities():
    for n in range(1, 11):
        for r in range(1, 6):
            a = hstar.katzman(n, r)
            assert a == katzman_multinomial(n, r), (n, r)
            assert a == katzman_rankrel(n, r), (n, r)
    for n in range(1, 31):
        for r in range(1, 7):
            a = hstar.katzman(n, r)
            assert is_symmetric(a), (n, r)
            assert hstar.is_unimodal(a), (n, r)
    print("CRITERION 6: PASS - three Katzman routes agree (n<=10, r<=5); "
          "symmetry and unimodality hold (n<=30, r<=6)")


def _series_reciprocal(coeffs, m):
    out = [Fraction(0)] * (m + 1)
    out[0] = 1 / Fraction(coeffs[0])
    for k in range(1, m + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            cj = coeffs[j] if j < len(coeffs) else Fraction(0)
            acc += cj * out[k - j]
        out[k] = -acc / coeffs[0]
    return tuple(out)


def test_criterion_7_todd_machinery():
    assert specialize.todd_c(2) == [1, 1, 1]
    c = specialize.todd_c(10)
    for n in range(11):
        assert abs(c[n]) <= factorial(n + 1) ** (2 * n), n

    def h_oracle(xi, m):
        q = tuple(Fraction((-1) ** k) * xi ** k / factorial(k + 1)
                  for k in range(m + 1))
        return _series_reciprocal(q, m)

    rng = random.Random(7)
    for s in range(7):
        for m in range(7):
            xis = [Fraction(rng.randint(1, 6), rng.randint(1, 4))
                   * rng.choice([1, -1]) for _ in range(s)]
            oracle = (Fraction(1),)
            for xi in xis:
                oracle = series_mul_trunc(oracle, h_oracle(xi, m), m)
            want = (list(oracle) + [Fraction(0)] * (m + 1))[m]
            assert todd_eval(xis, m) == want, (s, m)
    print("CRITERION 7: PASS - Todd recursion values, series-division "
          "oracle agreement (s, m <= 6), and coefficient bound (n <= 10)")


def test_criterion_8_structural_invariants(pipelines):
    for name in corpus.names():
        res = pipelines.corpus(name)
        spec, g, poly = res["spec"], res["genfun"], res["poly"]
        chart = working_chart(affine_lattice_basis(
            enumerate_vertices(spec).vertices))
        per_vertex = {}
        for t in g.terms:
            rays_work = [to_working(chart, b) for b in t.bs]
            d = det(tuple(zip(*rays_work)))
            assert d in (1, -1), (name, t.v)
            per_vertex[t.v] = per_vertex.get(t.v, 0) + 1
        n, r = spec.n, spec.r
        bound = 2 ** r
        for i in range(r):
            bound *= n - i
        assert all(c <= bound for c in per_vertex.values()), name
        assert poly[0] == 1, name
        assert len(poly) - 1 <= g.dim, name

    # half-open pieces partition each tangent cone's box lattice points
    spec = PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(4, 2))
    g = pipelines.uniform(4, 2, BASES_POLYTOPE)["genfun"]
    by_vertex = {}
    for t in g.terms:
        by_vertex.setdefault(t.v, []).append(t)
    for apex, terms in by_vertex.items():
        for pt in product(*(range(apex[c] - 3, apex[c] + 4)
                            for c in range(4))):
            closed = [False] * len(terms[0].bs)
            in_cone = any(
                half_open_contains(t.v, t.bs, closed, pt) for t in terms)
            hits = sum(
                half_open_contains(t.a, t.bs, closed, pt) for t in terms)
            assert hits == (1 if in_cone else 0), (apex, pt)
    print("CRITERION 8: PASS - unimodular maximal cones, per-vertex cone "
          "count bound, half-open box partition, constant term 1, no "
          "coefficients above the dimension")


def test_criterion_9_dual_and_direct_sum(pipelines):
    for name in N6_NAMES + N7_NAMES:
        res = pipelines.corpus(name)
        dual_spec = PolytopeSpec(BASES_POLYTOPE,
                                 dual(corpus.rank_function(name)))
        dual_poly = specialize.ehrhart_polynomial(build_genfun(dual_spec))
        assert dual_poly == res["poly"], name
    pairs = [
        (RankFunction.uniform(2, 1), RankFunction.uniform(2, 1)),
        (RankFunction.uniform(3, 2), RankFunction.uniform(3, 2)),
        (RankFunction.uniform(4, 2), RankFunction.uniform(4, 2)),
        (corpus.rank_function("K4"), RankFunction.uniform(2, 1)),
    ]
    for f1, f2 in pairs:
        p1 = specialize.ehrhart_polynomial(
            build_genfun(PolytopeSpec(BASES_POLYTOPE, f1)))
        p2 = specialize.ehrhart_polynomial(
            build_genfun(PolytopeSpec(BASES_POLYTOPE, f2)))
        ps = specialize.ehrhart_polynomial(
            build_genfun(PolytopeSpec(BASES_POLYTOPE, direct_sum(f1, f2))))
        assert ps == poly_mul(p1, p2), (f1.n, f2.n)
    print("CRITERION 9: PASS - dual invariance (corpus n<=7) and "
          "direct-sum multiplicativity (totals n<=8)")

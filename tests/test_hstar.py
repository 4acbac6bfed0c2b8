import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from ehrmat import cli, corpus, hstar
from ehrmat.exactmath import binomial, poly_eval, poly_trim
from ehrmat.hstar import (
    ehrhart_to_hstar, is_unimodal, katzman, uniform_conjecture_report,
    uniform_ehrhart, uniform_hstar,
)
from oracles import (
    conjecture_report, hstar_rank2, hstar_rank3, hstar_sum_identity,
    is_symmetric, katzman_multinomial, katzman_rankrel,
    minimal_ehrhart, partial_unimodality_scan, poly_mul,
    uniform_ehrhart_scaled_lists, uniform_ehrhart_value, uniform_hstar_horner,
    uniform_hstar_triple_sum,
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
    # each error names its stage
    with pytest.raises(ValueError, match="^hstar: non-integral"):
        ehrhart_to_hstar((Fraction(1), Fraction(1, 3)), 1)
    with pytest.raises(ValueError, match="^hstar: polynomial degree"):
        ehrhart_to_hstar((Fraction(1), Fraction(1)), 0)
    with pytest.raises(ValueError, match="^hstar: negative"):
        ehrhart_to_hstar((Fraction(1), Fraction(-3)), 1)


def test_range_errors_name_stage():
    with pytest.raises(ValueError, match="^hstar: need n >= 1"):
        hstar.katzman(0, 2)
    with pytest.raises(ValueError, match="^hstar: need 1 <= r <= n"):
        hstar.uniform_ehrhart(2, 3)
    with pytest.raises(ValueError, match="^hstar: need 1 <= r <= n"):
        hstar.uniform_hstar(3, 0)


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


def _geometric_power(n, r):
    """(1 + T + ... + T^(r-1))^n by repeated multiplication: each
    factor makes coefficient i the sum of coefficients i-r+1..i."""
    power = [1]
    for _ in range(n):
        power = [sum(power[max(0, i - r + 1):i + 1])
                 for i in range(len(power) + r - 1)]
    return tuple(power)


def test_katzman_cache_order_does_not_matter(monkeypatch, capsys):
    # descending n, interleaved r and r > n: each request below the
    # cached n restarts from n = 1, so the call order never shows
    monkeypatch.setattr(hstar, "_KATZMAN_CACHE", {})
    calls = [(n, r) for n in range(12, 0, -1) for r in (3, 1, 7, 2, 15)]
    calls += [(5, 3), (9, 3), (2, 3), (9, 15), (1, 15), (14, 2)]
    for n, r in calls:
        assert katzman(n, r) == _geometric_power(n, r), (n, r)
    # a scan holds at most one row per r: the newest, at the largest n
    hstar._KATZMAN_CACHE.clear()
    assert cli.main(["scan-uniform", "--nmax", "20"]) == 0
    capsys.readouterr()
    assert sorted(hstar._KATZMAN_CACHE) == list(range(1, 21))
    for r, (n, row) in hstar._KATZMAN_CACHE.items():
        assert n == 20 and row == _geometric_power(n, r), r


@pytest.mark.parametrize("n, r", [
    pytest.param(5, 4, id="odd-degree-odd-n-odd-r-1"),
    pytest.param(6, 4, id="even-degree-even-n-odd-r-1"),
    pytest.param(5, 3, id="even-degree-odd-n-even-r-1"),
    pytest.param(6, 3, id="even-degree-even-n-even-r-1"),
])
def test_katzman_half_row_parity(monkeypatch, n, r):
    # each step sums entries 0..deg//2 of a row of degree deg = n(r-1)
    # and mirrors the rest: an odd degree has no middle entry, an even
    # one mirrors around it; the rows before have both parities too
    monkeypatch.setattr(hstar, "_KATZMAN_CACHE", {})
    row = katzman(n, r)
    assert len(row) == n * (r - 1) + 1
    assert row == katzman_multinomial(n, r)
    assert hstar._KATZMAN_CACHE == {r: (n, row)}


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
    assert poly_trim(uniform_hstar(4, 2)) == (1, 2, 1)


def test_uniform_hstar_matches_transform_small():
    for n in range(2, 7):
        for r in range(1, n):
            p = uniform_ehrhart(n, r)
            assert uniform_hstar(n, r) == ehrhart_to_hstar(p, n - 1)


def test_uniform_hstar_equals_literal_triple_sum():
    for n in range(1, 31):
        for r in range(1, n + 1):
            assert uniform_hstar(n, r) == uniform_hstar_triple_sum(n, r), (n, r)


@pytest.fixture(scope="module")
def horner_60():
    # the reference h*-vectors for every 1 <= r <= n <= 60, r = n
    # included, each from the Horner oracle itself, not from a dual
    return {(n, r): uniform_hstar_horner(n, r)
            for n in range(1, 61) for r in range(1, n + 1)}


def test_uniform_hstar_equals_horner_reference(monkeypatch, capsys,
                                               horner_60):
    # in scan order: every dual pair of one n from one packed transform
    monkeypatch.setattr(hstar, "_KATZMAN_CACHE", {})
    monkeypatch.setattr(hstar, "_UNIFORM_HSTAR_CACHE", {})
    for n in range(1, 61):
        hstar.cache_uniform_hstar(n, range(1, n // 2 + 1))
        for r in range(1, n + 1):
            assert uniform_hstar(n, r) == horner_60[n, r], (n, r)
    # as lone calls, descending n, from cold caches: one rank per transform
    hstar._KATZMAN_CACHE.clear()
    hstar._UNIFORM_HSTAR_CACHE.clear()
    for n in range(60, 0, -1):
        for r in range(1, n + 1):
            assert uniform_hstar(n, r) == horner_60[n, r], (n, r)
    # in scans, each transform packing the ranks its --rmax reads
    packed = hstar._uniform_hstars
    for rmax in (1, 2, 5):
        hstar._KATZMAN_CACHE.clear()
        hstar._UNIFORM_HSTAR_CACHE.clear()
        seen = []

        def recorded(n, ranks):
            out = packed(n, ranks)
            seen.append(n)
            assert list(ranks) == list(range(1, min(rmax, n // 2) + 1))
            for r, h in zip(ranks, out):
                assert h == horner_60[n, r] == horner_60[n, n - r], (n, r)
            return out

        monkeypatch.setattr(hstar, "_uniform_hstars", recorded)
        assert cli.main(["scan-uniform", "--nmax", "60",
                         "--rmax", str(rmax)]) == 0
        capsys.readouterr()
        assert seen == list(range(2, 61)), rmax


def test_scan_runs_one_transform_per_dual_pair(monkeypatch, capsys):
    # U(n, r) and U(n, n - r) share one h*-vector, and one transform of
    # n packed integers serves every pair of one n: 41 transforms for
    # n = 2..42, not one per pair or per row
    monkeypatch.setattr(hstar, "_KATZMAN_CACHE", {})
    monkeypatch.setattr(hstar, "_UNIFORM_HSTAR_CACHE", {})
    transform = hstar._times_one_minus_x_power
    calls = Counter()

    def counted(values, e):
        calls[len(values)] += 1
        return transform(values, e)

    monkeypatch.setattr(hstar, "_times_one_minus_x_power", counted)
    assert cli.main(["scan-uniform", "--nmax", "42"]) == 0
    capsys.readouterr()
    assert calls == {n: 1 for n in range(2, 43)}
    assert sum(calls.values()) == 41


def test_packed_ehrhart_numerators_equal_list_expansion():
    for n in range(1, 45):
        for r in range(1, n + 1):
            assert hstar._uniform_ehrhart_scaled(n, r) == (
                uniform_ehrhart_scaled_lists(n, r)), (n, r)
    for r in (2, 3):
        assert hstar._uniform_ehrhart_scaled(100, r) == (
            uniform_ehrhart_scaled_lists(100, r)), r


def test_undersized_digits_raise_under_optimize():
    # a digit width too small for the entries leaves digits above the
    # last one read: a broken invariant, raised as AssertionError even
    # under -O, which the CLI reports as an internal error
    code = (
        "import contextlib, io, sys\n"
        "from ehrmat import cli, hstar\n"
        "if __debug__:\n"
        "    sys.exit(2)\n"
        "hstar._digit_bytes = lambda bound: 1\n"
        "for call in (lambda: hstar.uniform_hstar(20, 10),\n"
        "             lambda: hstar.uniform_ehrhart(20, 2)):\n"
        "    try:\n"
        "        call()\n"
        "        sys.exit(1)\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(err):\n"
        "    code = cli.main(['scan-uniform', '--nmax', '20'])\n"
        "print(code, err.getvalue().strip())\n")
    src = str(Path(hstar.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    beyond = "hstar: a packed value has digits beyond the"
    lone, numerators, scan = proc.stdout.splitlines()
    assert lone == f"{beyond} 1 read, 8 bits each"
    assert numerators == f"{beyond} 20 read, 8 bits each"
    assert scan.startswith(f"{cli.EXIT_INTERNAL} internal error:"
                           f" scan-uniform: {beyond}")


def test_uniform_hstar_cache_never_serves_another_n(monkeypatch, capsys):
    # descending n, r and n - r interleaved, r = n, and calls before and
    # after a scan: the cached vector of the newest n is never returned
    # for another n
    monkeypatch.setattr(hstar, "_KATZMAN_CACHE", {})
    monkeypatch.setattr(hstar, "_UNIFORM_HSTAR_CACHE", {})
    calls = [(n, r) for n in range(14, 0, -1)
             for r in sorted({1, n, n // 2, n - n // 2, 2, n - 2})
             if 1 <= r <= n]
    calls += [(9, 4), (9, 5), (9, 9), (3, 1), (9, 4), (14, 13)]
    for n, r in calls:
        assert uniform_hstar(n, r) == uniform_hstar_horner(n, r), (n, r)
    assert cli.main(["scan-uniform", "--nmax", "12"]) == 0
    capsys.readouterr()
    for n, r in calls + [(12, 5), (12, 7), (11, 4), (12, 12), (13, 6)]:
        assert uniform_hstar(n, r) == uniform_hstar_horner(n, r), (n, r)
    # the cache holds the vectors of one n, one per r' = min(r, n - r),
    # never r = n
    ((n, entries),) = hstar._UNIFORM_HSTAR_CACHE.items()
    assert entries and all(1 <= 2 * r <= n for r in entries)


def test_uniform_ehrhart_equals_fraction_reference():
    for n in range(1, 31):
        for r in range(1, n + 1):
            p = uniform_ehrhart(n, r)
            # degree n - 1, trailing zeros trimmed; a point when r == n
            assert len(p) == (1 if r == n else n), (n, r)
            assert all(type(c) is Fraction for c in p), (n, r)
            # n values pin a polynomial of degree at most n - 1
            for k in range(n):
                assert poly_eval(p, k) == uniform_ehrhart_value(n, r, k), (
                    n, r, k)


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


def test_sparse_paving_rows_match_relaxation_identity(pipelines):
    # a sparse paving matroid of rank r on n elements with lambda
    # non-bases, all circuit-hyperplanes, has
    # ehr(t) = ehr_U(n, r)(t) - lambda ehr_T(r, n)(t - 1)
    sparse = []
    for name in corpus.names():
        doc = corpus.document(name)
        n, bases = doc["n"], set(map(frozenset, doc["bases"]))
        r = len(doc["bases"][0])
        non_bases = set(map(frozenset, combinations(range(1, n + 1), r)))
        non_bases -= bases
        if all(len(a & b) <= r - 2 for a, b in combinations(non_bases, 2)):
            sparse.append(name)
            uniform, minimal = uniform_ehrhart(n, r), minimal_ehrhart(n, r)
            poly = pipelines.corpus(name)["poly"]
            for t in range(1, n + 2):
                assert poly_eval(poly, t) == (
                    poly_eval(uniform, t)
                    - len(non_bases) * poly_eval(minimal, t - 1)), (name, t)
    assert sorted(set(corpus.names()) - set(sparse)) == [
        "J", "S8", "W4_wheel", "W4_whirl"]

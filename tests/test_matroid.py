import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    bases_rank, direct_sum_rank, dual_rank, graphic_rank,
    pairwise_matroid_axioms, pairwise_polymatroid_axioms, table_rank,
    uniform_rank,
)

from ehrmat import corpus
from ehrmat.matroid import (
    BudgetExceeded, RankFunction, check_matroid_axioms,
    check_polymatroid_axioms, guard_n,
)


def test_uniform_rank():
    f = RankFunction.uniform(6, 3)
    assert f.rank({1, 2, 3, 4}) == 3
    assert f.rank({1, 2}) == 2
    assert f.rank(frozenset()) == 0


def test_graphic_k4_full_rank():
    f = RankFunction.graphic(6, corpus.K4_EDGES)
    assert f.rank(set(range(1, 7))) == 3


def test_bases_rank_k4():
    f = corpus.rank_function("K4")
    assert f.rank({1, 2, 3}) == 3       # a basis
    assert f.rank({1, 2, 4}) == 2       # a triangle (circuit)
    assert f.is_independent({1, 2})
    assert not f.is_independent({1, 2, 4})


def test_graphic_agrees_with_bases_oracle():
    g = RankFunction.graphic(6, corpus.K4_EDGES)
    b = corpus.rank_function("K4")
    for mask in range(1 << 6):
        a = frozenset(i + 1 for i in range(6) if mask >> i & 1)
        assert g.rank(a) == b.rank(a)


def test_rank_rejects_out_of_range():
    f = RankFunction.uniform(3, 2)
    with pytest.raises(ValueError):
        f.rank({4})


def test_axioms_uniform_pass():
    ok, why = check_matroid_axioms(RankFunction.uniform(4, 2))
    assert ok, why


def test_axioms_graphic_k4_pass():
    ok, why = check_matroid_axioms(RankFunction.graphic(6, corpus.K4_EDGES))
    assert ok, why


def test_axioms_all_bundled_matroids_pass():
    for name in corpus.names():
        ok, why = check_matroid_axioms(corpus.rank_function(name))
        assert ok, f"{name}: {why}"


def test_axioms_reject_cardinality_violation():
    f = RankFunction.from_table(1, {frozenset({1}): 2})
    ok, why = check_matroid_axioms(f)
    assert not ok and "cardinality" in why


def test_polymatroid_axioms_accept_matroid_rank():
    ok, _ = check_polymatroid_axioms(RankFunction.uniform(4, 2))
    assert ok


def test_polymatroid_axioms_accept_modular():
    table = {}
    for mask in range(1, 1 << 3):
        a = frozenset(i + 1 for i in range(3) if mask >> i & 1)
        table[a] = 2 * len(a)
    ok, _ = check_polymatroid_axioms(RankFunction.from_table(3, table))
    assert ok


def test_from_table_keeps_a_listed_empty_set_value():
    f = RankFunction.from_table(1, {frozenset(): 5, frozenset({1}): 1})
    assert f.values == (5, 1)
    ok, why = check_polymatroid_axioms(f)
    assert not ok and "empty set" in why


def test_relaxation_rejects_non_circuit_hyperplane_under_optimize():
    # relaxing a set that is already a basis must be a real exception,
    # not a bare assert that `python -O` strips
    code = (
        "import sys\n"
        "from ehrmat.corpus import _relaxation_bases\n"
        "if __debug__:\n"
        "    sys.exit(2)\n"
        "try:\n"
        "    _relaxation_bases([frozenset({1, 2})], 3, 2, [{1, 2}])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n")
    src = str(Path(corpus.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "not a circuit-hyperplane" in proc.stdout


def test_polymatroid_axioms_reject_supermodular():
    table = {frozenset({1}): 1, frozenset({2}): 1, frozenset({1, 2}): 3}
    ok, why = check_polymatroid_axioms(RankFunction.from_table(2, table))
    assert not ok and "submodularity" in why


@st.composite
def rank_tables(draw):
    """Tables on n <= 5 elements: either uniformly random values, or a
    truncated weighted count min(w(A), c) (a polymatroid, and a matroid
    when every w_i is 1) with a few entries moved by +-1."""
    n = draw(st.integers(1, 5))
    subsets = [frozenset(i + 1 for i in range(n) if mask >> i & 1)
               for mask in range(1, 1 << n)]
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(-1, 3), min_size=len(subsets),
                               max_size=len(subsets)))
    else:
        w = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
        c = draw(st.integers(0, sum(w)))
        values = [min(c, sum(w[i - 1] for i in a)) for a in subsets]
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, len(subsets) - 1))
            values[k] += draw(st.sampled_from([-1, 1]))
    return RankFunction.from_table(n, dict(zip(subsets, values)))


@settings(max_examples=300)
@given(rank_tables())
def test_local_axiom_checks_match_pairwise_reference(f):
    assert (check_matroid_axioms(f)[0]
            == pairwise_matroid_axioms(f)[0])
    assert (check_polymatroid_axioms(f)[0]
            == pairwise_polymatroid_axioms(f)[0])


@settings(max_examples=30)
@given(st.integers(1, 6), st.data())
def test_rank_monotone_on_random_chains(n, data):
    r = data.draw(st.integers(0, n))
    f = RankFunction.uniform(n, r)
    chain = data.draw(st.permutations(sorted(
        data.draw(st.sets(st.integers(1, n))))))
    acc = set()
    prev = 0
    for e in chain:
        acc.add(e)
        cur = f.rank(frozenset(acc))
        assert cur >= prev
        prev = cur


def test_dual_uniform():
    f = RankFunction.uniform(5, 2).dual()
    g = RankFunction.uniform(5, 3)
    for mask in range(1 << 5):
        a = frozenset(i + 1 for i in range(5) if mask >> i & 1)
        assert f.rank(a) == g.rank(a)


def test_dual_involution():
    f = corpus.rank_function("K4")
    ff = f.dual().dual()
    for mask in range(1 << 6):
        a = frozenset(i + 1 for i in range(6) if mask >> i & 1)
        assert f.rank(a) == ff.rank(a)


def test_dual_of_k4_has_rank_3():
    d = corpus.rank_function("K4").dual()
    assert d.rank(set(range(1, 7))) == 3


def test_dual_rejects_polymatroid():
    f = RankFunction.from_table(1, {frozenset({1}): 1})
    with pytest.raises(ValueError):
        f.dual()


def test_direct_sum_rank_and_axioms():
    s = RankFunction.uniform(1, 1).direct_sum(RankFunction.uniform(1, 1))
    assert s.n == 2
    assert s.rank({1, 2}) == 2
    assert s.rank({1}) == 1
    ok, why = check_matroid_axioms(s)
    assert ok, why


def test_direct_sum_bases_count_multiplies():
    from ehrmat.vertices import enumerate_bases
    f1 = RankFunction.uniform(4, 2)
    f2 = RankFunction.uniform(3, 1)
    s = f1.direct_sum(f2)
    assert len(enumerate_bases(s)) == (
        len(enumerate_bases(f1)) * len(enumerate_bases(f2)))


def test_budget_guard(monkeypatch):
    monkeypatch.delenv("EHRMAT_BUDGET", raising=False)
    with pytest.raises(BudgetExceeded):
        guard_n(25, 20, "test")
    monkeypatch.setenv("EHRMAT_BUDGET", "30")
    guard_n(25, 20, "test")  # override lifts the limit
    with pytest.raises(BudgetExceeded):
        guard_n(31, 20, "test")


def test_rank_table_guard(monkeypatch):
    monkeypatch.delenv("EHRMAT_BUDGET", raising=False)
    with pytest.raises(BudgetExceeded):
        RankFunction.uniform(21, 2)


def _draw_matroid(draw, n_max):
    """A matroid-flagged RankFunction from the uniform, graphic or bases
    constructor, paired with its frozenset formula."""
    kind = draw(st.sampled_from(["uniform", "graphic", "bases"]))
    if kind == "uniform":
        n = draw(st.integers(0, n_max))
        r = draw(st.integers(0, n))
        return n, RankFunction.uniform(n, r), uniform_rank(r)
    if kind == "graphic":
        n = draw(st.integers(0, n_max))
        vertex = st.integers(1, 4)
        edges = draw(st.lists(st.tuples(vertex, vertex),
                              min_size=n, max_size=n))
        return n, RankFunction.graphic(n, edges), graphic_rank(edges)
    n = draw(st.integers(1, n_max))
    r = draw(st.integers(0, n))
    bases = draw(st.lists(st.frozensets(st.integers(1, n), min_size=r,
                                        max_size=r), min_size=1, max_size=5))
    return n, RankFunction.from_bases(n, bases), bases_rank(bases)


@st.composite
def rank_constructions(draw):
    """(n, RankFunction, frozenset formula) for n <= 6 from every
    constructor: uniform, graphic, bases, table, dual and direct sum."""
    kind = draw(st.sampled_from(["matroid", "table", "dual", "direct_sum"]))
    if kind == "matroid":
        return _draw_matroid(draw, 6)
    if kind == "table":
        n = draw(st.integers(1, 6))
        table = {frozenset(i + 1 for i in range(n) if mask >> i & 1):
                 draw(st.integers(-1, 4)) for mask in range(1, 1 << n)}
        return n, RankFunction.from_table(n, table), table_rank(table)
    if kind == "dual":
        n, f, ref = _draw_matroid(draw, 6)
        return n, f.dual(), dual_rank(ref, n)
    n1, f1, ref1 = _draw_matroid(draw, 3)
    n2, f2, ref2 = _draw_matroid(draw, 3)
    return n1 + n2, f1.direct_sum(f2), direct_sum_rank(ref1, n1, ref2)


@settings(max_examples=300)
@given(rank_constructions())
def test_rank_table_matches_frozenset_formulas(case):
    n, f, ref = case
    assert f.n == n and len(f.values) == 1 << n
    for mask in range(1 << n):
        a = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        assert f.values[mask] == f.rank(a) == ref(a)

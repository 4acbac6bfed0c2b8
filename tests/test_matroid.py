import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    K4_EDGES, bases_rank, direct_sum, direct_sum_rank, dual, dual_rank,
    enumerate_bases, graphic_rank, is_independent, pairwise_matroid_axioms,
    pairwise_polymatroid_axioms, relaxation_bases, table_rank, uniform_rank,
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
    f = RankFunction.graphic(K4_EDGES)
    assert f.rank(set(range(1, 7))) == 3


def test_graphic_takes_n_from_edges_and_rejects_non_pairs():
    assert RankFunction.graphic(K4_EDGES).n == 6
    for bad in ([(1, 2, 3), (2, 3)], [(1,)], [()]):
        with pytest.raises(ValueError,
                           match="^matroid: every edge must be a pair"):
            RankFunction.graphic(bad)


def test_bases_rank_k4():
    f = corpus.rank_function("K4")
    assert f.rank({1, 2, 3}) == 3       # a basis
    assert f.rank({1, 2, 4}) == 2       # a triangle (circuit)
    assert is_independent(f, {1, 2})
    assert not is_independent(f, {1, 2, 4})


def test_graphic_agrees_with_bases_oracle():
    g = RankFunction.graphic(K4_EDGES)
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
    ok, why = check_matroid_axioms(RankFunction.graphic(K4_EDGES))
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


def test_from_table_rejects_non_int_values():
    # the rule the CLI applies to documents: no float, string or bool
    for bad in (1.5, "1", True, 1.0):
        with pytest.raises(ValueError, match=r"subset \[1\] must be an"
                                             r" integer"):
            RankFunction.from_table(1, {frozenset({1}): bad})
    with pytest.raises(ValueError, match=r"subset \[\] must be"):
        RankFunction.from_table(1, {frozenset(): False,
                                    frozenset({1}): 1})
    assert RankFunction.from_table(1, {frozenset({1}): 1}).values == (0, 1)


def test_relaxation_error_names_stage():
    # the reference relaxations refuse a set that is already a basis
    with pytest.raises(ValueError, match="^corpus: not a circuit-hyperplane"):
        relaxation_bases([frozenset({1, 2})], 2, [{1, 2}])


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


@pytest.mark.parametrize("n", range(9))
def test_uniform_tables_are_matroids(n):
    # a `uniform` document is parsed without an axiom walk, so the
    # constructor's tables are checked here
    for r in range(n + 1):
        f = RankFunction.uniform(n, r)
        assert check_matroid_axioms(f) == (True, None), (n, r)
        assert pairwise_matroid_axioms(f) == (True, None), (n, r)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                max_size=8))
def test_graphic_tables_are_matroids(edges):
    # likewise for `graphic` documents: loops and parallel edges included
    f = RankFunction.graphic(edges)
    assert check_matroid_axioms(f) == (True, None)
    assert pairwise_matroid_axioms(f) == (True, None)


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
    f = dual(RankFunction.uniform(5, 2))
    g = RankFunction.uniform(5, 3)
    for mask in range(1 << 5):
        a = frozenset(i + 1 for i in range(5) if mask >> i & 1)
        assert f.rank(a) == g.rank(a)


def test_dual_involution():
    f = corpus.rank_function("K4")
    ff = dual(dual(f))
    for mask in range(1 << 6):
        a = frozenset(i + 1 for i in range(6) if mask >> i & 1)
        assert f.rank(a) == ff.rank(a)


def test_dual_of_k4_has_rank_3():
    d = dual(corpus.rank_function("K4"))
    assert d.rank(set(range(1, 7))) == 3


def test_dual_rejects_polymatroid():
    # f({1}) = 2 is a polymatroid that breaks rank(X) <= |X|; the table
    # {1}: 1 would be U(1,1), a matroid whatever built it
    f = RankFunction.from_table(1, {frozenset({1}): 2})
    with pytest.raises(ValueError):
        dual(f)


def test_direct_sum_rank_and_axioms():
    s = direct_sum(RankFunction.uniform(1, 1), RankFunction.uniform(1, 1))
    assert s.n == 2
    assert s.rank({1, 2}) == 2
    assert s.rank({1}) == 1
    ok, why = check_matroid_axioms(s)
    assert ok, why


def test_direct_sum_bases_count_multiplies():
    f1 = RankFunction.uniform(4, 2)
    f2 = RankFunction.uniform(3, 1)
    s = direct_sum(f1, f2)
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
    # a table's size check would build 1 << n first
    with pytest.raises(BudgetExceeded):
        RankFunction.from_table(64, {})


def test_negative_n_is_rejected_by_name():
    # no ground set has -1 elements: each constructor that takes n
    # rejects it, naming n, before 1 << n is taken
    for make in (lambda: RankFunction.from_bases(-1, [[]]),
                 lambda: RankFunction.from_bases(-1, [[1]]),
                 lambda: RankFunction.from_table(-1, {})):
        with pytest.raises(ValueError, match="n = -1"):
            make()


@st.composite
def equal_size_lists(draw):
    """(n, a list of r-subsets of {1, ..., n}) for n <= 9: random sets,
    so basis exchange mostly fails, repeats allowed."""
    n = draw(st.integers(1, 9))
    r = draw(st.integers(0, n))
    subset = st.permutations(range(1, n + 1)).map(lambda p: frozenset(p[:r]))
    return n, draw(st.lists(subset, min_size=1, max_size=12))


@settings(max_examples=150, deadline=None)
@given(equal_size_lists())
def test_from_bases_table_is_largest_intersection(case):
    # the downward closure against max_B |A & B| taken for every A,
    # matroid bases or not
    n, bases = case
    f = RankFunction.from_bases(n, bases)
    ref = bases_rank(bases)
    for mask in range(1 << n):
        a = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        assert f.values[mask] == ref(a)


def _draw_matroid(draw, n_max):
    """A RankFunction from the uniform, graphic or bases constructor,
    paired with its frozenset formula. The drawn bases need not satisfy
    basis exchange."""
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
        return n, RankFunction.graphic(edges), graphic_rank(edges)
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
        assume(pairwise_matroid_axioms(f)[0])
        return n, dual(f), dual_rank(ref, n)
    n1, f1, ref1 = _draw_matroid(draw, 3)
    n2, f2, ref2 = _draw_matroid(draw, 3)
    assume(pairwise_matroid_axioms(f1)[0] and pairwise_matroid_axioms(f2)[0])
    return n1 + n2, direct_sum(f1, f2), direct_sum_rank(ref1, n1, ref2)


@settings(max_examples=300)
@given(rank_constructions())
def test_rank_table_matches_frozenset_formulas(case):
    n, f, ref = case
    assert f.n == n and len(f.values) == 1 << n
    for mask in range(1 << n):
        a = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        assert f.values[mask] == f.rank(a) == ref(a)

"""Hypothesis strategies for polytope specs that more than one test
module draws from."""

from hypothesis import strategies as st

from ehrmat.matroid import RankFunction
from ehrmat.vertices import INDEPENDENCE_POLYTOPE, POLYMATROID, PolytopeSpec


@st.composite
def truncated_sum_specs(draw):
    """Polymatroids on n <= 6 elements: min(w(A), c) plus a non-negative
    combination of uniform matroid ranks min(|A|, r). Zero weights,
    c = 0 and c >= w([n]) give vertices with zero coordinates and
    degenerate vertices."""
    n = draw(st.integers(1, 6))
    w = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    c = draw(st.integers(0, sum(w) + 2))
    uniforms = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(0, n)),
                             max_size=2))
    table = {}
    for mask in range(1, 1 << n):
        a = [i for i in range(n) if mask >> i & 1]
        table[frozenset(i + 1 for i in a)] = (
            min(c, sum(w[i] for i in a))
            + sum(k * min(len(a), r) for k, r in uniforms))
    return PolytopeSpec(POLYMATROID, RankFunction.from_table(n, table))


@st.composite
def independence_specs(draw):
    """Independence polytope of a cycle matroid of a random multigraph
    with n <= 7 edges on 5 vertices, loops and parallel edges allowed,
    truncated at rank t."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(1, 5)
    g = RankFunction.graphic(draw(st.lists(st.tuples(vertex, vertex),
                                           min_size=n, max_size=n)))
    t = draw(st.integers(0, n))
    f = RankFunction(n, lambda m: min(g.values[m], t))
    return PolytopeSpec(INDEPENDENCE_POLYTOPE, f)

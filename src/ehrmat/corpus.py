"""Bundled matroid corpus: classical small matroids built from first
principles (graphs, finite-field and rational matrices, point
configurations, and circuit-hyperplane relaxations), exported as
explicit bases lists.

Each entry is (n, r, bases); `rank_function(name)` returns the
explicit-bases oracle and `document(name)` the CLI document. The
constructions run through the library: a graph's bases are the
subsets that its `RankFunction.graphic` table rates independent, and a
matrix's are the column subsets whose `_gauss_jordan` elimination has a
last pivot (+-det) nonzero mod p.
"""

from itertools import combinations

from .exactmath import _gauss_jordan
from .matroid import RankFunction

# -- helpers ----------------------------------------------------------


def _graphic_bases(edges, rank):
    """Spanning trees of a connected graph of the given rank, as 1-based
    edge index sets."""
    values = RankFunction.graphic(edges).values
    return [frozenset(i + 1 for i in combo)
            for combo in combinations(range(len(edges)), rank)
            if values[sum(1 << i for i in combo)] == rank]


def _linear_bases(columns, p=0):
    """Bases of the column matroid of a matrix over GF(p), or over Q
    when p = 0: the square column subsets whose fraction-free
    elimination has full rank and a last pivot, +-det, nonzero mod p."""
    rank = len(columns[0])
    out = []
    for combo in combinations(range(len(columns)), rank):
        _, pivots, d = _gauss_jordan([columns[i] for i in combo], rank)
        if len(pivots) == rank and (p == 0 or d % p):
            out.append(frozenset(i + 1 for i in combo))
    return out


def _relaxation_bases(base_bases, r, circuit_hyperplanes):
    """Relax the given circuit-hyperplanes: each becomes a new basis."""
    out = set(base_bases)
    for ch in circuit_hyperplanes:
        ch = frozenset(ch)
        if len(ch) != r or ch in out:
            raise ValueError(f"corpus: not a circuit-hyperplane:"
                             f" {sorted(ch)}")
        out.add(ch)
    return sorted(out, key=sorted)


def _sparse_paving_bases(n, r, non_bases):
    nb = {frozenset(b) for b in non_bases}
    return [frozenset(c) for c in combinations(range(1, n + 1), r)
            if frozenset(c) not in nb]


# -- constructions ----------------------------------------------------

# complete graph on 4 vertices; edge labels follow the classical
# triangle structure: the non-bases are the four triangles
# {1,2,4}, {1,3,5}, {2,3,6}, {4,5,6}
K4_EDGES = [(1, 2), (2, 3), (2, 4), (1, 3), (1, 4), (3, 4)]

# rank-4 wheel: rim edges 1-4 (cycle on vertices 1..4), spokes 5-8 to
# the hub vertex 5
W4_EDGES = [(1, 2), (2, 3), (3, 4), (4, 1),
            (1, 5), (2, 5), (3, 5), (4, 5)]

FANO_LINES = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6),
              (2, 5, 7), (3, 4, 7), (3, 5, 6)]

P7_LINES = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (3, 5, 7)]

# Vamos: rank 4 on pairs {1,2},{3,4},{5,6},{7,8}; circuit-hyperplanes
# are the pair unions except {5,6,7,8}
VAMOS_CH = [(1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8),
            (3, 4, 5, 6), (3, 4, 7, 8)]

# binary affine cube: homogeneous coordinates (1, x, y, z) over GF(2),
# points in binary order of (x, y, z)
AG32_COLUMNS = [(1, x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]

# real affine cube: same points read over the rationals
S8_COLUMNS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1)]

P8_COLUMNS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (0, 1, 1, -1), (1, 0, 1, 1), (1, 1, 0, 1), (-1, 1, 1, 0)]

J_COLUMNS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 1, 0)]


def _ag32_planes(ag):
    """The 14 non-bases (affine planes) of the binary affine cube."""
    return [p for p in combinations(range(1, 9), 4) if frozenset(p) not in ag]


def _build_all():
    reg = {}

    k4 = _graphic_bases(K4_EDGES, 3)
    reg["K4"] = (6, 3, sorted(k4, key=sorted))
    # whirl: relax the rim triangle {2,3,6} of the wheel
    reg["W3_whirl"] = (6, 3, _relaxation_bases(k4, 3, [(2, 3, 6)]))

    reg["Q6"] = (6, 3, _sparse_paving_bases(6, 3, [(1, 2, 3), (3, 4, 5)]))
    reg["P6"] = (6, 3, _sparse_paving_bases(6, 3, [(1, 2, 3)]))
    reg["R6"] = (6, 3, _sparse_paving_bases(6, 3, [(1, 2, 3), (4, 5, 6)]))

    f7 = _sparse_paving_bases(7, 3, FANO_LINES)
    reg["F7"] = (7, 3, sorted(f7, key=sorted))
    reg["F7_minus"] = (7, 3, _sparse_paving_bases(7, 3, FANO_LINES[:-1]))
    reg["P7"] = (7, 3, _sparse_paving_bases(7, 3, P7_LINES))

    ag = _linear_bases(AG32_COLUMNS, 2)
    planes = _ag32_planes(set(ag))
    reg["AG32"] = (8, 4, sorted(ag, key=sorted))
    reg["AG32_prime"] = (8, 4, _relaxation_bases(ag, 4, planes[:1]))
    reg["R8"] = (8, 4, sorted(_linear_bases(AG32_COLUMNS), key=sorted))
    reg["F8"] = (8, 4, _relaxation_bases(ag, 4, planes[:2]))
    reg["Q8"] = (8, 4, _relaxation_bases(ag, 4, planes[:3]))
    reg["T8"] = (8, 4, _relaxation_bases(ag, 4, planes[-3:]))
    reg["L8"] = (8, 4, _relaxation_bases(ag, 4, planes[:6]))

    reg["S8"] = (8, 4, sorted(_linear_bases(S8_COLUMNS, 2), key=sorted))
    reg["V8"] = (8, 4, _sparse_paving_bases(8, 4, VAMOS_CH))
    reg["V8_plus"] = (8, 4, _sparse_paving_bases(
        8, 4, VAMOS_CH + [(5, 6, 7, 8)]))
    reg["J"] = (8, 4, sorted(_linear_bases(J_COLUMNS, 3), key=sorted))
    reg["P8"] = (8, 4, sorted(_linear_bases(P8_COLUMNS, 3), key=sorted))

    w4 = _graphic_bases(W4_EDGES, 4)
    reg["W4_wheel"] = (8, 4, sorted(w4, key=sorted))
    # rank-4 whirl: relax the rim cycle {1,2,3,4}
    reg["W4_whirl"] = (8, 4, _relaxation_bases(w4, 4, [(1, 2, 3, 4)]))

    return reg


REGISTRY = _build_all()

# Six rows of the paper's table are left out: BJR1-4 and Speyer1-2 are
# defined only by figures in external references, so no basis list can
# be reconstructed for them, and they are omitted rather than
# approximated.


def names():
    return sorted(REGISTRY)


def rank(name):
    return REGISTRY[name][1]


def rank_function(name):
    n, _, blist = REGISTRY[name]
    return RankFunction.from_bases(n, blist)


def document(name):
    """CLI-ready JSON document for a bundled matroid."""
    n, _, blist = REGISTRY[name]
    return {
        "name": name,
        "family": "bases",
        "kind": "bases",
        "n": n,
        "bases": [sorted(b) for b in blist],
    }

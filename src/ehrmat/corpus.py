"""Bundled matroid corpus: classical small matroids built from first
principles (graphs, finite-field matrices, point configurations, and
circuit-hyperplane relaxations), exported as explicit bases lists.

Each entry is (n, r, construction); `bases(name)` returns the sorted
list of bases and `rank_function(name)` the explicit-bases oracle.
"""

from itertools import combinations

from .matroid import RankFunction

# -- helpers ----------------------------------------------------------


def _graphic_bases(n_vertices, edges):
    """Spanning trees of a connected graph, as 1-based edge index
    sets."""
    out = []
    m = len(edges)
    for combo in combinations(range(m), n_vertices - 1):
        parent = list(range(n_vertices + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for ei in combo:
            a, b = edges[ei]
            ra, rb = find(a), find(b)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if acyclic:
            out.append(frozenset(i + 1 for i in combo))
    return out


def _gf_rank(columns, p):
    """Rank over GF(p) of a list of column vectors."""
    rows = len(columns[0]) if columns else 0
    mat = [list(c) for c in columns]
    r = 0
    for c in range(rows):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def _linear_bases(columns, rank, p):
    """Bases of the column matroid of a matrix over GF(p)."""
    n = len(columns)
    return [frozenset(i + 1 for i in combo)
            for combo in combinations(range(n), rank)
            if _gf_rank([columns[i] for i in combo], p) == rank]


def _relaxation_bases(base_bases, n, r, circuit_hyperplanes):
    """Relax the given circuit-hyperplanes: each becomes a new basis."""
    out = set(base_bases)
    for ch in circuit_hyperplanes:
        ch = frozenset(ch)
        if len(ch) != r or ch in out:
            raise ValueError(f"not a circuit-hyperplane: {sorted(ch)}")
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


def _ag32_bases():
    return _linear_bases(AG32_COLUMNS, 4, 2)


def _ag32_planes():
    """The 14 non-bases (affine planes) of the binary affine cube."""
    all4 = [frozenset(c) for c in combinations(range(1, 9), 4)]
    bset = set(_ag32_bases())
    return sorted((p for p in all4 if p not in bset), key=sorted)


def _real_cube_bases():
    n = len(AG32_COLUMNS)
    out = []
    from .exactmath import det
    for combo in combinations(range(n), 4):
        m = tuple(AG32_COLUMNS[i] for i in combo)
        if det(m) != 0:
            out.append(frozenset(i + 1 for i in combo))
    return out


def _build_all():
    reg = {}

    k4 = _graphic_bases(4, K4_EDGES)
    reg["K4"] = (6, 3, sorted(k4, key=sorted))
    # whirl: relax the rim triangle {2,3,6} of the wheel
    reg["W3_whirl"] = (6, 3, _relaxation_bases(k4, 6, 3, [(2, 3, 6)]))

    reg["Q6"] = (6, 3, _sparse_paving_bases(6, 3, [(1, 2, 3), (3, 4, 5)]))
    reg["P6"] = (6, 3, _sparse_paving_bases(6, 3, [(1, 2, 3)]))
    reg["R6"] = (6, 3, _sparse_paving_bases(6, 3, [(1, 2, 3), (4, 5, 6)]))

    f7 = _sparse_paving_bases(7, 3, FANO_LINES)
    reg["F7"] = (7, 3, sorted(f7, key=sorted))
    reg["F7_minus"] = (7, 3, _sparse_paving_bases(7, 3, FANO_LINES[:-1]))
    reg["P7"] = (7, 3, _sparse_paving_bases(7, 3, P7_LINES))

    ag = _ag32_bases()
    planes = _ag32_planes()
    reg["AG32"] = (8, 4, sorted(ag, key=sorted))
    reg["AG32_prime"] = (8, 4, _relaxation_bases(ag, 8, 4, planes[:1]))
    reg["R8"] = (8, 4, sorted(_real_cube_bases(), key=sorted))
    reg["F8"] = (8, 4, _relaxation_bases(ag, 8, 4, planes[:2]))
    reg["Q8"] = (8, 4, _relaxation_bases(ag, 8, 4, planes[:3]))
    reg["T8"] = (8, 4, _relaxation_bases(ag, 8, 4, planes[-3:]))
    reg["L8"] = (8, 4, _relaxation_bases(ag, 8, 4, planes[:6]))

    reg["S8"] = (8, 4, sorted(_linear_bases(S8_COLUMNS, 4, 2), key=sorted))
    reg["V8"] = (8, 4, _sparse_paving_bases(8, 4, VAMOS_CH))
    reg["V8_plus"] = (8, 4, _sparse_paving_bases(
        8, 4, VAMOS_CH + [(5, 6, 7, 8)]))
    reg["J"] = (8, 4, sorted(_linear_bases(J_COLUMNS, 4, 3), key=sorted))
    reg["P8"] = (8, 4, sorted(_linear_bases(P8_COLUMNS, 4, 3), key=sorted))

    w4 = _graphic_bases(5, W4_EDGES)
    reg["W4_wheel"] = (8, 4, sorted(w4, key=sorted))
    # rank-4 whirl: relax the rim cycle {1,2,3,4}
    reg["W4_whirl"] = (8, 4, _relaxation_bases(w4, 8, 4, [(1, 2, 3, 4)]))

    return reg


REGISTRY = _build_all()

# Rows defined only by figures in references we do not have; no basis
# list can be reconstructed, so these names are declared unavailable
# rather than approximated.
SKIPPED = {
    "BJR1": "defined only by a figure in an external reference",
    "BJR2": "defined only by a figure in an external reference",
    "BJR3": "defined only by a figure in an external reference",
    "BJR4": "defined only by a figure in an external reference",
    "Speyer1": "defined only by a figure in an external reference",
    "Speyer2": "defined only by a figure in an external reference",
}


def names():
    return sorted(REGISTRY)


def bases(name):
    return REGISTRY[name][2]


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

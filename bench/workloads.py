"""The four benchmark workloads: seeded instance generators and exact
oracles for every output.

Each builder returns a list of `Instance`s: the CLI arguments, the JSON
document the program receives (if any), the oracle's expected value,
and static properties for the workload record. Oracles are computed
here, before timing starts; the checks that compare against them run
inside the timed region.

Why these workloads (see README.md for the layer each one stresses):
- symmetric: few vertex orbits and a heavy cone stage (AG32, U(7,3)).
- sparse_paving: the same cone-heavy profile with almost no symmetry,
  checked by the circuit-hyperplane relaxation identity.
- polymatroid_verify: nearly simple polymatroids, where vertices,
  adjacency, the table rank oracle and brute force carry the time.
- uniform_scan: closed forms only, no geometry.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from ehrmat import corpus, hstar

REFERENCE = json.loads(
    Path(__file__).with_name("reference.json").read_text(encoding="utf-8"))


class Instance:
    def __init__(self, name, argv, doc, check, expect, props):
        self.name = name
        self.argv = argv        # CLI arguments; "{doc}" marks the file
        self.doc = doc          # JSON document, or None
        self.check = check      # key into CHECKS
        self.expect = expect    # oracle value the check compares with
        self.props = props      # static workload-property record


def _fractions(strings):
    return [Fraction(s) for s in strings]


def _trim(v):
    v = list(v)
    while len(v) > 1 and v[-1] == 0:
        v.pop()
    return v


def _poly_sub_scaled(p, q, c):
    """p - c*q, coefficient-wise."""
    m = max(len(p), len(q))
    p = list(p) + [0] * (m - len(p))
    q = list(q) + [0] * (m - len(q))
    return [a - c * b for a, b in zip(p, q)]


def _is_unimodal(v):
    peak = max(range(len(v)), key=lambda i: v[i])
    return (all(v[i] <= v[i + 1] for i in range(peak))
            and all(v[i] >= v[i + 1] for i in range(peak, len(v) - 1)))


# -- symmetric ---------------------------------------------------------

def symmetric(rng, smoke):
    """AG32 and U(7,3) in both families (smoke: K4 and U(4,2)). The
    instance list is fixed, so the seed has no effect."""
    del rng
    row, (n, r) = ("K4", (4, 2)) if smoke else ("AG32", (7, 3))
    pinned = REFERENCE["corpus"][row]["hstar_printed"]
    brute = REFERENCE["independence_bruteforce"][f"{n},{r}"]["hstar"]
    uniform = hstar.ehrhart_to_hstar(hstar.uniform_ehrhart(n, r), n - 1)
    docs = [
        (corpus.document(row), list(reversed(pinned))),
        ({"name": f"U{n}{r}_bases", "family": "bases", "kind": "uniform",
          "n": n, "r": r}, _trim(uniform)),
        ({"name": f"U{n}{r}_independence", "family": "independence",
          "kind": "uniform", "n": n, "r": r}, _trim(brute)),
    ]
    return [Instance(doc["name"], ["hstar", "{doc}"], doc, "hstar", expect,
                     {"n": doc["n"], "r": doc.get("r", corpus.rank(row)),
                      "family": doc["family"], "kind": doc["kind"]})
            for doc, expect in docs]


# -- sparse_paving -----------------------------------------------------

# Relaxing one circuit-hyperplane of a sparse-paving matroid adds a
# polynomial that depends only on (n, r), so with lam circuit-hyperplanes
#   Ehrhart(M) = uniform_ehrhart(n, r) - lam * (relaxed - unrelaxed)
# (Ferroni, "Matroids are not Ehrhart positive", arXiv:2105.04465).
# `relaxed` None stands for the uniform matroid itself.
SPARSE = {
    False: {"n": 8, "r": 4, "lam": 5, "count": 1,
            "relaxed": "AG32_prime", "unrelaxed": "AG32"},
    True: {"n": 6, "r": 3, "lam": 2, "count": 1,
           "relaxed": None, "unrelaxed": "P6"},
}


def _circuit_hyperplanes(rng, n, r, lam):
    """lam r-subsets of {1..n} that pairwise share at most r - 2
    elements, chosen greedily from a seeded shuffle."""
    while True:
        pool = [frozenset(c) for c in itertools.combinations(range(1, n + 1), r)]
        rng.shuffle(pool)
        chosen = []
        for c in pool:
            if all(len(c & d) <= r - 2 for d in chosen):
                chosen.append(c)
                if len(chosen) == lam:
                    return chosen


def sparse_paving(rng, smoke):
    cfg = SPARSE[smoke]
    n, r, lam = cfg["n"], cfg["r"], cfg["lam"]
    uniform = hstar.uniform_ehrhart(n, r)
    unrelaxed = _fractions(REFERENCE["corpus"][cfg["unrelaxed"]]["ehrhart"])
    relaxed = (uniform if cfg["relaxed"] is None else
               _fractions(REFERENCE["corpus"][cfg["relaxed"]]["ehrhart"]))
    step = _poly_sub_scaled(relaxed, unrelaxed, 1)
    expect = _poly_sub_scaled(uniform, step, lam)
    out = []
    for i in range(cfg["count"]):
        chs = set(_circuit_hyperplanes(rng, n, r, lam))
        bases = [list(c) for c in itertools.combinations(range(1, n + 1), r)
                 if frozenset(c) not in chs]
        doc = {"name": f"sparse_paving_{i}", "family": "bases",
               "kind": "bases", "n": n, "bases": bases}
        out.append(Instance(doc["name"], ["ehrhart", "{doc}"], doc, "ehrhart",
                            expect, {"n": n, "r": r, "family": "bases",
                                     "kind": "bases", "lambda": lam}))
    return out


# -- polymatroid_verify ------------------------------------------------

# (sum of weights W, slack W - c) per instance. Fixing W and the slack
# per slot keeps the cost of a pass steady across seeds; the seed picks
# the weights.
POLY_SCHEDULE = {
    False: (6, [(10, 2), (11, 2), (12, 2), (10, 3), (11, 3), (12, 3)]),
    True: (4, [(6, 1)]),
}


def _box_simplex_counts(w, c, kmax):
    """#{x in Z^n : 0 <= x_i <= k w_i, sum x <= k c} for k = 0..kmax.

    P(f) for f(A) = min(w(A), c) is exactly this box cut by one
    halfspace, which gives an oracle sharing nothing with ehrmat."""
    out = []
    for k in range(kmax + 1):
        cap = k * c
        dist = [1] + [0] * cap      # dist[s] = #points with sum s
        for wi in w:
            top = k * wi
            prefix = [0]
            for x in dist:
                prefix.append(prefix[-1] + x)
            dist = [prefix[s + 1] - prefix[max(0, s - top)]
                    for s in range(cap + 1)]
        out.append(sum(dist))
    return out


def polymatroid_verify(rng, smoke):
    n, schedule = POLY_SCHEDULE[smoke]
    out = []
    for i, (total, slack) in enumerate(schedule):
        while True:
            w = [rng.choice((1, 2, 3)) for _ in range(n)]
            if sum(w) == total:
                break
        # non-increasing order, so the brute-force oracle's cost does not
        # swing with the labelling
        w.sort(reverse=True)
        c = total - slack
        values = [{"subset": list(a), "value": min(sum(w[e - 1] for e in a), c)}
                  for size in range(1, n + 1)
                  for a in itertools.combinations(range(1, n + 1), size)]
        doc = {"name": f"polymatroid_{i}", "family": "polymatroid",
               "kind": "table", "n": n, "values": values}
        out.append(Instance(doc["name"], ["verify", "--kmax", "2", "{doc}"],
                            doc, "verify", _box_simplex_counts(w, c, n),
                            {"n": n, "r": c, "family": "polymatroid",
                             "kind": "table", "w": w, "c": c}))
    return out


# -- uniform_scan ------------------------------------------------------

SCAN_NMAX = {False: 42, True: 8}
SCAN_SPOT_NMAX = 24     # spot-check oracles stay cheap below this size


def uniform_scan(rng, smoke):
    nmax = SCAN_NMAX[smoke]
    grid = [(n, r) for n in range(2, nmax + 1) for r in range(1, n)]
    small = [(n, r) for n, r in grid if n <= SCAN_SPOT_NMAX]
    spots = rng.sample(small, 3) + [(rng.randrange(3, small[-1][0] + 1), 2)]
    expect = {"grid": grid, "spots": []}
    for n, r in sorted(set(spots)):
        poly = hstar.uniform_ehrhart(n, r)
        h = _trim(hstar.ehrhart_to_hstar(poly, n - 1))
        expect["spots"].append({
            "n": n, "r": r, "hstarUnimodal": _is_unimodal(h),
            "ehrhartCoeffsPositive": (all(x > 0 for x in poly)
                                      if r == 2 else None)})
    return [Instance(f"scan_{nmax}", ["scan-uniform", "--nmax", str(nmax)],
                     None, "scan", expect,
                     {"n": nmax, "r": None, "family": "bases",
                      "kind": "uniform"})]


BUILDERS = {
    "symmetric": symmetric,
    "sparse_paving": sparse_paving,
    "polymatroid_verify": polymatroid_verify,
    "uniform_scan": uniform_scan,
}


# -- checks ------------------------------------------------------------
# Each returns None when the output matches the oracle, else a cause.

def _check_hstar(out, expect):
    return None if _trim(out["hstar"]) == expect else "oracle_mismatch"


def _check_ehrhart(out, expect):
    ok = (_fractions(out["coefficients"]) == expect
          and out["dim"] == len(expect) - 1)
    return None if ok else "oracle_mismatch"


def _check_verify(out, expect):
    poly = _fractions(out["pipeline"])
    ok = (out["match"] is True
          and out["pipeline"] == out["bruteforce"]
          and all(sum(a * k ** i for i, a in enumerate(poly)) == expect[k]
                  for k in range(len(expect)))
          and all(row["pipeline"] == row["bruteforce"] == expect[row["k"]]
                  for row in out["counts"]))
    return None if ok else "oracle_mismatch"


def _check_scan(out, expect):
    rows = out["rows"]
    if out["violation"] is not False:
        return "oracle_mismatch"
    if [(row["n"], row["r"]) for row in rows] != expect["grid"]:
        return "oracle_mismatch"
    by_key = {(row["n"], row["r"]): row for row in rows}
    for spot in expect["spots"]:
        row = by_key[(spot["n"], spot["r"])]
        if row["hstarUnimodal"] != spot["hstarUnimodal"]:
            return "oracle_mismatch"
        if row.get("ehrhartCoeffsPositive") != spot["ehrhartCoeffsPositive"]:
            return "oracle_mismatch"
    return None


CHECKS = {
    "hstar": _check_hstar,
    "ehrhart": _check_ehrhart,
    "verify": _check_verify,
    "scan": _check_scan,
}


def _corrupt(check, expect):
    """A deliberately wrong copy of an oracle value, for the self-test."""
    if check in ("hstar", "ehrhart"):
        return [expect[0] + 1] + list(expect[1:])
    if check == "verify":
        return [expect[0]] + [expect[1] + 1] + list(expect[2:])
    spots = [dict(s) for s in expect["spots"]]
    spots[0]["hstarUnimodal"] = not spots[0]["hstarUnimodal"]
    return {"grid": expect["grid"], "spots": spots}


def build(workload, seed, smoke=False, corrupt=False):
    """Instances of one workload for one seed. With `corrupt`, the first
    instance's oracle value is deliberately wrong."""
    rng = random.Random(f"{workload}:{seed}")
    instances = BUILDERS[workload](rng, smoke)
    if corrupt:
        first = instances[0]
        first.expect = _corrupt(first.check, first.expect)
    return instances

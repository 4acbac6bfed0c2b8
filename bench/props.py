"""Workload properties computed outside the timed region: the
automorphism group of a rank-function document by brute-force
permutation search, and the vertex orbits under that group.

Independent of ehrmat: works from the JSON document alone. Intended for
n <= 8 (at most 8! = 40320 permutations).
"""

from itertools import permutations


def automorphisms(doc):
    """All permutations p of range(n) (element i+1 -> p[i]+1) that
    preserve the rank function the document describes."""
    n = doc["n"]
    kind = doc["kind"]
    if kind == "uniform":
        return list(permutations(range(n)))
    if kind == "bases":
        bases = {frozenset(e - 1 for e in b) for b in doc["bases"]}
        return [p for p in permutations(range(n))
                if all(frozenset(p[e] for e in b) in bases for b in bases)]
    if kind == "table":
        table = {frozenset(e - 1 for e in entry["subset"]): entry["value"]
                 for entry in doc["values"]}
        return [p for p in permutations(range(n))
                if all(table[frozenset(p[e] for e in a)] == v
                       for a, v in table.items())]
    raise ValueError(f"no automorphism search for kind {kind!r}")


def vertex_orbits(doc, vertices):
    """Number of orbits of the vertex list under coordinate
    permutation by the document's automorphisms."""
    group = automorphisms(doc)
    index = {tuple(v): i for i, v in enumerate(vertices)}
    seen = [False] * len(vertices)
    orbits = 0
    for i, v in enumerate(vertices):
        if seen[i]:
            continue
        orbits += 1
        for p in group:
            image = [0] * len(v)
            for j, x in enumerate(v):
                image[p[j]] = x
            seen[index[tuple(image)]] = True
    return orbits


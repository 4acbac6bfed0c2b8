import time

import pytest
from hypothesis import settings

from ehrmat import corpus, genfun, hstar, specialize
from ehrmat.matroid import RankFunction
from ehrmat.vertices import BASES_POLYTOPE, POLYMATROID, PolytopeSpec

# Draws stay random; a failing draw prints its @reproduce_failure blob,
# so it can be replayed from the log of the run that found it.
settings.register_profile("ehrmat", print_blob=True)
settings.load_profile("ehrmat")

_CACHE = {}


def _spec_from_key(key):
    kind = key[0]
    if kind == "corpus":
        _, name, family = key
        return PolytopeSpec(family, corpus.rank_function(name))
    if kind == "uniform":
        _, n, r, family = key
        f = RankFunction.uniform(n, r)
        if family == POLYMATROID:
            table = {}
            for mask in range(1, 1 << n):
                a = frozenset(i + 1 for i in range(n) if mask >> i & 1)
                table[a] = f.rank(a)
            f = RankFunction.from_table(n, table)
        return PolytopeSpec(family, f)
    raise KeyError(key)


class PipelineCache:
    """Computes each polytope's generating function and Ehrhart
    polynomial once per session, recording the wall time of the first
    (cold) computation."""

    def spec(self, key):
        return _spec_from_key(key)

    def result(self, key):
        if key not in _CACHE:
            spec = _spec_from_key(key)
            t0 = time.monotonic()
            g = genfun.build_genfun(spec)
            poly = specialize.ehrhart_polynomial(g)
            elapsed = time.monotonic() - t0
            dim = len(poly) - 1
            h = hstar.ehrhart_to_hstar(poly, dim)
            _CACHE[key] = {
                "spec": spec, "genfun": g, "poly": poly, "dim": dim,
                "hstar": h, "seconds": elapsed,
            }
        return _CACHE[key]

    def corpus(self, name, family=BASES_POLYTOPE):
        return self.result(("corpus", name, family))

    def uniform(self, n, r, family=BASES_POLYTOPE):
        return self.result(("uniform", n, r, family))


@pytest.fixture(scope="session")
def pipelines():
    return PipelineCache()

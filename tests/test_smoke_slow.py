"""Large-instance smoke benchmark: the Ehrhart polynomial of the bases
polytope of the uniform matroid with n = 20, r = 3, computed by the
plain pipeline (`build_genfun`, then `ehrhart_polynomial`) and checked
against the closed form.

`build_genfun` triangulates each ordered arc pattern of the 1140
tangent cones once and certifies every piece of every cone, so no
symmetry is handled here. Marked slow (documented budget: 90 minutes;
it took 11.9 s on a 2-vCPU VM with Python 3.11.7, see README);
excluded from the default run, opt in with `pytest -m slow`, and add
`-s` to see the elapsed time and peak RSS it reports.
"""

import resource
import time

import pytest

from ehrmat.genfun import build_genfun
from ehrmat.hstar import uniform_ehrhart
from ehrmat.matroid import RankFunction
from ehrmat.specialize import ehrhart_polynomial
from ehrmat.vertices import BASES_POLYTOPE, PolytopeSpec

N, R = 20, 3
BUDGET_SECONDS = 90 * 60


@pytest.mark.slow
def test_u20_3_smoke():
    t0 = time.monotonic()
    g = build_genfun(PolytopeSpec(BASES_POLYTOPE, RankFunction.uniform(N, R)))
    built = time.monotonic() - t0
    poly = ehrhart_polynomial(g)
    elapsed = time.monotonic() - t0
    # kilobytes on Linux
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = (f"U({N},{R}): {len(g.terms)} terms, build {built:.1f} s,"
              f" total {elapsed:.1f} s, peak RSS {rss_mb:.0f} MB")
    print(report)
    assert poly == uniform_ehrhart(N, R), report
    assert elapsed < BUDGET_SECONDS, report

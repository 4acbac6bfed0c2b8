"""Independent counting oracle: the lattice points of polytope
dilations, counted one coordinate at a time by a recursion memoized on
the residual subset caps, and the Ehrhart polynomial recovered by exact
interpolation. This module shares no geometry with the
generating-function pipeline, so agreement between the two is a real
cross-check.
"""

from functools import cache

from .exactmath import poly_interpolate, poly_trim
from .matroid import guard_n
from .vertices import BASES_POLYTOPE

DIRECT_GUARD_N = 12


def count_direct(spec, k):
    """#(kP intersect Z^n), counted exactly.

    With x_1..x_d fixed, the points left are the x >= 0 on the free
    coordinates with sum_{i in S} x_i <= caps[S] for every subset S of
    them, caps indexed by bitmask with bit 0 the next free coordinate.
    Fixing it to x folds each cap with its partner through that
    coordinate, min(caps[S], caps[S + bit 0] - x); the count depends
    only on caps, so equal residual caps are counted once. The bases
    family's equality x([n]) = k r is the difference of the counts with
    x([n]) <= k r and x([n]) <= k r - 1.
    """
    guard_n(spec.n, DIRECT_GUARD_N, "direct enumeration")
    if k == 0:
        return 1
    if k < 0:
        raise ValueError("dilation must be >= 0")

    @cache
    def below(caps):
        if len(caps) == 1:
            return int(caps[0] >= 0)
        pairs = tuple(zip(caps[::2], caps[1::2]))
        return sum(below(tuple(min(a, b - x) for a, b in pairs))
                   for x in range(caps[1] + 1))

    caps = tuple(k * v for v in spec.f.values)
    if spec.family != BASES_POLYTOPE:
        return below(caps)
    return below(caps) - below(caps[:-1] + (caps[-1] - 1,))


def ehrhart_by_interpolation(spec):
    """Ehrhart polynomial by counting dilations k = 0..n and
    interpolating; the true degree (the polytope dimension) emerges as
    the degree after trimming."""
    n = spec.n
    kmax = n - 1 if spec.family == BASES_POLYTOPE and n > 1 else n
    points = [(k, count_direct(spec, k)) for k in range(kmax + 1)]
    return poly_trim(poly_interpolate(points))

"""Independent counting oracle: the lattice points of polytope
dilations, counted one coordinate at a time, smallest singleton cap
first, by a recursion memoized on the residual subset caps, with the
last two coordinates counted in closed form, and the Ehrhart polynomial
recovered from the counts by exact interpolation in Newton form on
integers (`exactmath.poly_from_values`). This module shares no geometry
with the generating-function pipeline, so agreement between the two is
a real cross-check.
"""

from functools import cache
from operator import sub

from .exactmath import poly_from_values
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
    only on caps, so equal residual caps are counted once. A negative
    cap leaves no point. While x is at most every caps[S + bit 0] -
    caps[S], every fold keeps caps[S], so that run of x is one count
    times its length. Two free coordinates x <= a', y <= b' with
    x + y <= c are the box less the e (e + 1) / 2 points above the
    diagonal, e = max(0, a' + b' - c). The coordinates are fixed in
    ascending order of their singleton caps f({e}), ties by index, so
    the widest fan-out runs on the shortest cap tuples; the count does
    not depend on the order. The bases family's equality x([n]) = k r is
    the difference of the counts with x([n]) <= k r and x([n]) <= k r - 1.
    """
    guard_n(spec.n, DIRECT_GUARD_N, "direct enumeration")
    if k < 0:
        raise ValueError("bruteforce: dilation must be >= 0")
    if k == 0 or spec.n == 0:
        return 1

    @cache
    def below(caps):
        if min(caps) < 0:
            return 0
        if len(caps) == 1:
            return 1    # no free coordinate left, from n = 1
        if len(caps) == 4:
            # x <= a, y <= b, x + y <= caps[3]: the box less the
            # triangle of e (e + 1) / 2 points it has above the diagonal
            a, b = min(caps[1], caps[3]), min(caps[2], caps[3])
            e = max(0, a + b - caps[3])
            return (a + 1) * (b + 1) - e * (e + 1) // 2
        lows, highs = caps[::2], caps[1::2]
        # every child is `lows` while x <= every high - low, which the
        # empty set's cap keeps at most caps[1]
        run = max(0, min(map(sub, highs, lows)) + 1)
        return run * below(lows) + sum(
            below(tuple(map(min, lows, [b - x for b in highs])))
            for x in range(run, caps[1] + 1))

    values = spec.f.values
    order = sorted(range(spec.n), key=lambda e: values[1 << e])
    # relabel: bit i of a mask of `caps` stands for element order[i]
    masks = [0]
    for e in order:
        masks += [m | 1 << e for m in masks]
    caps = tuple(k * values[m] for m in masks)
    if spec.family != BASES_POLYTOPE:
        return below(caps)
    return below(caps) - below(caps[:-1] + (caps[-1] - 1,))


def interpolation_kmax(spec):
    """The last dilation that `ehrhart_by_interpolation` counts: the
    dimension bound, n - 1 for a bases polytope, else n."""
    n = spec.n
    return n - 1 if spec.family == BASES_POLYTOPE and n > 1 else n


def ehrhart_by_interpolation(spec):
    """Ehrhart polynomial by counting dilations k = 0..kmax
    (`interpolation_kmax`) and interpolating in Newton form; the true
    degree (the polytope dimension) emerges as the degree after
    trimming. The polynomial passes exactly through the counts."""
    return poly_from_values([count_direct(spec, k)
                             for k in range(interpolation_kmax(spec) + 1)])

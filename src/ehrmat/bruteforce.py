"""Independent counting oracle: direct enumeration of the lattice
points of polytope dilations, and the Ehrhart polynomial recovered by
exact interpolation. This module shares no geometry with the
generating-function pipeline, so agreement between the two is a real
cross-check.
"""

import numpy as np

from .exactmath import poly_interpolate, poly_trim
from .matroid import guard_n
from .vertices import BASES_POLYTOPE

DIRECT_GUARD_N = 12


def count_direct(spec, k):
    """#(kP intersect Z^n) by direct enumeration.

    Points are built coordinate by coordinate; every subset constraint
    sum_{i in A} x_i <= k * f(A) is enforced as soon as its largest
    element is assigned, via a running table of partial subset sums.
    """
    n = spec.n
    guard_n(n, DIRECT_GUARD_N, "direct enumeration")
    if k == 0:
        return 1
    if k < 0:
        raise ValueError("dilation must be >= 0")
    # bound[d] holds k*f(A u {d+1}) for every subset A of {1..d},
    # indexed by bitmask of A: the masks 2^d..2^(d+1)-1 of f's table
    bound = [k * np.array(spec.f.values[1 << d:2 << d], dtype=np.int64)
             for d in range(n)]
    is_bases = spec.family == BASES_POLYTOPE
    target = k * spec.r if is_bases else None
    # largest possible contribution of coordinates d+1..n
    suffix_cap = [0] * (n + 1)
    for d in range(n - 1, -1, -1):
        suffix_cap[d] = suffix_cap[d + 1] + int(bound[d][0])

    def rec(d, sums, total):
        # sums[mask] = sum of assigned x_i over subsets of {1..d}
        slack = bound[d] - sums
        hi = int(slack.min())
        if hi < 0:
            return 0
        if is_bases:
            rem = target - total
            if d == n - 1:
                return 1 if 0 <= rem <= hi else 0
            lo = max(0, rem - suffix_cap[d + 1])
            hi = min(hi, rem)
        else:
            if d == n - 1:
                return hi + 1
            lo = 0
        if d == n - 2:
            # closed form over the last two coordinates: the bound on
            # x_n given x_{n-1} = x is min(c1, c2 - x)
            half = 1 << d
            c1 = int((bound[n - 1][:half] - sums).min())
            c2 = int((bound[n - 1][half:] - sums).min())
            if is_bases:
                rem = target - total
                if rem > c2 or c1 < 0:
                    return 0
                first = max(lo, rem - c1)
                last = min(hi, rem)
                return max(0, last - first + 1)
            if c1 < 0:
                return 0
            hi = min(hi, c2)
            if hi < 0:
                return 0
            # x <= c2 - c1 contributes c1 + 1; larger x contributes
            # c2 - x + 1
            flat_hi = min(hi, c2 - c1)
            acc = (flat_hi + 1) * (c1 + 1) if flat_hi >= 0 else 0
            if hi > flat_hi:
                a, b = max(0, flat_hi + 1), hi
                # sum of (c2 - x + 1) for x = a..b
                acc += (b - a + 1) * (c2 + 1) - (a + b) * (b - a + 1) // 2
            return acc
        acc = 0
        for x in range(lo, hi + 1):
            acc += rec(d + 1, np.concatenate([sums, sums + x]), total + x)
        return acc

    return rec(0, np.zeros(1, dtype=np.int64), 0)


def ehrhart_by_interpolation(spec):
    """Ehrhart polynomial by counting dilations k = 0..n and
    interpolating; the true degree (the polytope dimension) emerges as
    the degree after trimming."""
    n = spec.n
    kmax = n - 1 if spec.family == BASES_POLYTOPE and n > 1 else n
    points = [(k, count_direct(spec, k)) for k in range(kmax + 1)]
    return poly_trim(poly_interpolate(points))

"""Rank-function oracles: uniform, graphic, explicit-bases, and
tabulated polymatroid, plus axiom validation, duality and direct sums.

Ground sets are [n] = {1, ..., n}. A rank function is held as the table
`values` of its 2^n values, indexed by bitmask: bit i-1 of a mask stands
for element i, so values[0] is f(empty) and values[-1] is f([n]). Each
constructor fills the table once; every consumer indexes it by mask.
"""

import os

TABLE_GUARD_N = 20


class ValidationError(Exception):
    """Input from outside the program is malformed."""


class BudgetExceeded(Exception):
    """An exhaustive enumeration guard was hit."""


def guard_n(n, default_limit, what):
    """Raise BudgetExceeded when n exceeds the guard. EHRMAT_BUDGET, if
    set, overrides the default limit (it is the largest ground-set size
    the enumeration guards accept); a value that is not an integer is a
    ValidationError."""
    override = os.environ.get("EHRMAT_BUDGET")
    try:
        limit = int(override) if override else default_limit
    except ValueError:
        raise ValidationError(f"EHRMAT_BUDGET must be an integer,"
                              f" got {override!r}") from None
    if n > limit:
        raise BudgetExceeded(f"{what} guard: n={n} exceeds limit {limit}")


def _mask(subset, n):
    mask = 0
    for e in subset:
        if e not in range(1, n + 1):
            raise ValueError("element out of range")
        mask |= 1 << (e - 1)
    return mask


class RankFunction:
    """Immutable rank oracle over subsets of {1, ..., n}: `values[mask]`
    is the rank of the subset with bitmask `mask`, computed at
    construction by `rank_of(mask)` for every mask."""

    def __init__(self, n, rank_of, is_matroid):
        guard_n(n, TABLE_GUARD_N, "rank table")
        self.n = n
        self.values = tuple(map(rank_of, range(1 << n)))
        self.is_matroid = is_matroid

    # -- constructors -------------------------------------------------

    @staticmethod
    def uniform(n, r):
        if not (0 <= r <= n):
            raise ValueError("need 0 <= r <= n")
        return RankFunction(n, lambda m: min(m.bit_count(), r), True)

    @staticmethod
    def graphic(n_edges, edges):
        """Cycle matroid of a graph; edges[i] = (u, v) is element i+1.
        The rank of an edge set is the size of a spanning forest of it,
        grown by union-find."""
        if len(edges) != n_edges:
            raise ValueError("edge count mismatch")
        edges = [tuple(e) for e in edges]

        def forest_size(mask):
            parent = {}

            def find(x):
                parent.setdefault(x, x)
                while parent[x] != x:
                    x = parent[x]
                return x

            r = 0
            for i, (u, v) in enumerate(edges):
                if mask >> i & 1:
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
                        r += 1
            return r

        return RankFunction(n_edges, forest_size, True)

    @staticmethod
    def from_bases(n, bases):
        """Matroid given by its bases: the rank of A is the largest
        |A & B| over the bases B, since an independent subset of A
        extends to a basis."""
        bases = [frozenset(b) for b in bases]
        if not bases:
            raise ValueError("need at least one basis")
        r = len(bases[0])
        if any(len(b) != r for b in bases):
            raise ValueError("bases must share cardinality")
        masks = {_mask(b, n) for b in bases}
        return RankFunction(
            n, lambda m: max((m & b).bit_count() for b in masks), True)

    @staticmethod
    def from_table(n, table):
        """Tabulated rank function; `table` maps every non-empty subset
        to its value, and the empty set to its value if listed, else 0."""
        t = {_mask(a, n): int(v) for a, v in table.items()}
        t.setdefault(0, 0)
        if len(t) != 1 << n:
            raise ValueError("table must list every non-empty subset")
        return RankFunction(n, t.__getitem__, False)

    # -- evaluation ---------------------------------------------------

    def rank(self, subset):
        """The rank of a subset of {1, ..., n}; ValueError for an
        element out of range."""
        return self.values[_mask(subset, self.n)]

    def is_independent(self, subset):
        a = frozenset(subset)
        return self.rank(a) == len(a)

    # -- derived oracles ----------------------------------------------

    def dual(self):
        """Dual matroid: rank*(A) = |A| + rank([n] - A) - rank([n])."""
        if not self.is_matroid:
            raise ValueError("dual is defined for matroids only")
        v, full = self.values, (1 << self.n) - 1
        return RankFunction(
            self.n, lambda m: m.bit_count() + v[full ^ m] - v[full], True)

    def direct_sum(self, other):
        """Direct sum on the concatenated ground set: the second
        summand's elements are shifted by self.n, so a mask's low self.n
        bits index the first table and its high bits the second."""
        if not (self.is_matroid and other.is_matroid):
            raise ValueError("direct_sum is defined for matroids only")
        v1, v2, n1 = self.values, other.values, self.n
        low = (1 << n1) - 1
        return RankFunction(
            n1 + other.n, lambda m: v1[m & low] + v2[m >> n1], True)


def check_matroid_axioms(f):
    """Exhaustively verify the matroid rank axioms. Returns (True, None)
    or (False, description of the first violation)."""
    return _check_local_axioms(f, unit_increase=True)


def check_polymatroid_axioms(f):
    """Exhaustively verify the integral polymatroid axioms. Returns
    (True, None) or (False, description of the first violation)."""
    return _check_local_axioms(f, unit_increase=False)


def _check_local_axioms(f, unit_increase):
    """Check f(empty) = 0, 0 <= f(A+i) - f(A) (<= 1 if `unit_increase`)
    and f(A+i) + f(A+j) >= f(A+i+j) + f(A) for every A and i, j not in
    A. Summed along chains these give non-negativity, monotonicity,
    rank(X) <= |X| and submodularity for every pair of subsets, so the
    verdict equals the pairwise O(4^n) check's at O(2^n n^2) cost."""
    n = f.n
    ranks = f.values

    def labels(mask):
        return [i + 1 for i in range(n) if mask >> i & 1]

    if ranks[0] != 0:
        return False, "value on the empty set is nonzero"
    for mask in range(1 << n):
        outside = [1 << i for i in range(n) if not mask >> i & 1]
        for bit in outside:
            step = ranks[mask | bit] - ranks[mask]
            if step < 0:
                return False, (f"monotonicity fails on {labels(mask)}"
                               f" subset of {labels(mask | bit)}")
            if unit_increase and step > 1:
                return False, (f"cardinality axiom fails: rank rises by"
                               f" {step} from {labels(mask)} to"
                               f" {labels(mask | bit)}")
        for k, bi in enumerate(outside):
            for bj in outside[k + 1:]:
                if (ranks[mask | bi] + ranks[mask | bj]
                        < ranks[mask | bi | bj] + ranks[mask]):
                    return False, (f"submodularity fails on"
                                   f" {labels(mask | bi)},"
                                   f" {labels(mask | bj)}")
    return True, None

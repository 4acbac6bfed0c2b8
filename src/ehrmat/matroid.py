"""Rank-function oracles: uniform, graphic, explicit-bases, and
tabulated polymatroid, plus axiom validation, duality and direct sums.

Ground sets are [n] = {1, ..., n}; subsets are passed around as
frozensets of 1-based labels.
"""

import os

UNIFORM = "uniform"
GRAPHIC = "graphic"
BASES = "bases"
TABLE = "table"

AXIOM_GUARD_N = 20


class BudgetExceeded(Exception):
    """An exhaustive enumeration guard was hit."""


def guard_n(n, default_limit, what):
    """Raise BudgetExceeded when n exceeds the guard. EHRMAT_BUDGET, if
    set, overrides the default limit (it is the largest ground-set size
    the enumeration guards accept)."""
    override = os.environ.get("EHRMAT_BUDGET")
    limit = int(override) if override else default_limit
    if n > limit:
        raise BudgetExceeded(f"{what} guard: n={n} exceeds limit {limit}")


class RankFunction:
    """Immutable rank oracle over subsets of {1, ..., n}."""

    def __init__(self, n, kind, data, is_matroid):
        self.n = n
        self.kind = kind
        self.data = data
        self.is_matroid = is_matroid

    # -- constructors -------------------------------------------------

    @staticmethod
    def uniform(n, r):
        if not (0 <= r <= n):
            raise ValueError("need 0 <= r <= n")
        return RankFunction(n, UNIFORM, r, True)

    @staticmethod
    def graphic(n_edges, edges):
        """Cycle matroid of a graph; edges[i] = (u, v) is element i+1."""
        if len(edges) != n_edges:
            raise ValueError("edge count mismatch")
        return RankFunction(n_edges, GRAPHIC, tuple(tuple(e) for e in edges), True)

    @staticmethod
    def from_bases(n, bases):
        bases = [frozenset(b) for b in bases]
        if not bases:
            raise ValueError("need at least one basis")
        r = len(bases[0])
        if any(len(b) != r for b in bases):
            raise ValueError("bases must share cardinality")
        if any(not b <= set(range(1, n + 1)) for b in bases):
            raise ValueError("basis element out of range")
        return RankFunction(n, BASES, frozenset(bases), True)

    @staticmethod
    def from_table(n, table, is_matroid=False):
        """Tabulated rank function; `table` maps frozensets to values,
        with the empty set implied to be 0."""
        t = {frozenset(k): int(v) for k, v in table.items()}
        t[frozenset()] = 0
        return RankFunction(n, TABLE, t, is_matroid)

    # -- evaluation ---------------------------------------------------

    def rank(self, subset):
        a = frozenset(subset)
        if not a <= set(range(1, self.n + 1)):
            raise ValueError("element out of range")
        if self.kind == UNIFORM:
            return min(len(a), self.data)
        if self.kind == GRAPHIC:
            return self._graphic_rank(a)
        if self.kind == BASES:
            return self._bases_rank(a)
        return self.data[a]

    __call__ = rank

    def _graphic_rank(self, a):
        parent = {}

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        r = 0
        for e in a:
            u, v = self.data[e - 1]
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r

    def _bases_rank(self, a):
        # greedy works because independent sets of a matroid extend to
        # a maximum independent subset of any superset
        best = max(len(a & b) for b in self.data)
        return best

    def is_independent(self, subset):
        a = frozenset(subset)
        return self.rank(a) == len(a)

    # -- derived oracles ----------------------------------------------

    def dual(self):
        """Dual matroid: rank*(A) = |A| + rank([n] - A) - rank([n])."""
        if not self.is_matroid:
            raise ValueError("dual is defined for matroids only")
        ground = frozenset(range(1, self.n + 1))
        total = self.rank(ground)
        outer = self

        class _Dual(RankFunction):
            def rank(self, subset):
                a = frozenset(subset)
                if not a <= ground:
                    raise ValueError("element out of range")
                return len(a) + outer.rank(ground - a) - total

            __call__ = rank

        return _Dual(self.n, "dual", self, True)

    def direct_sum(self, other):
        """Direct sum on the concatenated ground set: the second
        summand's elements are shifted by self.n."""
        if not (self.is_matroid and other.is_matroid):
            raise ValueError("direct_sum is defined for matroids only")
        n1 = self.n
        f1, f2 = self, other
        n_total = n1 + other.n

        class _Sum(RankFunction):
            def rank(self, subset):
                a = frozenset(subset)
                if not a <= set(range(1, n_total + 1)):
                    raise ValueError("element out of range")
                left = frozenset(e for e in a if e <= n1)
                right = frozenset(e - n1 for e in a if e > n1)
                return f1.rank(left) + f2.rank(right)

            __call__ = rank

        return _Sum(n_total, "direct_sum", (self, other), True)


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
    guard_n(f.n, AXIOM_GUARD_N, "axiom check")
    n = f.n

    def labels(mask):
        return [i + 1 for i in range(n) if mask >> i & 1]

    ranks = [f.rank(frozenset(labels(mask))) for mask in range(1 << n)]
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

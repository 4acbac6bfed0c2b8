"""Rank-function oracles: uniform, graphic, explicit-bases and
tabulated, plus axiom validation. The axiom checks judge a table by
its values alone: no constructor marks it a matroid's or a polymatroid's.

Ground sets are [n] = {1, ..., n}. A rank function is held as the table
`values` of its 2^n values, indexed by bitmask: bit i-1 of a mask stands
for element i, so values[0] is f(empty) and values[-1] is f([n]). Each
constructor fills the table once; every consumer indexes it by mask.
"""

TABLE_GUARD_N = 20


class BudgetExceeded(Exception):
    """An exhaustive enumeration guard was hit."""


def guard_n(n, limit, what):
    """Raise BudgetExceeded when n exceeds `limit`, the largest
    ground-set size the `what` guard accepts. A negative n is no
    ground-set size: ValueError, before any caller shifts by it."""
    if n < 0:
        raise ValueError(f"matroid: ground-set size n = {n} is negative")
    if n > limit:
        raise BudgetExceeded(f"{what} guard: n={n} exceeds limit {limit}")


def _mask(subset, n):
    mask = 0
    for e in subset:
        if e not in range(1, n + 1):
            raise ValueError(f"matroid: element {e} is out of range"
                             f" 1..n, n = {n}")
        mask |= 1 << (e - 1)
    return mask


class RankFunction:
    """Immutable rank oracle over subsets of {1, ..., n}: `values[mask]`
    is the rank of the subset with bitmask `mask`, computed at
    construction by `rank_of(mask)` for every mask."""

    def __init__(self, n, rank_of):
        guard_n(n, TABLE_GUARD_N, "rank table")
        self.n = n
        self.values = tuple(map(rank_of, range(1 << n)))

    # -- constructors -------------------------------------------------

    @staticmethod
    def uniform(n, r):
        if not (0 <= r <= n):
            raise ValueError("matroid: need 0 <= r <= n")
        return RankFunction(n, lambda m: min(m.bit_count(), r))

    @staticmethod
    def graphic(edges):
        """Cycle matroid of a graph; edges[i] = (u, v) is element i+1,
        so n = len(edges). The rank of an edge set is the size of a
        spanning forest of it, grown by union-find."""
        edges = [tuple(e) for e in edges]
        if any(len(e) != 2 for e in edges):
            raise ValueError("matroid: every edge must be a pair")

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

        return RankFunction(len(edges), forest_size)

    @staticmethod
    def from_bases(n, bases):
        """Matroid given by its bases: the rank of A is the largest
        |A & B| over the bases B, since an independent subset of A
        extends to a basis.

        The table is filled by downward closure. The subsets of the
        listed bases, the independent sets, are marked one size at a
        time, from the bases down. Then r(A) = |A| for an independent A,
        and r(A) = max r(A - e) over e in A otherwise: some e of A lies
        outside the B that attains the largest |A & B|, and taking an
        element away never raises |A & B|. So the table is the largest
        |A & B| for any list of equal-size sets, a matroid's or not. The
        scan over e stops at min(|A| - 1, rank), the largest value a
        dependent A can take."""
        guard_n(n, TABLE_GUARD_N, "rank table")
        bases = [frozenset(b) for b in bases]
        if not bases:
            raise ValueError("matroid: need at least one basis")
        r = len(bases[0])
        if any(len(b) != r for b in bases):
            raise ValueError("matroid: bases must share cardinality")
        level = {_mask(b, n) for b in bases}
        independent = set(level)
        while level:
            level = {m ^ (1 << i) for m in level for i in range(n)
                     if m >> i & 1}
            independent |= level
        values = [0] * (1 << n)
        for a in range(1, 1 << n):
            size = a.bit_count()
            if a in independent:
                values[a] = size
                continue
            best, cap, rest = 0, min(size - 1, r), a
            while rest and best < cap:
                low = rest & -rest
                best = max(best, values[a ^ low])
                rest ^= low
            values[a] = best
        return RankFunction(n, values.__getitem__)

    @staticmethod
    def from_table(n, table):
        """Tabulated rank function; `table` maps every non-empty subset
        to its value, and the empty set to its value if listed, else 0.
        A value that is not an int (a float, string or bool) is a
        ValueError naming its subset: nothing is coerced."""
        guard_n(n, TABLE_GUARD_N, "rank table")
        t = {}
        for a, v in table.items():
            if type(v) is not int:
                raise ValueError(f"matroid: value of subset {sorted(a)}"
                                 f" must be an integer, got {v!r}")
            t[_mask(a, n)] = v
        t.setdefault(0, 0)
        if len(t) != 1 << n:
            raise ValueError("matroid: table must list every non-empty"
                             " subset")
        return RankFunction(n, t.__getitem__)

    # -- evaluation ---------------------------------------------------

    def rank(self, subset):
        """The rank of a subset of {1, ..., n}; ValueError for an
        element out of range."""
        return self.values[_mask(subset, self.n)]


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

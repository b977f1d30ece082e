"""Finite graded posets: construction and joins.

Elements carry opaque sortable labels; internally everything is indexed
by position in the sorted label list, and the order relation is
materialized as one bitmask per element, so chain enumeration and
interval tests are cheap.  Product posets and poset morphisms are in
``orbitcoh.morphisms``.
"""

from __future__ import annotations

from itertools import combinations


class Cyclic(Exception):
    """The cover relation contains a directed cycle."""


class NotSemilattice(Exception):
    """Some pair of elements has no least upper bound."""


class GradedPoset:
    """Finite poset with a rank function, given by labels and cover pairs.

    ``graded`` says whether every cover raises rank by exactly 1; a few
    posets (the intersection lattice, which is not graded where sigma
    merges) carry a rank that is only bookkeeping.  A caller that needs a
    graded poset, as the poset parser and cellular forms do, reads it.
    ``lower[x]`` and ``upper[x]`` list the lower and upper covers of x in
    ascending index order, whatever the order of the given covers: both
    are filled from the sorted cover list.  Cellular forms stack the
    pieces below x in this order.
    """

    __slots__ = ("labels", "index", "rank", "covers", "n", "up", "down",
                 "upper", "lower", "graded", "topo", "_join")

    def __init__(self, labels, covers, rank):
        self.labels = tuple(sorted(labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        self.n = len(self.labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.rank = tuple(int(rank[lab]) for lab in self.labels)
        if any(r < 0 for r in self.rank):
            raise ValueError("ranks must be nonnegative")
        cov = sorted({(self.index[lo], self.index[hi]) for lo, hi in covers})
        for lo, hi in cov:
            if lo == hi:
                raise Cyclic(f"self-cover at {self.labels[lo]}")
        self.covers = tuple(cov)
        self.upper = [[] for _ in range(self.n)]
        self.lower = [[] for _ in range(self.n)]
        for lo, hi in self.covers:
            self.upper[lo].append(hi)
            self.lower[hi].append(lo)

        order = self._toposort()
        self.topo = tuple(order)
        self.graded = all(self.rank[hi] == self.rank[lo] + 1 for lo, hi in self.covers)

        down = [1 << i for i in range(self.n)]
        for v in order:
            for lo in self.lower[v]:
                down[v] |= down[lo]
        up = [1 << i for i in range(self.n)]
        for v in reversed(order):
            for hi in self.upper[v]:
                up[v] |= up[hi]
        self.up = up
        self.down = down
        self._join: dict[tuple[int, int], int] = {}

    def _toposort(self) -> list[int]:
        indeg = [len(self.lower[v]) for v in range(self.n)]
        stack = [v for v in range(self.n) if indeg[v] == 0]
        order = []
        while stack:
            v = stack.pop()
            order.append(v)
            for hi in self.upper[v]:
                indeg[hi] -= 1
                if indeg[hi] == 0:
                    stack.append(hi)
        if len(order) != self.n:
            raise Cyclic("cover relation contains a cycle")
        return order

    # -- order queries (index based) --------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.leq(i, j)

    def interval_mask(self, i: int, j: int) -> int:
        return self.up[i] & self.down[j]

    @staticmethod
    def mask_elements(mask: int) -> list[int]:
        """The indices of the set bits of `mask`, ascending, one step per set bit."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def minimum(self) -> int:
        mins = [v for v in range(self.n) if not self.lower[v]]
        full = (1 << self.n) - 1
        for v in mins:
            if self.up[v] == full:
                return v
        raise ValueError("poset has no minimum element")

    # -- label based API ---------------------------------------------------

    def rank_of(self, label) -> int:
        return self.rank[self.index[label]]

    def join_index(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        cached = self._join.get((i, j))
        if cached is not None:
            return cached
        mask = self.up[i] & self.up[j]
        if not mask:
            raise NotSemilattice(
                f"{self.labels[i]} and {self.labels[j]} have no upper bound")
        for z in self.mask_elements(mask):
            if self.up[z] & mask == mask:
                self._join[(i, j)] = z
                return z
        raise NotSemilattice(
            f"{self.labels[i]} and {self.labels[j]} have no least upper bound")

    def require_join_semilattice(self):
        """Raise NotSemilattice unless every two elements have a join.

        With a bottom adjoined, the poset must be a lattice.  A finite
        bounded poset is one as soon as every two elements covering a
        common element have a join (Björner, Edelman and Ziegler 1990,
        Lemma 2.1).  So it suffices to join the pairs of upper covers of
        each element and the pairs of minimal elements, and to check that
        the maximal elements, which join to a maximum, are one.
        """
        minimal = [v for v in range(self.n) if not self.lower[v]]
        maximal = [v for v in range(self.n) if not self.upper[v]]
        for group in [maximal, minimal, *self.upper]:
            for i, j in combinations(group, 2):
                self.join_index(i, j)


def join(poset: GradedPoset, x, y):
    """Least upper bound of x and y."""
    return poset.labels[poset.join_index(poset.index[x], poset.index[y])]

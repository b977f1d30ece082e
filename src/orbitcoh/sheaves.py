"""Presheaves and copresheaves of free abelian groups on a poset.

Values are free with explicit ordered bases; maps are integer matrices,
as sparse columns {row: value} (one per basis element of the source),
given on covers only, and a cover without one carries the zero map.
Composites are taken on demand along the Hasse diagram.  Functoriality
(path independence of composites) is checked by ``check_functorial``,
which propagates composites from every source element of nonzero rank.
Product sheaves and f-homomorphisms are in ``orbitcoh.morphisms``.
"""

from __future__ import annotations

from .intlinalg import identity, shape_error, sparse_apply
from .posets import GradedPoset


class NotConvex(Exception):
    """The subset is not convex, so the delta sheaf is undefined."""


class _SheafBase:
    """Shared storage for presheaves and copresheaves.

    ``maps`` is keyed by cover pairs (lo, hi) of element indices and holds
    only the maps the caller gave; a cover missing from it carries the
    zero map (read every map through :meth:`cover_map`).  For a
    copresheaf the matrix is the extension G(lo) -> G(hi); for a
    presheaf it is the restriction F(hi) -> F(lo).  Its rows must lie
    below the rank of the target and its columns number the rank of the
    source.
    """

    __slots__ = ("base", "ranks", "maps", "_composed")

    kind = "sheaf"

    def __init__(self, base: GradedPoset, ranks, maps):
        self.base = base
        self.ranks = tuple(int(r) for r in ranks)
        if len(self.ranks) != base.n or any(r < 0 for r in self.ranks):
            raise ValueError("bad rank vector")
        self.maps = {}
        for (lo, hi), m in maps.items():
            if not 0 <= lo < base.n or hi not in base.upper[lo]:
                raise ValueError(f"map key {(lo, hi)} is not a cover")
            err = shape_error(m, *self._shape(lo, hi))
            if err:
                raise ValueError(
                    f"map on cover {base.labels[lo]} -> {base.labels[hi]} has {err}")
            self.maps[(lo, hi)] = m
        self._composed: dict[tuple[int, int], list[dict[int, int]]] = {}

    def rank_of(self, label) -> int:
        return self.ranks[self.base.index[label]]

    def _cover_source_target(self, lo: int, hi: int) -> tuple[int, int]:
        raise NotImplementedError

    def _shape(self, lo: int, hi: int) -> tuple[int, int]:
        src, dst = self._cover_source_target(lo, hi)
        return self.ranks[dst], self.ranks[src]

    def cover_map(self, lo: int, hi: int) -> list[dict[int, int]]:
        """The map on cover (lo, hi): the given one, or else zero."""
        m = self.maps.get((lo, hi))
        return m if m is not None else [{} for _ in range(self._shape(lo, hi)[1])]

    def check_functorial(self):
        """Raise ValueError unless composites along any two paths agree."""
        base = self.base
        for x in range(base.n):
            if not self.ranks[x]:
                continue  # every composite out of a zero group is empty
            comp = {x: identity(self.ranks[x])}
            # walk upward from x in topological order
            for y in base.topo:
                if y == x or not base.leq(x, y):
                    continue
                for lo in base.lower[y]:
                    if lo not in comp:
                        continue
                    step = self._step_matrix(lo, y, comp[lo])
                    if y in comp:
                        if comp[y] != step:
                            raise ValueError(
                                f"functoriality fails between {base.labels[x]} "
                                f"and {base.labels[y]}")
                    else:
                        comp[y] = step

    def _step_matrix(self, lo: int, hi: int, acc):
        raise NotImplementedError

    def map(self, x, y) -> list[dict[int, int]]:
        """Composed structure map for labels x <= y: G(x) -> G(y), or F(y) -> F(x)."""
        i, j = self.base.index[x], self.base.index[y]
        return self.map_index(i, j)

    def map_index(self, i: int, j: int) -> list[dict[int, int]]:
        if not self.base.leq(i, j):
            raise ValueError("elements are not comparable")
        key = (i, j)
        cached = self._composed.get(key)
        if cached is not None:
            return cached
        if i == j:
            out = identity(self.ranks[i])
        else:
            # follow one saturated chain; legal by functoriality
            for lo in self.base.lower[j]:
                if self.base.leq(i, lo):
                    out = self._step_matrix(lo, j, self.map_index(i, lo))
                    break
            else:  # pragma: no cover - unreachable on validated posets
                raise ValueError("no path found")
        self._composed[key] = out
        return out


class Copresheaf(_SheafBase):
    """Covariant assignment; extension matrices go up covers."""

    kind = "co"

    def _cover_source_target(self, lo, hi):
        return lo, hi

    def _step_matrix(self, lo, hi, acc):
        ext = self.cover_map(lo, hi)
        return [sparse_apply(ext, col) for col in acc]


class Presheaf(_SheafBase):
    """Contravariant assignment; restriction matrices go down covers."""

    kind = "pre"

    def _cover_source_target(self, lo, hi):
        return hi, lo

    def _step_matrix(self, lo, hi, acc):
        # acc: F(lo) -> F(target of walk); extend to F(hi) by precomposing
        return [sparse_apply(acc, col) for col in self.cover_map(lo, hi)]


def delta_sheaf(base: GradedPoset, subset, rank: int, kind: str):
    """Sheaf with constant value Z^rank on a convex subset, zero outside."""
    idx = {base.index[lab] for lab in subset}
    if len(idx) < base.n:  # the whole poset is convex
        for i in idx:
            for j in idx:
                if base.leq(i, j):
                    between = base.interval_mask(i, j)
                    for z in base.mask_elements(between):
                        if z not in idx:
                            raise NotConvex(
                                f"{base.labels[z]} lies between two subset "
                                f"elements but is missing")
    ranks = [rank if i in idx else 0 for i in range(base.n)]
    one = identity(rank)
    maps = {(lo, hi): one for lo in idx for hi in base.upper[lo] if hi in idx}
    cls = Copresheaf if kind == "co" else Presheaf
    return cls(base, ranks, maps)

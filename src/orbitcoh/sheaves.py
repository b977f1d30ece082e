"""Presheaves and copresheaves of free abelian groups on a poset.

Values are free with explicit ordered bases; maps are integer matrices,
as sparse columns {row: value} (one per basis element of the source),
given on covers only, and a cover without one carries the zero map.
Composites are taken on demand along the Hasse diagram.  Functoriality
(path independence of composites) is validated at construction by
propagating composites from every source element of nonzero rank.
"""

from __future__ import annotations

from .intlinalg import identity, kron, shape_error, sparse_apply
from .posets import GradedPoset, PosetMorphism


class NotConvex(Exception):
    """The subset is not convex, so the delta sheaf is undefined."""


class NotExtremal(Exception):
    """The chosen element is not minimal/maximal in its fiber."""


class Incompatible(Exception):
    """An f-homomorphism square fails to commute."""


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

    def __init__(self, base: GradedPoset, ranks, maps, check: bool = True):
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
        if check:
            self._check_functorial()

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

    def _check_functorial(self):
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
        # cache nothing here; composites are rebuilt lazily by map()

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
            # follow one saturated chain; legal by validated functoriality
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
    return cls(base, ranks, maps, check=False)


def product_sheaf(s1, s2, prod_base: GradedPoset):
    """Cartesian product sheaf on a product poset; values are tensor products.

    Basis pairing is row-major with the first factor major, matching
    :func:`orbitcoh.intlinalg.kron`.
    """
    if s1.kind != s2.kind:
        raise ValueError("mixed sheaf kinds")
    ranks = [s1.rank_of(a) * s2.rank_of(b) for a, b in prod_base.labels]
    maps = {}
    for lo, hi in prod_base.covers:
        (a1, b1) = prod_base.labels[lo]
        (a2, b2) = prod_base.labels[hi]
        b_rows = s2.rank_of(b2 if s2.kind == "co" else b1)
        maps[(lo, hi)] = kron(s1.map(a1, a2), s2.map(b1, b2), b_rows)
    return type(s1)(prod_base, ranks, maps, check=False)


class FHom:
    """Collection of maps F(x) -> E(f(x)) compatible with the structure maps."""

    __slots__ = ("f", "source", "target", "components", "kind")

    def __init__(self, f: PosetMorphism, source, target, components,
                 check: bool = True):
        if source.kind != target.kind:
            raise ValueError("mixed sheaf kinds")
        self.kind = source.kind
        self.f = f
        self.source = source
        self.target = target
        self.components = {}
        for i in range(f.source.n):
            m = components[i]
            err = shape_error(m, target.ranks[f.image[i]], source.ranks[i])
            if err:
                raise ValueError(f"component at {f.source.labels[i]} has {err}")
            self.components[i] = m
        if check:
            validate_fhom(self)

    def component(self, label) -> list[dict[int, int]]:
        return self.components[self.f.source.index[label]]


def validate_fhom(k: FHom):
    """Check every cover square commutes; raise Incompatible otherwise."""
    f = k.f
    src_poset = f.source
    for lo, hi in src_poset.covers:
        a, b = f.image[lo], f.image[hi]
        # t_hi . ext_source = ext_target . t_lo, or for presheaves
        # k_lo . restr_source = restr_target . k_hi
        after, before = (hi, lo) if k.kind == "co" else (lo, hi)
        comp = k.components[after]
        left = [sparse_apply(comp, col) for col in k.source.cover_map(lo, hi)]
        target_map = k.target.map_index(a, b)
        right = [sparse_apply(target_map, col) for col in k.components[before]]
        if left != right:
            raise Incompatible(
                f"square at cover {src_poset.labels[lo]} -> "
                f"{src_poset.labels[hi]} does not commute")


def star_fhom(f: PosetMorphism, y, x, kind: str) -> FHom:
    """The special f-homomorphism on one-point delta sheaves.

    For presheaves x must be minimal in the fiber f^-1(y); for
    copresheaves x must be maximal there.  The component is the identity
    at x and zero elsewhere.
    """
    src_poset, dst_poset = f.source, f.target
    xi, yi = src_poset.index[x], dst_poset.index[y]
    if f.image[xi] != yi:
        raise NotExtremal(f"{x} does not map to {y}")
    fiber = [i for i in range(src_poset.n) if f.image[i] == yi]
    if kind == "pre":
        extremal = all(not src_poset.lt(i, xi) for i in fiber)
    else:
        extremal = all(not src_poset.lt(xi, i) for i in fiber)
    if not extremal:
        which = "minimal" if kind == "pre" else "maximal"
        raise NotExtremal(f"{x} is not {which} in the fiber over {y}")
    src = delta_sheaf(src_poset, [x], 1, kind)
    dst = delta_sheaf(dst_poset, [y], 1, kind)
    comps = {i: [{0: 1}] if i == xi else [] for i in range(src_poset.n)}
    return FHom(f, src, dst, comps, check=True)

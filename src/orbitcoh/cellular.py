"""Cellular forms on graded posets.

A cellular form of a pair (P, G) is a P-graded free module with a
rank-decreasing differential such that, below every element x, the
complex of its pieces augmented by G(x) is exact.  That augmented
complex has G(x) in degree 0 and the rank-i pieces in degree i + 1; its
first map sends each rank-0 value into G(x) by the extension map.  A
form exists iff Tor(delta_x Z, G) is concentrated in degree rank(x) for
every x, and it is unique.  The constructor below decides existence and
builds the form in polynomial time, working up the ranks.  Morphisms of
forms and product forms are in ``orbitcoh.morphisms``.
"""

from __future__ import annotations

from typing import NamedTuple

from .intlinalg import UnitReduction, elementary_divisors, shape_error, sparse_apply
from .jsonio import SparseRows
from .posets import GradedPoset
from .sheaves import Copresheaf


class FormViolation(Exception):
    """A claimed cellular form fails one of the defining conditions."""


class NotCellular(NamedTuple):
    """Verdict that (P, G) admits no cellular form, with the failing spot.

    ``step`` is one of 'surjectivity', 'kernel-sum', 'positive-homology',
    named by the lowest degree where the augmented complex below the
    element has homology: 0, 1, or i + 1 for positive homology in degree i.
    """

    element: object
    step: str
    detail: str = ""

    def __bool__(self):
        return False


def _cover_offsets(poset: GradedPoset, sizes, x: int) -> dict[int, int]:
    """Where the piece at each lower cover of x starts in the pieces stacked below x.

    The pieces are stacked in ascending index order of the covers, the
    piece at y taking ``sizes[y]`` rows.
    """
    offsets = {}
    total = 0
    for y in poset.lower[x]:
        offsets[y] = total
        total += sizes[y]
    return offsets


def stack_blocks(poset: GradedPoset, sizes, x: int, blocks, ncols: int):
    """One map into the pieces stacked below x, from its per-cover blocks.

    ``blocks`` maps lower covers y of x to ``ncols`` sparse columns into
    the piece at y; a cover without a block gets zero.  The result has
    the layout of ``CellularForm.diff``.
    """
    offsets = _cover_offsets(poset, sizes, x)
    out: list[dict[int, int]] = [{} for _ in range(ncols)]
    for y, cols in blocks.items():
        off = offsets[y]
        for col, part in zip(out, cols):
            for r, v in part.items():
                if v:
                    col[off + r] = v
    return out


class CellularForm:
    """P-graded free module with its differential, kept per element.

    ``piece_ranks[i]`` is the rank of the piece at element i; ``diff[x]``
    is the differential out of the piece at x, one sparse column per
    basis element of that piece, over the pieces at the lower covers of
    x stacked in ascending index order.  ``block(y, x)`` reads the
    component into one lower cover y.
    """

    def __init__(self, poset: GradedPoset, copresheaf: Copresheaf,
                 piece_ranks, diff):
        self.poset = poset
        self.copresheaf = copresheaf
        self.piece_ranks = tuple(piece_ranks)
        self.diff = list(diff)
        if len(self.diff) != poset.n:
            raise ValueError("need one differential per element")
        for x, cols in enumerate(self.diff):
            below = sum(self.piece_ranks[y] for y in poset.lower[x])
            err = shape_error(cols, below, self.piece_ranks[x])
            if err:
                raise ValueError(f"differential at {poset.labels[x]} has {err}")

    def rank_of(self, label) -> int:
        return self.piece_ranks[self.poset.index[label]]

    def block(self, y: int, x: int) -> list[dict[int, int]]:
        """The component from the piece at x into the piece at its lower cover y."""
        lo = _cover_offsets(self.poset, self.piece_ranks, x)[y]
        hi = lo + self.piece_ranks[y]
        return [{r - lo: v for r, v in col.items() if lo <= r < hi} for col in self.diff[x]]

    def to_json_dict(self) -> dict:
        """Piece ranks and, for each cover between nonzero pieces, its block
        as ``SparseRows``, written as the dense block."""
        poset, pr = self.poset, self.piece_ranks
        blocks = {}
        for x, cols in enumerate(self.diff):
            if not cols:
                continue
            offsets = _cover_offsets(poset, pr, x)
            rows: list[dict[int, int]] = [{} for _ in range(sum(pr[y] for y in offsets))]
            for j, col in enumerate(cols):
                for i, v in col.items():
                    rows[i][j] = v
            for y, off in offsets.items():
                if pr[y]:
                    blocks[f"{poset.labels[y]}->{poset.labels[x]}"] = SparseRows(
                        len(cols), rows[off:off + pr[y]])
        return {
            "piece_ranks": {str(poset.labels[i]): r for i, r in enumerate(pr)},
            "differentials": blocks,
        }


def _rank0_map(poset: GradedPoset, g: Copresheaf, x: int) -> list[dict[int, int]]:
    """The extension maps of the rank-0 elements below x into x, side by side."""
    return [col for y in poset.mask_elements(poset.down[x]) if poset.rank[y] == 0
            for col in g.map_index(y, x)]


def _step(degree: int):
    """The verdict step and detail for homology in a degree of the augmented complex."""
    if degree == 0:
        return "surjectivity", "rank-0 values do not surject onto the value here"
    if degree == 1:
        return "kernel-sum", "rank-1 kernels do not generate the full kernel"
    return "positive-homology", f"homology below is nonzero in degree {degree - 1}"


def _levels(poset: GradedPoset, x: int) -> list[list[int]]:
    """The closed down-set of x by rank, each rank in ascending index order."""
    levels: list[list[int]] = [[] for _ in range(poset.rank[x] + 1)]
    for i in poset.mask_elements(poset.down[x]):
        levels[poset.rank[i]].append(i)
    return levels


def _kept_columns(poset: GradedPoset, start, pr, x: int, cols) -> list[dict[int, int]]:
    """The differential at x, its rows renumbered from the stack below x to the build numbering.

    The build numbering gives the piece at y the basis indices from
    ``start[y]`` on, the pieces taken in rank, then index order.
    """
    rows = [s for y in poset.lower[x] for s in range(start[y], start[y] + pr[y])]
    return [{rows[i]: v for i, v in col.items()} for col in cols]


def _lowest_homology(ranks, bounds, out_rank: int):
    """The first position where a complex has homology, or None, with the last reduction made.

    ``ranks[i]`` is the rank of the complex in its i-th degree from the
    bottom one checked, ``bounds[i]`` the boundary into that degree from
    the one above, and ``out_rank`` the rank of the boundary out of the
    bottom degree.  The boundaries are reduced in turn, lowest first,
    and none above the first degree with homology.
    """
    red = None
    for i, (rank, cols) in enumerate(zip(ranks, bounds)):
        red = UnitReduction(cols)
        div = red.divisors
        if rank != out_rank + len(div) or any(d != 1 for d in div):
            return i, red
        out_rank = len(div)
    return None, red


def construct_cellular_form(poset: GradedPoset, g: Copresheaf):
    """Decide cellularity of (P, G) and build the form when it exists.

    Works up the ranks, building the pieces in rank, then index order and
    numbering their bases in that order.  Each differential is kept a
    second time with its rows in that numbering, so every boundary of
    the augmented complex below x is the kept columns of one rank of its
    down-set, side by side.  At an element x of rank r, built while the
    piece at x is still zero, that complex must be exact in degrees
    0..r-1, read from one ``UnitReduction`` per boundary.  The piece at
    x is then the kernel of the top one, the map out of degree r (the
    lower covers, in ascending index order), and that kernel is the
    differential at x.  Its elimination takes the last column first, so
    a kernel with unit pivots and an empty core comes out in Hermite
    form and ``row_hermite`` runs only for a nonempty core; the Hermite
    basis is unique, so the row numbering does not change it.  Returns
    a CellularForm, or a NotCellular verdict naming the first element
    (in rank then label order) where this breaks and the step of the
    lowest failing degree: 0 is the rank-0 surjectivity test, 1 the
    kernel-sum test (the rank-1 kernels generate the kernel of the
    rank-0 map), and i + 1 positive homology in degree i.  Surjectivity
    is tested at every element before any piece is built.
    """
    if not poset.graded:
        raise ValueError("cellular forms need a genuinely graded poset")
    order = sorted(range(poset.n), key=lambda i: (poset.rank[i], i))

    for x in order:
        if poset.rank[x] == 0 or g.ranks[x] == 0:
            continue
        if elementary_divisors(_rank0_map(poset, g, x)) != [1] * g.ranks[x]:
            return NotCellular(poset.labels[x], *_step(0))

    piece_ranks = [0] * poset.n
    diff: list[list[dict[int, int]]] = [[] for _ in range(poset.n)]
    kept: list[list[dict[int, int]]] = [[] for _ in range(poset.n)]
    start = [0] * poset.n
    total = 0

    for x in order:
        r = poset.rank[x]
        if r == 0:
            piece_ranks[x] = g.ranks[x]
            diff[x] = kept[x] = [{} for _ in range(g.ranks[x])]
        else:
            if r == 1:
                top = UnitReduction(_rank0_map(poset, g, x))
            else:
                # degrees 1..r-1, the rank-0..r-2 pieces; the surjectivity
                # test left degree 0 exact, so the map out of degree 1 has
                # the rank of G(x)
                levels = _levels(poset, x)[:r]
                degree, top = _lowest_homology(
                    [sum(piece_ranks[z] for z in level) for level in levels[:-1]],
                    [[col for z in level for col in kept[z]] for level in levels[1:]],
                    g.ranks[x])
                if degree is not None:
                    return NotCellular(poset.labels[x], *_step(degree + 1))
            diff[x] = top.kernel
            piece_ranks[x] = len(diff[x])
            kept[x] = _kept_columns(poset, start, piece_ranks, x, diff[x])
        start[x] = total
        total += piece_ranks[x]

    return CellularForm(poset, g, piece_ranks, diff)


def verify_cellular_form(form: CellularForm):
    """Check a claimed form; raise FormViolation with the offending spot.

    Tests the definition directly: for every element x, the augmented
    complex of its closed down-set (G(x) in degree 0, the rank-i pieces in
    degree i + 1, the piece at x on top) has boundaries that compose to
    zero and is exact.  The boundaries are assembled from kept columns
    as in construct_cellular_form.  The lowest failing degree is named
    by its step as there.
    """
    poset, pr, g = form.poset, form.piece_ranks, form.copresheaf
    # first, so that the block layouts below agree with G's ranks
    for x in range(poset.n):
        if poset.rank[x] == 0 and pr[x] != g.ranks[x]:
            raise FormViolation(f"rank-0 piece at {poset.labels[x]}")
    order = sorted(range(poset.n), key=lambda i: (poset.rank[i], i))
    start = [0] * poset.n
    total = 0
    for x in order:
        start[x] = total
        total += pr[x]
    kept = [_kept_columns(poset, start, pr, x, cols) for x, cols in enumerate(form.diff)]
    flat = [col for x in order for col in kept[x]]  # the kept column of each basis index
    for x in range(poset.n):
        levels = _levels(poset, x)
        ext = {start[y] + j: col for y in levels[0] for j, col in enumerate(g.map_index(y, x))}
        bounds = [list(ext.values())]
        bounds += [[col for z in level for col in kept[z]] for level in levels[1:]]
        if any(sparse_apply(flat if i else ext, col)
               for i, cols in enumerate(bounds[1:]) for col in cols):
            raise FormViolation(f"d o d nonzero below {poset.labels[x]}")
        ranks = [g.ranks[x]] + [sum(pr[z] for z in level) for level in levels]
        degree, _ = _lowest_homology(ranks, bounds + [[]], 0)
        if degree is not None:
            step, detail = _step(degree)
            raise FormViolation(f"{step} fails at {poset.labels[x]} ({detail})")
    return True

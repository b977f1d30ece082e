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

from .intlinalg import (
    ChainComplex,
    InvalidComplex,
    elementary_divisors,
    homology,
    shape_error,
)
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
    for y in sorted(poset.lower[x]):
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
        """Piece ranks and, for each cover between nonzero pieces, its dense block."""
        poset, pr = self.poset, self.piece_ranks
        blocks = {}
        for x, cols in enumerate(self.diff):
            if not cols:
                continue
            offsets = _cover_offsets(poset, pr, x)
            rows = [[0] * len(cols) for _ in range(sum(pr[y] for y in offsets))]
            for j, col in enumerate(cols):
                for i, v in col.items():
                    rows[i][j] = v
            for y, off in offsets.items():
                if pr[y]:
                    blocks[f"{poset.labels[y]}->{poset.labels[x]}"] = rows[off:off + pr[y]]
        return {
            "piece_ranks": {str(poset.labels[i]): r for i, r in enumerate(pr)},
            "differentials": blocks,
        }


def _augmented_complex(poset: GradedPoset, g: Copresheaf, pr, diff, x: int) -> ChainComplex:
    """The pieces on the closed down-set of x, augmented by G(x).

    ``pr`` and ``diff`` are the piece ranks and differentials, as in
    CellularForm.  Degree 0 is G(x) and degree i + 1 is the sum of the
    rank-i pieces below x; the first map is the rank-0 extension map into
    G(x).  Each piece's columns are re-indexed from the stack of its
    lower covers into the level below.  Whether the boundaries compose
    to zero is left to the caller.
    """
    levels: list[list[int]] = [[] for _ in range(poset.rank[x] + 1)]
    for i in poset.mask_elements(poset.down[x]):
        levels[poset.rank[i]].append(i)
    bounds = {1: _rank0_map(poset, g, x)}
    for i in range(1, len(levels)):
        offset = {}
        total = 0
        for y in levels[i - 1]:
            offset[y] = total
            total += pr[y]
        cols = bounds[i + 1] = []
        for z in levels[i]:
            rows: list[int] = []  # row of the stack below z -> row of the level
            for y in _cover_offsets(poset, pr, z):
                rows += range(offset[y], offset[y] + pr[y])
            cols += [{rows[r]: v for r, v in col.items()} for col in diff[z]]
    ranks = [g.ranks[x]] + [sum(pr[i] for i in level) for level in levels]
    return ChainComplex(ranks, bounds)


def _rank0_map(poset: GradedPoset, g: Copresheaf, x: int) -> list[dict[int, int]]:
    """The extension maps of the rank-0 elements below x into x, side by side."""
    return [col for y in poset.mask_elements(poset.down[x]) if poset.rank[y] == 0
            for col in g.map_index(y, x)]


def _lowest_homology(groups):
    """The lowest degree with nonzero homology, or None if there is none."""
    return next((i for i, (b, tors) in enumerate(groups) if b or tors), None)


def _step(degree: int):
    """The verdict step and detail for homology in a degree of the augmented complex."""
    if degree == 0:
        return "surjectivity", "rank-0 values do not surject onto the value here"
    if degree == 1:
        return "kernel-sum", "rank-1 kernels do not generate the full kernel"
    return "positive-homology", f"homology below is nonzero in degree {degree - 1}"


def construct_cellular_form(poset: GradedPoset, g: Copresheaf):
    """Decide cellularity of (P, G) and build the form when it exists.

    Works up the ranks.  At an element x of rank r, the augmented complex
    below x, built while the piece at x is still zero, must be exact in
    degrees 0..r-1; the piece at x is then the kernel of its map out of
    degree r, the lower covers, read from the one ``UnitReduction`` of
    that boundary that gave homology its divisors.  Its elimination
    takes the last column first, so a kernel with unit pivots and an
    empty core comes out in Hermite form and ``row_hermite`` runs only
    for a nonempty core; its columns, over the lower covers stacked in
    ascending index order, are the differential at x.  Returns a
    CellularForm, or a NotCellular verdict naming the first element (in
    rank then label order) where this breaks and the step of the lowest
    failing degree: 0 is the rank-0 surjectivity test, 1 the kernel-sum
    test (the rank-1 kernels generate the kernel of the rank-0 map), and
    i + 1 positive homology in degree i.  Surjectivity is tested at every
    element before any piece is built.
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

    for x in order:
        r = poset.rank[x]
        if r == 0:
            piece_ranks[x] = g.ranks[x]
            diff[x] = [{} for _ in range(g.ranks[x])]
            continue
        cx = _augmented_complex(poset, g, piece_ranks, diff, x)
        degree = _lowest_homology(homology(cx).groups[:r])
        if degree is not None:
            return NotCellular(poset.labels[x], *_step(degree))
        # the new piece is the kernel of the top map, out of the lower covers
        diff[x] = cx.reduction(r).kernel
        piece_ranks[x] = len(diff[x])

    return CellularForm(poset, g, piece_ranks, diff)


def verify_cellular_form(form: CellularForm):
    """Check a claimed form; raise FormViolation with the offending spot.

    Tests the definition directly: for every element x, the augmented
    complex of its closed down-set (G(x) in degree 0, the rank-i pieces in
    degree i + 1, the piece at x on top) has boundaries that compose to
    zero and is exact.  The lowest failing degree is named by its step as
    in construct_cellular_form.
    """
    poset, pr, g = form.poset, form.piece_ranks, form.copresheaf
    # first, so that the block layouts below agree with G's ranks
    for x in range(poset.n):
        if poset.rank[x] == 0 and pr[x] != g.ranks[x]:
            raise FormViolation(f"rank-0 piece at {poset.labels[x]}")
    for x in range(poset.n):
        cx = _augmented_complex(poset, g, pr, form.diff, x)
        try:
            cx.validate()
        except InvalidComplex:
            raise FormViolation(f"d o d nonzero below {poset.labels[x]}") from None
        degree = _lowest_homology(homology(cx).groups)
        if degree is not None:
            step, detail = _step(degree)
            raise FormViolation(f"{step} fails at {poset.labels[x]} ({detail})")
    return True

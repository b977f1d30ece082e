"""Cellular forms on graded posets and their morphisms.

A cellular form of a pair (P, G) is a P-graded free module with a
rank-decreasing differential such that, below every element x, the
complex of its pieces augmented by G(x) is exact.  That augmented
complex has G(x) in degree 0 and the rank-i pieces in degree i + 1; its
first map sends each rank-0 value into G(x) by the extension map.  A
form exists iff Tor(delta_x Z, G) is concentrated in degree rank(x) for
every x, and it is unique.  The constructor below decides existence and
builds the form in polynomial time, working up the ranks; morphisms of
forms are produced by the inverse-differential recursion, which pins
them uniquely.
"""

from __future__ import annotations

from typing import NamedTuple

from .intlinalg import (
    ChainComplex,
    ColumnSolver,
    IntMatrix,
    InvalidComplex,
    elementary_divisors,
    homology,
    kron,
)
from .posets import GradedPoset, PosetMorphism, product_poset
from .sheaves import Copresheaf, FHom, product_sheaf, validate_fhom


class FormViolation(Exception):
    """A claimed cellular form fails one of the defining conditions."""


class PreconditionFailed(Exception):
    """The poset map increases rank somewhere, so no form morphism exists."""


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


class CellularForm:
    """P-graded free module with differential components on covers.

    ``piece_ranks[i]`` is the rank of the piece at element i;
    ``diff[(y, x)]`` is the component of the differential from the piece
    at x into the piece at the lower cover y.
    """

    def __init__(self, poset: GradedPoset, copresheaf: Copresheaf,
                 piece_ranks, diff):
        self.poset = poset
        self.copresheaf = copresheaf
        self.piece_ranks = tuple(piece_ranks)
        self.diff = dict(diff)
        for (y, x), m in self.diff.items():
            if m.rows != self.piece_ranks[y] or m.cols != self.piece_ranks[x]:
                raise ValueError("differential block has wrong shape")

    def rank_of(self, label) -> int:
        return self.piece_ranks[self.poset.index[label]]

    def stacked_diff(self, x: int) -> list[dict[int, int]]:
        """The differential of the piece at x into the sum of its covers, as columns."""
        pr = self.piece_ranks
        return _layout(sorted(self.poset.lower[x]), pr, [x], pr, self.diff)

    def to_json_dict(self) -> dict:
        poset = self.poset
        return {
            "piece_ranks": {str(poset.labels[i]): r
                            for i, r in enumerate(self.piece_ranks)},
            "differentials": {
                f"{poset.labels[y]}->{poset.labels[x]}": m.data
                for (y, x), m in sorted(self.diff.items())
                if m.rows and m.cols
            },
        }


def _augmented_complex(poset: GradedPoset, g: Copresheaf, pr, diff, x: int) -> ChainComplex:
    """The pieces on the closed down-set of x, augmented by G(x).

    ``pr`` and ``diff`` are the piece ranks and differential blocks, as in
    CellularForm.  Degree 0 is G(x) and degree i + 1 is the sum of the
    rank-i pieces below x; the first map is the rank-0 extension map into
    G(x).  Whether the boundaries compose to zero is left to the caller.
    """
    levels: list[list[int]] = [[] for _ in range(poset.rank[x] + 1)]
    for i in poset.mask_elements(poset.down[x]):
        levels[poset.rank[i]].append(i)
    bounds = {i + 1: _layout(levels[i - 1], pr, levels[i], pr, diff)
              for i in range(1, len(levels))}
    bounds[1] = _rank0_map(poset, g, x)
    ranks = [g.ranks[x]] + [sum(pr[i] for i in level) for level in levels]
    return ChainComplex(ranks, bounds, check=False)


def _layout(rows, row_sizes, cols, col_sizes, blocks) -> list[dict[int, int]]:
    """The map from the sum of the pieces at ``cols`` to the sum at ``rows``, as columns.

    Pieces are laid out in list order; the row piece at y has rank
    ``row_sizes[y]`` and the column piece at x has rank ``col_sizes[x]``.
    The (y, x) block is ``blocks[(y, x)]``, or zero where that is missing.
    """
    offset = {}
    total = 0
    for y in rows:
        offset[y] = total
        total += row_sizes[y]
    out = []
    for x in cols:
        piece: list[dict[int, int]] = [{} for _ in range(col_sizes[x])]
        for y in rows:
            b = blocks.get((y, x))
            if b is None:
                continue
            for a, brow in enumerate(b.data):
                for j, v in enumerate(brow):
                    if v:
                        piece[j][offset[y] + a] = v
        out += piece
    return out


def _rank0_map(poset: GradedPoset, g: Copresheaf, x: int) -> list[dict[int, int]]:
    """The extension maps of the rank-0 elements below x into x, side by side."""
    zeros = [y for y in poset.mask_elements(poset.down[x]) if poset.rank[y] == 0]
    maps = {(x, y): g.map_index(y, x) for y in zeros if g.ranks[y]}
    return _layout([x], g.ranks, zeros, g.ranks, maps)


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
    for a nonempty core; each (y, x) block is a zero matrix into which
    the kernel's nonzero entries are scattered.  Returns a
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
    diff: dict[tuple[int, int], IntMatrix] = {}

    for x in order:
        r = poset.rank[x]
        if r == 0:
            piece_ranks[x] = g.ranks[x]
            continue
        cx = _augmented_complex(poset, g, piece_ranks, diff, x)
        degree = _lowest_homology(homology(cx).groups[:r])
        if degree is not None:
            return NotCellular(poset.labels[x], *_step(degree))
        # the new piece is the kernel of the top map, split over the lower covers
        ker = cx.reduction(r).kernel
        piece_ranks[x] = len(ker)
        stacked: list[list[int]] = []  # row i of the top map -> that row of its block
        for y in sorted(poset.lower[x]):
            if piece_ranks[y]:
                block = diff[(y, x)] = IntMatrix(piece_ranks[y], len(ker))
                stacked += block.data
        for c, v in enumerate(ker):
            for i, value in v.items():
                stacked[i][c] = value

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


class FormMorphism:
    """The unique graded map between forms associated with (f, t)."""

    def __init__(self, f: PosetMorphism, source: CellularForm,
                 target: CellularForm, components: dict):
        self.f = f
        self.source = source
        self.target = target
        self.components = components

    def component(self, label) -> IntMatrix:
        return self.components[self.f.source.index[label]]

    def check_commutes(self):
        """Phi commutes with the differential on every piece (any rank drop)."""
        src, tgt, f = self.source, self.target, self.f
        poset = f.source
        for x in range(poset.n):
            fx = f.image[x]
            acc = _pushed_sum(f, self.components, src, x)
            lhs: dict[int, IntMatrix] = {}
            phi = self.components[x]
            for yq in tgt.poset.lower[fx]:
                block = tgt.diff.get((yq, fx))
                if block is None:
                    continue
                lhs[yq] = block.mul(phi)
            keys = set(acc) | set(lhs)
            for z in keys:
                a = acc.get(z)
                b = lhs.get(z)
                if a is None:
                    if not b.is_zero():
                        raise FormViolation(
                            f"morphism fails to commute at {poset.labels[x]}")
                elif b is None:
                    if not a.is_zero():
                        raise FormViolation(
                            f"morphism fails to commute at {poset.labels[x]}")
                elif a != b:
                    raise FormViolation(
                        f"morphism fails to commute at {poset.labels[x]}")
        return True


def _pushed_sum(f: PosetMorphism, components, form: CellularForm,
                x: int) -> dict[int, IntMatrix]:
    """Sum of Phi_y . d(y, x) over the lower covers y of x, grouped by f(y)."""
    pr = form.piece_ranks
    groups: dict[int, list[int]] = {}
    for y in sorted(form.poset.lower[x]):
        if (y, x) in form.diff:
            groups.setdefault(f.image[y], []).append(y)
    out = {}
    for z, ys in groups.items():
        # row r of the stacked d(y, x) meets column r of the Phi_y side by side
        phis = [components[y].column(a) for y in ys for a in range(pr[y])]
        rows = components[ys[0]].rows
        out[z] = IntMatrix.from_cols(
            [[sum(v * phis[r][i] for r, v in col.items()) for i in range(rows)]
             for col in _layout(ys, pr, [x], pr, form.diff)], rows)
    return out


def form_morphism(f: PosetMorphism, t: FHom, source: CellularForm,
                  target: CellularForm) -> FormMorphism:
    """Construct the unique morphism of cellular forms for (f, t).

    ``f`` must not increase rank; ``t`` is an f-homomorphism between the
    underlying copresheaves.  Components are built up the ranks by
    solving Phi = d^-1 Phi d, which has a unique integer solution.
    """
    poset = f.source
    tgt_poset = f.target
    for x in range(poset.n):
        if tgt_poset.rank[f.image[x]] > poset.rank[x]:
            raise PreconditionFailed(
                f"map increases rank at {poset.labels[x]}")
    if t.kind != "co":
        raise ValueError("t must be a copresheaf f-homomorphism")
    validate_fhom(t)

    solvers: dict[int, ColumnSolver] = {}
    components: dict[int, IntMatrix] = {}
    for x in sorted(range(poset.n), key=lambda i: (poset.rank[i], i)):
        fx = f.image[x]
        r, fr = poset.rank[x], tgt_poset.rank[fx]
        if r == 0:
            components[x] = t.components[x]
            continue
        if fr < r:
            components[x] = IntMatrix(target.piece_ranks[fx],
                                      source.piece_ranks[x])
            continue
        # rank-preserving piece: solve the commuting square column by column;
        # pieces at y that f moves below a lower cover of fx carry Phi = 0
        pushed = _pushed_sum(f, components, source, x)
        lower = sorted(tgt_poset.lower[fx])
        rhs_cols = _layout(lower, target.piece_ranks, [x], source.piece_ranks,
                           {(fy, x): m for fy, m in pushed.items()})
        if fx not in solvers:
            solvers[fx] = ColumnSolver(target.stacked_diff(fx),
                                       sum(target.piece_ranks[y] for y in lower))
        solver = solvers[fx]
        if target.piece_ranks[fx] == 0:
            if any(rhs_cols):
                raise FormViolation(
                    f"no room for the image of the piece at {poset.labels[x]}")
            components[x] = IntMatrix(0, source.piece_ranks[x])
            continue
        components[x] = IntMatrix.from_cols([solver.solve(rhs) for rhs in rhs_cols],
                                            target.piece_ranks[fx])
    return FormMorphism(f, source, target, components)


def product_form(form_p: CellularForm, form_q: CellularForm) -> CellularForm:
    """Cellular form of the Cartesian product pair, with Koszul signs."""
    p, q = form_p.poset, form_q.poset
    prod = product_poset(p, q)
    g = product_sheaf(form_p.copresheaf, form_q.copresheaf, prod)
    ranks = []
    for lab in prod.labels:
        a, b = lab
        ranks.append(form_p.rank_of(a) * form_q.rank_of(b))
    diff = {}
    for lo, hi in prod.covers:
        (a1, b1) = prod.labels[lo]
        (a2, b2) = prod.labels[hi]
        if a1 != a2:
            block = form_p.diff.get((p.index[a1], p.index[a2]))
            if block is None:
                continue
            mat = kron(block, IntMatrix.identity(form_q.rank_of(b1)))
        else:
            block = form_q.diff.get((q.index[b1], q.index[b2]))
            if block is None:
                continue
            mat = kron(IntMatrix.identity(form_p.rank_of(a1)), block)
            if p.rank_of(a1) % 2:
                for row in mat.data:
                    for j in range(mat.cols):
                        row[j] = -row[j]
        if mat.rows and mat.cols:
            diff[(lo, hi)] = mat
    return CellularForm(prod, g, ranks, diff)

"""Cellular forms on graded posets and their morphisms.

A cellular form of a pair (P, G) is a P-graded free module with a
rank-decreasing differential whose restriction below any element has
homology concentrated in degree zero, where it reproduces G.  It exists
iff Tor(delta_x Z, G) is concentrated in degree rank(x) for every x,
and it is unique.  The constructor below decides existence and builds
the form in polynomial time, working up the ranks; morphisms of forms
are produced by the inverse-differential recursion, which pins them
uniquely.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import (
    ChainComplex,
    IntMatrix,
    SNFSolver,
    elementary_divisors,
    homology,
    hstack,
    kernel_basis,
    kron,
    same_lattice,
)
from .posets import GradedPoset, PosetMorphism, product_poset
from .sheaves import Copresheaf, FHom, Presheaf, product_sheaf, validate_fhom


class FormViolation(Exception):
    """A claimed cellular form fails one of the defining conditions."""


class PreconditionFailed(Exception):
    """The poset map increases rank somewhere, so no form morphism exists."""


@dataclass(frozen=True)
class NotCellular:
    """Verdict that (P, G) admits no cellular form, with the failing spot.

    ``step`` is one of 'surjectivity', 'kernel-sum', 'positive-homology'.
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

    def stacked_diff(self, x: int) -> IntMatrix:
        """The differential of the piece at x into the sum of its covers."""
        pr = self.piece_ranks
        return _layout(sorted(self.poset.lower[x]), pr, [x], pr, self.diff)

    def restricted_complex(self, mask: int) -> ChainComplex:
        """Chain complex of the pieces on a down-closed set of elements."""
        poset, pr = self.poset, self.piece_ranks
        members = [i for i in poset.mask_elements(mask) if pr[i]]
        if not members:
            return ChainComplex([0], {}, check=False)
        by_rank: dict[int, list[int]] = {}
        for i in members:
            by_rank.setdefault(poset.rank[i], []).append(i)
        top = max(by_rank)
        ranks = [sum(pr[i] for i in by_rank.get(r, [])) for r in range(top + 1)]
        bounds = {r: _layout(by_rank.get(r - 1, []), pr, by_rank.get(r, []), pr,
                             self.diff)
                  for r in range(1, top + 1)}
        return ChainComplex(ranks, bounds, check=False)

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


def _layout(rows, row_sizes, cols, col_sizes, blocks) -> IntMatrix:
    """The matrix from the sum of the pieces at ``cols`` to the sum at ``rows``.

    Pieces are laid out in list order; the row piece at y has rank
    ``row_sizes[y]`` and the column piece at x has rank ``col_sizes[x]``.
    The (y, x) block is ``blocks[(y, x)]``, or zero where that is missing.
    """
    offset = {}
    total = 0
    for y in rows:
        offset[y] = total
        total += row_sizes[y]
    out = IntMatrix(total, sum(col_sizes[x] for x in cols))
    col = 0
    for x in cols:
        if col_sizes[x]:
            for y in rows:
                b = blocks.get((y, x))
                if b is None:
                    continue
                for a, brow in enumerate(b.data):
                    orow = out.data[offset[y] + a]
                    for j, v in enumerate(brow):
                        if v:
                            orow[col + j] = v
        col += col_sizes[x]
    return out


def _split_rows(mat: IntMatrix, rows, sizes) -> dict[int, IntMatrix]:
    """Inverse of ``_layout`` in the rows: the row block of each element."""
    out = {}
    start = 0
    for y in rows:
        out[y] = IntMatrix(sizes[y], mat.cols, mat.data[start:start + sizes[y]])
        start += sizes[y]
    return out


def _rank0_map(poset: GradedPoset, g: Copresheaf, x: int):
    """Rank-0 elements below x and their extension maps into x, side by side."""
    zeros = [y for y in poset.mask_elements(poset.down[x])
             if poset.rank[y] == 0 and y != x]
    maps = {(x, y): g.map_index(y, x) for y in zeros if g.ranks[y]}
    return zeros, _layout([x], g.ranks, zeros, g.ranks, maps)


def construct_cellular_form(poset: GradedPoset, g: Copresheaf):
    """Decide cellularity of (P, G) and build the form when it exists.

    Returns a CellularForm, or a NotCellular verdict naming the first
    element (in rank then label order) where the construction breaks
    and which condition broke: the rank-0 surjectivity test, the
    kernel-sum test, or positive homology strictly below the element.
    """
    if not poset.graded:
        raise ValueError("cellular forms need a genuinely graded poset")
    order = sorted(range(poset.n), key=lambda i: (poset.rank[i], i))

    for x in order:
        if poset.rank[x] == 0 or g.ranks[x] == 0:
            continue
        _, mat = _rank0_map(poset, g, x)
        if elementary_divisors(mat) != [1] * g.ranks[x]:
            return NotCellular(poset.labels[x], "surjectivity",
                               "rank-0 values do not surject onto the value here")

    piece_ranks = [0] * poset.n
    diff: dict[tuple[int, int], IntMatrix] = {}

    for x in order:
        r = poset.rank[x]
        if r == 0:
            piece_ranks[x] = g.ranks[x]
            continue
        zeros, mat = _rank0_map(poset, g, x)
        if r == 1:
            lowers, d = zeros, mat
        else:
            # kernel-sum condition: rank-1 kernels below x must generate the
            # full kernel of the rank-0 map, as a lattice
            below = poset.down[x] & ~(1 << x)
            ones = [y for y in poset.mask_elements(below) if poset.rank[y] == 1]
            gens = _layout(zeros, piece_ranks, ones, piece_ranks, diff).transpose()
            if not same_lattice(gens.data, kernel_basis(mat), mat.cols):
                return NotCellular(poset.labels[x], "kernel-sum",
                                   "rank-1 kernels do not generate the full kernel")

            # positive homology of the part strictly below x must vanish in
            # degrees 1..r-2 (degree r-1 cycles become the new piece)
            partial = CellularForm(poset, g, piece_ranks, diff)
            cx = partial.restricted_complex(below)
            h = homology(cx)
            for i in range(1, r - 1):
                b, tors = h.groups[i] if i < len(h.groups) else (0, ())
                if b or tors:
                    return NotCellular(poset.labels[x], "positive-homology",
                                       f"homology below is nonzero in degree {i}")
            lowers, d = sorted(poset.lower[x]), cx.boundary(r - 1)
        # the new piece is the kernel of d, split over the lower covers
        ker = IntMatrix.from_cols(kernel_basis(d), d.cols)
        piece_ranks[x] = ker.cols
        for y, block in _split_rows(ker, lowers, piece_ranks).items():
            if block.rows:
                diff[(y, x)] = block

    return CellularForm(poset, g, piece_ranks, diff)


def verify_cellular_form(form: CellularForm, g: Copresheaf | None = None,
                         slow: bool = False):
    """Check a claimed form; raise FormViolation with the offending spot.

    The default check is the three-condition shortcut (rank-0 pieces,
    rank-1 kernels, three-term integral exactness), which characterizes
    the form once the pair is known to be cellular.  ``slow=True`` runs
    the full definition instead: trivial positive homology below every
    element and degree-zero homology reproducing G.
    """
    if g is None:
        g = form.copresheaf
    poset = form.poset
    pr = form.piece_ranks
    # first, so that the block layouts below agree with G's ranks
    for x in range(poset.n):
        if poset.rank[x] == 0 and pr[x] != g.ranks[x]:
            raise FormViolation(f"rank-0 piece at {poset.labels[x]}")
    if slow:
        for x in range(poset.n):
            cx = form.restricted_complex(poset.down[x])
            h = homology(cx)
            for i in range(1, len(h.groups)):
                b, tors = h.groups[i]
                if b or tors:
                    raise FormViolation(
                        f"positive homology below {poset.labels[x]} in degree {i}")
            if poset.rank[x] == 0:
                continue
            # H_0 below x must be G(x) via the extension maps: the kernel of
            # the summed extension map equals the image of the differential
            zeros, mat = _rank0_map(poset, g, x)
            ones = [y for y in poset.mask_elements(poset.down[x])
                    if poset.rank[y] == 1]
            img = _layout(zeros, pr, ones, pr, form.diff)
            if elementary_divisors(mat) != [1] * g.ranks[x]:
                raise FormViolation(f"values below {poset.labels[x]} do not surject")
            if not same_lattice(img.transpose().data, kernel_basis(mat), mat.cols):
                raise FormViolation(
                    f"degree-0 homology below {poset.labels[x]} is not G there")
        return True

    for x in range(poset.n):
        r = poset.rank[x]
        if r == 0:
            continue
        if r == 1:
            _, mat = _rank0_map(poset, g, x)
            stack = form.stacked_diff(x)
            cols = [stack.column(j) for j in range(stack.cols)]
            if not same_lattice(cols, kernel_basis(mat), mat.cols):
                raise FormViolation(
                    f"rank-1 piece at {poset.labels[x]} is not the kernel")
            if len(elementary_divisors(stack)) != form.piece_ranks[x]:
                raise FormViolation(
                    f"differential not injective at {poset.labels[x]}")
            continue
        stack = form.stacked_diff(x)
        twos = [z for z in poset.mask_elements(poset.down[x])
                if poset.rank[z] == r - 2]
        nxt = _layout(twos, pr, sorted(poset.lower[x]), pr, form.diff)
        if not nxt.mul(stack).is_zero():
            raise FormViolation(f"d o d nonzero above {poset.labels[x]}")
        if len(elementary_divisors(stack)) != form.piece_ranks[x]:
            raise FormViolation(f"differential not injective at {poset.labels[x]}")
        cols = [stack.column(j) for j in range(stack.cols)]
        if not same_lattice(cols, kernel_basis(nxt), nxt.cols):
            raise FormViolation(
                f"three-term sequence not exact at {poset.labels[x]}")
    return True


def cellular_chain(form: CellularForm, f: Presheaf) -> ChainComplex:
    """The cellular chain complex of the form with presheaf coefficients."""
    poset = form.poset
    if f.base is not poset:
        raise ValueError("presheaf lives on a different poset")
    top = max(poset.rank) if poset.n else 0
    by_rank: dict[int, list[int]] = {}
    for i in range(poset.n):
        by_rank.setdefault(poset.rank[i], []).append(i)
    sizes = [form.piece_ranks[i] * f.ranks[i] for i in range(poset.n)]
    ranks = [sum(sizes[x] for x in by_rank.get(r, [])) for r in range(top + 1)]
    blocks = {(y, x): kron(d, f.map_index(y, x))
              for (y, x), d in form.diff.items() if sizes[y] and sizes[x]}
    bounds = {r: _layout(by_rank.get(r - 1, []), sizes, by_rank.get(r, []), sizes,
                         blocks)
              for r in range(1, top + 1)}
    return ChainComplex(ranks, bounds, check=True)


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
    return {z: hstack([components[y] for y in ys]).mul(
                _layout(ys, pr, [x], pr, form.diff))
            for z, ys in groups.items()}


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

    solvers: dict[int, SNFSolver] = {}
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
        rhs = _layout(sorted(tgt_poset.lower[fx]), target.piece_ranks,
                      [x], source.piece_ranks,
                      {(fy, x): m for fy, m in pushed.items()})
        rhs_cols = [rhs.column(j) for j in range(rhs.cols)]
        if fx not in solvers:
            solvers[fx] = SNFSolver(target.stacked_diff(fx))
        solver = solvers[fx]
        if target.piece_ranks[fx] == 0:
            if any(any(rhs) for rhs in rhs_cols):
                raise FormViolation(
                    f"no room for the image of the piece at {poset.labels[x]}")
            components[x] = IntMatrix(0, source.piece_ranks[x])
            continue
        sol_cols = [solver.solve(rhs) for rhs in rhs_cols]
        components[x] = IntMatrix.from_cols(sol_cols, target.piece_ranks[fx]) \
            if sol_cols else IntMatrix(target.piece_ranks[fx], 0)
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

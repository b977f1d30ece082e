"""The product induced by intersection, by the form-morphism route.

Poset morphisms (the join map P x P -> P among them), f-homomorphisms
of sheaves along them, product posets, sheaves and forms, the unique
form morphism for a pair (f, t), and the comparison of the constructed
form of a geometric lattice with its nbc presentation, product by
product.

No CLI command runs this route, so none loads this module: a child
without a bytecode cache compiles every module it loads.  It imports
neither ``oracle`` nor ``verify``.
"""

from __future__ import annotations

from .cellular import (
    CellularForm,
    FormViolation,
    construct_cellular_form,
    stack_blocks,
    verify_cellular_form,
)
from .intlinalg import (
    ColumnSolver,
    NoIntegerSolution,
    NonUnique,
    identity,
    kron,
    shape_error,
    sparse_apply,
)
from .osalg import OSAlgebra
from .posets import GradedPoset
from .sheaves import delta_sheaf

# -- poset morphisms and products ---------------------------------------------


def product_poset(p: GradedPoset, q: GradedPoset) -> GradedPoset:
    """Componentwise order on pairs; rank adds."""
    labels = [(a, b) for a in p.labels for b in q.labels]
    rank = {(a, b): p.rank_of(a) + q.rank_of(b) for a, b in labels}
    covers = []
    for lo, hi in p.covers:
        for b in q.labels:
            covers.append(((p.labels[lo], b), (p.labels[hi], b)))
    for lo, hi in q.covers:
        for a in p.labels:
            covers.append(((a, q.labels[lo]), (a, q.labels[hi])))
    return GradedPoset(labels, covers, rank)


class PosetMorphism:
    """Order-preserving map between posets, stored label to label."""

    __slots__ = ("source", "target", "mapping", "image")

    def __init__(self, source: GradedPoset, target: GradedPoset, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        if set(self.mapping) != set(source.labels):
            raise ValueError("morphism must be defined on every element")
        self.image = [target.index[self.mapping[lab]] for lab in source.labels]
        for lo, hi in source.covers:
            if not target.leq(self.image[lo], self.image[hi]):
                raise ValueError(
                    f"map does not preserve order on cover "
                    f"{source.labels[lo]} -> {source.labels[hi]}")

    def __call__(self, label):
        return self.mapping[label]


def identity_morphism(p: GradedPoset) -> PosetMorphism:
    return PosetMorphism(p, p, {lab: lab for lab in p.labels})


def join_morphism(p: GradedPoset) -> PosetMorphism:
    """The join map P x P -> P as a poset morphism."""
    p.require_join_semilattice()
    prod = product_poset(p, p)
    mapping = {(a, b): p.labels[p.join_index(p.index[a], p.index[b])]
               for a in p.labels for b in p.labels}
    return PosetMorphism(prod, p, mapping)


# -- product sheaves and f-homomorphisms --------------------------------------


class NotExtremal(Exception):
    """The chosen element is not minimal/maximal in its fiber."""


class Incompatible(Exception):
    """An f-homomorphism square fails to commute."""


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
    return type(s1)(prod_base, ranks, maps)


class FHom:
    """Maps F(x) -> E(f(x)) compatible with the structure maps, checked when built."""

    __slots__ = ("f", "source", "target", "components", "kind")

    def __init__(self, f: PosetMorphism, source, target, components):
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
    return FHom(f, src, dst, comps)


# -- form morphisms and product forms -----------------------------------------


class PreconditionFailed(Exception):
    """The poset map increases rank somewhere, so no form morphism exists."""


class FormMorphism:
    """The unique graded map between forms associated with (f, t)."""

    def __init__(self, f: PosetMorphism, source: CellularForm,
                 target: CellularForm, components: dict):
        self.f = f
        self.source = source
        self.target = target
        self.components = components

    def component(self, label) -> list[dict[int, int]]:
        return self.components[self.f.source.index[label]]

    def check_commutes(self):
        """Phi commutes with the differential on every piece (any rank drop)."""
        src, tgt, f = self.source, self.target, self.f
        poset = f.source
        for x in range(poset.n):
            fx = f.image[x]
            lhs = [sparse_apply(tgt.diff[fx], col) for col in self.components[x]]
            if _pushed_rhs(f, self.components, src, tgt, x) != lhs:
                raise FormViolation(f"morphism fails to commute at {poset.labels[x]}")
        return True


def _pushed_rhs(f: PosetMorphism, components, source: CellularForm,
                target: CellularForm, x: int):
    """Phi . d at the piece at x, stacked over the lower covers of f(x), or None.

    The sum of Phi_y . d(y, x) over the lower covers y of x lands in the
    pieces at the f(y); it is None when one of those is not a lower cover
    of f(x) yet gets a nonzero part.
    """
    fx = f.image[x]
    ncols = source.piece_ranks[x]
    sums: dict[int, list[dict[int, int]]] = {}
    for y in source.poset.lower[x]:
        acc = sums.setdefault(f.image[y], [{} for _ in range(ncols)])
        for total, col in zip(acc, source.block(y, x)):
            for i, w in sparse_apply(components[y], col).items():
                total[i] = total.get(i, 0) + w
    inside = {z: sums.pop(z) for z in target.poset.lower[fx] if z in sums}
    if any(any(col.values()) for cols in sums.values() for col in cols):
        return None
    return stack_blocks(target.poset, target.piece_ranks, fx, inside, ncols)


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

    solvers: dict[int, ColumnSolver] = {}
    components: dict[int, list[dict[int, int]]] = {}
    for x in sorted(range(poset.n), key=lambda i: (poset.rank[i], i)):
        fx = f.image[x]
        r, fr = poset.rank[x], tgt_poset.rank[fx]
        if r == 0:
            components[x] = t.components[x]
            continue
        if fr < r:
            components[x] = [{} for _ in range(source.piece_ranks[x])]
            continue
        # rank-preserving piece: solve the commuting square column by column;
        # pieces at y that f moves below a lower cover of fx carry Phi = 0
        rhs_cols = _pushed_rhs(f, components, source, target, x)
        if rhs_cols is None or (target.piece_ranks[fx] == 0 and any(rhs_cols)):
            raise FormViolation(
                f"no room for the image of the piece at {poset.labels[x]}")
        if fx not in solvers:
            below = sum(target.piece_ranks[y] for y in tgt_poset.lower[fx])
            solvers[fx] = ColumnSolver(target.diff[fx], below)
        components[x] = [solvers[fx].solve(rhs) for rhs in rhs_cols]
    return FormMorphism(f, source, target, components)


def product_form(form_p: CellularForm, form_q: CellularForm) -> CellularForm:
    """Cellular form of the Cartesian product pair, with Koszul signs."""
    p, q = form_p.poset, form_q.poset
    prod = product_poset(p, q)
    g = product_sheaf(form_p.copresheaf, form_q.copresheaf, prod)
    ranks = [form_p.rank_of(a) * form_q.rank_of(b) for a, b in prod.labels]
    blocks: list[dict[int, list[dict[int, int]]]] = [{} for _ in range(prod.n)]
    for lo, hi in prod.covers:
        (a1, b1) = prod.labels[lo]
        (a2, b2) = prod.labels[hi]
        rq = form_q.rank_of(b1)
        if a1 != a2:
            mat = kron(form_p.block(p.index[a1], p.index[a2]), identity(rq), rq)
        else:
            block = form_q.block(q.index[b1], q.index[b2])
            mat = kron(identity(form_p.rank_of(a1)), block, rq)
            if p.rank_of(a1) % 2:
                mat = [{r: -v for r, v in col.items()} for col in mat]
        blocks[hi][lo] = mat
    diff = [stack_blocks(prod, ranks, x, blocks[x], ranks[x]) for x in range(prod.n)]
    return CellularForm(prod, g, ranks, diff)


# -- comparison with the nbc presentation -------------------------------------


class Mismatch(Exception):
    """The nbc and cellular routes disagree; the implementation is wrong."""


def nbc_form(alg: OSAlgebra) -> CellularForm:
    """The nbc presentation packaged as a cellular form of (L, delta^0 Z)."""
    lat = alg.lattice
    g = delta_sheaf(lat, [lat.labels[alg.bottom]], 1, "co")
    ranks = [alg.piece_rank(lab) for lab in lat.labels]
    diff = []
    for xi, x in enumerate(lat.labels):
        blocks: dict[int, list[dict[int, int]]] = {}
        for col, mono in enumerate(alg.nbc[x]):
            for pos in range(len(mono)):
                sub = mono[:pos] + mono[pos + 1:]
                y, row_nbc = alg.nbc_index[sub]
                block = blocks.setdefault(lat.index[y], [{} for _ in alg.nbc[x]])
                entry = block[col]
                entry[row_nbc] = entry.get(row_nbc, 0) + (-1 if pos % 2 else 1)
        # differentials of nbc monomials only hit lower covers
        if not set(blocks) <= set(lat.lower[xi]):
            raise Mismatch("nbc differential escapes the cover relation")
        diff.append(stack_blocks(lat, ranks, xi, blocks, ranks[xi]))
    return CellularForm(lat, g, ranks, diff)


class ComparisonReport:
    """Outcome of checking the cellular route against the nbc oracle."""

    def __init__(self, lattice, rank_match, product_pairs, change_of_basis):
        self.lattice = lattice
        self.rank_match = rank_match
        self.product_pairs = product_pairs
        self.change_of_basis = change_of_basis

    def __str__(self):
        return (f"ranks match: {self.rank_match}; "
                f"{self.product_pairs} product pairs verified")


def os_vs_cellular(lattice: GradedPoset, check_products: bool = True,
                   atom_order=None):
    """Compare the constructed cellular form against the nbc presentation.

    Builds the form of (L, delta^0 Z) by the generic algorithm, the
    unique comparison isomorphism onto the nbc form, and (optionally)
    the join/star form morphism, then checks every product against nbc
    straightening.  Raises Mismatch if anything disagrees.
    """
    alg = OSAlgebra(lattice, atom_order)
    lat = lattice
    g = delta_sheaf(lat, [lat.labels[alg.bottom]], 1, "co")
    built = construct_cellular_form(lat, g)
    if isinstance(built, CellularForm):
        verify_cellular_form(built)
    else:
        raise Mismatch(f"construction failed: {built}")
    nbcform = nbc_form(alg)
    verify_cellular_form(nbcform)
    for lab in lat.labels:
        if built.rank_of(lab) != alg.piece_rank(lab):
            raise Mismatch(f"piece rank differs at {lab}")

    ident = identity_morphism(lat)
    t_id = FHom(ident, g, g, {i: identity(g.ranks[i]) for i in range(lat.n)})
    compare = form_morphism(ident, t_id, built, nbcform)
    inverse = {}
    for lab in lat.labels:
        comp = compare.component(lab)
        if len(comp) != nbcform.rank_of(lab):
            raise Mismatch(f"comparison not square at {lab}")
        # the columns of the inverse solve comp . x = e_j; both raise
        # unless comp is invertible over Z
        solver = ColumnSolver(comp, len(comp))
        try:
            inverse[lab] = [solver.solve({j: 1}) for j in range(len(comp))]
        except (NoIntegerSolution, NonUnique):
            raise Mismatch(f"comparison not invertible over Z at {lab}") from None

    pairs = 0
    if check_products:
        prod = product_form(built, built)
        vee = join_morphism(lat)
        bot = lat.labels[alg.bottom]
        t_star = star_fhom(vee, bot, (bot, bot), "co")
        phi = form_morphism(vee, t_star, prod, built)
        for x in lat.labels:
            for y in lat.labels:
                got = _cellular_products(alg, lat, compare, inverse, phi, x, y)
                for (a, b), expect in got:
                    if expect != alg.multiply_monomials(a, b):
                        raise Mismatch(
                            f"product {a} * {b} disagrees with nbc")
                    pairs += 1
    return ComparisonReport(lat, True, pairs, compare)


def _cellular_products(alg, lat, compare, inverse, phi, x, y):
    """Products of all nbc basis pairs in pieces x, y via the form route."""
    xi, yi = lat.index[x], lat.index[y]
    nx, ny = alg.nbc[x], alg.nbc[y]
    if not nx or not ny:
        return []
    join_lab = lat.labels[lat.join_index(xi, yi)]
    phi_comp = phi.components[phi.f.source.index[(x, y)]]
    back = compare.component(join_lab)
    out = []
    for a, va in zip(nx, inverse[x]):
        for b, vb in zip(ny, inverse[y]):
            # the piece at (x, y) pairs its bases row-major, x major
            tensor = {ra * len(ny) + rb: ca * cb
                      for ra, ca in va.items() for rb, cb in vb.items()}
            image = sparse_apply(back, sparse_apply(phi_comp, tensor))
            out.append(((a, b), {alg.nbc[join_lab][idx]: c for idx, c in image.items()}))
    return out

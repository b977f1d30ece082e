"""Cross-checks of the closed-form ring against the brute-force oracle.

Each ring basis element gets an explicit Tor cycle over the lattice.
Every piece of it is a shuffle product of one-step chains pushed into a
lattice by ``oracle.shuffle_push``: the one-step chains (bottom -> atom)
pushed along the bond-lattice join realize the nbc monomial, the
one-step entry cycles pushed along concatenation realize the completion
tensor, and the two are shuffled together and pushed through the
restriction map (J, w) -> w|_J straight to intersection-lattice indices.  The
cup-product comparisons against cross-then-star hang off these cycles;
the rank comparisons read the Goresky-MacPherson oracle over the
intersection lattice alone.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import factorial, prod

from .intlinalg import elementary_divisors
from .oracle import (
    DEFAULT_ORACLE_LIMIT,
    GMOracle,
    OracleTooLarge,
    shuffle_push,
)
from .orbit import (
    Graph,
    IntersectionLattice,
    PartialMatrix,
    bond_lattice,
    restrict_matrix,
    zero_class,
)
from .ring import (
    RingAxiomViolation,
    RingPresentation,
    check_ring_axioms,
)


def braid_chain(pres: RingPresentation, mono: tuple) -> dict:
    """Alternating sum of partial-join chains realizing an nbc monomial.

    The shuffle product of the one-step chains (bottom -> atom), pushed
    along the bond-lattice join.  Folding in the next atom at step t of a
    chain through p earlier atoms has shuffle sign (-1)^(p - t), the sign
    of moving it past the p - t atoms after it, so every ordering of the
    atoms appears once, with its permutation sign.  Keys are chains of
    bond-lattice labels starting at the bottom partition.
    """
    bond = pres.bond
    bot = bond.minimum()
    chains = {(bot,): 1}
    for p in mono:
        chains = shuffle_push(chains, {(bot, pres.os.atoms[p]): 1}, bond.join_index)
    if len(chains) != factorial(len(mono)):
        raise AssertionError("independent atoms gave a degenerate chain")
    return {tuple(bond.labels[i] for i in c): v for c, v in chains.items()}


def fiber_chain(mat: PartialMatrix, assignment: tuple) -> dict:
    """Shuffle product of the one-step entry cycles of a completion tensor.

    Each undefined entry contributes (class -> undefined) minus
    (zero class -> undefined); defined entries contribute their point.
    The entries are folded in row-major order, pushed along concatenation
    of entry values.  Keys are chains of fiber matrices.
    """
    classes = iter(assignment)
    state: dict = {((),): 1}
    for block, row in zip(mat.rows(), mat.entries):
        for value in row:
            if value is None:
                factor = {(next(classes), None): 1,
                          (zero_class(len(block)), None): -1}
            else:
                factor = {(value,): 1}
            state = shuffle_push(state, factor, lambda s, v: s + (v,))

    def matrix(values):
        grid = tuple(values[i:i + mat.m] for i in range(0, len(values), mat.m))
        return PartialMatrix(mat.n, mat.k, mat.m, mat.partition, grid)

    return {tuple(map(matrix, chain)): c for chain, c in state.items()}


def restriction_index(inter: IntersectionLattice):
    """(bond label, fiber matrix) -> index of the restriction in ``inter.poset``.

    Sigma must be bijective.  Each restriction is computed once per lookup.
    """
    index = {mat: inter.poset.index[lab] for lab, mat in inter.by_label.items()}
    return cache(lambda lab, fmat: index[restrict_matrix(fmat, lab)])


def theta_cycle(pres: RingPresentation, grading: int, mono: tuple,
                assignment: tuple, locate) -> dict:
    """Explicit Tor cycle over the intersection lattice for one basis element.

    The result is a formal chain keyed by (index chain, 0, 0) in
    K(L, delta^bottom; delta_theta), of degree r_b + r_f; ``locate`` is a
    ``restriction_index`` lookup, shared by the calls of a run.
    """
    cycle = shuffle_push(braid_chain(pres, mono),
                         fiber_chain(pres.matrices[grading], assignment), locate)
    return {(chain, 0, 0): c for chain, c in cycle.items()}


class VerifyReport:
    """Outcome of the oracle verification; printable line per check."""

    def __init__(self):
        self.ok = True
        self.lines = []
        self.rank_checks = 0
        self.product_checks = 0

    def add(self, ok: bool, text: str):
        self.ok = self.ok and ok
        self.lines.append(("PASS" if ok else "FAIL") + " " + text)

    def __str__(self):
        return "\n".join(self.lines)


def verify_full(graph: Graph, k: int, m: int,
                oracle_limit: int | None = DEFAULT_ORACLE_LIMIT) -> VerifyReport:
    """Compare the closed-form presentation with the brute-force oracle.

    Runs every check the input admits, in order.  First the closed-form
    ranks against the Goresky-MacPherson oracle over the intersection
    lattice, one Tor complex per element x.  Its ranks must equal the
    ring's piece ranks (``piece_rank``) summed over the sigma-fiber of x,
    each in Tor degree r_b + r_f; an orbit element that is no grading of
    the ring counts 0.  The closed form is torsion-free, so torsion in an
    oracle Tor group fails that element's line.  Then, when sigma is
    bijective and m > 1, cup products of every basis pair against the
    cross-then-star oracle product; and, when m > 1, the ring axioms.
    Raises OracleTooLarge when the orbit lattice exceeds the limit, after
    building only the bond lattice: over each bond partition, each block
    of size s >= 2 carries m entries of k^(s-1) classes or undefined.
    """
    report = VerifyReport()
    size = sum(prod((k ** (len(b) - 1) + 1) ** m for b in part if len(b) >= 2)
               for part in bond_lattice(graph).labels)
    if oracle_limit is not None and size > oracle_limit:
        raise OracleTooLarge(f"orbit lattice has {size} elements, limit {oracle_limit}")
    pres = RingPresentation(graph, k, m)
    inter = IntersectionLattice(graph, k, m)
    oracle = GMOracle(inter.poset, inter.codim, limit=oracle_limit)

    # (a) piece ranks vs the oracle, one intersection-lattice element at a time
    fibers: dict[str, list[str]] = {}
    for lab in sorted(inter.sigma):
        fibers.setdefault(inter.sigma[lab], []).append(lab)
    grading_of = {lab: g for g, lab in enumerate(pres.labels)}
    for x in inter.poset.labels:
        h = oracle.complex_at(x).homology()
        expected: dict[int, int] = {}
        for lab in fibers[x]:
            g = grading_of.get(lab)
            if g is not None:
                mat = pres.matrices[g]
                d = mat.r_b + mat.r_f
                expected[d] = expected.get(d, 0) + pres.piece_rank(g)
        got = {n: b for n, b in enumerate(h.betti_vector()) if b}
        match = got == expected and h.is_free()
        torsion = "" if h.is_free() else f", oracle torsion in {h}"
        report.add(match, f"ranks at {x}: formula {expected} vs oracle {got}{torsion}")
        report.rank_checks += 1
        if not match and len(report.lines) > 400:
            if left := inter.poset.n - report.rank_checks:
                report.add(False, f"rank check stopped: {left} of "
                                  f"{inter.poset.n} elements not checked")
            break

    # (b) cup products, one block of basis pairs per ordered lattice pair
    if m > 1 and len(inter.by_label) == len(inter.sigma):
        _check_products(report, pres, oracle, restriction_index(inter))

    # (c) ring axioms
    if m > 1:
        try:
            pairs = check_ring_axioms(pres)["pairs"]
            report.add(True, f"ring axioms hold ({pairs} pairs)")
        except RingAxiomViolation as exc:
            report.add(False, f"ring axioms fail: {exc}")
    return report


def _check_products(report: VerifyReport, pres: RingPresentation, oracle: GMOracle, locate):
    """Basis cycles against the Tor pieces, then every product against the oracle.

    A grading is one lattice element in one degree, so the basis cycles
    come in one block per grading, and the basis pairs in one block per
    ordered pair of gradings.  When the codimensions of the pair do not
    add, the oracle product is zero by definition: the block checks only
    that every closed-form product in it is zero.  Otherwise one
    ``cup_block`` gives all the block's products, and one batched
    ``class_coords`` checks and reads them.  Mismatches are counted per
    basis pair.
    """
    blocks = []  # (element, Tor degree, sparse cycles), per grading
    coords = []  # class coordinates, per basis element
    coords_ok = True
    for g, mat in enumerate(pres.matrices):
        x, deg = pres.labels[g], mat.r_b + mat.r_f
        kc = oracle.complex_at(x)
        cycles = [kc.vector(theta_cycle(pres, g, e.os_mono, e.bcp_index, locate), deg)
                  for e in pres.basis[pres.offset[g]:pres.offset[g + 1]]]
        tor = kc.tor(deg)
        entries = tor.class_coords(cycles)
        blocks.append((x, deg, cycles))
        coords.extend(entries)
        if tor.torsion:
            coords_ok = False
            continue
        # drop the (identically zero) boundary positions and demand the
        # free-part coordinates form a unimodular square matrix
        s = len(tor.invariants)
        if any(any(c[:s]) for c in entries) or tor.betti != len(entries):
            coords_ok = False
        elif elementary_divisors([{i: x for i, x in enumerate(c[s:]) if x}
                                  for c in entries]) != [1] * len(entries):
            coords_ok = False
    report.add(coords_ok, "basis cycles generate each Tor piece")

    home = [blocks[e.grading][:2] for e in pres.basis]
    mismatches = 0
    for ga, (x, nx, xs) in enumerate(blocks):
        rows = range(pres.offset[ga], pres.offset[ga + 1])
        for gb, (y, ny, ys) in enumerate(blocks):
            cols = range(pres.offset[gb], pres.offset[gb + 1])
            report.product_checks += len(rows) * len(cols)
            xy, n, cups = oracle.cup_block(x, nx, xs, y, ny, ys)
            if cups is None:
                mismatches += sum(1 for i, j in product(rows, cols) if pres.cup_basis(i, j))
                continue
            rhs = oracle.complex_at(xy).tor(n).class_coords(
                [vec for row in cups for vec in row])
            for (i, j), got in zip(product(rows, cols), rhs):
                terms = pres.cup_basis(i, j)
                if any(home[idx] != (xy, n) for idx in terms):
                    mismatches += 1
                    continue
                lhs = [0] * len(got)
                for idx, c in terms.items():
                    for p, v in enumerate(coords[idx]):
                        lhs[p] += c * v
                mismatches += tuple(lhs) != got
    report.add(mismatches == 0,
               f"cup products match the oracle on "
               f"{report.product_checks} basis pairs "
               f"({mismatches} mismatches)")

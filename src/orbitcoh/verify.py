"""Cross-checks of the closed-form ring against the brute-force oracle.

Each ring basis element gets an explicit Tor cycle over the lattice.
Every piece of it is a shuffle product of one-step chains: the one-step
chains (bottom -> atom) pushed along the bond-lattice join by
``oracle.shuffle_push`` realize the nbc monomial, the shuffle of the
one-step entry cycles, written out in closed form, realizes the
completion tensor, and one ``oracle.shuffle_block`` per grading
shuffles the two together and pushes them through the restriction map
(J, w) -> w|_J straight to intersection-lattice indices.  The
cup-product comparisons against cross-then-star hang off these cycles;
the rank comparisons read the Goresky-MacPherson oracle over the
intersection lattice alone.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations, product
from math import factorial, prod

from .intlinalg import elementary_divisors
from .oracle import (
    DEFAULT_ORACLE_LIMIT,
    GMOracle,
    OracleTooLarge,
    shuffle_block,
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
    With the entries in row-major order, the product sums over a start
    for each undefined entry (its class, or its zero class with sign -1)
    and an order in which the undefined entries become undefined, one per
    step, signed by that order's permutation.  Keys are chains of fiber
    matrices.
    """
    flat = [value for row in mat.entries for value in row]
    free = [i for i, value in enumerate(flat) if value is None]
    zeros = [zero_class(len(block)) for block, row in zip(mat.rows(), mat.entries)
             for value in row if value is None]
    orders = [(order, (-1) ** sum(a > b for a, b in combinations(order, 2)))
              for order in permutations(free)]
    matrices: dict = {}

    def matrix(values: tuple) -> PartialMatrix:
        if values not in matrices:
            grid = tuple(values[i:i + mat.m] for i in range(0, len(values), mat.m))
            matrices[values] = PartialMatrix(mat.n, mat.k, mat.m, mat.partition, grid)
        return matrices[values]

    out: dict = {}
    for start in product(*(((c, 1), (z, -1)) for c, z in zip(assignment, zeros))):
        values = flat[:]
        for i, (value, _) in zip(free, start):
            values[i] = value
        sign = prod(s for _, s in start)
        for order, order_sign in orders:
            step = values[:]
            chain = [matrix(tuple(step))]
            for i in order:
                step[i] = None
                chain.append(matrix(tuple(step)))
            key = tuple(chain)
            out[key] = out.get(key, 0) + sign * order_sign
    return {chain: c for chain, c in out.items() if c}


def restriction_index(inter: IntersectionLattice):
    """(bond label, fiber matrix) -> index of the restriction in ``inter.poset``.

    Sigma must be bijective.  Each restriction is computed once per lookup.
    """
    index = {mat: inter.poset.index[lab] for lab, mat in inter.by_label.items()}
    return cache(lambda lab, fmat: index[restrict_matrix(fmat, lab)])


def theta_cycles(pres: RingPresentation, grading: int, locate, braids: dict) -> list[dict]:
    """Explicit Tor cycles over the intersection lattice for one grading's basis.

    One formal chain per basis element, in basis order, keyed by (index
    chain, 0, 0) in K(L, delta^bottom; delta_theta), of degree r_b + r_f.
    The braid chains of the nbc monomials and the fiber chains of the
    completion tensors are shuffled in one ``shuffle_block``.  ``locate``
    is a ``restriction_index`` lookup and ``braids`` a memo from nbc
    monomial to braid chain, both shared by the calls of a run.
    """
    mat = pres.matrices[grading]
    xs = []
    for mono in pres.os.nbc[mat.partition]:
        if mono not in braids:
            braids[mono] = braid_chain(pres, mono)
        xs.append(braids[mono])
    ys = [fiber_chain(mat, assignment) for assignment in pres.assignments[grading]]
    return [cycle for row in shuffle_block(xs, ys, locate, lambda chain: (chain, 0, 0))
            for cycle in row]


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

    def skip(self, text: str):
        """A check the input does not admit, and why; ``ok`` stays as it is."""
        self.lines.append("SKIP " + text)

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
    cross-then-star oracle product; and, when m > 1, the ring axioms.  A
    check left out gets one SKIP line that says why.
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

    # (b) cup products, one block of basis pairs per ordered grading pair
    if m == 1:
        report.skip("cup products and ring axioms: m = 1")
    elif len(inter.by_label) != len(inter.sigma):
        report.skip(f"cup products: sigma merges {len(inter.sigma)} orbit "
                    f"elements into {len(inter.by_label)}")
    else:
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
    ordered pair of gradings; the nonzero structure constants are sorted
    into their blocks in one pass.  When the codimensions of the pair do
    not add, the oracle product is zero by definition: every nonzero
    constant of the block is a mismatch.  Otherwise one ``cup_block``
    gives all the block's products, and one batched ``class_coords``
    checks and reads them.  Mismatches are counted per basis pair.
    """
    blocks = []  # (element, Tor degree, sparse cycles), per grading
    coords = []  # sparse class coordinates, per basis element
    coords_ok = True
    braids: dict = {}
    for g, mat in enumerate(pres.matrices):
        x, deg = pres.labels[g], mat.r_b + mat.r_f
        kc = oracle.complex_at(x)
        cycles = [kc.vector(cycle, deg) for cycle in theta_cycles(pres, g, locate, braids)]
        tor = kc.tor(deg)
        entries = tor.class_coords(cycles)
        blocks.append((x, deg, cycles))
        coords.extend({p: v for p, v in enumerate(c) if v} for c in entries)
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

    grading = [e.grading for e in pres.basis]
    known: dict = {}  # (grading, grading) -> {(i, j): nonzero constants}
    for (i, j), terms in pres.products.items():
        if terms:
            known.setdefault((grading[i], grading[j]), {})[i, j] = terms
    home = [blocks[g][:2] for g in grading]
    mismatches = 0
    for ga, (x, nx, xs) in enumerate(blocks):
        rows = range(pres.offset[ga], pres.offset[ga + 1])
        for gb, (y, ny, ys) in enumerate(blocks):
            block = known.get((ga, gb), {})
            xy, n, cups = oracle.cup_block(x, nx, xs, y, ny, ys)
            if cups is None:
                mismatches += len(block)
                continue
            rhs = oracle.complex_at(xy).tor(n).class_coords(
                [vec for row in cups for vec in row])
            cols = range(pres.offset[gb], pres.offset[gb + 1])
            for ij, got in zip(product(rows, cols), rhs):
                terms = block.get(ij)
                if terms is None:
                    mismatches += any(got)
                elif any(home[idx] != (xy, n) for idx in terms):
                    mismatches += 1
                else:
                    lhs = [0] * len(got)
                    for idx, c in terms.items():
                        for p, v in coords[idx].items():
                            lhs[p] += c * v
                    mismatches += tuple(lhs) != got
    report.product_checks = len(grading) ** 2
    report.add(mismatches == 0,
               f"cup products match the oracle on "
               f"{report.product_checks} basis pairs "
               f"({mismatches} mismatches)")

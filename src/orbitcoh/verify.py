"""Cross-checks of the closed-form ring against the brute-force oracle.

Each ring basis element gets an explicit Tor cycle over the lattice:
an alternating chain of partial joins realizes the nbc monomial, the
shuffle product of one-step entry cycles realizes the completion
tensor, and the two are shuffled together and pushed through the
restriction map (J, w) -> w|_J into the lattice.  Rank comparisons,
cup-product comparisons against cross-then-star, and the ring axioms
all hang off these cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from .intlinalg import elementary_divisors
from .oracle import (
    DEFAULT_ORACLE_LIMIT,
    GMOracle,
    OracleTooLarge,
    TorComplex,
    shuffles,
)
from .orbit import (
    Graph,
    IntersectionLattice,
    PartialMatrix,
    build_lkm,
    restrict_matrix,
    zero_class,
)
from .ring import (
    RingAxiomViolation,
    RingPresentation,
    check_ring_axioms,
    cohomology_presentation,
)
from .sheaves import delta_sheaf


def braid_chain(pres: RingPresentation, mono: tuple) -> dict:
    """Alternating sum of partial-join chains realizing an nbc monomial.

    Keys are (chain of bond-lattice labels, 0, 0); the chain runs from
    the bottom partition through the partial joins of the atoms.
    """
    bond = pres.bond
    bot = bond.minimum()
    out: dict = {}
    if not mono:
        key = ((bond.labels[bot],), 0, 0)
        return {key: 1}
    atoms = [pres.os.atoms[p] for p in mono]
    for perm in permutations(range(len(atoms))):
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        chain = [bot]
        acc = bot
        for pos in perm:
            acc = bond.join_index(acc, atoms[pos])
            chain.append(acc)
        labels = tuple(bond.labels[i] for i in chain)
        if len(set(labels)) != len(labels):
            raise AssertionError("independent atoms gave a degenerate chain")
        key = (labels, 0, 0)
        out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v}


def fiber_chain(mat: PartialMatrix, assignment: tuple) -> dict:
    """Shuffle product of the one-step entry cycles of a completion tensor.

    Each undefined entry contributes (class -> undefined) minus
    (zero class -> undefined); defined entries contribute their point.
    Keys are (chain of fiber matrices as entry-value tuples, coeff).
    """
    entries = []
    for block, row in zip(mat.rows(), mat.entries):
        for t, e in enumerate(row):
            entries.append((block, t, e))
    state: dict = {((),): 1}
    assign_pos = 0
    for block, t, value in entries:
        if value is None:
            cls = assignment[assign_pos]
            assign_pos += 1
            factor = [((cls, None), 1), ((zero_class(len(block)), None), -1)]
        else:
            factor = [((value,), 1)]
        new_state: dict = {}
        for schain, scoeff in state.items():
            p = len(schain) - 1
            for fchain, fcoeff in factor:
                q = len(fchain) - 1
                for path, sign in shuffles(p, q):
                    chain = tuple(schain[a] + (fchain[b],) for a, b in path)
                    coeff = scoeff * fcoeff * sign
                    new_state[chain] = new_state.get(chain, 0) + coeff
        state = {k: v for k, v in new_state.items() if v}
    out = {}
    for chain, coeff in state.items():
        mats = []
        for values in chain:
            grid = []
            idx = 0
            for block in mat.rows():
                grid.append(tuple(values[idx:idx + mat.m]))
                idx += mat.m
            mats.append(PartialMatrix(mat.n, mat.k, mat.m, mat.partition,
                                      tuple(grid)))
        out[tuple(mats)] = coeff
    return out


def theta_cycle(pres: RingPresentation, theta: str, mono: tuple,
                assignment: tuple) -> dict:
    """Explicit Tor cycle over the orbit lattice for one basis element.

    The result is a formal chain keyed by (label chain, 0, 0) in
    K(L_k^m, delta^bottom; delta_theta), of degree r_b + r_f.
    """
    mat = pres.matrices[theta]
    base = braid_chain(pres, mono)
    fiber = fiber_chain(mat, assignment)
    out: dict = {}
    for (lchain, _, _), c1 in base.items():
        p = len(lchain) - 1
        for fmats, c2 in fiber.items():
            q = len(fmats) - 1
            for path, sign in shuffles(p, q):
                labels = []
                ok = True
                prev = None
                for a, b in path:
                    lab = restrict_matrix(fmats[b], lchain[a]).label()
                    if lab == prev:
                        ok = False
                        break
                    labels.append(lab)
                    prev = lab
                if not ok or len(set(labels)) != len(labels):
                    continue
                key = (tuple(labels), 0, 0)
                out[key] = out.get(key, 0) + c1 * c2 * sign
    return {k: v for k, v in out.items() if v}


@dataclass
class VerifyReport:
    """Outcome of the oracle verification; printable line per check."""

    graph: Graph
    k: int
    m: int
    ok: bool = True
    lines: list = field(default_factory=list)
    rank_checks: int = 0
    product_checks: int = 0
    axiom_stats: dict = field(default_factory=dict)

    def add(self, ok: bool, text: str):
        self.ok = self.ok and ok
        self.lines.append(("PASS" if ok else "FAIL") + " " + text)

    def __str__(self):
        return "\n".join(self.lines)


def verify_full(graph: Graph, k: int, m: int,
                oracle_limit: int | None = DEFAULT_ORACLE_LIMIT,
                products: bool | None = None,
                axioms: bool = True,
                torsion: bool = False) -> VerifyReport:
    """Compare the closed-form presentation with the brute-force oracle.

    Checks, in order: the rank formula against brute-force Tor ranks
    grading by grading; cup products of every basis pair against the
    cross-then-star oracle product (on by default when sigma is
    bijective and m > 1); and the ring axioms.  Raises OracleTooLarge
    when the lattice exceeds the limit.
    """
    report = VerifyReport(graph, k, m)
    lkm = build_lkm(graph, k, m)
    if oracle_limit is not None and lkm.poset.n > oracle_limit:
        raise OracleTooLarge(
            f"orbit lattice has {lkm.poset.n} elements, limit {oracle_limit}")
    pres = cohomology_presentation(graph, k, m, additive_only=(m == 1))
    inter = IntersectionLattice(lkm)
    bijective = len(inter.by_label) == lkm.poset.n
    if products is None:
        products = bijective and m > 1
    bottom = lkm.bottom_label()
    g0 = delta_sheaf(lkm.poset, [bottom], 1, "co")

    oracle = None
    if products:
        if not bijective:
            raise ValueError("product comparison needs sigma to be bijective")
        oracle = GMOracle(inter.poset, inter.codim, limit=oracle_limit)

    # (a) rank formula vs brute-force Tor, grading by grading
    fibers: dict[str, list[str]] = {}
    for lab in lkm.poset.labels:
        fibers.setdefault(inter.sigma[lab], []).append(lab)
    for x in inter.poset.labels:
        support = fibers[x]
        if oracle is not None:
            kc = oracle.complex_at(x)
        else:
            f = delta_sheaf(lkm.poset, support, 1, "pre")
            kc = TorComplex(lkm.poset, g0, f, limit=oracle_limit)
        h = kc.homology()
        expected: dict[int, int] = {}
        for lab in support:
            mat = lkm.matrix(lab)
            r = pres.rank_formula(mat)
            if r:
                d = mat.r_b + mat.r_f
                expected[d] = expected.get(d, 0) + r
        got = {n: b for n, b in enumerate(h.betti_vector()) if b}
        match = got == expected
        if torsion and not h.is_free():
            match = False
        report.add(match, f"ranks at {x}: formula {expected} vs oracle {got}")
        report.rank_checks += 1
        if not match and len(report.lines) > 400:
            break

    # (b) cup products of all basis pairs against cross-then-star
    if products:
        layout: dict[str, dict] = {}
        cycles = []
        coords_ok = True
        for idx, e in enumerate(pres.basis):
            mat = pres.matrices[e.theta]
            deg = mat.r_b + mat.r_f
            formal = theta_cycle(pres, e.theta, e.os_mono, e.bcp_index)
            kc = oracle.complex_at(e.theta)
            vec = kc.vector(formal, deg)
            coords = kc.tor(deg).class_coords(vec)
            cycles.append((e.theta, deg, vec, coords))
            layout.setdefault(e.theta, {})[
                (e.os_mono, e.bcp_index)] = (idx, coords)
        for theta, entries in sorted(layout.items()):
            m2 = pres.matrices[theta]
            tor = oracle.complex_at(theta).tor(m2.r_b + m2.r_f)
            if tor.torsion:
                coords_ok = False
                continue
            # drop the (identically zero) boundary positions and demand the
            # free-part coordinates form a unimodular square matrix
            s = len(tor.invariants)
            cols = []
            for _, coords in entries.values():
                if any(coords[:s]):
                    coords_ok = False
                cols.append(list(coords[s:]))
            size = len(cols)
            if tor.betti != size or any(len(c) != size for c in cols):
                coords_ok = False
            else:
                from .intlinalg import IntMatrix
                mat = IntMatrix.from_cols(cols, size)
                if elementary_divisors(mat) != [1] * size:
                    coords_ok = False
        report.add(coords_ok, "basis cycles generate each Tor piece")

        mismatches = 0
        for i, ei in enumerate(pres.basis):
            xi, di, vi, _ = cycles[i]
            for j, ej in enumerate(pres.basis):
                xj, dj, vj, _ = cycles[j]
                xy, n, vec = oracle.cup(xi, di, vi, xj, dj, vj)
                rhs = oracle.class_coords(xy, n, vec)
                lhs = [0] * len(rhs)
                for idx, c in pres.cup_basis(i, j).items():
                    e = pres.basis[idx]
                    target, _, _, coords = cycles[idx]
                    if target != xy:
                        mismatches += 1
                        continue
                    for pos, v in enumerate(coords):
                        lhs[pos] += c * v
                if tuple(lhs) != tuple(rhs):
                    mismatches += 1
                report.product_checks += 1
        report.add(mismatches == 0,
                   f"cup products match the oracle on "
                   f"{report.product_checks} basis pairs "
                   f"({mismatches} mismatches)")

    # (c) ring axioms
    if axioms and not pres.additive_only:
        try:
            report.axiom_stats = check_ring_axioms(pres)
            report.add(True, "ring axioms hold "
                             f"({report.axiom_stats['pairs']} pairs)")
        except RingAxiomViolation as exc:
            report.add(False, f"ring axioms fail: {exc}")
    return report

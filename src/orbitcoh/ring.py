"""The cohomology ring of a chromatic orbit configuration space.

Gradings are partial matrices; the piece at theta is the tensor of the
OS-algebra piece at the underlying partition with the group of
vanishing-sum completion combinations, and products multiply the two
factors with the alignment sign of the undefined entries.  The real
quotient carries the same pieces over Z/2 in compressed degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .orbit import (
    Graph,
    PartialMatrix,
    bcp_assignments,
    bcp_basis_element,
    bcp_coords,
    bcp_rank,
    bond_lattice,
    edge_atom_order,
    empty_matrix,
    fiber_matrices,
    independence,
    join_theta,
    phi_product,
)
from .osalg import OSAlgebra
from .posets import moebius


class UnsupportedM(Exception):
    """Ring structure is only established for m > 1."""


@dataclass(frozen=True)
class GradedBasisElement:
    """One basis vector: a grading, an nbc monomial, a completion tensor."""

    theta: str
    os_mono: tuple
    bcp_index: tuple
    degree: int


class RingPresentation:
    """Basis, degrees and structure constants of the cohomology ring."""

    def __init__(self, graph: Graph, k: int, m: int, mode: str = "complex",
                 additive_only: bool = False):
        if k < 1 or m < 1:
            raise ValueError("k and m must be positive")
        if mode not in ("complex", "real"):
            raise ValueError("mode must be 'complex' or 'real'")
        if mode == "real" and k != 2:
            raise ValueError("the real case is the fixed-point case k = 2")
        if m == 1 and not additive_only:
            raise UnsupportedM(
                "the ring structure is proved only for m > 1; "
                "pass additive_only=True for the additive data")
        self.graph = graph
        self.k = k
        self.m = m
        self.mode = mode
        self.additive_only = additive_only or m == 1
        self.bond = bond_lattice(graph)
        self.os = OSAlgebra(self.bond, edge_atom_order(graph))
        self.matrices: dict[str, PartialMatrix] = {}
        self.bcp_elements: dict[str, list] = {}
        self._assignments: dict[str, list] = {}
        self._bcp_index_of: dict[str, dict] = {}
        self.basis: list[GradedBasisElement] = []
        self._enumerate_basis()
        self.index = {(e.theta, e.os_mono, e.bcp_index): i
                      for i, e in enumerate(self.basis)}
        self._pair_cache: dict[tuple[int, int], dict[int, int]] = {}

    # -- construction ---------------------------------------------------------

    def degree_of(self, mat: PartialMatrix) -> int:
        if self.mode == "real":
            return (self.m - 1) * mat.r_b
        return (2 * self.m - 1) * mat.r_b + mat.r_f

    def rank_formula(self, mat: PartialMatrix) -> int:
        """|mu(0, pi(theta))| times the product over undefined entries."""
        bot = self.bond.labels[self.bond.minimum()]
        mu = moebius(self.bond, bot, mat.partition)
        return abs(mu) * bcp_rank(mat)

    def _enumerate_basis(self):
        staged = []
        for partition in self.bond.labels:
            os_piece = self.os.nbc[partition]
            if not os_piece:
                continue
            for mat in fiber_matrices(self.graph, partition, self.k, self.m):
                if bcp_rank(mat) == 0:
                    continue
                lab = mat.label()
                self.matrices[lab] = mat
                assignments = bcp_assignments(mat)
                self._assignments[lab] = assignments
                self._bcp_index_of[lab] = {a: i for i, a in enumerate(assignments)}
                self.bcp_elements[lab] = [bcp_basis_element(mat, a)
                                          for a in assignments]
                deg = self.degree_of(mat)
                for mono in os_piece:
                    for assignment in assignments:
                        staged.append(GradedBasisElement(
                            lab, mono, assignment, deg))
        staged.sort(key=lambda e: (e.degree, e.theta, e.os_mono, e.bcp_index))
        self.basis = staged

    # -- additive data --------------------------------------------------------

    def gradings(self) -> list[str]:
        return sorted(self.matrices)

    def piece_rank(self, theta: str) -> int:
        mat = self.matrices[theta]
        return len(self.os.nbc[mat.partition]) * len(self._assignments[theta])

    def betti_table(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.basis:
            out[e.degree] = out.get(e.degree, 0) + 1
        return dict(sorted(out.items()))

    def poincare_polynomial(self) -> list[int]:
        table = self.betti_table()
        top = max(table) if table else 0
        return [table.get(d, 0) for d in range(top + 1)]

    # -- products -------------------------------------------------------------

    def cup_basis(self, i: int, j: int) -> dict[int, int]:
        """Structure constants for the product of two basis elements."""
        if self.additive_only:
            raise UnsupportedM("additive-only presentation has no products")
        key = (i, j)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        e1, e2 = self.basis[i], self.basis[j]
        a = self.matrices[e1.theta]
        b = self.matrices[e2.theta]
        out: dict[int, int] = {}
        if independence(a, b):
            os_part = self.os.multiply_monomials(e1.os_mono, e2.os_mono)
            if os_part:
                u = self.bcp_elements[e1.theta][
                    self._bcp_index_of[e1.theta][e1.bcp_index]]
                v = self.bcp_elements[e2.theta][
                    self._bcp_index_of[e2.theta][e2.bcp_index]]
                w = phi_product(u, v)
                if not w.is_zero():
                    # Koszul regrading: the completion factor of the first
                    # element moves past the lattice factor of the second
                    koszul = -1 if (a.r_f * b.r_b) % 2 else 1
                    target = w.theta.label()
                    coords = bcp_coords(w.theta, w.coeffs)
                    assignments = self._assignments[target]
                    for mono, c_os in os_part.items():
                        for pos, c_b in enumerate(coords):
                            if not c_b:
                                continue
                            coeff = koszul * c_os * c_b
                            if self.mode == "real":
                                coeff %= 2
                            if coeff:
                                idx = self.index[(target, mono, assignments[pos])]
                                out[idx] = out.get(idx, 0) + coeff
        self._pair_cache[key] = out
        return out

    def cup(self, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        """Bilinear extension of the basis product to combinations."""
        out: dict[int, int] = {}
        for i, ci in x.items():
            if not ci:
                continue
            for j, cj in y.items():
                if not cj:
                    continue
                for idx, c in self.cup_basis(i, j).items():
                    out[idx] = out.get(idx, 0) + ci * cj * c
        if self.mode == "real":
            out = {idx: c % 2 for idx, c in out.items()}
        return {idx: c for idx, c in out.items() if c}

    def unit_index(self) -> int:
        bot = empty_matrix(self.graph, self.k, self.m).label()
        return self.index[(bot, (), ())]

    # -- export ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        basis = []
        for e in self.basis:
            basis.append({
                "degree": e.degree,
                "grading": e.theta,
                "labels": {
                    "os": [self._atom_name(p) for p in e.os_mono],
                    "bcp": [".".join(str(v) for v in vals)
                            for vals in e.bcp_index],
                },
            })
        out = {
            "graph": {"n": self.graph.n,
                      "edges": sorted([list(e) for e in self.graph.edges])},
            "k": self.k,
            "m": self.m,
            "mode": self.mode,
            "basis": basis,
            "gradings": {lab: mat.to_json_dict()
                         for lab, mat in sorted(self.matrices.items())},
            "poincare": self.poincare_polynomial(),
        }
        if self.additive_only:
            out["additive_only"] = True
        else:
            products = []
            for i in range(len(self.basis)):
                for j in range(len(self.basis)):
                    entry = self.cup_basis(i, j)
                    if entry:
                        products.append(
                            [i, j, [[c, idx] for idx, c in sorted(entry.items())]])
            out["products"] = products
        return out

    def _atom_name(self, pos: int) -> str:
        atom = self.bond.labels[self.os.atoms[pos]]
        block = next(b for b in atom if len(b) == 2)
        return f"e{block[0]}-{block[1]}"


def cohomology_presentation(graph: Graph, k: int, m: int,
                            additive_only: bool = False) -> RingPresentation:
    """Integral presentation; additive-only when m = 1 (with that flag)."""
    return RingPresentation(graph, k, m, mode="complex",
                            additive_only=additive_only)


def real_gr_presentation(graph: Graph, m: int) -> RingPresentation:
    """Associated graded ring of the real fixed-point case over Z/2."""
    if m == 1:
        raise UnsupportedM("the real statement also needs m > 1")
    return RingPresentation(graph, 2, m, mode="real")


def betti_table(pres: RingPresentation) -> dict[int, int]:
    return pres.betti_table()


def poincare_polynomial(pres: RingPresentation) -> list[int]:
    return pres.poincare_polynomial()


class RingAxiomViolation(Exception):
    """The structure constants break a ring axiom."""


def check_ring_axioms(pres: RingPresentation, triples: bool = True):
    """Graded commutativity, associativity, degrees and grading law.

    Returns a dict of counters; raises RingAxiomViolation on any violation.
    The checks are explicit raises, so they also run under ``python -O``.
    """
    n = len(pres.basis)
    stats = {"pairs": 0, "nonzero": 0, "triples": 0}
    unit = pres.unit_index()
    for i in range(n):
        if pres.cup_basis(unit, i) != {i: 1} or pres.cup_basis(i, unit) != {i: 1}:
            raise RingAxiomViolation(f"the unit does not act as 1 on basis element {i}")
    for i in range(n):
        ei = pres.basis[i]
        for j in range(n):
            ej = pres.basis[j]
            ij = pres.cup_basis(i, j)
            stats["pairs"] += 1
            if ij:
                stats["nonzero"] += 1
                target = join_theta(pres.matrices[ei.theta],
                                    pres.matrices[ej.theta]).label()
                for idx in ij:
                    e = pres.basis[idx]
                    if e.degree != ei.degree + ej.degree or e.theta != target:
                        raise RingAxiomViolation(
                            f"product {i}*{j} has term {idx} outside degree "
                            f"{ei.degree + ej.degree} and grading {target}")
            ji = pres.cup_basis(j, i)
            sign = -1 if pres.mode != "real" and (ei.degree * ej.degree) % 2 else 1
            if ij != {idx: sign * c for idx, c in ji.items()}:
                raise RingAxiomViolation(
                    f"products {i}*{j} and {j}*{i} are not graded commutative")
    if triples:
        for i in range(n):
            for j in range(n):
                ij = pres.cup_basis(i, j)
                for l in range(n):
                    jl = pres.cup_basis(j, l)
                    stats["triples"] += 1
                    if not ij and not jl:
                        continue  # both associations vanish
                    left: dict[int, int] = {}
                    for idx, c in ij.items():
                        for t, c2 in pres.cup_basis(idx, l).items():
                            left[t] = left.get(t, 0) + c * c2
                    right: dict[int, int] = {}
                    for idx, c in jl.items():
                        for t, c2 in pres.cup_basis(i, idx).items():
                            right[t] = right.get(t, 0) + c * c2
                    if pres.mode == "real":
                        left = {t: c % 2 for t, c in left.items()}
                        right = {t: c % 2 for t, c in right.items()}
                    left = {t: c for t, c in left.items() if c}
                    right = {t: c for t, c in right.items() if c}
                    if left != right:
                        raise RingAxiomViolation(
                            f"({i}*{j})*{l} differs from {i}*({j}*{l})")
    return stats

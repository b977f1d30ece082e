"""The cohomology ring of a chromatic orbit configuration space.

Gradings are partial matrices, numbered in (degree, label) order.  The
piece at theta is the tensor of the OS-algebra piece at the underlying
partition with the completion tensors BCp(theta); its basis is the run
of (nbc monomial, completion assignment) rows, row-major, from
``offset[g]``.  Two gradings multiply to zero unless they are
independent, and then every product of their pieces lands in their
join: the OS product tensored with the completion product, times the
Koszul sign.  The completion product works entry by entry, so the
product table is built one grading pair at a time and keeps nonzero
entries only.  Independence is read from where the undefined entries
fall in the join blocks, before any class is glued, and the glued
classes and product maps are memoized per coordinate of a join block.
The real quotient carries the same pieces over Z/2 in compressed
degrees.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import accumulate, product
from typing import NamedTuple

from .orbit import (
    Graph,
    bcp_assignments,
    bond_lattice,
    edge_atom_order,
    empty_matrix,
    fiber_matrices,
    join_theta,
    phi_coords,
    phi_product,
)
from .osalg import OSAlgebra


class UnsupportedM(Exception):
    """Ring structure is only established for m > 1."""


class GradedBasisElement(NamedTuple):
    """One basis vector: a grading, an nbc monomial, a completion tensor."""

    grading: int  # position in RingPresentation.matrices
    theta: str  # the label of that matrix
    os_mono: tuple
    bcp_index: tuple
    degree: int


class RingPresentation:
    """Basis, degrees and structure constants; at m = 1 the basis and degrees only.

    The constructor builds the grading-level data, one ``fiber_matrices``
    call per partition: ``matrices`` with their ``labels`` and ``degrees``,
    and ``offset``, where grading g owns basis indices
    ``offset[g]``..``offset[g+1]`` (|nbc| times the carried BCp rank).
    ``assignments`` and ``basis`` are built on first read, so the Betti
    table and Poincare polynomial never enumerate a basis vector.
    """

    def __init__(self, graph: Graph, k: int, m: int, mode: str = "complex"):
        if k < 1 or m < 1:
            raise ValueError("k and m must be positive")
        if mode not in ("complex", "real"):
            raise ValueError("mode must be 'complex' or 'real'")
        if mode == "real" and k != 2:
            raise ValueError("the real case is the fixed-point case k = 2")
        if mode == "real" and m == 1:
            raise UnsupportedM("the real statement also needs m > 1")
        self.graph = graph
        self.k = k
        self.m = m
        self.mode = mode
        self.bond = bond_lattice(graph)
        self.os = OSAlgebra(self.bond, edge_atom_order(graph))
        graded = sorted(
            (self.degree_of(graph.n - len(part), r_f), lab, len(nbc) * rank, mat)
            for part, nbc in self.os.nbc.items() if nbc
            for mat, lab, r_f, rank in fiber_matrices(graph, part, k, m) if rank)
        self.degrees, self.labels, sizes, self.matrices = map(list, zip(*graded))
        self.offset = list(accumulate(sizes, initial=0))

    # -- basis, built on first read -------------------------------------------

    @cached_property
    def assignments(self) -> list[list[tuple]]:
        return [bcp_assignments(mat) for mat in self.matrices]

    @cached_property
    def basis(self) -> list[GradedBasisElement]:
        return [GradedBasisElement(g, lab, mono, assignment, deg)
                for g, (deg, lab, mat) in enumerate(zip(self.degrees, self.labels,
                                                        self.matrices))
                for mono in self.os.nbc[mat.partition]
                for assignment in self.assignments[g]]

    # -- additive data --------------------------------------------------------

    def degree_of(self, r_b: int, r_f: int) -> int:
        if self.mode == "real":
            return (self.m - 1) * r_b
        return (2 * self.m - 1) * r_b + r_f

    def piece_rank(self, g: int) -> int:
        return self.offset[g + 1] - self.offset[g]

    def poincare_polynomial(self) -> list[int]:
        coeffs = [0] * (max(self.degrees, default=0) + 1)
        for g, d in enumerate(self.degrees):
            coeffs[d] += self.piece_rank(g)
        return coeffs

    # -- products -------------------------------------------------------------

    @cached_property
    def products(self) -> dict[tuple[int, int], dict[int, int]]:
        """Nonzero structure constants, filled one grading pair at a time.

        Partitions whose bond ranks do not add carry no independent
        grading pair.  Over every other pair of partitions the OS products
        of the two nbc pieces are taken once.  Each grading pair over it
        calls ``phi_product`` once.  That is None on a dependent pair,
        found from the undefined positions alone: two undefined entries
        at one (join block, coordinate).  Otherwise its factor maps come
        from a memo keyed per coordinate, and ``phi_coords`` gives the
        completion coordinates of every assignment pair.
        """
        if self.m == 1:
            raise UnsupportedM("the ring structure is proved only for m > 1")
        bond, nbc, offset = self.bond, self.os.nbc, self.offset
        nbc_index = self.os.nbc_index
        grading_of = {mat: g for g, mat in enumerate(self.matrices)}
        over: dict[int, list[int]] = {}
        for g, mat in enumerate(self.matrices):
            over.setdefault(bond.index[mat.partition], []).append(g)
        position = cache(lambda g: {alpha: i for i, alpha in
                                    enumerate(self.assignments[g])})
        table: dict[tuple[int, int], dict[int, int]] = {}
        for pa, left in over.items():
            for pb, right in over.items():
                pj = bond.join_index(pa, pb)
                if bond.rank[pj] != bond.rank[pa] + bond.rank[pb]:
                    continue
                os_table = {}
                for x, mono_a in enumerate(nbc[bond.labels[pa]]):
                    for y, mono_b in enumerate(nbc[bond.labels[pb]]):
                        prod = self.os.multiply_monomials(mono_a, mono_b)
                        if prod:
                            os_table[x, y] = [(nbc_index[mono][1], c)
                                              for mono, c in prod.items()]
                if not os_table:
                    continue
                for ga, gb in product(left, right):
                    a, b = self.matrices[ga], self.matrices[gb]
                    pair = phi_product(a, b)
                    if pair is None:
                        continue
                    # every product of the pair lands in its join
                    gt = grading_of[pair[0]]
                    width, where = len(self.assignments[gt]), position(gt)
                    # Koszul regrading: the completion factor of the first
                    # element moves past the lattice factor of the second
                    koszul = -1 if (a.r_f * b.r_b) % 2 else 1
                    us, vs = self.assignments[ga], self.assignments[gb]
                    phi = {}
                    for (s, alpha), (t, beta) in product(enumerate(us), enumerate(vs)):
                        phi[s, t] = [(where[key], koszul * c)
                                     for key, c in phi_coords(pair, alpha, beta).items()]
                    for (x, y), os_terms in os_table.items():
                        for (s, t), bcp_terms in phi.items():
                            entry = {}
                            for (mono_pos, c_os), (pos, c_b) in product(os_terms,
                                                                        bcp_terms):
                                coeff = c_os * c_b
                                if self.mode == "real":
                                    coeff %= 2
                                if coeff:
                                    entry[offset[gt] + mono_pos * width + pos] = coeff
                            if entry:
                                table[offset[ga] + x * len(us) + s,
                                      offset[gb] + y * len(vs) + t] = entry
        return table

    def cup_basis(self, i: int, j: int) -> dict[int, int]:
        """Structure constants for the product of two basis elements."""
        return self.products.get((i, j), {})

    def unit_index(self) -> int:
        bottom = empty_matrix(self.graph, self.k, self.m)
        return self.offset[self.matrices.index(bottom)]

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
        return {
            "graph": {"n": self.graph.n,
                      "edges": sorted([list(e) for e in self.graph.edges])},
            "k": self.k,
            "m": self.m,
            "mode": self.mode,
            "basis": basis,
            "gradings": {lab: mat.to_json_dict()
                         for lab, mat in zip(self.labels, self.matrices)},
            "poincare": self.poincare_polynomial(),
            "products": [[i, j, [[c, idx] for idx, c in sorted(entry.items())]]
                         for (i, j), entry in sorted(self.products.items()) if entry],
        }

    def _atom_name(self, pos: int) -> str:
        atom = self.bond.labels[self.os.atoms[pos]]
        block = next(b for b in atom if len(b) == 2)
        return f"e{block[0]}-{block[1]}"


class RingAxiomViolation(Exception):
    """The structure constants break a ring axiom."""


def check_ring_axioms(pres: RingPresentation):
    """Unit law, degrees and grading law, graded commutativity, associativity.

    Only nonzero products can break the grading and commutativity laws,
    so those walks go over the nonzero entries, and each grading pair is
    joined once.  Associativity is checked over the triples (i, j, l)
    with i*j nonzero, one pass per pair (i, j): with the table indexed by
    rows, ``rows[t]`` = {l: t*l} over the nonzero products, both
    (i*j)*l = sum_t c_t (t*l) and i*(j*l) come out for every l at once,
    and only the l that some side reaches need comparing.
    Returns a dict of counters; raises RingAxiomViolation on any violation.
    The checks are explicit raises, so they also run under ``python -O``.
    """
    table = pres.products
    n = pres.offset[-1]
    nonzero = [ij for ij, entry in table.items() if entry]
    stats = {"pairs": n * n, "nonzero": len(nonzero), "triples": len(nonzero) * n}

    def cup(i, j):
        return table.get((i, j), {})

    unit = pres.unit_index()
    for i in range(n):
        if cup(unit, i) != {i: 1} or cup(i, unit) != {i: 1}:
            raise RingAxiomViolation(f"the unit does not act as 1 on basis element {i}")
    degrees, matrices = pres.degrees, pres.matrices
    grading = [g for g in range(len(matrices)) for _ in range(pres.piece_rank(g))]
    grading_of = {mat: g for g, mat in enumerate(matrices)}

    @cache
    def join(g, h):
        target = join_theta(matrices[g], matrices[h])
        return target, grading_of.get(target)

    for i, j in nonzero:
        gi, gj = grading[i], grading[j]
        target, gt = join(gi, gj)
        want = degrees[gi] + degrees[gj]
        for idx in cup(i, j):
            if degrees[grading[idx]] != want or grading[idx] != gt:
                raise RingAxiomViolation(
                    f"product {i}*{j} has term {idx} outside degree "
                    f"{want} and grading {target.label()}")
        sign = -1 if pres.mode != "real" and (degrees[gi] * degrees[gj]) % 2 else 1
        if cup(i, j) != {idx: sign * c for idx, c in cup(j, i).items()}:
            raise RingAxiomViolation(
                f"products {i}*{j} and {j}*{i} are not graded commutative")

    def reduced(terms):
        if pres.mode == "real":
            return {t: c % 2 for t, c in terms.items() if c % 2}
        return {t: c for t, c in terms.items() if c}

    rows: dict[int, dict[int, dict[int, int]]] = {}
    for (t, l), entry in table.items():
        if entry:
            rows.setdefault(t, {})[l] = entry
    # Triples with i*j = 0 need no walk once the laws above hold:
    # i*(j*l) = +-(l*j)*i, which is zero when l*j is, and otherwise
    # the walk of (l, j, i) equates it with l*(j*i) = 0.
    for i, j in nonzero:
        left: dict[int, dict[int, int]] = {}
        for t, c in table[i, j].items():
            for l, entry in rows.get(t, {}).items():
                acc = left.setdefault(l, {})
                for s, c2 in entry.items():
                    acc[s] = acc.get(s, 0) + c * c2
        right: dict[int, dict[int, int]] = {}
        row_i = rows.get(i, {})
        for l, entry in rows.get(j, {}).items():
            acc = right[l] = {}
            for t, c in entry.items():
                for s, c2 in row_i.get(t, {}).items():
                    acc[s] = acc.get(s, 0) + c * c2
        # an l that neither side reaches has both sides zero; sides equal
        # before the reduction are equal after it
        for l in sorted(left.keys() | right.keys()):
            a, b = left.get(l, {}), right.get(l, {})
            if a != b and reduced(a) != reduced(b):
                raise RingAxiomViolation(
                    f"({i}*{j})*{l} differs from {i}*({j}*{l})")
    return stats

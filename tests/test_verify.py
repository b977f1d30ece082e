"""Oracle-side formal chains and the product check: pinned basis cycles and
cup products, corrupted structure constants, and where the oracle works."""

import hashlib
import sys
from itertools import product
from math import factorial

import pytest

import orbitcoh.oracle
import orbitcoh.verify
from conftest import OrbitLattice, dense, path_graph
from orbitcoh.cli import main
from orbitcoh.intlinalg import HomologySummary
from orbitcoh.oracle import GMOracle, OracleTooLarge, TorComplex, TorDegree
from orbitcoh.orbit import Graph, IntersectionLattice, PartialMatrix, bond_lattice
from orbitcoh.posets import GradedPoset, join
from orbitcoh.ring import RingPresentation
from orbitcoh.verify import (
    braid_chain,
    fiber_chain,
    restriction_index,
    theta_cycles,
    verify_full,
)
from reference_impl import folding_braid_chain, folding_fiber_chain


def _digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()


def _cycles(pres, inter):
    locate, braids = restriction_index(inter), {}
    return [cycle for g in range(len(pres.matrices))
            for cycle in theta_cycles(pres, g, locate, braids)]


def test_theta_cycles_are_pinned():
    # sorted theta_cycles chains of every basis element of K2 (k = 3) and P3
    # (k = 2), recorded before the chain builders shared one shuffle loop,
    # when chains were keyed by labels: the index chains are mapped back
    chains = []
    for graph, k in [(Graph.complete(2), 3), (path_graph(3), 2)]:
        pres = RingPresentation(graph, k, 2)
        inter = IntersectionLattice(graph, k, 2)
        labels = inter.poset.labels
        chains.append([sorted(((tuple(labels[i] for i in ch), gi, fi), c)
                              for (ch, gi, fi), c in cycle.items())
                       for cycle in _cycles(pres, inter)])
    assert _digest(chains) == (
        "5f99339c6770b379a9fd7f175e12a4aea0caec735e37a42336ea0c7f2dae43c1")


def test_oracle_cups_are_pinned():
    # GMOracle.cup on the basis cycles of every ordered basis pair of K2
    # (k = 2), recorded before cup pushed its shuffles without a cross dict,
    # when it returned dense vectors: each sparse product is written out
    # dense over its target degree before hashing
    graph = Graph.complete(2)
    pres = RingPresentation(graph, 2, 2)
    inter = IntersectionLattice(graph, 2, 2)
    oracle = GMOracle(inter.poset, inter.codim)
    cycles = []
    for e, formal in zip(pres.basis, _cycles(pres, inter)):
        mat = pres.matrices[e.grading]
        deg = mat.r_b + mat.r_f
        cycles.append((e.theta, deg, oracle.complex_at(e.theta).vector(formal, deg)))
    cups = []
    for a in cycles:
        for b in cycles:
            xy, n, vec = oracle.cup(*a, *b)
            cups.append((xy, n, dense([vec], oracle.complex_at(xy).rank(n))[0]))
    assert _digest(cups) == (
        "9f9fe235d041687b668e18ed049cc1202f04ffef5c6591df281104c7241a7928")


@pytest.mark.parametrize("graph, k, m", [(Graph.complete(2), 4, 2), (path_graph(3), 2, 2),
                                         (path_graph(4), 2, 1)],
                         ids=["K2-k4", "P3-k2", "P4-k2-m1"])
def test_oracle_complexes_compose_to_zero(monkeypatch, graph, k, m):
    # verify builds its K-chain complexes unchecked: every one of them must
    # still be a complex, and a degree-n boundary column holds one entry
    # per face of a chain of n + 1 elements (the sheaves have rank 1).
    # Every complex is over the intersection lattice, one per element, also
    # where sigma merges orbit elements: on P4 (k = 2, m = 1) the orbit
    # lattice has 38 elements and the intersection lattice 37
    built = []
    honest = TorComplex.__init__

    def init(self, *args, **kwargs):
        honest(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(TorComplex, "__init__", init)
    assert verify_full(graph, k, m).ok
    lkm = OrbitLattice(graph, k, m)
    inter = IntersectionLattice(graph, k, m)
    assert all(kc.poset.labels == inter.poset.labels for kc in built)
    points = [[x for x, r in zip(kc.poset.labels, kc.f.ranks) if r] for kc in built]
    assert sorted(points) == sorted([x] for x in inter.poset.labels)
    if m == 1:
        assert (lkm.poset.n, inter.poset.n) == (38, 37)
    for cx in (kc.chain_complex() for kc in built):
        cx.validate()
        for n in range(1, len(cx.ranks)):
            assert max(map(len, cx.boundary(n)), default=0) <= n + 1
    # maps are stored only on covers inside the support, so none for these
    # point deltas: every cover crossing out of a support is the implicit zero
    for sheaf in (s for kc in built for s in (kc.g, kc.f)):
        assert all(sheaf.ranks[lo] and sheaf.ranks[hi] for lo, hi in sheaf.maps)


@pytest.mark.parametrize("graph, k", [(path_graph(3), 2), (Graph.complete(2), 4),
                                      (Graph.complete(3), 3)],
                         ids=["P3-k2", "K2-k4", "K3-k3"])
def test_fiber_chain_is_the_entry_by_entry_fold(graph, k):
    # the closed-form sum over starts and orders equals the shuffle folded
    # in one entry at a time, for every completion tensor of the ring
    pres = RingPresentation(graph, k, 2)
    for g, mat in enumerate(pres.matrices):
        for assignment in pres.assignments[g]:
            got = {tuple(tuple(v for row in fm.entries for v in row) for fm in chain): c
                   for chain, c in fiber_chain(mat, assignment).items()}
            assert all(fm.partition == mat.partition
                       for chain in fiber_chain(mat, assignment) for fm in chain)
            assert got == folding_fiber_chain(
                mat.entries, assignment, lambda r: (0,) * len(mat.rows()[r]))


def test_braid_chain_has_one_chain_per_ordering():
    # r independent atoms give r! distinct partial-join chains, signed by
    # the permutation that orders them: the shuffle folded in one atom at
    # a time, on every nbc monomial of the bond lattices of K4, P4 and C4
    for graph in [Graph.complete(4), path_graph(4),
                  Graph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)])]:
        pres = RingPresentation(graph, 1, 2)
        bond = pres.bond
        seen = set()
        for monos in pres.os.nbc.values():
            for mono in monos:
                chains = braid_chain(pres, mono)
                assert len(chains) == factorial(len(mono))
                assert set(chains.values()) <= {1, -1}
                folded = folding_braid_chain(
                    bond.minimum(), [pres.os.atoms[p] for p in mono], bond.join_index)
                assert chains == {tuple(bond.labels[i] for i in chain): c
                                  for chain, c in folded.items()}
                seen.add(len(mono))
        assert seen == {0, 1, 2, 3}


def test_oversized_lattice_is_refused_before_it_is_built(monkeypatch):
    # L(K2, 30, 2) has 1 + 31^2 elements; the guard counts them without
    # building the intersection lattice or the ring
    def refuse(*args):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(orbitcoh.verify, "IntersectionLattice", refuse)
    monkeypatch.setattr(orbitcoh.verify, "RingPresentation", refuse)
    with pytest.raises(OracleTooLarge) as exc:
        verify_full(Graph.complete(2), 30, 2)
    assert str(exc.value) == "orbit lattice has 962 elements, limit 100"


def test_verify_builds_no_orbit_lattice_poset(monkeypatch):
    # on P4 at m = 1 sigma merges the orbit lattice's 38 elements into 37:
    # besides the bond lattices, only the intersection lattice is a poset
    built = []
    honest = GradedPoset.__init__

    def init(self, *args, **kwargs):
        honest(self, *args, **kwargs)
        built.append(self.n)

    monkeypatch.setattr(GradedPoset, "__init__", init)
    graph = path_graph(4)
    assert verify_full(graph, 2, 1).ok
    bond = bond_lattice(graph).n
    assert sorted(n for n in built if n != bond) == [37]


def test_verify_builds_no_ring_basis(monkeypatch):
    # the product check reads each basis index's grading from the piece
    # ranks, so verify builds no GradedBasisElement
    def refuse(self):
        raise AssertionError("the ring basis was built")

    monkeypatch.setattr(RingPresentation, "basis", property(refuse))
    report = verify_full(path_graph(3), 2, 2)
    assert report.ok and report.product_checks
    assert not any(line.startswith("SKIP") for line in report.lines)


def test_size_guard_counts_the_lattice():
    for graph, k, m in [(Graph.complete(3), 2, 2), (path_graph(3), 3, 1),
                        (Graph.make(4, [(1, 2), (3, 4)]), 2, 2)]:
        with pytest.raises(OracleTooLarge) as exc:
            verify_full(graph, k, m, oracle_limit=0)
        assert str(exc.value) == (
            f"orbit lattice has {OrbitLattice(graph, k, m).poset.n} elements, limit 0")
    # P11 is too large for OrbitLattice; its 512 bond elements are summed
    with pytest.raises(OracleTooLarge) as exc:
        verify_full(path_graph(11), 2, 2)
    assert str(exc.value) == "orbit lattice has 29424896 elements, limit 100"


def test_truncated_rank_check_is_reported(monkeypatch):
    # K2 (k = 440, m = 1) has 442 intersection elements; with every oracle
    # piece wrong, the rank check stops after 401 failing lines and says how
    # many elements it left unchecked, and m = 1 runs no other check but
    # says so
    class Wrong:
        def homology(self):
            return HomologySummary(((7, ()),))

    monkeypatch.setattr(GMOracle, "complex_at", lambda self, x: Wrong())
    report = verify_full(Graph.complete(2), 440, 1, oracle_limit=500)
    assert not report.ok and report.rank_checks == 401
    assert len(report.lines) == 403 and report.lines[-3].startswith("FAIL ranks at ")
    assert report.lines[-2] == "FAIL rank check stopped: 41 of 442 elements not checked"
    assert report.lines[-1] == "SKIP cup products and ring axioms: m = 1"


@pytest.mark.parametrize("m, limit, skipped", [
    (1, 100, "SKIP cup products and ring axioms: m = 1"),
    (2, 500, "SKIP cup products: sigma merges 240 orbit elements into 239"),
], ids=["m1", "m2"])
def test_skipped_checks_say_why(m, limit, skipped):
    # on P4 (k = 2) sigma merges orbit elements, so no products are compared;
    # one line says why, after the rank lines, and leaves ok as it was
    report = verify_full(path_graph(4), 2, m, oracle_limit=limit)
    assert report.ok and report.product_checks == 0
    assert [l for l in report.lines if l.startswith("SKIP")] == [skipped]
    assert report.lines[report.rank_checks] == skipped
    assert all(l.startswith("PASS ") for l in report.lines if l != skipped)


def test_bijective_sigma_skips_nothing():
    # K2 (k = 2): products and ring axioms both run, and no line is a SKIP
    report = verify_full(Graph.complete(2), 2, 2)
    assert report.ok and report.product_checks
    assert not [l for l in report.lines if not l.startswith("PASS ")]


def _additive(inter, x, y) -> bool:
    return inter.codim[x] + inter.codim[y] == inter.codim[join(inter.poset, x, y)]


def _product_line(report) -> tuple[bool, int]:
    line = next(l for l in report.lines if " cup products match the oracle on " in l)
    return line.startswith("PASS "), int(line.rsplit("(", 1)[1].split()[0])


def _corrupt(monkeypatch, entries):
    # verify reads the closed form from the product table: the entries go
    # there, so the ring axioms see them too
    def corrupted(*args):
        pres = RingPresentation(*args)
        pres.products.update(entries)
        return pres

    monkeypatch.setattr(orbitcoh.verify, "RingPresentation", corrupted)


def _additive_entry(pres, inter):
    # a nonzero product of two positive-degree classes, one constant off by one
    unit = pres.unit_index()
    (i, j), entry = next(((i, j), e) for (i, j), e in sorted(pres.products.items())
                         if unit not in (i, j))
    assert _additive(inter, pres.basis[i].theta, pres.basis[j].theta)
    idx = min(entry)
    return (i, j), {**entry, idx: entry[idx] + 1}


def _zero_entry(pres, inter):
    # the square of a class of positive codimension is zero by the
    # codimension condition alone; the closed form now claims otherwise
    i = next(i for i, e in enumerate(pres.basis) if e.degree)
    theta = pres.basis[i].theta
    assert not _additive(inter, theta, theta) and (i, i) not in pres.products
    return (i, i), {i: 1}


def test_corrupt_constant_in_additive_block_is_caught(monkeypatch):
    graph = path_graph(3)
    pres = RingPresentation(graph, 2, 2)
    inter = IntersectionLattice(graph, 2, 2)
    _corrupt(monkeypatch, dict([_additive_entry(pres, inter)]))
    report = verify_full(graph, 2, 2)
    passed, mismatches = _product_line(report)
    assert report.ok is False and not passed and mismatches >= 1


def test_corrupt_constant_in_zero_block_is_caught(monkeypatch):
    graph = path_graph(3)
    pres = RingPresentation(graph, 2, 2)
    inter = IntersectionLattice(graph, 2, 2)
    _corrupt(monkeypatch, dict([_zero_entry(pres, inter)]))
    report = verify_full(graph, 2, 2)
    passed, mismatches = _product_line(report)
    assert report.ok is False and not passed and mismatches >= 1


def test_two_corrupt_constants_are_two_mismatches(monkeypatch):
    # one wrong constant in a zero block and one in an additive block: each
    # is one mismatching basis pair, and every basis pair is still compared
    graph = path_graph(3)
    pres = RingPresentation(graph, 2, 2)
    inter = IntersectionLattice(graph, 2, 2)
    _corrupt(monkeypatch, dict([_zero_entry(pres, inter), _additive_entry(pres, inter)]))
    report = verify_full(graph, 2, 2)
    assert _product_line(report) == (False, 2)
    assert report.product_checks == 68 * 68 and report.ok is False


def test_missing_product_is_caught(monkeypatch):
    # the closed form drops a nonzero product of an additive block: the
    # oracle's product there is not zero, which is one mismatch
    graph = path_graph(3)
    pres = RingPresentation(graph, 2, 2)
    inter = IntersectionLattice(graph, 2, 2)
    (i, j), _ = _additive_entry(pres, inter)

    def dropped(*args):
        pres = RingPresentation(*args)
        del pres.products[i, j]
        return pres

    monkeypatch.setattr(orbitcoh.verify, "RingPresentation", dropped)
    report = verify_full(graph, 2, 2)
    assert _product_line(report) == (False, 1)


def test_oracle_works_only_on_codimension_additive_pairs(monkeypatch):
    # P3 (k = 2): 287 of the 44 x 44 lattice pairs have additive
    # codimensions; each is pushed once and read once, the rest not at all
    graph = path_graph(3)
    inter = IntersectionLattice(graph, 2, 2)
    labels = inter.poset.labels
    additive = sum(_additive(inter, x, y) for x in labels for y in labels)
    assert (additive, len(labels) ** 2) == (287, 1936)
    pushed, reads = [], []
    tensor, class_coords = orbitcoh.oracle.shuffle_tensor, TorDegree.class_coords

    def counting_tensor(us, vs, pair):
        caller = sys._getframe(2)  # through shuffle_block
        if caller.f_code.co_name == "cup_block":
            pushed.append((caller.f_locals["x"], caller.f_locals["y"]))
        return tensor(us, vs, pair)

    def counting_coords(self, vecs):
        reads.append(len(vecs))
        return class_coords(self, vecs)

    monkeypatch.setattr(orbitcoh.oracle, "shuffle_tensor", counting_tensor)
    monkeypatch.setattr(TorDegree, "class_coords", counting_coords)
    report = verify_full(graph, 2, 2)
    assert report.ok and report.product_checks == 68 * 68
    assert len(pushed) == len(set(pushed)) == additive
    assert all(_additive(inter, x, y) for x, y in pushed)
    # one read per grading (its basis cycles), then one per pushed pair
    pres = RingPresentation(graph, 2, 2)
    assert len(reads) == len(pres.matrices) + additive
    assert sum(reads) == len(pres.basis) + sum(
        (pres.offset[a + 1] - pres.offset[a]) * (pres.offset[b + 1] - pres.offset[b])
        for a, b in product(range(len(pres.matrices)), repeat=2)
        if _additive(inter, pres.matrices[a].label(), pres.matrices[b].label()))


def test_theta_cycles_render_each_restriction_once(monkeypatch):
    # P3 (k = 2): the basis cycles need the restrictions of 137 distinct
    # (fiber matrix, bond label) pairs; each is computed once and goes
    # straight to its lattice index, with no label rendered
    rendered, labelled, building = [], [], []
    restrict, label = orbitcoh.verify.restrict_matrix, PartialMatrix.label
    theta = orbitcoh.verify.theta_cycles

    def counting(fmat, lab):
        rendered.append((fmat, lab))
        return restrict(fmat, lab)

    def cycle(*args):
        building.append(True)
        try:
            return theta(*args)
        finally:
            building.pop()

    def counting_label(self):
        if building:
            labelled.append(self)
        return label(self)

    monkeypatch.setattr(orbitcoh.verify, "restrict_matrix", counting)
    monkeypatch.setattr(orbitcoh.verify, "theta_cycles", cycle)
    monkeypatch.setattr(PartialMatrix, "label", counting_label)
    assert verify_full(path_graph(3), 2, 2).ok
    assert len(rendered) == len(set(rendered)) == 137
    assert not labelled


def test_larger_verify_json_is_pinned(tmp_path):
    # verify on K3 (k = 3): 654 basis elements and 3,953 nonzero products,
    # so the ring axioms cover 2,585,262 triples; recorded while the
    # associativity walk still built both sides of every triple
    out = tmp_path / "v.json"
    assert main(["verify", "--complete", "3", "--k", "3", "--m", "2",
                 "--oracle-limit", "200", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b531c8878ef72882aa43ea7493fd97d6a8b60660022a5f41ba4d90986d224f11")

"""Paper-pinned cross-checks spanning several modules."""

import random

import pytest

from conftest import (
    OrbitLattice,
    bcp_form,
    build_poset,
    canonical_fhom,
    chain_poset,
    class_coords,
    constant_sheaf,
    cross_formal,
    fiber_poset,
    free_generators,
    induced_homology_matrix,
    pullback,
)
from orbitcoh.cellular import CellularForm, construct_cellular_form, verify_cellular_form
from orbitcoh.intlinalg import HomologySummary, elementary_divisors, shape_error
from orbitcoh.morphisms import FHom, Incompatible, PosetMorphism
from orbitcoh.oracle import TorComplex
from orbitcoh.orbit import (
    Graph,
    IntersectionLattice,
    bond_lattice,
    join_theta,
    sigma_canonical,
)
from orbitcoh.posets import GradedPoset
from orbitcoh.sheaves import delta_sheaf


def test_sigma_pullback_of_ambient_delta():
    # pulling delta^M back along sigma gives delta^bottom on the orbit lattice
    lkm = OrbitLattice(Graph.complete(3), 2, 1)
    inter = IntersectionLattice(Graph.complete(3), 2, 1)
    sig = PosetMorphism(lkm.poset, inter.poset,
                        {lab: inter.sigma[lab] for lab in lkm.poset.labels})
    g = delta_sheaf(inter.poset, [inter.poset.labels[inter.poset.minimum()]], 1, "co")
    back = pullback(sig, g)
    bottom = lkm.poset.labels[lkm.poset.minimum()]
    for lab in lkm.poset.labels:
        want = 1 if lab == bottom else 0
        assert back.rank_of(lab) == want


def test_sigma_induced_iso_noninjective():
    # Tor over the intersection lattice agrees with Tor over the orbit
    # lattice through the canonical f-homomorphisms, including at the
    # glued element of K_4 whose fiber has four members
    graph = Graph.complete(4)
    lkm = OrbitLattice(graph, 2, 1)
    inter = IntersectionLattice(graph, 2, 1)
    assert lkm.poset.n == 75 and inter.poset.n == 72
    sig = PosetMorphism(lkm.poset, inter.poset,
                        {lab: inter.sigma[lab] for lab in lkm.poset.labels})
    glued = next(lab for lab, mat in inter.by_label.items()
                 if mat.partition == ((1, 2, 3, 4),) and mat.r_f == 1)
    g_dst = delta_sheaf(inter.poset, [inter.poset.labels[inter.poset.minimum()]], 1, "co")
    f_dst = delta_sheaf(inter.poset, [glued], 1, "pre")
    t = canonical_fhom(sig, g_dst)
    k = canonical_fhom(sig, f_dst)
    src = TorComplex(lkm.poset, t.source, k.source)
    dst = TorComplex(inter.poset, g_dst, f_dst)
    hs, hd = src.homology(), dst.homology()
    assert hs.betti_vector()[:len(hd.groups)] == hd.betti_vector()
    assert hs.is_free() and hd.is_free()
    for n in range(len(hd.groups)):
        if hd.betti(n):
            m = induced_homology_matrix(src, dst, k, t, n)
            assert shape_error(m, hd.betti(n), hd.betti(n)) is None
            assert elementary_divisors(m) == [1] * hd.betti(n)


def test_manual_star_at_nonextremal_is_incompatible():
    # the one-point homomorphism fails compatibility off the fiber minimum
    p = build_poset(["a", "b", "t"], [("a", "b"), ("b", "t")],
                    {"a": 0, "b": 1, "t": 2})
    q = build_poset(["x", "y"], [("x", "y")], {"x": 0, "y": 1})
    f = PosetMorphism(p, q, {"a": "x", "b": "y", "t": "y"})
    src = delta_sheaf(p, ["t"], 1, "pre")
    dst = delta_sheaf(q, ["y"], 1, "pre")
    # t is not minimal in the fiber over y; every other component is empty
    comps = {i: [{0: 1}] if p.labels[i] == "t" else [] for i in range(p.n)}
    with pytest.raises(Incompatible):
        FHom(f, src, dst, comps)


def test_cross_degree_zero():
    # element 1 of a 3-element first factor times element 2 of a 3-element
    # second factor is element 1 * 3 + 2 of the product
    x = {((1,), 0, 0): 2}
    y = {((2,), 0, 0): 3}
    rk = constant_sheaf(chain_poset(2), 1, "co")
    out = cross_formal(x, y, rk, rk)
    assert out == {((5,), 0, 0): 6}


def test_oracle_cup_associative_braid():
    from orbitcoh.oracle import GMOracle
    from conftest import partition_lattice
    p4 = partition_lattice(4)
    codim = {lab: p4.rank_of(lab) for lab in p4.labels}
    orc = GMOracle(p4, codim)
    atoms = [lab for lab in p4.labels if p4.rank_of(lab) == 1]
    gens = {}
    for a in atoms[:3]:
        gens[a] = free_generators(orc.complex_at(a).tor(1))[0]
    a, b, c = atoms[:3]
    xy, n, ab = orc.cup(a, 1, gens[a], b, 1, gens[b])
    lhs = orc.cup(xy, n, ab, c, 1, gens[c])
    yz, n2, bc = orc.cup(b, 1, gens[b], c, 1, gens[c])
    rhs = orc.cup(a, 1, gens[a], yz, n2, bc)
    assert lhs[0] == rhs[0] and lhs[1] == rhs[1]
    coords_l = class_coords(orc, *lhs)
    coords_r = class_coords(orc, *rhs)
    assert coords_l == coords_r


def test_bcp_form_is_the_cellular_form():
    # the explicit BCp presentation passes verification and has the same
    # piece ranks as the generic construction, fiber by fiber
    cases = [
        (Graph.complete(3), ((1, 2, 3),), 2, 2),
        (Graph.complete(3), ((1, 2), (3,)), 3, 1),
        (Graph.complete(2), ((1, 2),), 2, 2),
    ]
    for graph, partition, k, m in cases:
        fib = fiber_poset(graph, partition, k, m)
        explicit = bcp_form(fib)
        verify_cellular_form(explicit)
        built = construct_cellular_form(fib.poset, constant_sheaf(fib.poset, 1, "co"))
        assert isinstance(built, CellularForm)
        assert built.piece_ranks == explicit.piece_ranks


def test_construct_invariant_under_relabeling():
    # permuting labels permutes the pieces but leaves the ranks intact
    lat = bond_lattice(Graph.complete(3))
    bot = lat.labels[lat.minimum()]
    form = construct_cellular_form(lat, delta_sheaf(lat, [bot], 1, "co"))
    names = {lab: f"z{i}" for i, lab in enumerate(reversed(lat.labels))}
    relabeled = GradedPoset(
        [names[lab] for lab in lat.labels],
        [(names[lat.labels[lo]], names[lat.labels[hi]]) for lo, hi in lat.covers],
        {names[lab]: lat.rank_of(lab) for lab in lat.labels})
    g2 = delta_sheaf(relabeled, [names[bot]], 1, "co")
    form2 = construct_cellular_form(relabeled, g2)
    assert isinstance(form2, CellularForm)
    for lab in lat.labels:
        assert form.rank_of(lab) == form2.rank_of(names[lab])


def test_sigma_is_join_morphism():
    lkm = OrbitLattice(Graph.complete(4), 2, 1)
    rng = random.Random(17)
    labs = lkm.poset.labels
    for _ in range(60):
        a = lkm.by_label[rng.choice(labs)]
        b = lkm.by_label[rng.choice(labs)]
        lhs = sigma_canonical(join_theta(a, b), lkm.graph)
        rhs = sigma_canonical(
            join_theta(sigma_canonical(a, lkm.graph),
                       sigma_canonical(b, lkm.graph)), lkm.graph)
        assert lhs == rhs


def test_intersection_lattice_k1_is_bond_lattice():
    il = IntersectionLattice(Graph.complete(3), 1, 1)
    bl = bond_lattice(Graph.complete(3))
    assert il.poset.n == bl.n
    ranks = sorted(il.codim.values())
    assert ranks == sorted(bl.rank)


def test_verify_full_with_torsion_flag():
    from orbitcoh.verify import verify_full
    rep = verify_full(Graph.complete(2), 2, 2)
    assert rep.ok


def test_oracle_torsion_fails_the_rank_check(monkeypatch):
    # the closed form is torsion-free, so a Z/2 in an oracle Tor group fails
    # its grading's rank line even though the free ranks agree
    from orbitcoh.verify import verify_full
    homology = TorComplex.homology
    monkeypatch.setattr(TorComplex, "homology", lambda self: HomologySummary(
        homology(self).groups + ((0, (2,)),)))
    rep = verify_full(Graph.complete(2), 2, 2)
    assert not rep.ok
    assert all(line.startswith("FAIL ranks at ") for line in rep.lines[:rep.rank_checks])
    assert "Z/2" in rep.lines[0]

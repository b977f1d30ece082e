import hashlib

import pytest

from conftest import (
    STACKED_SQUARES,
    OrbitLattice,
    below,
    bottom,
    build_poset,
    cellular_chain,
    chain_poset,
    constant_sheaf,
    dumps,
    partition_lattice,
    path_graph,
    top,
)
from orbitcoh.cellular import (
    CellularForm,
    FormViolation,
    NotCellular,
    construct_cellular_form,
    stack_blocks,
    verify_cellular_form,
)
from orbitcoh import intlinalg
from orbitcoh.intlinalg import homology, identity, sparse_apply
from orbitcoh.morphisms import (
    FHom,
    PosetMorphism,
    PreconditionFailed,
    form_morphism,
    identity_morphism,
    join_morphism,
    product_form,
)
from orbitcoh.oracle import TorComplex
from orbitcoh.orbit import Graph
from orbitcoh.sheaves import delta_sheaf
from reference_impl import moebius


def star_poset(num_atoms):
    """Atoms below a single top element (the one-block coloring poset)."""
    labels = [f"a{i}" for i in range(num_atoms)] + ["top"]
    covers = [(f"a{i}", "top") for i in range(num_atoms)]
    rank = {lab: 0 for lab in labels}
    rank["top"] = 1
    return build_poset(labels, covers, rank)


def test_star_poset_form():
    # one undefined entry over a 2-element block with k = 2: two colorings
    p = star_poset(2)
    g = constant_sheaf(p, 1, "co")
    form = construct_cellular_form(p, g)
    assert isinstance(form, CellularForm)
    assert form.rank_of("top") == 1
    assert form.rank_of("a0") == 1 and form.rank_of("a1") == 1
    verify_cellular_form(form)


def test_star_poset_form_k3():
    p = star_poset(3)
    g = constant_sheaf(p, 1, "co")
    form = construct_cellular_form(p, g)
    assert form.rank_of("top") == 2


def test_partition_lattice_piece_ranks():
    # the form of (Pi_n, delta^bottom Z) has OS-algebra piece ranks |mu|
    for n in (3, 4):
        pn = partition_lattice(n)
        g = delta_sheaf(pn, [bottom(n)], 1, "co")
        form = construct_cellular_form(pn, g)
        assert isinstance(form, CellularForm)
        for lab in pn.labels:
            mu = moebius(pn, bottom(n), lab)
            assert form.rank_of(lab) == abs(mu)
        verify_cellular_form(form)
    p4 = partition_lattice(4)
    g4 = delta_sheaf(p4, [bottom(4)], 1, "co")
    form4 = construct_cellular_form(p4, g4)
    by_rank = [0] * 4
    for lab in p4.labels:
        by_rank[p4.rank_of(lab)] += form4.rank_of(lab)
    assert by_rank == [1, 6, 11, 6]


def test_two_diamond_is_cellular():
    # Tor(delta_x, const Z) is concentrated at rank(x) for every x here, so
    # the algorithm must succeed (cross-checked against the brute force)
    p = build_poset(
        ["a", "b", "c", "d", "T"],
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "T"), ("d", "T")],
        {"a": 0, "b": 0, "c": 1, "d": 1, "T": 2})
    g = constant_sheaf(p, 1, "co")
    form = construct_cellular_form(p, g)
    assert isinstance(form, CellularForm)
    assert form.rank_of("T") == 1
    verify_cellular_form(form)


def test_disjoint_supports_not_cellular():
    # c and d have disjoint rank-0 supports: the kernel below T is not
    # generated by the rank-1 kernels, and brute-force Tor is off-rank
    p = build_poset(["a", "b", "c", "d", "T"],
                    [("a", "c"), ("b", "d"), ("c", "T"), ("d", "T")],
                    {"a": 0, "b": 0, "c": 1, "d": 1, "T": 2})
    g = constant_sheaf(p, 1, "co")
    verdict = construct_cellular_form(p, g)
    assert isinstance(verdict, NotCellular)
    assert verdict.element == "T" and verdict.step == "kernel-sum"
    f = delta_sheaf(p, ["T"], 1, "pre")
    h = TorComplex(p, g, f).homology()
    assert h.betti(1) == 1  # nonzero off rank 2: verdicts agree


def test_positive_homology_verdict():
    # every element below U passes; below U the two squares leave a cycle
    # in degree 1 of the complex, past the kernel-sum step
    p = build_poset(STACKED_SQUARES["elements"], STACKED_SQUARES["covers"],
                    STACKED_SQUARES["rank"])
    verdict = construct_cellular_form(p, constant_sheaf(p, 1, "co"))
    assert verdict == NotCellular("U", "positive-homology",
                                  "homology below is nonzero in degree 1")


def test_surjectivity_failure():
    p = chain_poset(1)
    g = delta_sheaf(p, ["x1"], 1, "co")
    verdict = construct_cellular_form(p, g)
    assert isinstance(verdict, NotCellular)
    assert verdict.step == "surjectivity"


def test_verify_rejects_perturbed_form():
    # every nonzero block in turn; the blocks out of the top break d o d = 0
    p3 = partition_lattice(3)
    g = delta_sheaf(p3, [bottom(3)], 1, "co")
    form = construct_cellular_form(p3, g)
    pr = form.piece_ranks
    keys = sorted((y, x) for x in range(p3.n) for y in p3.lower[x] if pr[y] and pr[x])
    assert len(keys) == 6
    for y, x in keys:
        blocks = {z: form.block(z, x) for z in p3.lower[x]}  # copies of the blocks
        blocks[y][0][0] = blocks[y][0].get(0, 0) + 1  # entry (0, 0) of block (y, x)
        bad_diff = list(form.diff)
        bad_diff[x] = stack_blocks(p3, pr, x, blocks, pr[x])
        bad = CellularForm(p3, g, pr, bad_diff)
        with pytest.raises(FormViolation):
            verify_cellular_form(bad)


def test_verify_rejects_wrong_rank0_piece():
    # the rank-1 element sorts before the rank-0 one whose piece is wrong
    p = build_poset(["a", "b", "c"], [("b", "a"), ("c", "a")],
                    {"a": 1, "b": 0, "c": 0})
    g = constant_sheaf(p, 1, "co")
    form = construct_cellular_form(p, g)
    a, b, c = p.index["a"], p.index["b"], p.index["c"]
    ranks = list(form.piece_ranks)
    ranks[b] = 2
    diff = list(form.diff)
    diff[b] = [{}, {}]
    diff[a] = stack_blocks(p, ranks, a, {b: [{0: 1}], c: form.block(c, a)}, ranks[a])
    bad = CellularForm(p, g, ranks, diff)
    with pytest.raises(FormViolation, match="rank-0 piece at b"):
        verify_cellular_form(bad)


def test_cellular_chain_delta_concentrates():
    # coefficients delta_x: Tor is the piece at x, in degree rank(x)
    p3 = partition_lattice(3)
    g = delta_sheaf(p3, [bottom(3)], 1, "co")
    form = construct_cellular_form(p3, g)
    x = top(3)
    f = delta_sheaf(p3, [x], 1, "pre")
    h = homology(cellular_chain(form, f))
    assert h.betti(2) == form.rank_of(x) == 2
    assert sum(h.betti_vector()) == 2


def test_cellular_chain_jstar_matches_downset():
    # with coefficients j_x* Z the chain is the form below x, whose homology
    # is G(x) in degree zero
    p3 = partition_lattice(3)
    g = delta_sheaf(p3, [bottom(3)], 1, "co")
    form = construct_cellular_form(p3, g)
    for x in (((1, 2), (3,)), bottom(3), top(3)):
        f = delta_sheaf(p3, below(p3, x), 1, "pre")
        h = homology(cellular_chain(form, f))
        assert h.betti(0) == g.rank_of(x)
        assert sum(h.betti_vector()) == g.rank_of(x) and h.is_free()


def test_cellular_chain_matches_oracle_constant():
    p3 = partition_lattice(3)
    g = delta_sheaf(p3, [bottom(3)], 1, "co")
    form = construct_cellular_form(p3, g)
    f = constant_sheaf(p3, 1, "pre")
    h_cell = homology(cellular_chain(form, f))
    h_k = TorComplex(p3, g, f).homology()
    for n in range(max(len(h_cell.groups), len(h_k.groups))):
        assert h_cell.betti(n) == h_k.betti(n)
        assert h_cell.torsion(n) == h_k.torsion(n)


@pytest.mark.parametrize("graph, k, digest", [
    (path_graph(3), 2,
     "90c4f013b93d8c3e410881a25805c134a81b86cf413ecfbea4bef36afde7beae"),
    (Graph.complete(3), 2,
     "04edd893a82ee07cc4b644f30d773bdf26e8d779aa99c4aaf2bc232cc2009ee9"),
    (Graph.complete(3), 3,
     "21067c1814e1702396347950a270b85770748ef236bd8dea5b132b0493c223cf"),
    (path_graph(3), 3,
     "e5fe93d32ee9cebc6eb06b7a326c0a2e57f37f73a5fafc4ab123a05637566354"),
    (path_graph(3), 4,
     "3aa60787e43570a8dbdcca7ef5c6d1aedf3ced13ab7088a85340a3aa663b8f1e"),
], ids=["P3", "K3", "K3-k3", "P3-k3", "P3-k4"])
def test_orbit_lattice_form_is_pinned(graph, k, digest):
    # the form's JSON on L(G, k, 2) is fixed byte for byte; L(K3, 3, 2) and
    # L(P3, 4, 2) are the benchmark's lattices, the latter with a
    # 498-column top boundary
    lkm = OrbitLattice(graph, k, 2)
    g = delta_sheaf(lkm.poset, [lkm.poset.labels[lkm.poset.minimum()]], 1, "co")
    form = construct_cellular_form(lkm.poset, g)
    text = dumps(form.to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    verify_cellular_form(form)


def test_orbit_lattice_form_needs_no_hermite_pass(monkeypatch):
    # every kernel of L(K3, 3, 2) has unit pivots and an empty core, so
    # the last-column-first elimination gives it in Hermite form and the
    # form is built, unchanged, with row_hermite unusable
    lkm = OrbitLattice(Graph.complete(3), 3, 2)
    g = delta_sheaf(lkm.poset, [lkm.poset.labels[lkm.poset.minimum()]], 1, "co")
    expected = construct_cellular_form(lkm.poset, g).to_json_dict()

    def refuse(vectors):
        raise AssertionError("row_hermite ran")

    monkeypatch.setattr(intlinalg, "row_hermite", refuse)
    form = construct_cellular_form(lkm.poset, g)
    assert form.to_json_dict() == expected
    verify_cellular_form(form)


def test_form_differential_shape_is_checked():
    # the piece at x1 has rank 1 over the rank-1 piece at x0: its
    # differential is one column with rows in 0..0
    p = chain_poset(1)
    g = constant_sheaf(p, 1, "co")
    assert CellularForm(p, g, [1, 1], [[{}], [{0: -1}]]).block(0, 1) == [{0: -1}]
    with pytest.raises(ValueError, match="differential at x1 has 2 columns, not 1"):
        CellularForm(p, g, [1, 1], [[{}], [{0: 1}, {}]])
    with pytest.raises(ValueError, match="differential at x1 has a row outside 0..0"):
        CellularForm(p, g, [1, 1], [[{}], [{1: 1}]])


def test_form_morphism_identity():
    p3 = partition_lattice(3)
    g = delta_sheaf(p3, [bottom(3)], 1, "co")
    form = construct_cellular_form(p3, g)
    ident = identity_morphism(p3)
    t = FHom(ident, g, g, {i: identity(g.ranks[i]) for i in range(p3.n)})
    phi = form_morphism(ident, t, form, form)
    for lab in p3.labels:
        assert phi.component(lab) == identity(form.rank_of(lab))
    phi.check_commutes()


def test_form_morphism_rank_increase_rejected():
    p = chain_poset(1)
    q = chain_poset(2)
    up = PosetMorphism(p, q, {"x0": "x0", "x1": "x2"})
    g = constant_sheaf(p, 1, "co")
    gq = constant_sheaf(q, 1, "co")
    fp = construct_cellular_form(p, g)
    fq = construct_cellular_form(q, gq)
    t = FHom(up, g, gq, {i: identity(1) for i in range(p.n)})
    with pytest.raises(PreconditionFailed):
        form_morphism(up, t, fp, fq)


def test_product_form_verifies():
    p = star_poset(2)
    g = constant_sheaf(p, 1, "co")
    form = construct_cellular_form(p, g)
    prod = product_form(form, form)
    assert prod.rank_of(("top", "top")) == 1
    assert prod.rank_of(("a0", "top")) == 1
    verify_cellular_form(prod)


def test_product_with_point_form():
    p3 = partition_lattice(3)
    g = delta_sheaf(p3, [bottom(3)], 1, "co")
    form = construct_cellular_form(p3, g)
    point = build_poset(["*"], [], {"*": 0})
    pform = construct_cellular_form(point, constant_sheaf(point, 1, "co"))
    prod = product_form(form, pform)
    for lab in p3.labels:
        assert prod.rank_of((lab, "*")) == form.rank_of(lab)


def test_two_forms_mutually_inverse():
    # uniqueness: identity-associated morphisms between a form and a
    # relabel-built form compose to the identity
    p3 = partition_lattice(3)
    g = delta_sheaf(p3, [bottom(3)], 1, "co")
    a = construct_cellular_form(p3, g)
    b = construct_cellular_form(p3, g)
    ident = identity_morphism(p3)
    t = FHom(ident, g, g, {i: identity(g.ranks[i]) for i in range(p3.n)})
    phi = form_morphism(ident, t, a, b)
    psi = form_morphism(ident, t, b, a)
    for lab in p3.labels:
        m = [sparse_apply(phi.component(lab), col) for col in psi.component(lab)]
        assert m == identity(a.rank_of(lab))


def test_join_morphism_of_forms_commutes():
    # the morphism associated with the join and the star homomorphism exists
    # and commutes with differentials on all pieces
    p3 = partition_lattice(3)
    g = delta_sheaf(p3, [bottom(3)], 1, "co")
    form = construct_cellular_form(p3, g)
    prod = product_form(form, form)
    vee = join_morphism(p3)
    from orbitcoh.morphisms import star_fhom
    t = star_fhom(vee, bottom(3), (bottom(3), bottom(3)), "co")
    phi = form_morphism(vee, t, prod, form)
    phi.check_commutes()

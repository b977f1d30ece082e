import hashlib
import json
import random
from itertools import product
from pathlib import Path

import pytest

from conftest import (
    OrbitLattice,
    bcp_boundary,
    bcp_form,
    fiber_poset,
    make_matrix,
    matrix_leq,
    partition_lattice,
    path_graph,
)
from orbitcoh.jsonio import dumps
from orbitcoh.orbit import (
    Graph,
    bcp_assignments,
    block_classes,
    IntersectionLattice,
    bond_lattice,
    empty_matrix,
    fill_entry,
    join_theta,
    phi_coords,
    phi_product,
    restrict_matrix,
    sigma_canonical,
    zero_class,
)
from orbitcoh.posets import GradedPoset
from orbitcoh.ring import RingPresentation
from reference_impl import all_pairs_covers, bcp_rank


def test_bond_lattice_complete_is_partition_lattice():
    for n in (2, 3, 4):
        bl = bond_lattice(Graph.complete(n))
        pl = partition_lattice(n)
        assert bl.labels == pl.labels
        assert sorted(bl.covers) == sorted(pl.covers)


def test_bond_lattice_path():
    bl = bond_lattice(path_graph(3))
    assert bl.n == 4  # Pi_3 minus 13|2
    assert ((1, 3), (2,)) not in bl.labels


def test_bond_lattice_edgeless():
    bl = bond_lattice(Graph.make(3, []))
    assert bl.n == 1


def test_bond_lattice_grows_with_the_edges():
    # one edge on 30 vertices: 2 elements, not the Bell(30) partitions
    bl = bond_lattice(Graph.make(30, [(1, 2)]))
    assert bl.rank == (0, 1)
    assert bond_lattice(Graph.complete(8)).n == 4140


def test_block_classes_count():
    assert len(block_classes(2, 2)) == 2
    assert len(block_classes(3, 2)) == 4
    assert len(block_classes(2, 3)) == 3
    assert all(c[0] == 0 for c in block_classes(3, 3))


def test_fiber_poset_sizes():
    g2 = Graph.complete(2)
    fib = fiber_poset(g2, ((1, 2),), 2, 2)
    assert fib.poset.n == 9  # (k + 1)^m with one 2-block
    g3 = Graph.complete(3)
    fib0 = fiber_poset(g3, ((1,), (2,), (3,)), 2, 2)
    assert fib0.poset.n == 1
    fib_top = fiber_poset(g3, ((1, 2, 3),), 2, 1)
    assert fib_top.poset.n == 5  # 4 classes + undefined


def test_fiber_covers_are_one_completions():
    g2 = Graph.complete(2)
    fib = fiber_poset(g2, ((1, 2),), 2, 2)
    p = fib.poset
    for lo, hi in p.covers:
        assert fib.by_label[p.labels[lo]].r_f + 1 == fib.by_label[p.labels[hi]].r_f


def test_join_idempotent_and_examples():
    g3 = Graph.complete(3)
    theta = make_matrix(g3, 2, 1, [(1, 2), (3,)], [((0, 0),)])
    assert join_theta(theta, theta) == theta
    psi = make_matrix(g3, 2, 1, [(2, 3), (1,)], [((0, 1),)])
    j = join_theta(theta, psi)
    assert j.partition == ((1, 2, 3),)
    assert j.entries == (((0, 0, 1),),)


def test_join_conflict_gives_undefined():
    # triangle with inconsistent potentials: 1~2 with 0, 2~3 with 0, 1~3 with 1
    g3 = Graph.complete(3)
    e12 = make_matrix(g3, 2, 1, [(1, 2), (3,)], [((0, 0),)])
    e23 = make_matrix(g3, 2, 1, [(2, 3), (1,)], [((0, 0),)])
    e13 = make_matrix(g3, 2, 1, [(1, 3), (2,)], [((0, 1),)])
    j = join_theta(join_theta(e12, e23), e13)
    assert j.entries == ((None,),)


def test_lkm_sizes():
    lkm = OrbitLattice(Graph.complete(2), 2, 2)
    assert lkm.poset.n == 10
    lkm3 = OrbitLattice(Graph.complete(3), 2, 2)
    assert lkm3.poset.n == 1 + 3 * 9 + 25
    lkm1 = OrbitLattice(Graph.complete(2), 1, 2)
    assert lkm1.poset.n == 1 + 4  # single class per entry: 2^(1*2) fiber


ORDER_CASES = [
    (Graph.complete(2), 2, 2),
    (Graph.complete(3), 1, 2),
    (Graph.complete(3), 2, 1),
    (Graph.complete(3), 3, 2),
    (Graph.make(4, [(1, 2), (3, 4)]), 2, 2),
    (Graph.complete(4), 2, 1),
    (Graph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), 2, 1),
]


def _assert_order_is(poset, leq):
    """The poset's order is the relation leq on its indices, its covers are leq's."""
    n = poset.n
    up = [sum(1 << j for j in range(n) if leq(i, j)) for i in range(n)]
    assert poset.up == up
    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    covers = [(i, j) for i in range(n) for j in range(n)
              if i != j and up[i] >> j & 1 and not up[i] & down[j] & ~(1 << i | 1 << j)]
    assert list(poset.covers) == covers


def test_lkm_fibration_law():
    # the order built from fiber covers and cartesian lifts is matrix_leq,
    # with exactly its covers
    for graph, k, m in ORDER_CASES:
        lkm = OrbitLattice(graph, k, m)
        mats = [lkm.by_label[lab] for lab in lkm.poset.labels]
        _assert_order_is(lkm.poset, lambda i, j: matrix_leq(mats[i], mats[j]))


def test_intersection_order_is_sigma_of_join():
    # a <= b iff sigma(a v b) = b, on the canonical forms
    for graph, k, m in ORDER_CASES:
        il = IntersectionLattice(graph, k, m)
        mats = [il.by_label[lab] for lab in il.poset.labels]
        _assert_order_is(il.poset, lambda i, j: sigma_canonical(
            join_theta(mats[i], mats[j]), graph) == mats[j])


_P4 = path_graph(4)
_C4 = Graph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
# sigma merges orbit elements on each of these at m = 2
MERGING_CASES = [(_P4, 2, 2), (_C4, 2, 2), (Graph.complete(4), 2, 2), (_P4, 3, 2)]
ORDER_IDS = ["K2-k2-m2", "K3-k1-m2", "K3-k2-m1", "K3-k3-m2", "2K2-k2-m2", "K4-k2-m1",
             "C4-k2-m1"]
MERGING_IDS = ["P4-k2-m2", "C4-k2-m2", "K4-k2-m2", "P4-k3-m2"]


@pytest.mark.parametrize("graph, k, m", ORDER_CASES + MERGING_CASES,
                         ids=ORDER_IDS + MERGING_IDS)
def test_sigma_is_a_closure_operator(graph, k, m):
    # extensive and idempotent on every element, monotone on every cover:
    # the intersection covers are built from sigma of the orbit covers
    lkm = OrbitLattice(graph, k, m)
    sigma = IntersectionLattice(graph, k, m).sigma
    poset = lkm.poset
    image = [poset.index[sigma[lab]] for lab in poset.labels]
    for i, lab in enumerate(poset.labels):
        assert poset.leq(i, image[i])
        assert sigma[sigma[lab]] == sigma[lab]
    for lo, hi in poset.covers:
        assert poset.leq(image[lo], image[hi])


@pytest.mark.parametrize("graph, k, m", ORDER_CASES + MERGING_CASES,
                         ids=ORDER_IDS + MERGING_IDS)
def test_sigma_images_of_covers_are_an_antichain(graph, k, m):
    # for each canonical a, the images in the lattice of a's distinct orbit
    # upper covers are pairwise equal or incomparable, so every one of them
    # is an intersection cover of a with no minimality test
    lkm = OrbitLattice(graph, k, m)
    il = IntersectionLattice(graph, k, m)
    poset = lkm.poset
    for lab in il.by_label:
        ups = {poset.index[il.sigma[poset.labels[c]]] for c in poset.upper[poset.index[lab]]}
        ups = [x for x in ups if poset.labels[x] in il.by_label]
        for x in ups:
            assert not any(y != x and poset.leq(y, x) for y in ups)


@pytest.mark.parametrize("graph, k, m", MERGING_CASES + [
    (Graph.make(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]), 2, 2),
    (Graph.complete(3), 3, 3),
    (Graph.complete(4), 1, 2),
], ids=MERGING_IDS + ["C5-k2-m2", "K3-k3-m3", "K4-k1-m2"])
def test_intersection_lattice_matches_all_pairs_build(graph, k, m):
    # the covers from sigma of the orbit covers are the covers of the
    # orbit order restricted to the canonical forms, read off all pairs
    lkm = OrbitLattice(graph, k, m)
    il = IntersectionLattice(graph, k, m)
    sigma = {lab: sigma_canonical(mat, graph) for lab, mat in lkm.by_label.items()}
    assert il.sigma == {lab: can.label() for lab, can in sigma.items()}
    canon = {can.label(): can for can in sigma.values() if k > 1 or not can.r_f}
    labels = sorted(canon)
    pos = [lkm.poset.index[lab] for lab in labels]
    covers = [(labels[i], labels[j]) for i, j in all_pairs_covers(lkm.poset.up, pos)]
    expected = GradedPoset(labels, covers, {lab: canon[lab].codim() for lab in labels})
    assert il.poset.labels == expected.labels
    assert il.poset.covers == expected.covers
    assert il.poset.rank == expected.rank
    assert il.codim == {lab: canon[lab].codim() for lab in labels}


@pytest.mark.parametrize("name, graph, k, m", [
    ("lkm-K3-k3-m2.json", Graph.complete(3), 3, 2),
    ("lkm-P3-k4-m2.json", path_graph(3), 4, 2),
])
def test_benchmark_lattices_are_build_lkm(name, graph, k, m):
    # the benchmark's stored lattices are OrbitLattice(...).poset exactly; their
    # source field names the alias they were recorded with
    data = json.loads((Path(__file__).resolve().parent.parent
                       / "perfbench" / "data" / name).read_text())
    assert data["source"] == f"orbitcoh.orbit.build_lkm({name.split('-')[1]}, k={k}, m={m}).poset"
    p = OrbitLattice(graph, k, m).poset
    assert data["elements"] == list(p.labels)
    assert data["covers"] == [[p.labels[lo], p.labels[hi]] for lo, hi in p.covers]
    assert data["rank"] == list(p.rank)
    assert data["bottom"] == p.labels[p.minimum()]


@pytest.mark.parametrize("graph, k, m", [
    (Graph.complete(2), 2, 2),
    (Graph.complete(3), 3, 2),
    (path_graph(3), 3, 2),
    (Graph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), 2, 1),
], ids=["K2-k2-m2", "K3-k3-m2", "P3-k3-m2", "C4-k2-m1"])
def test_join_is_least_upper_bound_in_poset(graph, k, m):
    # the order-theoretic join of the built poset, on lattices whose joins
    # glue three or more blocks, close a cycle, or meet conflicting classes
    lkm = OrbitLattice(graph, k, m)
    p = lkm.poset
    p.require_join_semilattice()
    for la in p.labels:
        for lb in p.labels:
            got = join_theta(lkm.by_label[la], lkm.by_label[lb]).label()
            want = p.labels[p.join_index(p.index[la], p.index[lb])]
            assert got == want


def test_join_cover_stability():
    # theta covered by nu forces theta v psi covered-or-equal by nu v psi
    lkm = OrbitLattice(Graph.complete(3), 2, 1)
    p = lkm.poset
    rng = random.Random(23)
    cover_pairs = [(p.labels[lo], p.labels[hi]) for lo, hi in p.covers]
    for _ in range(80):
        lo, hi = rng.choice(cover_pairs)
        psi = rng.choice(p.labels)
        a = join_theta(lkm.by_label[lo], lkm.by_label[psi])
        b = join_theta(lkm.by_label[hi], lkm.by_label[psi])
        if a == b:
            continue
        ia, ib = p.index[a.label()], p.index[b.label()]
        assert p.lt(ia, ib)
        between = p.interval_mask(ia, ib)
        assert bin(between).count("1") == 2


def test_pi_preserves_join():
    lkm = OrbitLattice(path_graph(3), 2, 2)
    rng = random.Random(5)
    labs = lkm.poset.labels
    from orbitcoh.orbit import join_partitions
    for _ in range(60):
        la, lb = rng.choice(labs), rng.choice(labs)
        j = join_theta(lkm.by_label[la], lkm.by_label[lb])
        assert j.partition == join_partitions(lkm.by_label[la].partition,
                                              lkm.by_label[lb].partition)


def test_restriction_of_matrix():
    g3 = Graph.complete(3)
    theta = make_matrix(g3, 2, 2, [(1, 2, 3)], [((0, 0, 1), None)])
    r = restrict_matrix(theta, ((1, 2), (3,)))
    assert r.entries == (((0, 0), None),)
    r2 = restrict_matrix(theta, ((1,), (2, 3)))
    assert r2.entries == (((0, 1), None),)


def test_sigma_glues_undefined_rows():
    g4 = Graph.complete(4)
    theta = make_matrix(g4, 2, 1, [(1, 2), (3, 4)], [(None,), (None,)])
    can = sigma_canonical(theta, g4)
    assert can.partition == ((1, 2, 3, 4),)
    assert can.entries == ((None,),)
    # codimension is unchanged by gluing
    assert can.codim() == theta.codim()


def test_sigma_respects_disconnected_graph():
    g = Graph.make(4, [(1, 2), (3, 4)])
    theta = make_matrix(g, 2, 1, [(1, 2), (3, 4)], [(None,), (None,)])
    can = sigma_canonical(theta, g)
    # the union is disconnected: nothing can glue
    assert can == theta


def _sigma_fiber(graph, alpha):
    """The sigma-preimage of a canonical form, sorted by label."""
    lkm = OrbitLattice(graph, alpha.k, alpha.m)
    sigma = IntersectionLattice(graph, alpha.k, alpha.m).sigma
    return [lkm.by_label[lab] for lab in sorted(sigma) if sigma[lab] == alpha.label()]


def test_fiber_of_four_element_row():
    g4 = Graph.complete(4)
    alpha = make_matrix(g4, 2, 1, [(1, 2, 3, 4)], [(None,)])
    fib = _sigma_fiber(g4, alpha)
    partitions = sorted(mat.partition for mat in fib)
    assert partitions == sorted([
        ((1, 2, 3, 4),),
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ])


def test_fiber_of_fully_defined_is_singleton():
    g2 = Graph.complete(2)
    theta = make_matrix(g2, 2, 2, [(1, 2)], [((0, 1), (0, 0))])
    assert _sigma_fiber(g2, sigma_canonical(theta, g2)) == [theta]


def test_codim_formula_random():
    lkm = OrbitLattice(Graph.complete(3), 3, 2)
    rng = random.Random(11)
    for _ in range(40):
        lab = rng.choice(lkm.poset.labels)
        mat = lkm.by_label[lab]
        can = sigma_canonical(mat, lkm.graph)
        assert can.codim() == mat.r_f + 2 * mat.r_b


def test_intersection_lattice_small():
    il = IntersectionLattice(Graph.complete(2), 2, 2)
    assert il.poset.n == 10  # sigma is bijective for n = 2
    assert il.poset.labels[il.poset.minimum()] == empty_matrix(Graph.complete(2), 2, 2).label()
    il1 = IntersectionLattice(Graph.complete(2), 1, 1)
    assert il1.poset.n == 2


def test_intersection_lattice_glues_k4():
    il = IntersectionLattice(Graph.complete(4), 2, 1)
    lkm = OrbitLattice(Graph.complete(4), 2, 1)
    assert lkm.poset.n == 75
    # three pair-splits collapse onto the glued four-block element
    assert il.poset.n == 72


def test_independence_and_sign():
    g4 = Graph.complete(4)
    # disjoint blocks, undefined entries in different columns (m = 2)
    theta = make_matrix(g4, 2, 2, [(3, 4), (1,), (2,)], [((0, 0), None)])
    psi = make_matrix(g4, 2, 2, [(1, 2), (3,), (4,)], [(None, (0, 1))])
    assert phi_product(theta, psi) is not None
    # join has Ud sorted as (1-2, col1), (3-4, col0): one inversion
    assert phi_product(theta, psi)[1] == -1
    assert phi_product(psi, theta)[1] == 1
    both = make_matrix(g4, 2, 2, [(1, 2), (3,), (4,)], [((0, 0), (0, 1))])
    other = make_matrix(g4, 2, 2, [(3, 4), (1,), (2,)], [((0, 1), (0, 0))])
    assert phi_product(both, other)[1] == 1


def test_independence_failure():
    g3 = Graph.complete(3)
    a = make_matrix(g3, 2, 1, [(1, 2), (3,)], [((0, 0),)])
    b = make_matrix(g3, 2, 1, [(1, 2), (3,)], [((0, 1),)])
    # same base atom: r_b not additive, so no product and no sign
    assert phi_product(a, b) is None


def test_rf_subadditive_for_independent_bases():
    lkm = OrbitLattice(Graph.complete(3), 2, 2)
    rng = random.Random(3)
    labs = lkm.poset.labels
    for _ in range(100):
        a = lkm.by_label[rng.choice(labs)]
        b = lkm.by_label[rng.choice(labs)]
        if a.r_b + b.r_b != join_theta(a, b).r_b:
            continue
        assert join_theta(a, b).r_f <= a.r_f + b.r_f


def _fill(theta, values):
    """Theta with its undefined entries filled in sorted order."""
    for (block, t), vals in zip(theta.undefined(), values):
        theta = fill_entry(theta, block, t, vals)
    return theta


def _expand(theta, alpha):
    """A basis tensor as its signed formal sum of completions."""
    zeros = [zero_class(len(block)) for block, _ in theta.undefined()]
    out = {}
    for picks in product((0, 1), repeat=len(zeros)):
        eta = _fill(theta, [c if pick else z for pick, c, z in zip(picks, alpha, zeros)])
        out[eta] = out.get(eta, 0) + (-1) ** (len(zeros) - sum(picks))
    return out


def _coords(theta, formal):
    """Coordinates of a formal sum of completions, read at the all-nonzero ones.

    Asserts the vanishing sums: the sum is exactly the combination of
    basis tensors with those coordinates.
    """
    coords = {alpha: formal.get(_fill(theta, alpha), 0) for alpha in bcp_assignments(theta)}
    coords = {alpha: c for alpha, c in coords.items() if c}
    residual = dict(formal)
    for alpha, c in coords.items():
        for eta, v in _expand(theta, alpha).items():
            residual[eta] = residual.get(eta, 0) - c * v
    assert not any(residual.values())
    return coords


def _brute_product(a, b, alpha, beta):
    """The product by definition: signed join of every completion pair."""
    j = join_theta(a, b)
    target = j.undefined()
    seq = []
    for block, t in a.undefined() + b.undefined():
        p = next(p for p in j.partition if set(block) <= set(p))
        seq.append(target.index((p, t)))
    sign = (-1) ** sum(x > y for i, x in enumerate(seq) for y in seq[i + 1:])
    formal = {}
    for eta, cu in _expand(a, alpha).items():
        for nu, cv in _expand(b, beta).items():
            w = join_theta(eta, nu)
            assert w.r_f == 0
            formal[w] = formal.get(w, 0) + sign * cu * cv
    return j, _coords(j, {w: c for w, c in formal.items() if c})


@pytest.mark.parametrize("graph, k", [
    (Graph.complete(2), 4),
    (Graph.complete(3), 2),
    (Graph.make(4, [(1, 2), (3, 4)]), 2),
    (path_graph(3), 3),
], ids=["K2-k4", "K3-k2", "2K2-k2", "P3-k3"])
def test_phi_product_matches_completion_joins(graph, k):
    # the entry-by-entry product against the definition, on every ordered
    # grading pair: zero exactly on dependent pairs, else the same join and
    # coordinates for every pair of basis tensors
    mats = RingPresentation(graph, k, 2).matrices
    independent = 0
    for a, b in product(mats, repeat=2):
        j = join_theta(a, b)
        pair = phi_product(a, b)
        if a.r_b + b.r_b != j.r_b or a.r_f + b.r_f != j.r_f:
            assert pair is None
            continue
        independent += 1
        assert pair[0] == j
        for alpha, beta in product(bcp_assignments(a), bcp_assignments(b)):
            assert (j, phi_coords(pair, alpha, beta)) == _brute_product(a, b, alpha, beta)
    assert independent


def test_bcp_rank_formula():
    g3 = Graph.complete(3)
    theta = make_matrix(g3, 3, 1, [(1, 2), (3,)], [(None,)])
    assert bcp_rank(theta) == 2  # k = 3, block of size 2
    basis = bcp_assignments(theta)
    assert len(basis) == 2
    for alpha in basis:
        assert sum(_expand(theta, alpha).values()) == 0


def test_bcp_empty_ud():
    g3 = Graph.complete(3)
    theta = make_matrix(g3, 2, 1, [(1, 2), (3,)], [((0, 1),)])
    assert bcp_assignments(theta) == [()]
    assert _expand(theta, ()) == {theta: 1}


def _boundary(theta, coords):
    """The signed boundary as one dict keyed by (psi, assignment over psi)."""
    out = {}
    for psi, sign, piece in bcp_boundary(theta, coords):
        for key, c in piece.items():
            out[psi, key] = out.get((psi, key), 0) + sign * c
    return out


def test_bcp_boundary_squares_to_zero():
    g3 = Graph.complete(3)
    theta = make_matrix(g3, 2, 2, [(1, 2, 3)], [(None, None)])
    for alpha in bcp_assignments(theta):
        acc: dict = {}
        for (psi, key), c in _boundary(theta, {alpha: 1}).items():
            for chi_key, c2 in _boundary(psi, {key: c}).items():
                acc[chi_key] = acc.get(chi_key, 0) + c2
        assert not any(acc.values())


def test_phi_product_simple():
    g4 = Graph.complete(4)
    theta = make_matrix(g4, 2, 2, [(1, 2), (3,), (4,)], [(None, (0, 0))])
    psi = make_matrix(g4, 2, 2, [(3, 4), (1,), (2,)], [((0, 1), (0, 1))])
    pair = phi_product(theta, psi)
    assert pair[0] == join_theta(theta, psi)
    # (eta1 v psi) - (eta0 v psi): one basis tensor, with the alignment sign
    alpha = bcp_assignments(theta)[0]
    assert phi_coords(pair, alpha, ()) == {alpha: pair[1]}


def test_phi_product_dependent_zero():
    g3 = Graph.complete(3)
    a = make_matrix(g3, 2, 1, [(1, 2), (3,)], [((0, 0),)])
    b = make_matrix(g3, 2, 1, [(1, 2), (3,)], [((0, 1),)])
    assert phi_product(a, b) is None


def _phi(a, alpha, b, beta):
    """The product keyed by (join, assignment); empty on a dependent pair."""
    pair = phi_product(a, b)
    if pair is None:
        return {}
    return {(pair[0], key): c for key, c in phi_coords(pair, alpha, beta).items()}


def test_phi_product_commutes_with_boundary():
    # d(Phi(u x v)) and Phi(du x v) +- Phi(u x dv) agree on all basis pairs
    g4 = Graph.complete(4)
    theta = make_matrix(g4, 2, 2, [(1, 2), (3,), (4,)], [(None, (0, 0))])
    psi = make_matrix(g4, 2, 2, [(3, 4), (1,), (2,)], [(None, None)])
    j = join_theta(theta, psi)
    sign_u = -1 if theta.r_f % 2 else 1
    for alpha in bcp_assignments(theta):
        for beta in bcp_assignments(psi):
            w = {key: c for (_, key), c in _phi(theta, alpha, psi, beta).items()}
            lhs = _boundary(j, w)
            rhs: dict = {}
            terms = [(c, _phi(chi, key, psi, beta))
                     for (chi, key), c in _boundary(theta, {alpha: 1}).items()]
            terms += [(sign_u * c, _phi(theta, alpha, chi, key))
                      for (chi, key), c in _boundary(psi, {beta: 1}).items()]
            for c, prod in terms:
                for key, v in prod.items():
                    rhs[key] = rhs.get(key, 0) + c * v
            assert lhs == {key: v for key, v in rhs.items() if v}


@pytest.mark.parametrize("graph, k, m, digest", [
    (Graph.complete(3), 2, 2,
     "97593a56d4291dd5fba28609b0a0dbcedfb0b1fab41ab5460915d2afc0ca6415"),
    (Graph.complete(3), 3, 1,
     "bec4f07ef1085fb00ba1af1a850bfb9186881f7b563445d4f745e523f8ae1930"),
    (Graph.complete(2), 4, 2,
     "3da170231e83f060b3b67529c96d4b99f3158b98c5e04b61bf031b9d8eb92e75"),
    (path_graph(3), 3, 2,
     "829aaea47f2633cd6d936278a8cc2b64fd7a2006ea5eee1daf34da491b080001"),
], ids=["K3-k2-m2", "K3-k3-m1", "K2-k4-m2", "P3-k3-m2"])
def test_bcp_forms_are_pinned(graph, k, m, digest):
    # the explicit BCp form of every fiber, in bond-lattice label order,
    # is fixed byte for byte
    text = "".join(dumps(bcp_form(fiber_poset(graph, part, k, m)).to_json_dict())
                   for part in bond_lattice(graph).labels)
    assert hashlib.sha256(text.encode()).hexdigest() == digest

import json
import random
import subprocess
import sys
from itertools import product

import pytest

from conftest import (
    below,
    bottom,
    build_poset,
    canonical_fhom,
    chain_poset,
    class_coords,
    constant_sheaf,
    cross_formal,
    formal,
    free_generators,
    induced_homology_matrix,
    partition_lattice,
    path_graph,
    pullback,
    sparse,
    subprocess_env,
    top,
)
from orbitcoh.intlinalg import elementary_divisors, identity, shape_error, sparse_apply
from orbitcoh.morphisms import (
    FHom,
    PosetMorphism,
    identity_morphism,
    product_poset,
    product_sheaf,
)
from orbitcoh.orbit import Graph, IntersectionLattice
from orbitcoh.oracle import (
    GMOracle,
    NotCycle,
    OracleTooLarge,
    TorComplex,
    shuffles,
)
from orbitcoh.sheaves import Copresheaf, delta_sheaf
from reference_impl import all_pairs_star_defined, both_ends_boundary, induced_chain_map


def point_poset():
    return build_poset(["*"], [], {"*": 0})


def test_point_tor():
    p = point_poset()
    kc = TorComplex(p, constant_sheaf(p, 1, "co"), constant_sheaf(p, 1, "pre"))
    h = kc.homology()
    assert h.groups == ((1, ()),)


def test_interval_pair_homology():
    # Tor(delta_x Z, delta^y Z) over a closed interval [y, x] computes the
    # homology of the pair of order complexes; for a 1-step chain it is
    # concentrated in degree 1.
    p = chain_poset(1)
    g = delta_sheaf(p, ["x0"], 1, "co")
    f = delta_sheaf(p, ["x1"], 1, "pre")
    h = TorComplex(p, g, f).homology()
    assert h.betti(1) == 1 and h.betti(0) == 0
    assert h.is_free()


def test_partition3_concentrated_top():
    p3 = partition_lattice(3)
    g = delta_sheaf(p3, [bottom(3)], 1, "co")
    f = delta_sheaf(p3, [top(3)], 1, "pre")
    h = TorComplex(p3, g, f).homology()
    # rank equals |mu(bottom, top)| = 2, concentrated in degree 2
    assert h.betti(2) == 2
    assert all(h.betti(n) == 0 for n in range(len(h.groups)) if n != 2)
    assert h.is_free()


def test_tor_kernels_are_the_kept_reductions():
    # each Tor degree reads its kernel off the boundary reduction that the
    # homology computation keeps, instead of reducing the boundary again
    p3 = partition_lattice(3)
    kc = TorComplex(p3, delta_sheaf(p3, [bottom(3)], 1, "co"),
                    delta_sheaf(p3, [top(3)], 1, "pre"))
    h = kc.homology()
    for n in range(len(h.groups)):
        assert kc.tor(n).kernel is kc.chain_complex().reduction(n).kernel
        assert kc.tor(n).betti == h.betti(n)


def test_contractible_interval_invariant():
    # K_*(P, delta^y Z; j_x* Z) is the cone on the open interval: homology Z
    # in degree 0 whenever y <= x, and zero otherwise
    p4 = partition_lattice(4)
    rng = random.Random(5)
    labs = p4.labels
    for _ in range(8):
        y, x = rng.choice(labs), rng.choice(labs)
        g = delta_sheaf(p4, [y], 1, "co")
        down = set(below(p4, x))
        f = delta_sheaf(p4, sorted(down), 1, "pre")
        h = TorComplex(p4, g, f).homology()
        if p4.leq(p4.index[y], p4.index[x]):
            assert h.betti(0) == 1 and h.is_free()
            assert all(h.betti(n) == 0 for n in range(1, len(h.groups)))
        else:
            assert all(b == 0 for b in h.betti_vector()) and h.is_free()


def test_oracle_refuses_large_posets():
    p = chain_poset(9)
    with pytest.raises(OracleTooLarge):
        GMOracle(p, {lab: p.rank_of(lab) for lab in p.labels}, limit=5)


def test_torsion_class_coords_reduce_mod_the_invariant():
    # a < b with G = Z -> Z by 2 and F = delta_b: the one degree-1 chain
    # (a < b) bounds twice the one degree-0 chain (b), so Tor_0 = Z/2 and
    # a class coordinate is the chain's coefficient mod 2
    p = build_poset(["a", "b"], [("a", "b")], {"a": 0, "b": 1})
    g = Copresheaf(p, [1, 1], {(0, 1): [{0: 2}]})
    kc = TorComplex(p, g, delta_sheaf(p, ["b"], 1, "pre"))
    tor = kc.tor(0)
    assert (tor.betti, tor.torsion) == (0, (2,))
    assert tor.class_coords([{0: 1}, {0: 2}, {0: 3}, {}]) == [(1,), (0,), (1,), (0,)]


def test_induced_map_identity_and_zero():
    p3 = partition_lattice(3)
    g = delta_sheaf(p3, [bottom(3)], 1, "co")
    f = delta_sheaf(p3, [top(3)], 1, "pre")
    kc = TorComplex(p3, g, f)
    ident = identity_morphism(p3)
    k_id = FHom(ident, f, f, {i: identity(f.ranks[i]) for i in range(p3.n)})
    t_id = FHom(ident, g, g, {i: identity(g.ranks[i]) for i in range(p3.n)})
    m = induced_homology_matrix(kc, kc, k_id, t_id, 2)
    assert m == identity(2)
    k_zero = FHom(ident, f, f, {i: [{} for _ in range(f.ranks[i])] for i in range(p3.n)})
    mz = induced_homology_matrix(kc, kc, k_zero, t_id, 2)
    assert mz == [{}, {}]


def test_induced_map_of_canonical_fhoms_is_iso():
    # a surjective order-and-join-preserving fold of a diamond onto a chain
    # with canonical f-homomorphisms induces an isomorphism of Tor
    dia = build_poset(["b", "l", "r", "t"],
                      [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")],
                      {"b": 0, "l": 1, "r": 1, "t": 2})
    ch = chain_poset(1)
    fold = PosetMorphism(dia, ch, {"b": "x0", "l": "x0", "r": "x1", "t": "x1"})
    g_dst = delta_sheaf(ch, ["x0"], 1, "co")
    f_dst = delta_sheaf(ch, ["x1"], 1, "pre")
    t = canonical_fhom(fold, g_dst)
    k = canonical_fhom(fold, f_dst)
    src = TorComplex(dia, t.source, k.source)
    dst = TorComplex(ch, g_dst, f_dst)
    hs, hd = src.homology(), dst.homology()
    assert hd.betti(1) == 1
    for n in range(max(len(hd.groups), len(hs.groups))):
        assert hs.betti(n) == hd.betti(n)
        if hd.betti(n):
            m = induced_homology_matrix(src, dst, k, t, n)
            assert shape_error(m, hd.betti(n), hd.betti(n)) is None
            assert elementary_divisors(m) == [1] * hd.betti(n)


def test_induced_map_functorial_composites():
    # composites of induced maps agree with the induced map of the composite
    dia = build_poset(["b", "l", "r", "t"],
                      [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")],
                      {"b": 0, "l": 1, "r": 1, "t": 2})
    ch = chain_poset(1)
    pt = point_poset()
    fold = PosetMorphism(dia, ch, {"b": "x0", "l": "x0", "r": "x1", "t": "x1"})
    crush = PosetMorphism(ch, pt, {"x0": "*", "x1": "*"})
    both = PosetMorphism(dia, pt, {lab: "*" for lab in dia.labels})
    f_pt = constant_sheaf(pt, 1, "pre")
    g_pt = constant_sheaf(pt, 1, "co")
    f_ch, g_ch = pullback(crush, f_pt), pullback(crush, g_pt)
    k2, t2 = canonical_fhom(crush, f_pt), canonical_fhom(crush, g_pt)
    k1, t1 = canonical_fhom(fold, f_ch), canonical_fhom(fold, g_ch)
    k12, t12 = canonical_fhom(both, f_pt), canonical_fhom(both, g_pt)
    src = TorComplex(dia, t1.source, k1.source)
    mid = TorComplex(ch, g_ch, f_ch)
    dst = TorComplex(pt, g_pt, f_pt)
    step1 = induced_chain_map(k1, t1)
    step2 = induced_chain_map(k2, t2)
    direct = induced_chain_map(k12, t12)
    for n in range(len(src.ranks)):
        for j in range(src.rank(n)):
            unit = {src.keys[n][j]: 1}
            via = step2(step1(unit))
            assert via == direct(unit)
            # each image is a basis key of the complex it lands in
            mid.vector(step1(unit), n)
            dst.vector(via, n)


def test_shuffles_1_1():
    s = shuffles(1, 1)
    assert len(s) == 2
    signs = sorted(sign for _, sign in s)
    assert signs == [-1, 1]


def test_shuffle_count_and_degree00():
    assert len(shuffles(2, 1)) == 3
    assert len(shuffles(2, 2)) == 6
    s = shuffles(0, 0)
    assert s == (((((0, 0),)), 1),) or s == ((((0, 0),), 1),)


def test_cross_leibniz():
    # boundary of a cross product expands by the signed Leibniz rule
    rng = random.Random(13)
    p3 = partition_lattice(3)
    g = delta_sheaf(p3, [bottom(3)], 1, "co")
    f = constant_sheaf(p3, 1, "pre")
    kc = TorComplex(p3, g, f)
    prod_poset = product_poset(p3, p3)
    gp = product_sheaf(g, g, prod_poset)
    fp = product_sheaf(f, f, prod_poset)
    kprod = TorComplex(prod_poset, gp, fp)
    for deg1, deg2 in [(1, 1), (1, 2), (2, 1)]:
        if kc.rank(deg1) == 0 or kc.rank(deg2) == 0:
            continue
        v1 = sparse([rng.randrange(-2, 3) for _ in range(kc.rank(deg1))])
        v2 = sparse([rng.randrange(-2, 3) for _ in range(kc.rank(deg2))])
        x = formal(kc, v1, deg1)
        y = formal(kc, v2, deg2)
        n = deg1 + deg2
        lhs = sparse_apply(kprod.boundary(n), kprod.vector(cross_formal(x, y, g, f), n))
        dx, dy = (formal(kc, sparse_apply(kc.boundary(d), v), d - 1)
                  for d, v in [(deg1, v1), (deg2, v2)])
        first = cross_formal(dx, y, g, f)
        second = cross_formal(x, dy, g, f)
        sign = -1 if deg1 % 2 else 1
        rhs: dict = dict(first)
        for key, c in second.items():
            rhs[key] = rhs.get(key, 0) + sign * c
        assert lhs == kprod.vector(rhs, n - 1)


def test_gm_point_in_c2():
    # single subspace of complex codimension 2 inside C^2: complement is
    # homotopy equivalent to S^3
    lat = build_poset(["M", "pt"], [("M", "pt")], {"M": 0, "pt": 1})
    coh = GMOracle(lat, {"M": 0, "pt": 2}).cohomology()
    assert coh == {0: (1, ()), 3: (1, ())}


def test_gm_empty_arrangement():
    lat = point_poset()
    coh = GMOracle(lat, {"*": 0}).cohomology()
    assert coh == {0: (1, ())}


def test_gm_braid_arrangement_pi3():
    # braid arrangement in C^3: Poincare polynomial 1 + 3t + 2t^2
    p3 = partition_lattice(3)
    codim = {lab: p3.rank_of(lab) for lab in p3.labels}
    coh = GMOracle(p3, codim).cohomology()
    assert coh == {0: (1, ()), 1: (3, ()), 2: (2, ())}


def test_gm_real_mode_braid():
    p3 = partition_lattice(3)
    codim = {lab: p3.rank_of(lab) for lab in p3.labels}
    dims = GMOracle(p3, codim, mode="real").cohomology()
    # the real braid complement in R^3 is 3! contractible chambers
    assert dims == {0: 6}


def braid_oracle(n):
    lat = partition_lattice(n)
    codim = {lab: lat.rank_of(lab) for lab in lat.labels}
    return GMOracle(lat, codim)


def test_oracle_cup_zero_cases():
    orc = braid_oracle(3)
    a = ((1, 2), (3,))
    ka = orc.complex_at(a)
    za = free_generators(ka.tor(1))[0]
    assert za and 0 not in za.values()
    xy, n, v = orc.cup(a, 1, {}, a, 1, za)
    assert v == {}
    # codimension condition fails for a with itself
    xy, n, v = orc.cup(a, 1, za, a, 1, za)
    assert xy == a and v == {}


def test_oracle_cup_not_cycle():
    # at the top of Pi_3, degree 2 holds the three chains bottom < atom <
    # top; a single one has boundary -(bottom < top), so it is not closed
    orc = braid_oracle(3)
    a, t = ((1, 2), (3,)), top(3)
    assert orc.complex_at(t).rank(2) == 3
    bad = {0: 1}
    with pytest.raises(NotCycle):
        orc.cup(t, 2, bad, a, 1, {})
    with pytest.raises(NotCycle):
        orc.cup(a, 1, {}, t, 2, bad)
    with pytest.raises(NotCycle):
        class_coords(orc, t, 2, bad)


CUP_NOT_CYCLE = """
import json, sys
from orbitcoh.oracle import GMOracle, NotCycle
from orbitcoh.posets import GradedPoset

# Pi_3: the bottom, three atoms and the top
atoms = ["a", "b", "c"]
lat = GradedPoset(["0"] + atoms + ["1"],
                  [("0", x) for x in atoms] + [(x, "1") for x in atoms],
                  {"0": 0, "a": 1, "b": 1, "c": 1, "1": 2})
orc = GMOracle(lat, {lab: lat.rank_of(lab) for lab in lat.labels})
try:
    orc.cup("1", 2, {0: 1}, "a", 1, {})
    raised = False
except NotCycle:
    raised = True
print(json.dumps({"optimize": sys.flags.optimize, "raised": raised}))
"""


def test_cup_not_cycle_fires_under_optimize():
    # the cycle checks must not be asserts, which python -O strips
    proc = subprocess.run([sys.executable, "-O", "-c", CUP_NOT_CYCLE],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"optimize": 1, "raised": True}


def test_oracle_cup_braid_products():
    # in the braid arrangement of C^3 the product of the two atom classes
    # below distinct atoms lands in the rank-2 part with a nonzero class
    orc = braid_oracle(3)
    a = ((1, 2), (3,))
    b = ((1, 3), (2,))
    za = free_generators(orc.complex_at(a).tor(1))[0]
    zb = free_generators(orc.complex_at(b).tor(1))[0]
    xy, n, v = orc.cup(a, 1, za, b, 1, zb)
    assert xy == top(3) and n == 2
    coords = class_coords(orc, xy, n, v)
    assert any(coords)


def test_oracle_cup_graded_commutative():
    orc = braid_oracle(3)
    a = ((1, 2), (3,))
    b = ((1, 3), (2,))
    za = free_generators(orc.complex_at(a).tor(1))[0]
    zb = free_generators(orc.complex_at(b).tor(1))[0]
    _, _, ab = orc.cup(a, 1, za, b, 1, zb)
    _, _, ba = orc.cup(b, 1, zb, a, 1, za)
    ca = class_coords(orc, top(3), 2, ab)
    cb = class_coords(orc, top(3), 2, ba)
    # degrees are odd (2*codim - n = 2*1... the cohomological degree is
    # 2*1 - ... ) -- for braid atoms the cohomology degree is 1, so classes
    # anticommute
    assert [x + y for x, y in zip(ca, cb)] == [0] * len(ca)


@pytest.mark.parametrize("graph, k", [(path_graph(3), 2), (Graph.complete(2), 4),
                                      (Graph.complete(3), 2)],
                         ids=["P3-k2", "K2-k4", "K3-k2"])
def test_star_check_agrees_with_the_all_pairs_scan(graph, k):
    # joining (a, y) and (x, b) over the lower covers a of x and b of y
    # gives the verdict of joining every pair below (x, y), on every
    # ordered pair of the intersection lattice; both verdicts occur
    inter = IntersectionLattice(graph, k, 2)
    lat = inter.poset
    oracle = GMOracle(lat, inter.codim, limit=None)
    verdicts = set()
    for x, y in product(range(lat.n), repeat=2):
        labels = (lat.labels[x], lat.labels[y], lat.labels[lat.join_index(x, y)])
        try:
            oracle._check_star_minimal(*labels)
            defined = True
        except ValueError as exc:
            assert str(exc).startswith("star homomorphism undefined")
            defined = False
        assert defined == all_pairs_star_defined(lat, x, y), labels
        verdicts.add(defined)
    assert verdicts == {True, False}


STAR_UNDEFINED = """
import json, sys
from orbitcoh.oracle import GMOracle
from orbitcoh.posets import GradedPoset

# 0 < a < x and 0 < y, with a v y = x v y = T; codimensions 0, 1, 2, 1, 3
codim = {"0": 0, "a": 1, "x": 2, "y": 1, "T": 3}
lat = GradedPoset(codim, [("0", "a"), ("a", "x"), ("0", "y"), ("x", "T"), ("y", "T")],
                  codim)
try:
    GMOracle(lat, codim).cup_block("x", 0, [], "y", 0, [])
    message = None
except ValueError as exc:
    message = str(exc)
print(json.dumps({"optimize": sys.flags.optimize, "message": message}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_undefined_star_is_refused(flags):
    # the codimensions of x and y add up to that of x v y, but (a, y) lies
    # below (x, y) in the same join fiber: cup_block must refuse the pair,
    # by an explicit raise that python -O keeps
    proc = subprocess.run([sys.executable, *flags, "-c", STAR_UNDEFINED],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "optimize": len(flags),
        "message": "star homomorphism undefined: join fiber has a smaller "
                   "element below (x, y)"}


def test_boundary_skips_only_zero_end_maps():
    # the boundary skips an end map whose new end has sheaf rank 0; applying
    # both end maps always gives the same columns in every degree.  On the
    # Goresky-MacPherson complexes of P3 (k = 2) both end maps of every
    # chain are skipped; on constant sheaves over Pi_4 none is
    inter = IntersectionLattice(path_graph(3), 2, 2)
    oracle = GMOracle(inter.poset, inter.codim)
    gm = [oracle.complex_at(x) for x in inter.poset.labels]
    p4 = partition_lattice(4)
    constant = TorComplex(p4, constant_sheaf(p4, 2, "co"), constant_sheaf(p4, 1, "pre"))
    for kc, skipped in [*((kc, True) for kc in gm), (constant, False)]:
        for n in range(1, len(kc.ranks)):
            assert kc.boundary(n) == both_ends_boundary(kc, n)
            for c, _, _ in kc.keys[n]:
                assert (kc.g.ranks[c[1]] == 0) == (kc.f.ranks[c[-2]] == 0) == skipped
    assert len(constant.ranks) == 4 and all(constant.ranks)

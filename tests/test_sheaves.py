import pytest

from conftest import (
    bottom,
    build_poset,
    canonical_fhom,
    chain_poset,
    constant_sheaf,
    partition_lattice,
    pullback,
    top,
)
from orbitcoh.intlinalg import identity
from orbitcoh.morphisms import (
    FHom,
    Incompatible,
    NotExtremal,
    PosetMorphism,
    identity_morphism,
    join_morphism,
    product_poset,
    product_sheaf,
    star_fhom,
    validate_fhom,
)
from orbitcoh.sheaves import (
    Copresheaf,
    NotConvex,
    Presheaf,
    delta_sheaf,
)


def diamond():
    return build_poset(["bot", "l", "r", "top"],
                       [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
                       {"bot": 0, "l": 1, "r": 1, "top": 2})


def test_delta_point():
    p = chain_poset(2)
    s = delta_sheaf(p, ["x1"], 1, "co")
    assert s.rank_of("x1") == 1
    assert s.rank_of("x0") == 0 and s.rank_of("x2") == 0
    # both covers cross out of the support, so they carry the implicit zero
    assert s.maps == {}


def test_delta_whole_poset_is_constant():
    p = diamond()
    s = delta_sheaf(p, p.labels, 1, "co")
    for lo, hi in p.covers:
        assert s.maps[(lo, hi)] == identity(1)


def test_delta_not_convex():
    p = chain_poset(2)
    with pytest.raises(NotConvex):
        delta_sheaf(p, ["x0", "x2"], 1, "pre")


def test_functoriality_checked():
    p = diamond()
    bad_maps = {}
    for lo, hi in p.covers:
        bad_maps[(lo, hi)] = [{0: 1}]
    bad_maps[(p.index["l"], p.index["top"])] = [{0: 2}]
    with pytest.raises(ValueError):
        Copresheaf(p, [1, 1, 1, 1], bad_maps).check_functorial()
    # an omitted cover is zero: bot -> l -> top is 1, bot -> r -> top is 0
    ones = {cover: identity(1) for cover in p.covers}
    del ones[(p.index["r"], p.index["top"])]
    with pytest.raises(ValueError):
        Copresheaf(p, [1, 1, 1, 1], ones).check_functorial()
    # a path through a rank-0 middle element is zero as well, and the
    # composites out of bot (rank 1) still have to agree
    bot, r, top = p.index["bot"], p.index["r"], p.index["top"]
    through_r = {(bot, r): identity(1), (r, top): identity(1)}
    with pytest.raises(ValueError):
        Copresheaf(p, [1, 0, 1, 1], through_r).check_functorial()
    del through_r[(r, top)]
    g = Copresheaf(p, [1, 0, 1, 1], through_r)
    g.check_functorial()
    assert g.map("bot", "top") == [{}]


def test_composed_maps_along_chain():
    p = chain_poset(2)
    maps = {
        (p.index["x0"], p.index["x1"]): [{0: 2}],
        (p.index["x1"], p.index["x2"]): [{0: 3}],
    }
    g = Copresheaf(p, [1, 1, 1], maps)
    assert g.map("x0", "x2") == [{0: 6}]
    f = Presheaf(p, [1, 1, 1], maps)
    assert f.map("x0", "x2") == [{0: 6}]
    # across the omitted cover x1 -> x2 the composite is the zero map
    x0, x1, x2 = (p.index[f"x{i}"] for i in range(3))
    first = {(x0, x1): [{0: 1, 1: -1}]}
    g = Copresheaf(p, [1, 2, 3], first)
    assert g.map_index(x1, x2) == [{}, {}]
    assert g.map_index(x0, x2) == [{}]
    f = Presheaf(p, [2, 1, 3], first)
    assert f.map_index(x0, x2) == [{}, {}, {}]


def test_maps_only_on_covers():
    p = chain_poset(2)
    x0, x1, x2 = (p.index[f"x{i}"] for i in range(3))
    one = identity(1)
    # x0 -> x2 is not a cover: its map would be dropped or contradict 1 . 1
    with pytest.raises(ValueError):
        Copresheaf(p, [1, 1, 1],
                   {(x0, x1): one, (x1, x2): one, (x0, x2): [{0: 5}]})
    # a missing cover is the zero map, not an error
    g = Copresheaf(p, [1, 1, 1], {(x0, x1): one})
    assert g.cover_map(x1, x2) == [{}]
    assert g.map("x0", "x2") == [{}]


def test_pullback_identity_and_point():
    p = diamond()
    s = constant_sheaf(p, 2, "pre")
    ident = identity_morphism(p)
    back = pullback(ident, s)
    assert back.ranks == s.ranks
    point = build_poset(["*"], [], {"*": 0})
    to_point = PosetMorphism(p, point, {lab: "*" for lab in p.labels})
    r = pullback(to_point, constant_sheaf(point, 3, "co"))
    assert all(x == 3 for x in r.ranks)


def test_star_fhom_at_join_minimum():
    p3 = partition_lattice(3)
    vee = join_morphism(p3)
    a = ((1, 2), (3,))
    b = ((1, 3), (2,))
    # (a, b) is minimal in the fiber of the join over top
    s = star_fhom(vee, top(3), (a, b), "pre")
    validate_fhom(s)
    # (top, top) lies above (bot, top) in the same fiber: not minimal
    with pytest.raises(NotExtremal):
        star_fhom(vee, top(3), (top(3), top(3)), "pre")


def test_star_fhom_identity_case():
    p = chain_poset(1)
    ident = identity_morphism(p)
    s = star_fhom(ident, "x0", "x0", "pre")
    assert s.component("x0") == [{0: 1}]


def test_star_fhom_copresheaf_maximal():
    p3 = partition_lattice(3)
    vee = join_morphism(p3)
    t = top(3)
    bot = bottom(3)
    # fiber over bottom is the single pair (bot, bot): maximal there
    s = star_fhom(vee, bot, (bot, bot), "co")
    validate_fhom(s)
    # (bot, a) is not maximal in the fiber over a
    a = ((1, 2), (3,))
    with pytest.raises(NotExtremal):
        star_fhom(vee, a, (bot, a), "co")
    assert star_fhom(vee, t, (t, t), "co") is not None


def test_canonical_fhom_validates():
    p3 = partition_lattice(3)
    vee = join_morphism(p3)
    g = delta_sheaf(p3, [bottom(3)], 1, "co")
    can = canonical_fhom(vee, g)
    validate_fhom(can)


def test_zero_fhom_ok_and_mismatch_detected():
    p = diamond()
    s = constant_sheaf(p, 1, "co")
    ident = identity_morphism(p)
    zero = FHom(ident, s, s, {i: [{}] for i in range(p.n)})
    validate_fhom(zero)
    comps = {i: [{0: 1}] for i in range(p.n)}
    comps[p.index["l"]] = [{0: 5}]
    with pytest.raises(Incompatible):
        FHom(ident, s, s, comps)


def test_product_sheaf_ranks():
    p = chain_poset(1)
    prod = product_poset(p, p)
    s = constant_sheaf(p, 2, "co")
    sp = product_sheaf(s, s, prod)
    assert all(r == 4 for r in sp.ranks)


def test_pullback_preserves_functoriality():
    p3 = partition_lattice(3)
    point = build_poset(["*"], [], {"*": 0})
    chain = chain_poset(2)
    rank_map = PosetMorphism(p3, chain,
                             {lab: f"x{p3.rank_of(lab)}" for lab in p3.labels})
    maps = {
        (chain.index["x0"], chain.index["x1"]): [{0: 2}],
        (chain.index["x1"], chain.index["x2"]): [{0: -3}],
    }
    g = Copresheaf(chain, [1, 1, 1], maps)
    pulled = pullback(rank_map, g)
    pulled.check_functorial()


def test_cover_map_shape_is_checked():
    # a cover map G(x0) -> G(x1) of ranks 1 -> 2 is one column with rows 0..1
    p = chain_poset(1)
    cover = (p.index["x0"], p.index["x1"])
    assert Copresheaf(p, [1, 2], {cover: [{1: 3}]}).map("x0", "x1") == [{1: 3}]
    with pytest.raises(ValueError, match="x0 -> x1 has 2 columns, not 1"):
        Copresheaf(p, [1, 2], {cover: [{0: 1}, {1: 1}]})
    with pytest.raises(ValueError, match="x0 -> x1 has a row outside 0..1"):
        Copresheaf(p, [1, 2], {cover: [{2: 1}]})
    # a presheaf map goes down the cover: F(x1) -> F(x0), rows in 0..0
    with pytest.raises(ValueError, match="x0 -> x1 has a row outside 0..0"):
        Presheaf(p, [1, 2], {cover: [{0: 1}, {1: 1}]})


def test_fhom_component_shape_is_checked():
    # the component at each element maps S(x) to S(f(x)), here Z -> Z
    p = diamond()
    s = constant_sheaf(p, 1, "co")
    ident = identity_morphism(p)
    comps = {i: [{0: 1}] for i in range(p.n)}
    FHom(ident, s, s, comps)
    left = p.index["l"]
    with pytest.raises(ValueError, match="component at l has 2 columns, not 1"):
        FHom(ident, s, s, {**comps, left: [{0: 1}, {0: 1}]})
    with pytest.raises(ValueError, match="component at l has a row outside 0..0"):
        FHom(ident, s, s, {**comps, left: [{1: 1}]})

import math
import random
import tempfile
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from conftest import bottom, build_poset, chain_poset, constant_sheaf, partition_lattice, top
from orbitcoh.cellular import construct_cellular_form
from orbitcoh.morphisms import (
    PosetMorphism,
    identity_morphism,
    join_morphism,
    product_poset,
)
from orbitcoh.oracle import TorComplex
from orbitcoh.posets import (
    Cyclic,
    GradedPoset,
    NotSemilattice,
    join,
)
from reference_impl import all_pairs_semilattice, moebius, shifting_mask_elements

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "orbitcoh-hypothesis")


@settings(derandomize=True, database=None, max_examples=200)
@given(st.sets(st.integers(0, 320), max_size=40).map(lambda bits: sum(1 << b for b in bits)))
@example(0)
@example(1 << 200)
@example((1 << 257) - 1)
def test_mask_elements_matches_shifting_walk(mask):
    # set bits one at a time, ascending, as the shift-per-position walk finds them
    assert chain_poset(1).mask_elements(mask) == shifting_mask_elements(mask)


def test_build_chain():
    p = chain_poset(2)
    assert p.rank == (0, 1, 2)
    assert p.leq(p.index["x0"], p.index["x2"])


def test_build_single_element():
    p = build_poset(["a"], [], {"a": 0})
    assert p.n == 1 and p.rank == (0,)


def test_build_cyclic_rejected():
    with pytest.raises(Cyclic):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")], {"a": 0, "b": 1})


def test_cover_lists_ascend_whatever_the_cover_order():
    # lower and upper are read in index order by the cellular stacking
    p4 = partition_lattice(4)
    labels = {p4.labels[i]: p4.rank[i] for i in range(p4.n)}
    pairs = [(p4.labels[lo], p4.labels[hi]) for lo, hi in p4.covers]
    rng = random.Random(5)
    for _ in range(5):
        rng.shuffle(pairs)
        p = build_poset(list(labels), pairs, labels)
        for x in range(p.n):
            assert p.lower[x] == sorted(p.lower[x]) and p.upper[x] == sorted(p.upper[x])
        assert (p.lower, p.upper) == (p4.lower, p4.upper)


def test_build_not_graded_rejected():
    # the order is built, marked not graded, and refused by the cellular
    # construction, which needs a graded poset
    poset = build_poset(["a", "b"], [("a", "b")], {"a": 0, "b": 2})
    assert not poset.graded
    with pytest.raises(ValueError, match="graded"):
        construct_cellular_form(poset, constant_sheaf(poset, 1, "co"))


def test_moebius_identity_and_partition_lattices():
    p3 = partition_lattice(3)
    x = bottom(3)
    assert moebius(p3, x, x) == 1
    assert moebius(p3, x, top(3)) == 2
    p4 = partition_lattice(4)
    assert moebius(p4, bottom(4), top(4)) == -6


def test_moebius_factorial_formula():
    for n in range(2, 6):
        pn = partition_lattice(n)
        assert moebius(pn, bottom(n), top(n)) == (-1) ** (n - 1) * math.factorial(n - 1)


def test_moebius_not_comparable():
    p3 = partition_lattice(3)
    with pytest.raises(ValueError, match="is not below"):
        moebius(p3, ((1, 2), (3,)), ((1, 3), (2,)))


def test_moebius_recursion_sums_to_zero():
    p4 = partition_lattice(4)
    for x in p4.labels:
        for y in p4.labels:
            if p4.leq(p4.index[x], p4.index[y]) and x != y:
                total = sum(
                    moebius(p4, x, p4.labels[z])
                    for z in p4.mask_elements(p4.interval_mask(p4.index[x], p4.index[y])))
                assert total == 0


def test_join_partition_lattice():
    p3 = partition_lattice(3)
    a = ((1, 2), (3,))
    b = ((1, 3), (2,))
    assert join(p3, a, a) == a
    assert join(p3, a, b) == top(3)
    assert join(p3, bottom(3), a) == a


def test_join_axioms_random():
    p4 = partition_lattice(4)
    rng = random.Random(3)
    labs = p4.labels
    for _ in range(150):
        x, y, z = (rng.choice(labs) for _ in range(3))
        assert join(p4, x, y) == join(p4, y, x)
        assert join(p4, x, join(p4, y, z)) == join(p4, join(p4, x, y), z)
        assert p4.leq(p4.index[x], p4.index[join(p4, x, y)])


def test_not_semilattice():
    # two incomparable maximal elements over two minimal ones
    p = build_poset(["a", "b", "c", "d"],
                    [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
                    {"a": 0, "b": 0, "c": 1, "d": 1})
    with pytest.raises(NotSemilattice):
        join(p, "a", "b")


@settings(derandomize=True, database=None, max_examples=300)
@given(data=st.data())
def test_semilattice_check_matches_all_pairs(data):
    # random posets on up to 9 elements, some with a bottom or a top
    # adjoined (with both, only the upper covers of common elements can
    # fail): the local check must reject exactly those with a pair that
    # has no join
    n = data.draw(st.integers(2, 7))
    relation = data.draw(st.sets(st.sampled_from(list(combinations(range(n), 2)))))
    for low in (True, False):
        if data.draw(st.booleans()):
            relation |= {(n, i) if low else (i, n) for i in range(n)}
            n += 1
    rank = {i: 0 for i in range(n)}
    order = GradedPoset(range(n), relation, rank)
    covers = [(i, j) for i, j in permutations(range(n), 2) if order.lt(i, j)
              and not any(order.lt(i, z) and order.lt(z, j) for z in range(n))]
    poset = GradedPoset(range(n), covers, rank)
    try:
        poset.require_join_semilattice()
        passed = True
    except NotSemilattice:
        passed = False
    assert passed == all_pairs_semilattice(poset.up)


def test_product_with_point():
    p3 = partition_lattice(3)
    point = build_poset(["*"], [], {"*": 0})
    prod = product_poset(p3, point)
    assert prod.n == p3.n
    assert [r for r in prod.rank] == list(p3.rank)


def test_product_chain_square():
    c = chain_poset(1)
    sq = product_poset(c, c)
    assert sq.n == 4
    assert sorted(sq.rank) == [0, 1, 1, 2]
    # diamond: exactly one coordinate is a cover, the other equal
    assert len(sq.covers) == 4


def test_product_partition_lattices():
    p3 = partition_lattice(3)
    prod = product_poset(p3, p3)
    assert prod.n == 25


def test_product_cover_characterization():
    p3 = partition_lattice(3)
    prod = product_poset(p3, p3)
    for lo, hi in prod.covers:
        (a, b), (c, d) = prod.labels[lo], prod.labels[hi]
        first_covers = (a, c) in [(p3.labels[x], p3.labels[y]) for x, y in p3.covers]
        second_covers = (b, d) in [(p3.labels[x], p3.labels[y]) for x, y in p3.covers]
        assert (first_covers and b == d) or (second_covers and a == c)


def test_enumerate_chains():
    # with rank-1 constant sheaves the Tor complex has one basis chain per
    # chain of the poset
    def chains(poset, length):
        cx = TorComplex(poset, constant_sheaf(poset, 1, "co"),
                        constant_sheaf(poset, 1, "pre"))
        level = cx.chains[length] if length < len(cx.chains) else []
        return [tuple(poset.labels[i] for i in chain) for chain in level]

    c = chain_poset(2)
    got = chains(c, 1)
    assert got == [("x0", "x1"), ("x0", "x2"), ("x1", "x2")]
    antichain = build_poset(["a", "b", "c"], [], {"a": 0, "b": 0, "c": 0})
    assert chains(antichain, 1) == []
    p3 = partition_lattice(3)
    assert len(chains(p3, 2)) == 3  # bottom < atom < top


def test_morphism_validation():
    c = chain_poset(1)
    with pytest.raises(ValueError):
        PosetMorphism(c, c, {"x0": "x1", "x1": "x0"})
    ident = identity_morphism(c)
    assert ident("x1") == "x1"


def test_join_morphism_partition():
    p3 = partition_lattice(3)
    vee = join_morphism(p3)
    a = ((1, 2), (3,))
    b = ((1, 3), (2,))
    assert vee((a, b)) == top(3)

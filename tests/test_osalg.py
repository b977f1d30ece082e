import math
import random
from itertools import combinations

import pytest

from conftest import bottom, build_poset, chain_poset, partition_lattice, path_graph, top
from orbitcoh.morphisms import os_vs_cellular
from orbitcoh.orbit import Graph, bond_lattice
from orbitcoh.osalg import NotGeometric, OSAlgebra
from reference_impl import CircuitListOS, moebius


def boolean_lattice_2():
    return build_poset(
        ["00", "01", "10", "11"],
        [("00", "01"), ("00", "10"), ("01", "11"), ("10", "11")],
        {"00": 0, "01": 1, "10": 1, "11": 2})


def atom_of(lat, alg, label):
    """Position of a labelled atom in the algebra's atom order."""
    return [lat.labels[a] for a in alg.atoms].index(label)


def edge_order(n):
    """Atoms of Pi_n sorted by their nontrivial block."""
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            blocks = [(i, j)] + [(v,) for v in range(1, n + 1) if v not in (i, j)]
            out.append(tuple(sorted(blocks)))
    return out


def test_boolean_ranks():
    alg = OSAlgebra(boolean_lattice_2())
    ranks = sorted(alg.piece_rank(x) for x in alg.lattice.labels)
    assert ranks == [1, 1, 1, 1]
    assert sum(map(len, alg.nbc.values())) == 4  # (1, 2, 1) by degree


def test_pi3_nbc_basis():
    p3 = partition_lattice(3)
    alg = OSAlgebra(p3, edge_order(3))
    # atom order pinned to e12 < e13 < e23
    degree2 = alg.nbc[top(3)]
    assert len(degree2) == 2
    names = [tuple(p3.labels[alg.atoms[p]] for p in m) for m in degree2]
    # the broken circuit {e13, e23} is excluded: both monomials contain e12
    e12 = ((1, 2), (3,))
    assert all(n[0] == e12 for n in names)


def test_pi4_rank_vector():
    p4 = partition_lattice(4)
    alg = OSAlgebra(p4)
    by_rank = [0] * 4
    for x in p4.labels:
        by_rank[p4.rank_of(x)] += alg.piece_rank(x)
    assert by_rank == [1, 6, 11, 6]
    assert sum(map(len, alg.nbc.values())) == math.factorial(4)


def test_total_dimension_factorial():
    for n in (3, 4, 5, 6):
        alg = OSAlgebra(partition_lattice(n))
        assert sum(map(len, alg.nbc.values())) == math.factorial(n)


def test_piece_rank_is_moebius():
    p4 = partition_lattice(4)
    alg = OSAlgebra(p4)
    for x in p4.labels:
        assert alg.piece_rank(x) == abs(moebius(p4, bottom(4), x))


def test_not_geometric():
    two_minima = build_poset(["p", "q", "t"], [("p", "t"), ("q", "t")],
                             {"p": 0, "q": 0, "t": 1})
    # a v c is the rank-3 top although a and c have rank 1
    not_semimodular = build_poset(
        ["0", "a", "b", "c", "d", "ab", "cd", "top"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("0", "d"), ("a", "ab"),
         ("b", "ab"), ("c", "cd"), ("d", "cd"), ("ab", "top"), ("cd", "top")],
        {"0": 0, "a": 1, "b": 1, "c": 1, "d": 1, "ab": 2, "cd": 2, "top": 3})
    for lat, message in [(chain_poset(2), "not a join of atoms"),
                         (two_minima, "no unique rank-0 element"),
                         (not_semimodular, "semimodularity fails")]:
        with pytest.raises(NotGeometric, match=message):
            OSAlgebra(lat)


REFERENCE_LATTICES = {
    "Pi3": lambda: partition_lattice(3),
    "Pi4": lambda: partition_lattice(4),
    "Pi5": lambda: partition_lattice(5),
    "P4": lambda: bond_lattice(path_graph(4)),
    "C4": lambda: bond_lattice(Graph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)])),
    "K4-e": lambda: bond_lattice(
        Graph.make(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])),
    "K5": lambda: bond_lattice(Graph.complete(5)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_LATTICES))
def test_nbc_and_straighten_match_circuit_reference(name):
    """The least-atom nbc test and straightening agree with the circuit list.

    Under the default atom order and two shuffled ones: the same nbc
    monomials per lattice element, and the same expansion of every
    independent increasing monomial.
    """
    lat = REFERENCE_LATTICES[name]()
    atoms = [lab for lab in lat.labels if lat.rank_of(lab) == 1]
    orders = [None]
    for seed in (1, 2):
        shuffled = list(atoms)
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    for order in orders:
        alg = OSAlgebra(lat, order)
        ref = CircuitListOS(lat, alg.atoms)
        assert alg.nbc == ref.nbc
        for size in range(max(lat.rank) + 1):
            for mono in combinations(range(len(atoms)), size):
                if ref.independent(mono):
                    assert alg.straighten(mono) == ref.straighten(mono), mono


def test_multiply_unit_and_square():
    p3 = partition_lattice(3)
    alg = OSAlgebra(p3, edge_order(3))
    e12 = atom_of(p3, alg, ((1, 2), (3,)))
    assert alg.multiply_monomials((), (e12,)) == {(e12,): 1}
    assert alg.multiply_monomials((e12,), (e12,)) == {}


def test_multiply_circuit_relation():
    # e13 * e23 = e12 e23 - e12 e13 via the triangle circuit
    p3 = partition_lattice(3)
    alg = OSAlgebra(p3, edge_order(3))
    e12 = atom_of(p3, alg, ((1, 2), (3,)))
    e13 = atom_of(p3, alg, ((1, 3), (2,)))
    e23 = atom_of(p3, alg, ((1,), (2, 3)))
    got = alg.multiply_monomials((e13,), (e23,))
    assert got == {(e12, e23): 1, (e12, e13): -1}


def test_graded_anticommutativity():
    p4 = partition_lattice(4)
    alg = OSAlgebra(p4)
    monos = [m for x in p4.labels for m in alg.nbc[x]]
    for a in monos:
        for b in monos:
            ab = alg.multiply_monomials(a, b)
            ba = alg.multiply_monomials(b, a)
            sign = -1 if (len(a) * len(b)) % 2 else 1
            assert ab == {k: sign * v for k, v in ba.items()}


def test_os_vs_cellular_boolean():
    report = os_vs_cellular(boolean_lattice_2())
    assert report.rank_match


def test_os_vs_cellular_pi3():
    report = os_vs_cellular(partition_lattice(3), atom_order=edge_order(3))
    assert report.rank_match
    assert report.product_pairs == 6 * 6


def test_os_vs_cellular_pi4_ranks_only():
    report = os_vs_cellular(partition_lattice(4), check_products=False)
    assert report.rank_match

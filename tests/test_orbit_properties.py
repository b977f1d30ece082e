"""Lattice laws of the orbit-lattice join and the per-join-block BCp
product against the one read off the whole join, checked by hypothesis,
the bond lattice's edge merges against a filter of all set partitions,
and the row-table fiber enumeration against the cell-by-cell one.

Matrices are drawn from the elements of L(K3, 2, 2), L(K3, 2, 3) and
L(P3, 3, 2).
Runs are derandomized and keep no example database, so the suite stays
deterministic.  Hypothesis still caches the constants of the source
files on disk, during collection; that cache goes to the system
temporary directory instead of ``.hypothesis/`` in the working tree.
"""

import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from conftest import OrbitLattice, path_graph, set_partitions
from orbitcoh.orbit import (
    Graph,
    PartialMatrix,
    block_classes,
    bond_lattice,
    fiber_matrices,
    join_theta,
    phi_product,
)
from reference_impl import bcp_rank, cellwise_fiber_matrices, joining_phi_product

LATTICES = {
    "K3-k2-m2": OrbitLattice(Graph.complete(3), 2, 2),
    "K3-k2-m3": OrbitLattice(Graph.complete(3), 2, 3),
    "P3-k3-m2": OrbitLattice(path_graph(3), 3, 2),
}

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "orbitcoh-hypothesis")

laws = settings(derandomize=True, database=None, max_examples=150)
lattice = pytest.mark.parametrize("name", sorted(LATTICES))


def matrices(data, name, count):
    mats = st.sampled_from([LATTICES[name].by_label[lab]
                            for lab in LATTICES[name].poset.labels])
    return [data.draw(mats) for _ in range(count)]


@lattice
@laws
@given(data=st.data())
def test_join_commutative(name, data):
    a, b = matrices(data, name, 2)
    assert join_theta(a, b) == join_theta(b, a)


@lattice
@laws
@given(data=st.data())
def test_join_associative(name, data):
    a, b, c = matrices(data, name, 3)
    assert join_theta(join_theta(a, b), c) == join_theta(a, join_theta(b, c))


@lattice
@laws
@given(data=st.data())
def test_join_idempotent(name, data):
    (a,) = matrices(data, name, 1)
    assert join_theta(a, a) == a


@lattice
@laws
@given(data=st.data())
def test_independence_symmetric(name, data):
    a, b = matrices(data, name, 2)
    assert (phi_product(a, b) is None) == (phi_product(b, a) is None)


@lattice
@laws
@given(data=st.data())
def test_phi_product_matches_whole_join(name, data):
    # ordered pairs, half of them over one partition, where the bond ranks
    # add only on the discrete partition: the same (join, sign, factors)
    # as the product read off the whole join, or None on both sides
    (a,) = matrices(data, name, 1)
    if data.draw(st.booleans()):
        lkm = LATTICES[name]
        b = data.draw(st.sampled_from([lkm.by_label[lab] for lab in lkm.poset.labels
                                       if lkm.by_label[lab].partition == a.partition]))
    else:
        (b,) = matrices(data, name, 1)
    assert phi_product(a, b) == joining_phi_product(a, b, join_theta)


FIBER_GRAPHS = {
    "K2": Graph.complete(2),
    "P3": path_graph(3),
    "K3": Graph.complete(3),
    "2K2": Graph.make(4, [(1, 2), (3, 4)]),
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(FIBER_GRAPHS))
def test_fiber_rows_match_cellwise_enumeration(name, k):
    # k = 1 gives every undefined entry rank 0; P3 and K3 have a 3-vertex
    # row, 2K2 two rows; the order must be the cell-by-cell product's
    graph = FIBER_GRAPHS[name]
    for m in (1, 2, 3):
        for part in bond_lattice(graph).labels:
            items = list(fiber_matrices(part, k, m))
            assert [es for es, _, _, _ in items] == cellwise_fiber_matrices(
                part, k, m, block_classes)
            for entries, label, r_f, rank in items:
                mat = PartialMatrix(graph.n, k, m, part, entries)
                assert (label, r_f, rank) == (mat.label(), mat.r_f, bcp_rank(mat))


def connected(block, edges) -> bool:
    seen = [block[0]]
    for u in seen:
        for v in block:
            if v not in seen and (min(u, v), max(u, v)) in edges:
                seen.append(v)
    return len(seen) == len(block)


def merges(part):
    """The partitions that merge two blocks of `part`, as sorted tuples of sorted tuples."""
    for i, j in combinations(range(len(part)), 2):
        rest = part[:i] + part[i + 1:j] + part[j + 1:]
        yield tuple(sorted(rest + (tuple(sorted(part[i] + part[j])),)))


@laws
@given(data=st.data())
def test_bond_lattice_matches_connected_set_partitions(data):
    # the reference keeps the set partitions with graph-connected blocks;
    # a cover merges exactly two blocks, so each one is found by merging
    # two blocks and looking the result up among the connected partitions
    n = data.draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    graph = Graph.make(n, [e for e in pairs if data.draw(st.booleans())])
    parts = sorted(p for p in set_partitions(n)
                   if all(connected(b, graph.edges) for b in p))
    known = set(parts)
    covers = sorted((lo, hi) for lo in parts for hi in merges(lo) if hi in known)
    bond = bond_lattice(graph)
    assert bond.labels == tuple(parts)
    assert bond.rank == tuple(n - len(p) for p in parts)
    assert [(bond.labels[lo], bond.labels[hi]) for lo, hi in bond.covers] == covers

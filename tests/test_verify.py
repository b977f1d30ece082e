"""Oracle-side formal chains: pinned basis cycles and cup products."""

import hashlib
from math import factorial

import pytest

import orbitcoh.verify
from orbitcoh.oracle import GMOracle, OracleTooLarge
from orbitcoh.orbit import Graph, IntersectionLattice, build_lkm
from orbitcoh.ring import RingPresentation
from orbitcoh.verify import braid_chain, theta_cycle, verify_full


def _digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()


def _cycles(pres):
    return [theta_cycle(pres, e.grading, e.os_mono, e.bcp_index) for e in pres.basis]


def test_theta_cycles_are_pinned():
    # sorted theta_cycle chains of every basis element of K2 (k = 3) and P3
    # (k = 2), recorded before the chain builders shared one shuffle loop
    chains = []
    for graph, k in [(Graph.complete(2), 3), (Graph.path(3), 2)]:
        pres = RingPresentation(graph, k, 2)
        chains.append([sorted(c.items()) for c in _cycles(pres)])
    assert _digest(chains) == (
        "5f99339c6770b379a9fd7f175e12a4aea0caec735e37a42336ea0c7f2dae43c1")


def test_oracle_cups_are_pinned():
    # GMOracle.cup on the basis cycles of every ordered basis pair of K2
    # (k = 2), recorded before cup pushed its shuffles without a cross dict
    graph = Graph.complete(2)
    pres = RingPresentation(graph, 2, 2)
    inter = IntersectionLattice(build_lkm(graph, 2, 2))
    oracle = GMOracle(inter.poset, inter.codim)
    cycles = []
    for e, formal in zip(pres.basis, _cycles(pres)):
        mat = pres.matrices[e.grading]
        deg = mat.r_b + mat.r_f
        cycles.append((e.theta, deg, oracle.complex_at(e.theta).vector(formal, deg)))
    cups = [oracle.cup(*a, *b) for a in cycles for b in cycles]
    assert _digest(cups) == (
        "9f9fe235d041687b668e18ed049cc1202f04ffef5c6591df281104c7241a7928")


def test_braid_chain_has_one_chain_per_ordering():
    # r independent atoms give r! distinct partial-join chains, signed by
    # the permutation that orders them
    pres = RingPresentation(Graph.complete(4), 1, 2)
    seen = set()
    for e in pres.basis:
        chains = braid_chain(pres, e.os_mono)
        assert len(chains) == factorial(len(e.os_mono))
        assert set(chains.values()) <= {1, -1}
        seen.add(len(e.os_mono))
    assert seen == {0, 1, 2, 3}


def test_oversized_lattice_is_refused_before_it_is_built(monkeypatch):
    # L(K2, 30, 2) has 1 + 31^2 elements; the guard counts them without
    # building the lattice
    def refuse(*args):
        raise AssertionError("the orbit lattice was built")

    monkeypatch.setattr(orbitcoh.verify, "build_lkm", refuse)
    with pytest.raises(OracleTooLarge) as exc:
        verify_full(Graph.complete(2), 30, 2)
    assert str(exc.value) == "orbit lattice has 962 elements, limit 100"


def test_size_guard_counts_the_lattice():
    for graph, k, m in [(Graph.complete(3), 2, 2), (Graph.path(3), 3, 1),
                        (Graph.make(4, [(1, 2), (3, 4)]), 2, 2)]:
        with pytest.raises(OracleTooLarge) as exc:
            verify_full(graph, k, m, oracle_limit=0)
        assert str(exc.value) == (
            f"orbit lattice has {build_lkm(graph, k, m).poset.n} elements, limit 0")

import hashlib
import json
import subprocess
import sys

import pytest

from conftest import path_graph, subprocess_env
from orbitcoh import jsonio
from orbitcoh.orbit import Graph, join_theta
from orbitcoh.ring import (
    RingAxiomViolation,
    RingPresentation,
    UnsupportedM,
    check_ring_axioms,
)
from reference_impl import bcp_rank, moebius


def config_poincare(n, m):
    """Poincare polynomial of the classical configuration space F(C^m, n)."""
    want = [1]
    for i in range(1, n):
        new = [0] * (len(want) + 2 * m - 1)
        for d, c in enumerate(want):
            new[d] += c
            new[d + 2 * m - 1] += i * c
        want = new
    while want and want[-1] == 0:
        want.pop()
    return want


def test_k2_poincare():
    pres = RingPresentation(Graph.complete(2), 2, 2)
    assert pres.poincare_polynomial() == [1, 0, 0, 4, 4, 1]


def test_k1_reduction():
    pres = RingPresentation(Graph.complete(3), 1, 2)
    assert pres.poincare_polynomial() == [1, 0, 0, 3, 0, 0, 2]
    assert pres.poincare_polynomial() == config_poincare(3, 2)


def test_degree_formula():
    pres = RingPresentation(Graph.complete(3), 2, 2)
    for g, mat in enumerate(pres.matrices):
        assert pres.degrees[g] == pres.degree_of(mat.r_b, mat.r_f) == 3 * mat.r_b + mat.r_f
    # r_b = 1, r_f = 1, m = 2 gives degree 4
    mat = next(m for m in pres.matrices if m.r_b == 1 and m.r_f == 1)
    assert pres.degree_of(mat.r_b, mat.r_f) == 4


def test_rank_formula_vs_piece_sizes():
    # |mu(0, pi)| times the BCp rank: the nbc monomials over pi number
    # |mu(0, pi)| (Orlik and Solomon, Invent. Math. 1980)
    pres = RingPresentation(path_graph(3), 3, 2)
    bot = pres.bond.labels[pres.bond.minimum()]
    for g, mat in enumerate(pres.matrices):
        mu = moebius(pres.bond, bot, mat.partition)
        assert pres.piece_rank(g) == abs(mu) * bcp_rank(mat)


def test_additive_data_builds_no_basis():
    pres = RingPresentation(path_graph(3), 3, 2)
    pres.poincare_polynomial()
    for g in range(len(pres.matrices)):
        pres.piece_rank(g)
    assert "basis" not in pres.__dict__
    assert "assignments" not in pres.__dict__


@pytest.mark.parametrize("graph,k,m", [
    (Graph.complete(3), 2, 2),
    (path_graph(3), 3, 2),
    (Graph.make(4, [(1, 2), (3, 4)]), 2, 2),
    (Graph.complete(2), 2, 3),
], ids=["K3-k2", "P3-k3", "2K2-k2", "K2-m3"])
def test_offsets_match_lazy_basis(graph, k, m):
    pres = RingPresentation(graph, k, m)
    assert pres.offset[-1] == len(pres.basis)
    for g, mat in enumerate(pres.matrices):
        assert pres.piece_rank(g) == (len(pres.os.nbc[mat.partition])
                                      * len(pres.assignments[g]))
        assert all(e.grading == g and e.theta == pres.labels[g]
                   and e.degree == pres.degrees[g]
                   for e in pres.basis[pres.offset[g]:pres.offset[g + 1]])


def test_unit_and_dependent_products():
    pres = RingPresentation(Graph.complete(2), 2, 2)
    unit = pres.unit_index()
    for i in range(len(pres.basis)):
        assert pres.cup_basis(unit, i) == {i: 1}
    # two distinct completions of the same block are dependent
    comp_indices = [i for i, e in enumerate(pres.basis)
                    if pres.matrices[e.grading].r_b == 1
                    and pres.matrices[e.grading].r_f == 0]
    i, j = comp_indices[0], comp_indices[1]
    assert pres.cup_basis(i, j) == {}


def test_cup_lands_in_join_grading():
    pres = RingPresentation(path_graph(3), 2, 2)
    for i, ei in enumerate(pres.basis):
        for j, ej in enumerate(pres.basis):
            prod = pres.cup_basis(i, j)
            if not prod:
                continue
            target = join_theta(pres.matrices[ei.grading],
                                pres.matrices[ej.grading]).label()
            for idx in prod:
                assert pres.basis[idx].theta == target
                assert pres.basis[idx].degree == ei.degree + ej.degree


def test_ring_axioms_k2():
    stats = check_ring_axioms(RingPresentation(Graph.complete(2), 2, 2))
    assert stats["pairs"] == 100


@pytest.mark.parametrize("edits,match", [
    # e1*e2 doubled on both sides: still graded commutative, not associative
    ({(1, 2): {4: 2}, (2, 1): {4: -2}}, "differs from"),
    # a term on the zero pair e1 * (e1 e2), with no partner entry
    ({(1, 4): {7: 1}}, "outside degree|graded commutative|differs from"),
    # e2*e1 with the wrong sign
    ({(2, 1): {4: 1}}, "graded commutative"),
    # e1*e2 = e1 e3 on both sides: right degree, wrong grading
    ({(1, 2): {5: 1}, (2, 1): {5: -1}}, "outside degree"),
])
def test_axioms_catch_corrupted_products(edits, match):
    # P4 at k = 1 is the exterior algebra on its edges e1, e2, e3, with
    # basis 1, e1, e2, e3, e1e2, e1e3, e2e3, e1e2e3
    pres = RingPresentation(path_graph(4), 1, 2)
    assert pres.cup_basis(1, 2) == {4: 1} and pres.cup_basis(1, 4) == {}
    pres.products.update(edits)
    with pytest.raises(RingAxiomViolation, match=match):
        check_ring_axioms(pres)


@pytest.mark.parametrize("edits", [
    # e2*e3 = 0: (e1*e2)*e3 = e1e2e3 but e1*(e2*e3) = 0
    {(2, 3): {}, (3, 2): {}},
    # (e1e2)*e3 = 0: (e1*e2)*e3 = 0 but e1*(e2*e3) = e1e2e3
    {(4, 3): {}, (3, 4): {}},
], ids=["left-only", "right-only"])
def test_axioms_catch_one_sided_triples(edits):
    # both corruptions keep the grading and commutativity laws, and the
    # first broken triple has one side zero: the walk must take l from
    # the terms of either side
    pres = RingPresentation(path_graph(4), 1, 2)
    assert pres.cup_basis(2, 3) == {6: 1} and pres.cup_basis(4, 3) == {7: 1}
    pres.products.update(edits)
    with pytest.raises(RingAxiomViolation,
                       match=r"^\(1\*2\)\*3 differs from 1\*\(2\*3\)$"):
        check_ring_axioms(pres)


CORRUPT_UNIT = """
import json, sys
import orbitcoh.verify as verify
from orbitcoh.orbit import Graph
from orbitcoh.ring import RingAxiomViolation, RingPresentation, check_ring_axioms

def corrupted(*args, **kwargs):
    # unit * e_1 = 2 e_1: one wrong structure constant
    pres = RingPresentation(*args, **kwargs)
    unit = pres.unit_index()
    i = next(i for i in range(len(pres.basis)) if i != unit)
    pres.products[(unit, i)] = {i: 2}
    return pres

try:
    check_ring_axioms(corrupted(Graph.complete(2), 2, 2))
    raised = False
except RingAxiomViolation:
    raised = True
verify.RingPresentation = corrupted
report = verify.verify_full(Graph.complete(2), 2, 2)
print(json.dumps({"optimize": sys.flags.optimize, "raised": raised,
                  "ok": report.ok, "lines": report.lines}))
"""


def test_ring_axioms_fire_under_optimize():
    # the checks must not be asserts, which python -O strips
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPT_UNIT],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == 1
    assert result["raised"]
    assert result["ok"] is False
    assert any(line.startswith("FAIL ring axioms fail") for line in result["lines"])


def test_m1_requires_additive_flag():
    pres = RingPresentation(Graph.complete(2), 2, 1)
    with pytest.raises(UnsupportedM):
        pres.to_json_dict()
    with pytest.raises(UnsupportedM):
        pres.cup_basis(0, 0)
    # complement of the two hyperplanes x1 = +-x2 in C^2
    assert pres.poincare_polynomial() == [1, 2, 1]


def test_real_presentation():
    pres = RingPresentation(Graph.complete(2), 2, 2, "real")
    assert pres.poincare_polynomial() == [1, 9]
    with pytest.raises(UnsupportedM):
        RingPresentation(Graph.complete(2), 2, 1, "real")
    stats = check_ring_axioms(pres)
    assert stats["pairs"] == 100
    assert stats["triples"] == 190


def test_real_axioms_read_constants_mod_2():
    # P4 is the smallest real case with nonzero products of three classes
    # of positive degree.  Adding 2 to every constant of a product of two
    # distinct classes other than the unit changes nothing mod 2, but
    # leaves sides of associativity that differ over Z
    pres = RingPresentation(path_graph(4), 2, 2, "real")
    want = check_ring_axioms(pres)
    unit = pres.unit_index()
    for (i, j), entry in list(pres.products.items()):
        if unit not in (i, j) and i < j:
            pres.products[i, j] = pres.products[j, i] = {
                t: c + 2 for t, c in entry.items()}
    assert check_ring_axioms(pres) == want


def test_real_products_mod2():
    pres = RingPresentation(path_graph(3), 2, 2, "real")
    for i in range(len(pres.basis)):
        for j in range(len(pres.basis)):
            for c in pres.cup_basis(i, j).values():
                assert c == 1  # coefficients live in Z/2


def test_real_rejects_other_k():
    with pytest.raises(ValueError):
        RingPresentation(Graph.complete(2), 3, 2, mode="real")


def test_json_export_shape():
    pres = RingPresentation(Graph.complete(2), 2, 2)
    data = pres.to_json_dict()
    assert data["poincare"] == [1, 0, 0, 4, 4, 1]
    assert len(data["basis"]) == 10
    assert all(set(e) == {"degree", "grading", "labels"} for e in data["basis"])
    for i, j, terms in data["products"]:
        assert terms


def _export_digest(pres) -> str:
    return hashlib.sha256(jsonio.dumps(pres.to_json_dict()).encode()).hexdigest()


@pytest.mark.parametrize("graph,k,m,digest", [
    (Graph.complete(2), 3, 2,
     "fcb7bee4d1aa2af39d1fc0c18410973c5164ae966fb560a49e6c7097ea119f1c"),
    (Graph.complete(3), 2, 2,
     "eed6b70e73228af29e91511b91567425ae1c09766a7797f4eae2b2c6453ed705"),
    (Graph.make(4, [(1, 2), (3, 4)]), 2, 2,
     "8b55e59cc948dd43b5995f5ca1089a05d703de49978c00f3bc63dcd701a21da1"),
    (path_graph(3), 2, 2,
     "1a35dc1d964aac989088ac37891a5681f77b57d8371c4acb2aa8beedfaa4289d"),
    (Graph.complete(2), 2, 3,
     "c3590bbc7cee26f356665491a786a402e96dfdf5cf67f88cff7d93aa3fb6c407"),
    (Graph.complete(3), 3, 2,
     "171ef23ba92394607002063c30f5ca7899181261140ba6c84244292a4417c849"),
    (Graph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), 2, 2,
     "2ebc14a32b86476f0c26b72450caac421d14cd47cfb6779352ec32676ec0d227"),
    (Graph.complete(4), 2, 2,
     "a9228ae1c10ab9f9608a6e403654ca57ca377bca454bd6dd3238a3662a7322b9"),
    (path_graph(4), 2, 2,
     "90f31b5605a41dc1a7941dce90e6789d03bbd97b3f43882d11148c79445edd5d"),
])
def test_ring_json_is_pinned(graph, k, m, digest):
    # the full ring export (basis, gradings, products), recorded before the
    # product table was built per grading pair; K4 and P4 (where sigma
    # merges) recorded before it was built per join block
    assert _export_digest(RingPresentation(graph, k, m)) == digest


def test_real_ring_json_is_pinned():
    assert _export_digest(RingPresentation(path_graph(3), 2, 2, "real")) == (
        "869a1fe7d74d30e70f8999d10dac5528b8423bc4fb2f44ecbc37f98ef66f21da")

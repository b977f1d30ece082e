"""The ring-axiom check against the plain triple walk, on corrupted tables.

Hypothesis changes one structure constant of a presentation's product
table, and sometimes sets its graded-commutative partner to match, so
that the corruption gets past the commutativity law and has to be caught
by associativity.  ``check_ring_axioms`` and ``walking_ring_axioms`` in
``reference_impl.py`` must then both pass with the same counters or both
raise the same message.  Runs are derandomized and keep no example
database; the constants cache goes to the system temporary directory, as
in ``test_orbit_properties.py``.
"""

import copy
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from conftest import path_graph
from orbitcoh.orbit import Graph, join_theta
from orbitcoh.ring import RingAxiomViolation, RingPresentation, check_ring_axioms
from reference_impl import AxiomViolation, walking_ring_axioms

PRESENTATIONS = {
    "K2-k2-m2": RingPresentation(Graph.complete(2), 2, 2),
    "P4-k1-m2": RingPresentation(path_graph(4), 1, 2),
    "P3-k2-m2": RingPresentation(path_graph(3), 2, 2),
    "K2-real": RingPresentation(Graph.complete(2), 2, 2, "real"),
}

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "orbitcoh-hypothesis")

laws = settings(derandomize=True, database=None, max_examples=120, deadline=None)


@st.composite
def corruptions(draw, pres):
    """Edits to the product table: one changed constant, maybe its partner.

    Products with the unit are left alone.  The changed term mostly lies
    in the degree and grading the product should land in, so that the
    grading law lets it through.
    """
    unit, table = pres.unit_index(), pres.products
    products = sorted(ij for ij in table if unit not in ij)
    if products and draw(st.booleans()):
        i, j = draw(st.sampled_from(products))
    else:
        others = st.sampled_from([t for t in range(pres.offset[-1]) if t != unit])
        i, j = draw(others), draw(others)
    ei, ej = pres.basis[i], pres.basis[j]
    target = join_theta(pres.matrices[ei.grading], pres.matrices[ej.grading])
    fits = [t for t, e in enumerate(pres.basis)
            if e.degree == ei.degree + ej.degree and pres.matrices[e.grading] == target]
    if fits and draw(st.integers(0, 3)):
        idx = draw(st.sampled_from(fits))
    else:
        idx = draw(st.integers(0, pres.offset[-1] - 1))
    entry = dict(table.get((i, j), {}))
    entry[idx] = entry.get(idx, 0) + draw(st.sampled_from([-2, -1, 1, 2]))
    edits = {(i, j): entry}
    if draw(st.booleans()):
        sign = -1 if pres.mode != "real" and ei.degree * ej.degree % 2 else 1
        edits[j, i] = {t: sign * c for t, c in entry.items()}
    return edits


def outcome(check):
    try:
        return "pass", check()
    except (RingAxiomViolation, AxiomViolation) as exc:
        return "fail", str(exc)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@laws
@given(st.data())
def test_check_matches_triple_walk_on_corrupted_tables(name, data):
    pres = PRESENTATIONS[name]
    bad = copy.copy(pres)
    bad.products = {**pres.products, **data.draw(corruptions(pres))}
    assert outcome(lambda: check_ring_axioms(bad)) == outcome(
        lambda: walking_ring_axioms(bad, join_theta))


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_check_matches_triple_walk_on_honest_tables(name):
    pres = PRESENTATIONS[name]
    assert check_ring_axioms(pres) == walking_ring_axioms(pres, join_theta)

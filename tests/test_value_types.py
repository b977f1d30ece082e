"""The small value classes: immutable, compared and hashed by value.

``Graph``, ``PartialMatrix``, ``GradedBasisElement``, ``HomologySummary``
and ``NotCellular`` are dict keys, set members and verdicts, so a field
that could be reassigned, or an equality by identity, would corrupt the
tables built from them.  ``VerifyReport`` is the one mutable record.
"""

import pytest

from orbitcoh.cellular import NotCellular
from orbitcoh.intlinalg import HomologySummary
from conftest import make_matrix
from orbitcoh.orbit import Graph, empty_matrix
from orbitcoh.ring import GradedBasisElement
from orbitcoh.verify import VerifyReport


GRAPH = Graph.make(3, [(1, 2)])
THETA = make_matrix(GRAPH, 2, 2, [(1, 2), (3,)], [[(0, 1), None]])
# one instance of each value class, with its field names
VALUES = [
    (GRAPH, ["n", "edges"]),
    (THETA, ["n", "k", "m", "partition", "entries"]),
    (GradedBasisElement(0, THETA.label(), (0,), ((0, 1),), 1),
     ["grading", "theta", "os_mono", "bcp_index", "degree"]),
    (HomologySummary(((1, ()), (0, (2,)))), ["groups"]),
    (NotCellular("x", "kernel-sum", "rank 2"), ["element", "step", "detail"]),
]
IDS = [type(value).__name__ for value, _ in VALUES]


@pytest.mark.parametrize("value, fields", VALUES, ids=IDS)
def test_fields_cannot_be_set(value, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))


@pytest.mark.parametrize("value, fields", VALUES, ids=IDS)
def test_equal_by_value(value, fields):
    twin = type(value)(*(getattr(value, name) for name in fields))
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)


def test_graph_edges_are_normalized_before_comparison():
    a, b = Graph.make(3, [(2, 1)]), Graph.make(3, [(1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph.make(3, [(2, 3)])
    assert empty_matrix(a, 2, 2) == empty_matrix(b, 2, 2)
    assert empty_matrix(a, 2, 2) != empty_matrix(a, 3, 2)


def test_not_cellular_defaults_and_is_false():
    verdict = NotCellular("x", "surjectivity")
    assert verdict.detail == ""
    assert not verdict
    assert verdict == NotCellular("x", "surjectivity", "")


def test_homology_summary_reads_its_groups():
    summary = HomologySummary(((1, ()), (0, (2,))))
    assert summary.betti_vector() == [1, 0]
    assert summary.torsion(1) == (2,) and summary.torsion(5) == ()
    assert not summary.is_free()
    assert str(summary) == "H_0=Z H_1=Z/2"


def test_verify_report_defaults_are_not_shared():
    first, second = VerifyReport(), VerifyReport()
    assert (first.ok, first.lines, first.rank_checks, first.product_checks) == (True, [], 0, 0)
    first.add(False, "rank")
    assert (first.ok, first.lines) == (False, ["FAIL rank"])
    assert (second.ok, second.lines) == (True, [])

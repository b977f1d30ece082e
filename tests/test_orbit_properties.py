"""Lattice laws of the orbit-lattice join, checked by hypothesis.

Matrices are drawn from the elements of L(K3, 2, 2) and L(P3, 3, 2).
Runs are derandomized and keep no example database, so the suite stays
deterministic.  Hypothesis still caches the constants of the source
files on disk, during collection; that cache goes to the system
temporary directory instead of ``.hypothesis/`` in the working tree.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from orbitcoh.orbit import Graph, build_lkm, independence, join_theta

LATTICES = {
    "K3-k2-m2": build_lkm(Graph.complete(3), 2, 2),
    "P3-k3-m2": build_lkm(Graph.path(3), 3, 2),
}

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "orbitcoh-hypothesis")

laws = settings(derandomize=True, database=None, max_examples=150)
lattice = pytest.mark.parametrize("name", sorted(LATTICES))


def matrices(data, name, count):
    mats = st.sampled_from([LATTICES[name].matrix(lab)
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
    assert independence(a, b) == independence(b, a)

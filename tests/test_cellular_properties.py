"""The cellular-form construction against the one that lays out the
complex below each element afresh, and against the Tor criterion, on
random graded posets, checked by hypothesis.

A poset has up to 8 elements in ranks 0..3, at most 3 in a rank, every
element above rank 0 covering at least one element of the rank below,
so the rank is the length of every maximal chain down.  Its labels are
a shuffle of a..h, so index order and rank order disagree.  The
copresheaf is constant, of rank 1 or 2, or a rank-1 delta at one
element.  Random posets this small seldom fail past surjectivity, so
two fixed examples give the kernel-sum and positive-homology verdicts.
Runs are derandomized and keep no example database, so the suite stays
deterministic.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from conftest import STACKED_SQUARES, build_poset, constant_sheaf
from orbitcoh.cellular import (
    CellularForm,
    NotCellular,
    construct_cellular_form,
    verify_cellular_form,
)
from orbitcoh.intlinalg import ChainComplex, elementary_divisors, homology
from orbitcoh.oracle import TorComplex
from orbitcoh.sheaves import delta_sheaf
from reference_impl import downset_cellular_form

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "orbitcoh-hypothesis")

laws = settings(derandomize=True, database=None, max_examples=150)


@st.composite
def graded_posets(draw):
    names = iter(draw(st.permutations("abcdefgh")))
    levels = []
    for r in range(draw(st.sampled_from([4, 3, 2, 1]))):
        room = 8 - sum(map(len, levels)) - (3 - r)  # keep one name per later rank
        levels.append([next(names) for _ in range(draw(st.integers(1, min(3, room))))])
    covers = [(y, x) for below, level in zip(levels, levels[1:]) for x in level
              for y in draw(st.sets(st.sampled_from(below), min_size=1))]
    rank = {x: r for r, level in enumerate(levels) for x in level}
    return build_poset(list(rank), covers, rank)


@st.composite
def pairs(draw):
    poset = draw(graded_posets())
    if draw(st.booleans()):
        return poset, constant_sheaf(poset, draw(st.integers(1, 2)), "co")
    return poset, delta_sheaf(poset, [draw(st.sampled_from(poset.labels))], 1, "co")


def constant_pair(elements, covers, rank):
    poset = build_poset(elements, covers, rank)
    return poset, constant_sheaf(poset, 1, "co")


# the kernel-sum and positive-homology verdicts, which random posets this
# small rarely reach: two disjoint rank-1 supports under one top, and the
# two squares stacked under U
KERNEL_SUM = constant_pair(["a", "b", "c", "d", "T"],
                           [("a", "c"), ("b", "d"), ("c", "T"), ("d", "T")],
                           [0, 0, 1, 1, 2])
POSITIVE_HOMOLOGY = constant_pair(STACKED_SQUARES["elements"], STACKED_SQUARES["covers"],
                                  STACKED_SQUARES["rank"])


@laws
@given(pairs())
@example(KERNEL_SUM)
@example(POSITIVE_HOMOLOGY)
def test_construction_matches_downset_reference(pair):
    poset, g = pair
    got = construct_cellular_form(poset, g)
    verdict, ranks, diff = downset_cellular_form(poset, g, ChainComplex, homology,
                                                 elementary_divisors)
    if isinstance(got, NotCellular):
        assert tuple(got) == verdict
    else:
        assert verdict is None
        assert list(got.piece_ranks) == ranks and got.diff == diff
        verify_cellular_form(got)


@laws
@given(pairs())
@example(KERNEL_SUM)
@example(POSITIVE_HOMOLOGY)
def test_form_exists_iff_tor_concentrated(pair):
    # Tor(delta_x, G) must vanish off degree rank(x), at every x
    poset, g = pair
    concentrated = True
    for x in poset.labels:
        groups = TorComplex(poset, g, delta_sheaf(poset, [x], 1, "pre")).homology().groups
        if any(b or tors for n, (b, tors) in enumerate(groups) if n != poset.rank_of(x)):
            concentrated = False
            break
    assert isinstance(construct_cellular_form(poset, g), CellularForm) == concentrated

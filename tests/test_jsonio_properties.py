"""The canonical JSON writer against the standard library's encoder.

Hypothesis draws payloads of the shapes the program writes (nested dicts
with string keys, lists and tuples, ints of any size and sign, booleans,
None and strings with escapes and non-ASCII text) and
``jsonio.dumps`` must give the same text as ``library_dumps`` in
``reference_impl.py``.  Runs are derandomized and keep no example
database; the constants cache goes to the system temporary directory,
as in ``test_orbit_properties.py``.
"""

import enum
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from orbitcoh import jsonio
from orbitcoh.jsonio import dumps
from reference_impl import library_dumps

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "orbitcoh-hypothesis")

laws = settings(derandomize=True, database=None, max_examples=300, deadline=None)

texts = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", '"', "\\", "\n\t\x00\x1f\x7f", "é ü", "∂∘σ", "\U0001f600",
                     "\ud800"]),
)
ints = st.one_of(st.integers(-1000, 1000), st.integers(-10 ** 60, 10 ** 60),
                 st.sampled_from([10 ** 50, -(10 ** 55) - 7]))
scalars = st.one_of(ints, texts, st.booleans(), st.none())
# int lists, sometimes with a bool or None among the ints: a bool must
# print as true or false, not as 1 or 0
int_items = st.lists(st.one_of(ints, ints, ints, st.booleans(), st.none()), max_size=6)
int_lists = st.one_of(int_items, int_items.map(tuple))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    )


payloads = st.recursive(st.one_of(scalars, int_lists), containers, max_leaves=40)


@laws
@given(payloads)
def test_dumps_matches_the_library_encoder(data):
    assert dumps(data) == library_dumps(data)


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 257


@pytest.mark.parametrize("data", [
    [0, 1, -1, 256, -256, 257, -257, 2 ** 63, -10 ** 30, 0, 257, -10 ** 30, 1, 2 ** 63],
    [1, True, 0, False],
    {"a": [True, 1, False, 0], "b": 1, "c": True},
    [Colour.RED, 1, Colour.BLUE, 257],
    {"a": Colour.BLUE, "b": 257, "c": Colour.RED, "d": [Colour.RED]},
    {"a": 7, "b": 7, "c": [7, 7], "d": {"e": 7, "f": -7}, "g": -7},
], ids=["int-edges", "bools-among-ints", "bools-in-dict", "intenum-in-list",
        "intenum-as-value", "repeated-dict-values"])
def test_int_edge_cases_match_the_library_encoder(data):
    assert dumps(data) == library_dumps(data)


def test_int_texts_do_not_outlive_a_document():
    big = [10 ** 40 + i for i in range(50)] * 3
    first = {"a": big, "b": 10 ** 40, "c": [1, True, 1]}
    second = {"a": [-(10 ** 40), 10 ** 40 + 1, 1], "b": True, "c": [0, False]}
    assert dumps(first) == library_dumps(first)
    assert dumps(second) == library_dumps(second)
    assert not any(isinstance(v, jsonio._IntTexts) for v in vars(jsonio).values())


@pytest.mark.parametrize("data", [1.5, [0, 2.0], {"a": [1, float("nan")]},
                                  {1: 2}, {"a": {None: 1}}, {"a": 1, 2: "b"},
                                  {1, 2}, [object()]],
                         ids=["float", "float-in-list", "nan", "int-key", "none-key",
                              "mixed-keys", "set", "object"])
def test_other_values_raise_type_error(data):
    with pytest.raises(TypeError):
        dumps(data)

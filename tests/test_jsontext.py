import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcat.jsontext import dumps


def reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


# ints past 64 bits; text with non-ASCII, control characters and quotes
integers = st.integers() | st.integers(min_value=-(2**130), max_value=2**130)
texts = st.text() | st.text(alphabet='"\\\x00\x1f\x7fé \U0001f600ab', max_size=6)
scalars = st.none() | st.booleans() | integers | texts | st.floats()
# rows of exact ints and strings take the writer's matrix path; bools and
# floats mixed into rows must not share its memo entries
entries = integers | texts | st.booleans() | st.floats(allow_nan=False)
matrices = st.lists(st.lists(entries, max_size=4) | st.tuples(entries, entries), max_size=4)


def containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(texts, children, max_size=5)
    )


documents = st.recursive(scalars | matrices, containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_matches_json_dumps(doc):
    assert dumps(doc) == reference(doc)


@settings(max_examples=100, deadline=None)
@given(matrices | documents, documents)
def test_shared_list_at_two_depths(shared, other):
    # the same list object (or an equal one) at different indent depths
    doc = {"a": shared, "b": [shared, {"c": [shared]}], "d": other, "e": shared}
    assert dumps(doc) == reference(doc)


def test_equal_rows_of_different_types_render_apart():
    doc = [[[1, 0]], [[True, False]], [[1.0, 0.0]], [[1, 0]], [["1", "0"]], [(1, 0)]]
    assert dumps(doc) == reference(doc)


def test_non_string_keys_convert_like_json():
    doc = {2: "a", 10: [None], -1: {}}
    assert dumps(doc) == reference(doc)
    assert dumps({True: 1}) == reference({True: 1})
    assert dumps({None: 0}) == reference({None: 0})
    assert dumps({1.5: 0}) == reference({1.5: 0})


@pytest.mark.parametrize("bad", [{"a": object()}, [{1, 2}], {(1, 2): 0}, {1: 0, "a": 1}])
def test_unsupported_values_raise_type_error(bad):
    with pytest.raises(TypeError):
        reference(bad)
    with pytest.raises(TypeError):
        dumps(bad)

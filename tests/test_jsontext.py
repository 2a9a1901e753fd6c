import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invcat.jsontext import _Render, dumps


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


def at_depth(value, depth):
    """The text ``json.dumps`` writes for ``value`` standing at ``depth``."""
    return reference(value).replace("\n", "\n" + "  " * depth)


# matrices of exact ints only, in lists and tuples, empty ones included
int_rows = st.lists(integers, max_size=4) | st.tuples(integers, integers)
int_matrices = st.lists(int_rows, max_size=4) | st.lists(int_rows, max_size=4).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.lists(int_matrices, max_size=5) | st.lists(int_matrices | matrices, max_size=5), st.integers(0, 4))
@example([[[1, 0, -3], [0, 1, 2]], ((5,), (2**70,)), [], [[], []]], 2)  # exact ints
@example([((1, 0), (0, 1)), [[1, "2/3"], [0, 1]]], 1)  # ints and strings
@example([[[1, 0]], [[True, False]]], 0)  # bools
@example([[[1, 0]], [[1.0, 0.5]], [[1, 2.5]]], 3)  # floats
@example([(), [[]], [(), ()]], 4)  # empty matrices and empty rows
@example([[[-(2**100), 2**64]], [[2**63, -(2**63) - 1]]], 1)  # past 64 bits
def test_matrices_and_the_int_matrix_path_match_json_dumps(ms, depth):
    """``_Render.matrices`` writes each matrix as ``json.dumps`` writes it at
    ``depth``, on its exact-int path and its fallback alike, and so does
    ``value`` (the matrix path of ``array``) on each of them."""
    expected = [at_depth(m, depth) for m in ms]
    assert _Render().matrices(ms, depth) == expected
    render = _Render()
    assert [render.value(m, depth) for m in ms] == expected
    assert [render.value(m, depth) for m in ms] == expected  # from the memos


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


@pytest.mark.parametrize("order", [1, -1])
def test_equal_keys_that_print_differently_render_apart(order):
    # 1 == True == 1.0 as dict keys, yet they print "1", "true" and "1.0";
    # siblings at one depth, in either order, each keep their own text
    siblings = [{1: "a"}, {True: "a"}, {1.0: "a"}, {None: "a"}, {"1": "a"}, {"true": "a"}]
    doc = {"s": siblings[::order], "n": [{"x": d} for d in siblings[::order]]}
    assert dumps(doc) == reference(doc)


def test_a_key_set_in_different_insertion_orders():
    doc = [
        {"b": 1, "a": 2, "c": 3},
        {"a": 4, "c": 5, "b": 6},
        {"c": {"b": 7, "a": 8}, "a": {"a": 9, "b": 10}, "b": [{"b": 11, "a": 12}]},
        {"b": 13, "a": 14, "c": 15},
    ]
    assert dumps(doc) == reference(doc)


def test_one_tuple_at_three_depths_under_several_parents():
    basis = ((1, 0, -3), (0, 1, 2))
    mixed = (1, "x", None, True, 2.5, basis)
    doc = {
        "a": basis,
        "b": [basis, {"c": basis, "m": mixed}],
        "d": [[basis, mixed]],
        "e": (basis, basis, mixed),
        "m": mixed,
    }
    assert dumps(doc) == reference(doc)


def test_a_tuple_that_holds_a_list():
    inner = [1, [2, "y"]]
    held = (inner, {"k": inner}, ())
    doc = {"a": held, "b": [held, [held]], "c": (held, inner)}
    assert dumps(doc) == reference(doc)


def _plane_star(seed, planes):
    """A star of ``planes`` random planes in GF(10007)^3."""
    from invcat import GF
    from invcat.rep import Generator, RepObject, Representation

    from conftest import random_matrix

    rng = random.Random(seed)
    field = GF(10007)
    objs = (RepObject("center", 3),) + tuple(RepObject(f"p{i}", 2) for i in range(planes))
    gens = tuple(
        Generator(f"g{i}", f"p{i}", "center", random_matrix(rng, field, 3, 2))
        for i in range(planes)
    )
    return Representation(field, objs, gens)


def test_a_refuted_star_report():
    """A star of 8 random planes in GF(10007)^3: the refutation lists every
    negative pair, each printing the same bases again."""
    from invcat import analyze

    report = analyze(_plane_star(8, 8)).report
    assert not report.passed and len(report.witnesses) > 100
    doc = report.to_json()
    assert dumps(doc) == reference(doc)


def _mixed_star(field, seed):
    """Lines, planes and hyperplanes of a 4-space (``conftest.random_star``)."""
    from conftest import random_star

    return random_star(random.Random(seed), field, 4, 10)


def _spliced_inputs():
    """Each input of the splice tests and whether it is refuted."""
    from pathlib import Path

    from invcat import GF, RATIONALS, parse_representation

    from conftest import interval_corpus_instance

    data = Path(__file__).resolve().parent.parent / "data"
    return {
        "trisection": (lambda: parse_representation((data / "trisection.json").read_text()), True),
        "star8": (lambda: _plane_star(8, 8), True),
        "star14": (lambda: _plane_star(14, 14), True),
        "mixed_gf": (lambda: _mixed_star(GF(10007), 3), True),
        "mixed_q": (lambda: _mixed_star(RATIONALS, 4), True),
        "passing": (lambda: interval_corpus_instance(random.Random(5))[0], False),
    }


SPLICED = _spliced_inputs()


@pytest.mark.parametrize("mode", ["standard", "literal"])
@pytest.mark.parametrize("name", sorted(SPLICED))
def test_the_witness_splice_writes_the_plain_list(name, mode):
    """``dumps`` writes a report's spliced witness list as ``json.dumps``
    writes the plain one of ``to_json()``, at the report's own depth and
    deeper; the plain list is the witnesses' own ``to_json``."""
    from invcat import analyze

    make, refuted = SPLICED[name]
    report = analyze(make(), mu_mode=mode).report
    doc = report.to_json()
    assert (len(doc["witnesses"]) > 0) == (not report.passed)
    if mode == "standard":
        assert report.passed == (not refuted)
    assert doc["witnesses"] == [w.to_json() for w in report.witnesses]
    assert dumps(report.spliced_json()) == reference(doc)
    nested = {"a": [report.spliced_json(), {"b": report.spliced_json()}]}
    assert dumps(nested) == reference({"a": [doc, {"b": doc}]})


@pytest.mark.parametrize("name", sorted(n for n, (_, refuted) in SPLICED.items() if refuted))
def test_the_witness_splice_at_the_depth_of_the_refusal_detail(name):
    """``decompose``'s refusal, as the CLI prints it, writes its spliced
    detail as ``json.dumps`` writes the plain ``to_json()`` one, which holds
    the report's witnesses as a plain list."""
    from invcat import CriterionViolated, analyze, decompose

    rep = SPLICED[name][0]()
    with pytest.raises(CriterionViolated) as exc:
        decompose(rep)
    error = exc.value
    report = analyze(rep).report
    plain = error.to_json()
    assert not report.distributivity_witnesses
    assert plain["detail"] == error.detail == {"witnesses": [w.to_json() for w in report.witnesses]}
    assert dumps({"error": error.spliced_json()}) == reference({"error": plain})

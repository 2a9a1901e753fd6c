import dataclasses
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcat import (
    RATIONALS,
    Subspace,
    ClosureLimits,
    Matrix,
    analyze,
    compute_flag,
    decompose,
    image,
    kernel,
    meet_closure,
    parse_representation,
    quiver_shape,
    verify_decomposition,
)
from invcat.errors import ClosureDivergence, ValidationError
from invcat.pipeline import _count_holds, _refuting_part, saturation_maps
from invcat.rep import Generator, RepObject, Representation

from conftest import interval_corpus_instance, random_representation

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"


def _benchmark_corpus():
    """The benchmark's corpus generator, loaded from its file without putting
    the benchmark's directory on the import path."""
    name = "perfbench_corpus"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "corpus.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_saturation_state_is_reported(trisection, bisection):
    a = analyze(bisection)
    assert a.flag.saturated is True
    assert a.report.saturated is True
    b = analyze(trisection)
    assert b.flag.saturated is False  # failing inputs are never saturated


def test_saturation_hands_back_the_final_families(bisection, monkeypatch):
    """The families are built on first read, once, on the saturated flag: the
    bisection flag saturates in one closure (3-chain to diamond)."""
    import invcat.pipeline as pipeline

    built = []
    real = pipeline.build_families
    monkeypatch.setattr(
        pipeline, "build_families", lambda flag, bases: built.append(flag) or real(flag, bases)
    )
    a = analyze(bisection)
    assert built == [] and a.flag.sizes() == {"plane": 4}
    families = a.families
    assert built == [a.flag] and a.flag.saturated
    fresh = real(a.flag, a.bases)
    assert {oid: f.projections for oid, f in families.items()} == {
        oid: f.projections for oid, f in fresh.items()
    }


def _spy(monkeypatch, name):
    """Patch ``pipeline.<name>`` to record the positional arguments of every
    call."""
    import invcat.pipeline as pipeline

    calls = []
    real = getattr(pipeline, name)

    def spied(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, spied)
    return calls


def test_nothing_is_built_before_it_is_read(trisection, monkeypatch):
    """On a pass the rank count is the verdict: ``analyze`` scores nothing and
    builds no family; the report and the families are built once, on the
    saturated flag, when first read.  A failing input still gets its full
    report."""
    scores = _spy(monkeypatch, "check_representation")
    builds = _spy(monkeypatch, "build_families")
    tree = parse_representation(_benchmark_corpus().make_corpus("interval_q", 3, 4)[3].data)
    assert not quiver_shape(tree).has_undirected_cycle
    a = analyze(tree)
    assert a.passed and a.flag.saturated
    assert scores == [] and builds == []

    assert a.report.passed and a.standard_report is a.report
    assert scores == [(tree, a.flag, "standard")]
    assert a.families is a.families
    assert builds == [(a.flag, a.bases)]

    scores.clear()
    dec = decompose(tree)
    assert verify_decomposition(tree, dec).ok
    assert scores == [] and builds == [(a.flag, a.bases)]

    b = analyze(trisection)
    assert not b.passed and scores == []
    doc = b.report.to_json()
    assert doc["verdict"] == "fail" and doc["witnesses"]
    assert scores == [(trisection, b.flag, "standard")]
    assert b.families is None and builds == [(a.flag, a.bases)]


def test_unknown_mu_mode_is_rejected_before_the_closure(bisection, monkeypatch):
    """The mode is validated when ``analyze`` is called, not when the lazy
    report is first read."""
    closures = _spy(monkeypatch, "compute_flag")
    with pytest.raises(ValidationError, match="unknown mu mode"):
        analyze(bisection, mu_mode="bogus")
    assert closures == []


def test_analyze_is_deterministic(bisection):
    a1 = analyze(bisection)
    a2 = analyze(bisection)
    assert a1.report.to_json() == a2.report.to_json()
    assert a1.flag.to_json() == a2.flag.to_json()
    assert a1.pseudo_inverses == a2.pseudo_inverses


def test_random_representations_never_crash(rng):
    """Arbitrary inputs either analyze cleanly or raise a structured error.
    On every pass the pseudo-inverses satisfy their four identities against
    the reported families, and every cycle-free pass decomposes to a
    verified certificate."""
    limits = ClosureLimits(max_rounds=8, max_elements_per_object=200)
    diverged = decomposed = 0
    for _ in range(150):
        rep = random_representation(rng)
        field = rep.field
        try:
            a = analyze(rep, limits)
        except ClosureDivergence:
            diverged += 1
            continue
        if not a.report.passed:
            continue
        for g in rep.generators:
            zeta, dag = g.matrix, a.pseudo_inverses[g.id]
            pi_ker = a.families[g.dom].projections[kernel(zeta)]
            pi_im = a.families[g.cod].projections[image(zeta)]
            assert zeta @ dag @ zeta == zeta
            assert dag @ zeta @ dag == dag
            assert dag @ zeta == Matrix.identity(field, zeta.cols) - pi_ker
            assert zeta @ dag == pi_im
        if not quiver_shape(rep).has_undirected_cycle:
            dec = decompose(rep, limits, analysis=a)
            assert verify_decomposition(rep, dec).ok
            decomposed += 1
    assert decomposed >= 20
    assert diverged >= 1


def test_stopped_draws_are_refuted_by_the_bound():
    """Draws 222 and 316 of ``random_representation`` at seed 7 pass the
    element limit of ClosureLimits(8, 200) at objects of dimension 3.  The
    meet closure of the first 2^3 + 1 elements one object reached already
    breaks the rank count, and that one-object part refutes the input."""
    rng = random.Random(7)
    draws = [random_representation(rng) for _ in range(317)]
    limits = ClosureLimits(8, 200)
    for i in (222, 316):
        with pytest.raises(ClosureDivergence) as exc:
            compute_flag(draws[i], limits)
        analysis = analyze(draws[i], limits)
        report = analysis.report
        assert not analysis.passed and not report.passed and report.witnesses == ()
        assert f"by round {exc.value.detail['rounds']}" in report.closure_note
        [(oid, part)] = analysis.flag.posets.items()
        assert part.ambient_dim == 3
        assert part.elements == tuple(meet_closure(exc.value.reached[oid][:9]))
        [w] = report.distributivity_witnesses
        assert w.object_id == oid


def test_the_refuting_part_is_taken_by_dimension_within_the_limit():
    """Objects are taken by dimension, then id; at each, the meet closure of
    the first 2^n + 1 reached elements; an object whose prefix or closure
    passes the element limit is skipped."""
    q = RATIONALS

    def span(n, *rows):
        return Subspace.span(q, n, list(rows))

    def seeds(n):
        return [Subspace.zero(q, n), Subspace.full(q, n)]

    rep = Representation(q, (RepObject("a", 3), RepObject("b", 3), RepObject("c", 2), RepObject("d", 1)), ())
    reached = {
        # three planes through one line: their meet closure has 6 elements
        "a": seeds(3) + [span(3, [1, 0, 0], [0, 1, 0]), span(3, [1, 0, 0], [0, 0, 1]),
                         span(3, [1, 0, 0], [0, 1, 1])],
        # three lines in one plane: meet-closed, 5 elements
        "b": seeds(3) + [span(3, [1, 0, 0]), span(3, [0, 1, 0]), span(3, [1, 1, 0])],
        # four lines in the plane, of which the first three are taken
        "c": seeds(2) + [span(2, [1, k]) for k in range(4)],
        "d": seeds(1),
    }

    def part(limit):
        stop = ClosureDivergence("stopped", rounds=5)
        stop.reached = reached
        found = _refuting_part(rep, stop, limit)
        assert stop.reached is None
        return found and {oid: len(p) for oid, p in found.posets.items()}

    assert part(4096) == {"c": 5}
    del reached["c"][2:]
    assert part(4096) == part(6) == {"a": 6}
    assert part(5) == {"b": 5}
    assert part(4) is None


def test_a_short_prefix_refutes_where_the_bound_passes_the_limit():
    """Two loops on Q^9: a random a and the projection p onto the first two
    coordinates.  At ClosureLimits(max_elements_per_object=100) the meet
    closure of the first 2^9 + 1 reached elements passes the element limit,
    so the bound's part is skipped; the second pass closes the first 8
    reached elements to 14, which fail the count and refute the input."""
    rng = random.Random(9)
    a = [[rng.choice([-1, 0, 0, 1, 2]) for _ in range(9)] for _ in range(9)]
    p = [[int(i == j < 2) for j in range(9)] for i in range(9)]
    rep = Representation(
        RATIONALS,
        (RepObject("x", 9),),
        (
            Generator("a", "x", "x", Matrix.build(RATIONALS, 9, 9, a)),
            Generator("p", "x", "x", Matrix.build(RATIONALS, 9, 9, p)),
        ),
    )
    limits = ClosureLimits(max_elements_per_object=100)
    with pytest.raises(ClosureDivergence) as exc:
        compute_flag(rep, limits)
    reached = exc.value.reached["x"]
    assert meet_closure(reached[:2**9 + 1], 100) is None
    analysis = analyze(rep, limits)
    report = analysis.report
    assert not analysis.passed and not report.passed
    assert f"by round {exc.value.detail['rounds']}" in report.closure_note
    [part] = analysis.flag.posets.values()
    assert part.elements == tuple(meet_closure(reached[:8]))
    assert len(part) == 14
    [w] = report.distributivity_witnesses
    assert w.object_id == "x"


def test_cli_deterministic_across_processes():
    """Reports must not depend on hash randomization."""
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "invcat.cli", "check", str(DATA / "trisection.json")],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": str(DATA.parent / "src"),
            },
            cwd=str(DATA.parent),
        )
        assert proc.returncode == 1
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    json.loads(outs[0])


def _assert_same_flag(got, ref):
    assert got.to_json() == ref.to_json()
    for oid, p in ref.posets.items():
        q = got.posets[oid]
        assert q.elements == p.elements
        assert q.leq == p.leq
        assert q.covers == p.covers
        assert q.meet_table == p.meet_table


def test_bitmask_saturation_matches_subspace_closure():
    """Wherever every generator is a matching in the adapted bases, the
    saturation closure on bitmasks equals the closure on subspaces with the
    pseudo-inverses as extra maps: benchmark corpus instances (interval sums
    over Q and their conjugates over GF(10007)), and trees and cyclic quivers
    from the random generator."""
    corpus = _benchmark_corpus()
    cases = [
        (parse_representation(inst.data), ClosureLimits())
        for workload in ("interval_q", "conj_gf")
        for inst in corpus.make_corpus(workload, 3, 96)
    ]
    rng = random.Random(7)
    small = ClosureLimits(max_rounds=8, max_elements_per_object=200)
    cases += [(random_representation(rng), small) for _ in range(400)]
    on_masks = {"tree": 0, "cyclic": 0}
    for rep, limits in cases:
        try:
            raw = analyze(rep, limits, saturate=False)
        except ClosureDivergence:
            continue
        if not raw.standard_report.passed:
            continue
        _, extra, coordinates = saturation_maps(rep, raw.bases)
        cyclic = quiver_shape(rep).has_undirected_cycle
        if coordinates is None:
            assert cyclic  # the transport makes every tree generator a matching
            continue
        on_masks["cyclic" if cyclic else "tree"] += 1
        ref = compute_flag(rep, limits, extra_maps=extra)
        got = compute_flag(rep, limits, extra_maps=extra, coordinates=coordinates)
        _assert_same_flag(got, ref)
    assert on_masks["tree"] >= 300 and on_masks["cyclic"] >= 100


@st.composite
def saturating_inputs(draw):
    """Random representations (trees and cyclic quivers) and interval sums on
    A_n quivers over Q."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        return random_representation(rng)
    return interval_corpus_instance(rng)[0]


@given(saturating_inputs())
@settings(max_examples=200, deadline=None)
def test_bitmask_saturation_keeps_the_count(rep):
    """A flag saturated on bitmasks is a meet-closed family of coordinate
    sets, so the rank count holds on it, which is why ``_saturate`` does not
    take it there."""
    try:
        a = analyze(rep, ClosureLimits(max_rounds=8, max_elements_per_object=200))
    except ClosureDivergence:
        return
    if not a.passed or saturation_maps(rep, a.bases)[2] is None:
        return
    assert a.flag.saturated and a.saturation_note is None and a.flag.masks is not None
    assert _count_holds(a.flag)


def test_a_flag_on_masks_is_reported_without_the_count(monkeypatch):
    """``check_representation`` does not take the rank count on a flag
    saturated on bitmasks, which passes it by construction; the report is
    the one the count would give."""
    import invcat.criterion as criterion

    tree = parse_representation(_benchmark_corpus().make_corpus("interval_q", 3, 4)[3].data)
    a = analyze(tree)
    assert a.flag.masks is not None
    expected = criterion.check_representation(tree, dataclasses.replace(a.flag, masks=None))
    assert expected.passed and not expected.distributivity_witnesses

    def refused(p):
        raise AssertionError("the count was taken")

    monkeypatch.setattr(criterion, "rank_count_excess", refused)
    assert a.report.to_json() == expected.to_json()


# draw 138 of random_representation at seed 7: an invertible loop, so its
# flag is {0, full}, its first-fit basis the standard one, and its matrix in
# that basis has two nonzeros in a row and in a column
SHEAR_LOOP = Representation(
    RATIONALS,
    (RepObject("o", 2),),
    (Generator("g", "o", "o", Matrix.build(RATIONALS, 2, 2, [[2, 0], [2, -1]])),),
)


def test_saturation_path_is_chosen_by_the_matching_test(monkeypatch):
    """A tree saturates on bitmasks; a cyclic input whose generator is not a
    matching in its bases saturates on subspaces.  Either way saturation is
    the second of two closures."""
    import invcat.pipeline as pipeline

    closures = []
    real = pipeline.compute_flag

    def counted(*args, **kwargs):
        closures.append(kwargs.get("coordinates"))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "compute_flag", counted)
    tree = parse_representation((DATA / "trisection.json").read_text())
    assert not quiver_shape(tree).has_undirected_cycle
    a = analyze(tree)
    assert not a.report.passed and closures == [None]  # failing: no saturation

    closures.clear()
    tree = parse_representation(
        _benchmark_corpus().make_corpus("conj_gf", 3, 6)[5].data
    )
    a = analyze(tree)
    assert a.flag.saturated and len(closures) == 2
    assert closures[0] is None and closures[1] is not None
    assert len(closures[1].matchings) == 2 * len(tree.generators)

    closures.clear()
    a = analyze(SHEAR_LOOP)
    assert a.flag.saturated and closures == [None, None]
    assert a.flag.sizes() == {"o": 2}


def test_cyclic_quiver_carries_bases_along_a_spanning_forest():
    """Draw 325 of random_representation at seed 7: a loop on a zero object
    makes the quiver cyclic, and its other component is one edge over Q.  The
    bases are carried along that edge, so it is a matching in them and the
    input saturates on bitmasks."""
    g = Matrix.build(RATIONALS, 3, 3, [[-2, -2, 1], [-2, -2, 0], [-2, 0, -1]])
    rep = Representation(
        RATIONALS,
        (RepObject("o0", 1), RepObject("o1", 0), RepObject("o2", 3), RepObject("o3", 3)),
        (
            Generator("g0", "o1", "o1", Matrix.zeros(RATIONALS, 0, 0)),
            Generator("g1", "o2", "o3", g),
        ),
    )
    assert quiver_shape(rep).has_undirected_cycle
    raw = analyze(rep, saturate=False)
    assert raw.passed
    _, _, coordinates = saturation_maps(rep, raw.bases)
    assert coordinates is not None
    a = analyze(rep)
    assert a.flag.saturated and a.saturation_note is None

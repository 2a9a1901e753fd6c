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
    GF,
    RATIONALS,
    Subspace,
    ClosureLimits,
    Matrix,
    analyze,
    build_poset,
    compute_flag,
    decompose,
    image,
    kernel,
    meet_closure,
    parse_representation,
    quiver_shape,
    sub_intersect,
    verify_decomposition,
)
from invcat.errors import ClosureDivergence, ValidationError
from invcat.flag import BasisCoordinates, Matching
from invcat.pipeline import _count_holds, _refuting_part
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


def _star_of_planes(rng, planes, p=10007):
    """``planes`` distinct random planes mapped into GF(p)^3 at a centre c."""
    field = GF(p)
    objects, gens, seen = [RepObject("c", 3)], [], set()
    while len(gens) < planes:
        m = Matrix.build(field, 3, 2, [[rng.randrange(p) for _ in range(2)] for _ in range(3)])
        plane = image(m)
        if plane.dim != 2 or plane in seen:
            continue
        seen.add(plane)
        k = len(gens)
        objects.append(RepObject(f"p{k}", 2))
        gens.append(Generator(f"g{k}", f"p{k}", "c", m))
    return Representation(field, tuple(objects), tuple(gens))


def test_a_refutation_builds_no_provenance_and_no_covers(monkeypatch):
    """A refuted star of planes is analysed and reported without a single
    ``Witness`` made or a poset's Hasse covers computed: the rank count
    reads each element's lower covers as it reaches it.  The provenance is
    still there, one witness per element, when read."""
    import invcat.flag as flag
    from invcat.jsontext import dumps

    made = []
    real = flag.Witness

    def spied(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(flag, "Witness", spied)
    a = analyze(_star_of_planes(random.Random(8), 8))
    doc = json.loads(dumps(a.standard_report.spliced_json()))
    assert not a.passed and doc["verdict"] == "fail"
    assert made == []
    for p in a.flag.posets.values():
        assert "covers" not in p.__dict__
    for oid, p in a.flag.posets.items():
        witnesses = a.flag.provenance[oid]
        assert len(witnesses) == len(p) and set(witnesses) == set(p.elements)
        assert all(isinstance(w, real) for w in witnesses.values())
    assert made


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
        assert part.elements == meet_closure(exc.value.reached[oid][:9]).elements
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


def _two_loops_on_q9():
    """Two loops on Q^9: a random a and the projection p onto the first two
    coordinates."""
    rng = random.Random(9)
    a = [[rng.choice([-1, 0, 0, 1, 2]) for _ in range(9)] for _ in range(9)]
    p = [[int(i == j < 2) for j in range(9)] for i in range(9)]
    return Representation(
        RATIONALS,
        (RepObject("x", 9),),
        (
            Generator("a", "x", "x", Matrix.build(RATIONALS, 9, 9, a)),
            Generator("p", "x", "x", Matrix.build(RATIONALS, 9, 9, p)),
        ),
    )


def _two_loops_on_gf2_9():
    """Two loops on GF(2)^9: a random a and the projection p onto the first
    four coordinates."""
    rng = random.Random(1)
    f = GF(2)
    a = [[rng.randrange(2) for _ in range(9)] for _ in range(9)]
    p = [[int(i == j < 4) for j in range(9)] for i in range(9)]
    return Representation(
        f,
        (RepObject("x", 9),),
        (
            Generator("a", "x", "x", Matrix.build(f, 9, 9, a)),
            Generator("p", "x", "x", Matrix.build(f, 9, 9, p)),
        ),
    )


def test_a_meet_closure_past_its_limit_stops_early(monkeypatch):
    """On the two loops on GF(2)^9 stopped at 1024 elements, the meet
    closure of the first 2^9 + 1 reached elements passes the limit of 1024.
    It takes its pairs largest first, where the meets are most often new,
    so it finds that out after fewer than 2,000 intersections (in
    ``sort_key`` pair order it takes some 72,000).  The input is committed
    as ``tests/inputs/two_loops_gf2_9.json``, which CI checks at the
    default limits."""
    import invcat.flag as flag

    rep = _two_loops_on_gf2_9()
    assert (ROOT / "tests" / "inputs" / "two_loops_gf2_9.json").read_text() == rep.serialize()
    with pytest.raises(ClosureDivergence) as exc:
        compute_flag(rep, ClosureLimits(max_elements_per_object=1024))
    reached = exc.value.reached["x"]
    calls = []

    def intersect(a, b):
        calls.append(None)
        return sub_intersect(a, b)

    monkeypatch.setattr(flag, "sub_intersect", intersect)
    assert meet_closure(reached[:2**9 + 1], 1024) is None
    assert len(calls) < 2000


def test_a_short_prefix_refutes_where_the_bound_passes_the_limit():
    """On the two loops on Q^9, at ClosureLimits(max_elements_per_object=100)
    the meet closure of the first 2^9 + 1 reached elements passes the
    element limit, so the bound's part is skipped; the second pass closes
    the first 8 reached elements to 14, which fail the count and refute the
    input."""
    rep = _two_loops_on_q9()
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
    assert part.elements == meet_closure(reached[:8]).elements
    assert len(part) == 14
    [w] = report.distributivity_witnesses
    assert w.object_id == "x"


def test_the_refuting_part_is_intersected_once(monkeypatch):
    """On the two loops on Q^9 at an element limit of 100, the
    ``meet_closure`` that returns the reported part intersects each pair of
    its elements at most once, and the part's poset, read off those meets
    with no second pass, equals the one ``build_poset`` validates pair by
    pair."""
    import invcat.flag as flag
    import invcat.pipeline as pipeline

    closures = []  # per meet_closure call: the pairs it intersects, its poset
    running = []  # the pairs of the meet_closure call running, if any

    def intersect(a, b):
        for pairs in running:
            pairs.append(frozenset((a, b)))
        return sub_intersect(a, b)

    def closure(elements, limit):
        running.append([])
        p = meet_closure(elements, limit)
        closures.append((running.pop(), p))
        return p

    with monkeypatch.context() as patched:
        patched.setattr(flag, "sub_intersect", intersect)
        patched.setattr(pipeline, "meet_closure", closure)
        analysis = analyze(_two_loops_on_q9(), ClosureLimits(max_elements_per_object=100))
    [part] = analysis.flag.posets.values()
    pairs, last = closures[-1]
    assert last is part
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) <= {frozenset((a, b)) for i, a in enumerate(part.elements) for b in part.elements[:i]}
    ref = build_poset(part.elements)
    assert (part.elements, part.down, part.covers) == (ref.elements, ref.down, ref.covers)


def test_cli_deterministic_across_processes(tmp_path):
    """Reports must not depend on hash randomization: a refuting ``check``,
    ``flag`` and ``envelope`` on a saturated flag, and ``decompose`` on an
    interval-sum tree, each under two hash seeds."""
    tree = tmp_path / "tree.json"
    tree.write_bytes(_benchmark_corpus().make_corpus("interval_q", 3, 4)[3].data)
    runs = [
        ("check", DATA / "trisection.json", 1),
        ("flag", DATA / "bisection.json", 0),
        ("envelope", DATA / "bisection.json", 0),
        ("decompose", tree, 0),
    ]
    for command, path, code in runs:
        outs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "invcat.cli", command, str(path)],
                capture_output=True,
                text=True,
                env={
                    "PYTHONHASHSEED": seed,
                    "PATH": "/usr/bin:/bin",
                    "PYTHONPATH": str(DATA.parent / "src"),
                },
                cwd=str(DATA.parent),
            )
            assert proc.returncode == code, (command, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], command
        json.loads(outs[0])


def _assert_same_flag(got, ref):
    assert got.to_json() == ref.to_json()
    for oid, p in ref.posets.items():
        q = got.posets[oid]
        assert (q.elements, q.down, q.covers) == (p.elements, p.down, p.covers)


def _saturation_maps(a):
    """The maps g† that adjoin the pseudo-inverses of the analysis ``a`` to a
    closure, and the ``BasisCoordinates`` of the generators and the g†, or
    None unless every generator's reading in ``a.bases`` is a matching."""
    gens = a.rep.generators
    extra = tuple(Generator(f"{g.id}†", g.cod, g.dom, a.pseudo_inverses[g.id]) for g in gens)
    matchings = [Matching.of(a.in_bases[g.id]) for g in gens]
    if None in matchings:
        return extra, None
    return extra, BasisCoordinates(a.bases, tuple(matchings + [m.dagger for m in matchings]))


def _read_as_matchings(a):
    return None not in [Matching.of(m) for m in a.in_bases.values()]


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
        extra, coordinates = _saturation_maps(raw)
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
    if not a.passed or not _read_as_matchings(a):
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
    assert _read_as_matchings(raw)
    a = analyze(rep)
    assert a.flag.saturated and a.saturation_note is None


@pytest.mark.xfail(
    strict=True,
    reason="known wrong pass on a directed cycle: check exits 0 (README, ROADMAP item 1)",
)
def test_two_loops_on_gf2_squared_are_refuted(tmp_path, capsys):
    """Two loops on GF(2)^2, a = [[0,0],[1,0]] and b = [[1,0],[1,1]], do not
    factor: b is invertible, so b a a† b⁻¹ would be an idempotent with the
    image of a a†, hence equal to it, and ker(a a†) a second b-invariant
    line, where b has one.  ``check`` passes it today; an exact verdict on
    directed cycles makes this test pass, and then the marker goes."""
    from invcat.cli import main

    doc = {
        "field": {"kind": "prime", "p": 2},
        "objects": [{"id": "x", "dim": 2}],
        "generators": [
            {"id": "a", "dom": "x", "cod": "x", "matrix": [[0, 0], [1, 0]]},
            {"id": "b", "dom": "x", "cod": "x", "matrix": [[1, 0], [1, 1]]},
        ],
    }
    path = tmp_path / "two_loops.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path)])
    capsys.readouterr()
    assert code == 1


@pytest.mark.xfail(
    strict=True,
    reason="known wrong verdicts on directed cycles (README, ROADMAP item 1)",
)
@pytest.mark.parametrize(
    "draw, command, code", [(195, "check", 1), (348, "envelope", 0), (436, "check", 1)]
)
def test_known_wrong_verdicts_on_directed_cycles(draw, command, code, capsys):
    """Draws of ``random_representation(random.Random(7))`` (0-based) with a
    directed cycle, at ``--max-rounds 8 --max-elements 200``.  Draw 195 does
    not factor, but ``check`` passes it with the note "saturation
    discarded".  Draw 348 factors, but ``envelope`` refutes it with an
    ``AxiomViolation``, since the pipeline's pseudo-inverses are the wrong
    ones.  Draw 436 does not factor, but its saturation closure diverges and
    ``check`` exits 2.  An exact verdict on directed cycles makes these
    pass, and then the marker goes."""
    from invcat.cli import main

    path = ROOT / "tests" / "inputs" / f"random7_draw{draw}.json"
    got = main([command, str(path), "--max-rounds", "8", "--max-elements", "200"])
    out = capsys.readouterr().out
    assert got == code
    if command == "envelope":
        assert json.loads(out)["verified"] is True


def test_a_passing_run_builds_only_the_pseudo_inverses_it_prints(tmp_path, capsys, monkeypatch):
    """On every passing instance of the ``interval_q`` and ``conj_gf`` corpora
    (seed 3), ``check`` and ``decompose`` build no pseudo-inverse: the
    saturation closes on bitmasks, and the transport pulls its vectors off
    block inverses.  ``envelope`` builds one per generator, when it reads
    them, and prints the document that the eagerly built pseudo-inverses of
    ``realize.pseudo_inverse`` give, as ``json.dumps`` writes it."""
    import invcat.pipeline as pipeline
    import invcat.realize as realize
    from invcat import verify_envelope
    from invcat.cli import main

    calls = []

    def counted(name, real):
        def spied(*args):
            calls.append(name)
            return real(*args)

        return spied

    # the pipeline calls it through its own binding
    from_coordinates = counted("from_coordinates", realize.pseudo_inverse_from_coordinates)
    monkeypatch.setattr(realize, "pseudo_inverse_from_coordinates", from_coordinates)
    monkeypatch.setattr(pipeline, "make_pseudo_inverse", from_coordinates)
    monkeypatch.setattr(realize, "pseudo_inverse", counted("pseudo_inverse", realize.pseudo_inverse))
    path = tmp_path / "rep.json"
    passing = 0
    for workload in ("interval_q", "conj_gf"):
        for inst in _benchmark_corpus().make_corpus(workload, 3, 96):
            path.write_bytes(inst.data)
            calls.clear()
            if main(["check", str(path)]) != 0:
                continue
            passing += 1
            assert main(["decompose", str(path)]) == 0 and calls == []
            capsys.readouterr()
            assert main(["envelope", str(path)]) == 0
            out = capsys.readouterr().out
            rep = parse_representation(inst.data)
            assert calls == ["from_coordinates"] * len(rep.generators)

            a = analyze(rep)
            eager = {
                g.id: realize.pseudo_inverse(g.matrix, a.bases[g.dom], a.bases[g.cod])
                for g in rep.generators
            }
            env = verify_envelope(rep, a.families, eager)
            doc = env.to_json()
            doc["command"], doc["verified"] = "envelope", True
            doc["families"] = {oid: fam.to_json() for oid, fam in sorted(a.families.items())}
            assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert passing == 192


def test_mask_closure_posets_are_the_validated_posets():
    """The posets a closure on bitmasks assembles, with its down-sets set
    while closing, are those ``build_poset`` validates and
    assembles from the same subspaces: on the saturated flags of the
    ``conj_gf`` corpus (seed 3) and on closures of random matchings."""
    from test_flag import _matching_representation

    flags = []
    for inst in _benchmark_corpus().make_corpus("conj_gf", 3, 96):
        a = analyze(parse_representation(inst.data))
        assert a.flag.masks is not None
        flags.append(a.flag)
    rng = random.Random(13)
    for _ in range(150):
        rep, coordinates = _matching_representation(rng, rng.choice([RATIONALS, GF(2), GF(5)]))
        try:
            flags.append(compute_flag(rep, coordinates=coordinates))
        except ClosureDivergence:
            continue
    assert len(flags) >= 200
    for flag in flags:
        for p in flag.posets.values():
            q = build_poset(p.elements)
            assert (p.elements, p.down, p.covers) == (q.elements, q.down, q.covers)

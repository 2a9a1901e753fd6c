import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

from invcat import (
    RATIONALS,
    ClosureLimits,
    Matrix,
    analyze,
    compute_flag,
    decompose,
    image,
    kernel,
    parse_representation,
    quiver_shape,
    verify_decomposition,
)
from invcat.errors import ClosureDivergence
from invcat.pipeline import saturation_maps
from invcat.rep import Generator, RepObject, Representation

from conftest import random_representation

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
    """The families are built once, on the saturated flag: the bisection flag
    saturates in one closure (3-chain to diamond)."""
    import invcat.pipeline as pipeline

    built = []
    real = pipeline.build_families
    monkeypatch.setattr(pipeline, "build_families", lambda flag: built.append(flag) or real(flag))
    a = analyze(bisection)
    assert len(built) == 1 and a.flag.sizes() == {"plane": 4}
    fresh = real(a.flag)
    assert {oid: f.projections for oid, f in a.families.items()} == {
        oid: f.projections for oid, f in fresh.items()
    }


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

import json
import subprocess
import sys
from pathlib import Path

from invcat import (
    ClosureLimits,
    Matrix,
    analyze,
    decompose,
    image,
    kernel,
    quiver_shape,
    verify_decomposition,
)
from invcat.errors import ClosureDivergence

from conftest import random_representation

DATA = Path(__file__).resolve().parents[1] / "data"


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

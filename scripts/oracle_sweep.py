#!/usr/bin/env python3
"""Sweep random meet-closed families over GF(2) and compare the verdict
(Moebius score and rank count) and the projection-family construction
against the exhaustive projection-family search; then compare the verdict
on every representation of a few small tree quivers against the exhaustive
blockcode-basis search.

On every draw, the verdict must equal the oracle's answer, and
``realize_projections`` must build a family that passes
``verify_projection_family`` exactly where the oracle finds one (and raise
``CriterionViolated`` elsewhere).  The score alone would not agree: families
of three coplanar lines inside a strictly larger ambient space score
nonnegative everywhere while no multiplicative projection family exists, and
only the rank count refutes them.  On the tree quivers (see
``small_tree_representations`` in tests/conftest.py), the verdict must pass
exactly where a blockcode basis exists, and every pass must decompose to a
certificate that ``verify_decomposition`` accepts, have projection families
that pass the exhaustive ``verify_projection_family``, and have an envelope
that ``verify_envelope`` closes within its limits with a pseudo-inverse for
every morphism.  Every disagreement is printed, and the exit status is 1
when there is any, 0 otherwise.

Usage: python scripts/oracle_sweep.py [--samples N] [--seed S]
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from invcat import (  # noqa: E402
    GF,
    ConstructionFailure,
    CriterionViolated,
    OracleInstance,
    ToolError,
    analyze,
    build_poset,
    decompose,
    oracle_blockcode_basis,
    oracle_exists_family,
    realize_projections,
    verify_decomposition,
    verify_envelope,
    verify_projection_family,
)
from invcat.criterion import poset_passes  # noqa: E402

from conftest import random_meet_closed_family, small_tree_representations  # noqa: E402


def realized(poset):
    """Whether ``realize_projections`` builds a family (it raises
    CriterionViolated otherwise), and the defects the exhaustive check finds
    in that family.  A ConstructionFailure is a defect in itself."""
    try:
        fam = realize_projections(poset)
    except CriterionViolated:
        return False, []
    except ConstructionFailure as e:
        return None, [e.message]
    return True, verify_projection_family(poset, fam.projections)


def decomposed(rep, analysis):
    """Whether a passing representation decomposes to a certificate that
    ``verify_decomposition`` accepts."""
    try:
        return verify_decomposition(rep, decompose(rep, analysis=analysis)).ok
    except ToolError:
        return False


def constructed(rep, analysis):
    """The defects of a passing representation's constructions: families
    that fail the exhaustive check, and an envelope that is bounded, raises
    ``AxiomViolation`` or lacks a pseudo-inverse."""
    defects = [
        f"family {oid}: {problem}"
        for oid, fam in sorted(analysis.families.items())
        for problem in verify_projection_family(fam.poset, fam.projections)
    ]
    try:
        env = verify_envelope(rep, analysis.families, analysis.pseudo_inverses)
    except ToolError as e:
        return defects + [f"envelope: {e.code}: {e.message}"]
    if env.bounded or not env.all_have_pseudo_inverse:
        defects.append(f"envelope: bounded={env.bounded} "
                       f"all_have_pseudo_inverse={env.all_have_pseudo_inverse}")
    return defects


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=400)
    ap.add_argument("--seed", type=int, default=12345)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    field = GF(2)
    start = time.time()
    mismatches = 0
    for k in range(args.samples):
        n = rng.choice([2, 3])
        fam = random_meet_closed_family(rng, field, n)
        poset = build_poset(fam)
        crit = poset_passes(poset)
        built, problems = realized(poset)
        orc, _ = oracle_exists_family(OracleInstance(field, n, tuple(fam)))
        if crit != orc or built != orc or problems:
            mismatches += 1
            print(f"[{k}] criterion={crit} realized={built} oracle={orc} "
                  f"defects={problems} family={json.dumps([s.to_json() for s in fam])}")
    rate = mismatches / args.samples
    print(f"{mismatches}/{args.samples} disagreements "
          f"({rate:.2%}) in {time.time() - start:.1f} s")
    start = time.time()
    trees = tree_mismatches = 0
    for rep in small_tree_representations():
        trees += 1
        a = analyze(rep)
        orc = oracle_blockcode_basis(rep)
        certified = decomposed(rep, a) if a.report.passed else None
        defects = constructed(rep, a) if a.report.passed else []
        if a.report.passed != orc or certified is False or defects:
            tree_mismatches += 1
            print(f"[tree] criterion={a.report.passed} oracle={orc} "
                  f"certified={certified} defects={defects} "
                  f"rep={json.dumps(rep.to_json())}")
    print(f"{tree_mismatches}/{trees} tree disagreements in {time.time() - start:.1f} s")
    return 1 if mismatches or tree_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

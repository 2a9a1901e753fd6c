"""End-to-end analysis: flag closure, criterion, saturation, families.

The raw closure sees only the generator maps, and the pass/fail verdict is
decided there: the criterion (score and rank count) on the raw flag is
invariant under change of basis, so the verdict is too.  When it passes, the flag is *saturated* as a
best-effort enrichment: projection families are built, generator
pseudo-inverses are synthesized, and the closure is re-run with those extra
maps until the per-object families stop growing.  The saturated flag is what
gets reported; it is the family of images reachable in the generated
envelope, which is what published worked examples depict.  Because the
synthesized family is one deterministic choice among many, a saturation pass
can occasionally produce a family on which the criterion goes negative; such
a pass is discarded (with a note) rather than allowed to flip the verdict.
Failing inputs are never saturated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .criterion import CriterionReport, check_representation
from .errors import ConstructionFailure, CriterionViolated
from .flag import ClosureLimits, FlagAssignment, compute_flag
from .linalg import Matrix
from .realize import ProjectionFamily, realize_projections
from .realize import pseudo_inverse as make_pseudo_inverse
from .rep import Generator, Representation

SATURATION_MAX_PASSES = 8


@dataclass(eq=False)
class Analysis:
    rep: Representation
    limits: ClosureLimits
    mu_mode: str
    flag: FlagAssignment
    report: CriterionReport
    standard_report: CriterionReport
    families: Optional[Dict[str, ProjectionFamily]]
    pseudo_inverses: Optional[Dict[str, Matrix]]
    saturation_note: Optional[str] = None


def build_families(flag: FlagAssignment) -> Dict[str, ProjectionFamily]:
    """Projection families of a passing flag, one per object, each read off
    the adapted basis of ``criterion.adapted_complements``."""
    return {
        oid: realize_projections(flag.posets[oid], object_id=oid)
        for oid in sorted(flag.posets)
    }


def _synthesize(
    rep: Representation, flag: FlagAssignment
) -> Tuple[Dict[str, ProjectionFamily], Dict[str, Matrix]]:
    """The projection families of ``flag`` and the generators' pseudo-inverses."""
    families = build_families(flag)
    pseudo_inverses = {
        g.id: make_pseudo_inverse(g.matrix, families[g.dom], families[g.cod])
        for g in rep.generators
    }
    return families, pseudo_inverses


def _saturate(
    rep: Representation,
    flag: FlagAssignment,
    report: CriterionReport,
    limits: ClosureLimits,
) -> Tuple[
    FlagAssignment,
    CriterionReport,
    Optional[Dict[str, ProjectionFamily]],
    Optional[Dict[str, Matrix]],
    Optional[str],
]:
    """Grow the passing flag (whose standard report is ``report``) with
    synthesized pseudo-inverse maps while it stays criterion-positive.
    Returns the final flag, its standard report, its families and
    pseudo-inverses (None where synthesis failed) and an optional note."""
    extra: Dict[Tuple[str, str, Matrix], Generator] = {}
    counters: Dict[str, int] = {}
    for _ in range(SATURATION_MAX_PASSES):
        try:
            families, pseudo_inverses = _synthesize(rep, flag)
        except (ConstructionFailure, CriterionViolated) as e:
            # A passing instance where synthesis fails is a theory gap;
            # keep the last good flag and surface the note prominently.
            return flag, report, None, None, f"saturation stopped: {e.code}: {e.message}"
        grew = False
        for g in rep.generators:
            m = pseudo_inverses[g.id]
            key = (g.cod, g.dom, m)
            if key not in extra:
                k = counters.get(g.id, 0)
                counters[g.id] = k + 1
                name = f"{g.id}†" if k == 0 else f"{g.id}†{k + 1}"
                extra[key] = Generator(id=name, dom=g.cod, cod=g.dom, matrix=m)
                grew = True
        if not grew and flag.saturated:
            return flag, report, families, pseudo_inverses, None
        new_flag = compute_flag(rep, limits, extra_maps=tuple(extra.values()))
        new_flag.saturated = True
        new_report = check_representation(rep, new_flag, "standard")
        if not new_report.passed:
            # The synthesized envelope is not inverse; enrichment would flip
            # the verdict, so it is dropped.  The raw-flag verdict stands.
            note = "saturation discarded: enlarged flag goes criterion-negative"
            return flag, report, families, pseudo_inverses, note
        if new_flag.element_sets() == flag.element_sets() and not grew:
            # same elements, so the families just built are this flag's too
            return new_flag, new_report, families, pseudo_inverses, None
        flag, report = new_flag, new_report
    note = "saturation stopped: pass limit reached"
    try:
        return (flag, report, *_synthesize(rep, flag), note)
    except (ConstructionFailure, CriterionViolated):
        return flag, report, None, None, note


def analyze(
    rep: Representation,
    limits: ClosureLimits = ClosureLimits(),
    mu_mode: str = "standard",
    saturate: bool = True,
) -> Analysis:
    flag = compute_flag(rep, limits)
    standard = check_representation(rep, flag, "standard")
    families: Optional[Dict[str, ProjectionFamily]] = None
    pseudo_inverses: Optional[Dict[str, Matrix]] = None
    note: Optional[str] = None

    if standard.passed and saturate:
        flag, standard, families, pseudo_inverses, note = _saturate(
            rep, flag, standard, limits
        )

    report = (
        standard
        if mu_mode == "standard"
        else check_representation(rep, flag, mu_mode)
    )
    return Analysis(
        rep=rep,
        limits=limits,
        mu_mode=mu_mode,
        flag=flag,
        report=report,
        standard_report=standard,
        families=families,
        pseudo_inverses=pseudo_inverses,
        saturation_note=note,
    )

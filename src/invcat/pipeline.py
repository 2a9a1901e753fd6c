"""End-to-end analysis: flag closure, criterion, adapted bases, saturation.

The raw closure sees only the generator maps, and the pass/fail verdict is
decided there: the criterion (score and rank count) on the raw flag is
invariant under change of basis, so the verdict is too.  When it passes,
``realize.transported_bases`` picks one adapted basis per object, and each
generator's pseudo-inverse is read off the bases at its two ends.  The flag
is then *saturated*: the closure is run once more with those pseudo-inverses
as extra maps, and the projection families are built on the result.  The
saturated flag is what gets reported; it is the family of images reachable
in the generated envelope, which is what published worked examples depict.

On a cycle-free quiver the generators and their pseudo-inverses carry basis
vectors to basis vectors or to zero, so every saturated element is spanned
by basis vectors, the bases stay adapted and the saturated flag passes.  On
a quiver with an undirected cycle the bases are each object's first-fit
basis, which need not be coherent across objects; where the saturated flag
then fails the criterion it is discarded, with a note, and the raw flag and
its families are reported.  Failing inputs are never saturated.

When the raw closure stops at a limit, the rank count is taken on the meet
closure of the elements it reached (``criterion.refute_partial``).  Where
the count fails there, the input is refuted: an adapted basis of the final
flag would be adapted to that part too.  Only where it holds is the
``ClosureDivergence`` raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .criterion import CriterionReport, check_representation, refute_partial
from .errors import ClosureDivergence
from .flag import ClosureLimits, FlagAssignment, compute_flag
from .linalg import Matrix
from .realize import ProjectionFamily, realize_projections, transported_bases
from .realize import pseudo_inverse as make_pseudo_inverse
from .rep import Generator, Representation


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
    # per object, the adapted basis (columns) of ``realize.transported_bases``
    bases: Optional[Dict[str, Matrix]] = None
    saturation_note: Optional[str] = None
    # set when the closure stopped at a limit; ``flag`` is then the meet
    # closure of the part it reached, and ``report`` refutes the input
    stopped: Optional[ClosureDivergence] = None


def build_families(flag: FlagAssignment) -> Dict[str, ProjectionFamily]:
    """Projection families of a passing flag, one per object, each read off
    the adapted basis of ``criterion.adapted_complements``."""
    return {
        oid: realize_projections(flag.posets[oid], object_id=oid)
        for oid in sorted(flag.posets)
    }


def _saturate(
    rep: Representation,
    flag: FlagAssignment,
    report: CriterionReport,
    limits: ClosureLimits,
    bases: Dict[str, Matrix],
) -> Tuple[
    FlagAssignment,
    CriterionReport,
    Dict[str, ProjectionFamily],
    Dict[str, Matrix],
    Optional[str],
]:
    """Close the passing flag (whose standard report is ``report``) under the
    pseudo-inverses read off ``bases``.  Returns the flag to report, its
    standard report, its families, the pseudo-inverses and an optional note.
    """
    pseudo_inverses = {
        g.id: make_pseudo_inverse(g.matrix, bases[g.dom], bases[g.cod])
        for g in rep.generators
    }
    extra = tuple(
        Generator(id=f"{g.id}†", dom=g.cod, cod=g.dom, matrix=pseudo_inverses[g.id])
        for g in rep.generators
    )
    saturated = compute_flag(rep, limits, extra_maps=extra)
    saturated.saturated = True
    saturated_report = check_representation(rep, saturated, "standard")
    if not saturated_report.passed:
        # The bases were not coherent across a cycle; enrichment would flip
        # the verdict, so it is dropped.  The raw-flag verdict stands.
        note = "saturation discarded: enlarged flag goes criterion-negative"
        return flag, report, build_families(flag), pseudo_inverses, note
    return saturated, saturated_report, build_families(saturated), pseudo_inverses, None


def _refute_stopped(
    rep: Representation, limits: ClosureLimits, mu_mode: str, stop: ClosureDivergence
) -> Analysis:
    """The analysis of an input whose raw closure stopped at a limit, where
    the rank count refutes the part it reached; otherwise ``stop`` is raised."""
    partial = stop.partial
    standard = partial and refute_partial(partial, "standard", stop.message)
    if standard is None:
        raise stop
    return Analysis(
        rep=rep,
        limits=limits,
        mu_mode=mu_mode,
        flag=partial,
        report=standard if mu_mode == "standard" else refute_partial(partial, mu_mode, stop.message),
        standard_report=standard,
        families=None,
        pseudo_inverses=None,
        stopped=stop,
    )


def analyze(
    rep: Representation,
    limits: ClosureLimits = ClosureLimits(),
    mu_mode: str = "standard",
    saturate: bool = True,
) -> Analysis:
    try:
        flag = compute_flag(rep, limits)
    except ClosureDivergence as stop:
        return _refute_stopped(rep, limits, mu_mode, stop)
    standard = check_representation(rep, flag, "standard")
    bases: Optional[Dict[str, Matrix]] = None
    families: Optional[Dict[str, ProjectionFamily]] = None
    pseudo_inverses: Optional[Dict[str, Matrix]] = None
    note: Optional[str] = None

    if standard.passed:
        bases = transported_bases(rep, flag)
        if saturate:
            flag, standard, families, pseudo_inverses, note = _saturate(
                rep, flag, standard, limits, bases
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
        bases=bases,
        saturation_note=note,
    )

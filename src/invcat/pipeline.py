"""End-to-end analysis: flag closure, rank count, adapted bases, saturation.

The raw closure sees only the generator maps, and the pass/fail verdict is
decided there by the rank count alone (``Analysis.passed``): where the count
holds at every object, the flag is a family of coordinate sets in an adapted
basis and no pair can score negative in standard mode (see ``criterion``).
The count is invariant under change of basis, so the verdict is too.  The
same count decides whether to saturate, whether to discard a saturated flag
and whether a stopped closure is refuted.  The criterion reports and the
projection families are built only when first read
(``Analysis.standard_report``, ``report`` and ``families``), so a command
that prints neither pays for neither; a failing report still lists the score
witnesses, and distributivity witnesses only where no pair scores negative.

When the count holds, ``realize.transported_bases`` picks one adapted basis
per object and hands over each generator's matrix in those bases, its
*reading* (``Analysis.in_bases``): on a forest edge of the transport, the
0/1 partial matching the transport built, and only on an edge that closes a
cycle the conjugate B_cod^-1 g B_dom.  Every later reader of a generator in
the bases reads it there: the saturation, the pseudo-inverses and
``decompose``.  The flag is then *saturated*: the closure is run once more
with the pseudo-inverses as extra maps.  The saturated flag is what gets
reported; it is the family of images reachable in the generated envelope,
which is what published worked examples depict.

Each basis is inverted at most once: the inverse is cached on its ``Matrix``
(``linalg.inverse``), and every reader calls ``realize.basis_inverse``.  On
a cycle-free quiver ``check`` inverts only the codomain bases of the
transport's pulls.  When every reading is a partial matching of basis
indices (``flag.Matching``), each pseudo-inverse's matrix in the bases is
the transposed matching; every saturated element is then spanned by basis
vectors, and the saturation closure runs on bitmasks of basis indices
(``flag.BasisCoordinates``).  That closure reads only the matchings and the
ids and ends of the maps, so no pseudo-inverse matrix is built for it:
``Analysis.pseudo_inverses`` builds them off the readings when first read,
which only ``envelope`` does.  The saturated flag then carries each
element's mask, and the passing path stays in the bases
(``Analysis.bases``) to the end: its report takes no rank count (it holds by
construction), each projection is read off its element's mask in the bases
(``build_families``), and the families hand the bases to
``realize.verify_envelope``, which closes the envelope on monomial maps in
them.  On a cycle-free quiver every reading is a matching, the bases stay
adapted and the saturated flag passes.  Otherwise the saturation closure
runs on subspaces, with the same result wherever both apply.  On a quiver
with an undirected cycle the edges that close a cycle need not respect the
transported bases; where the count then fails on the saturated flag it is
discarded, with a note, and the raw flag and its families are reported.
Failing inputs are never saturated.

When the raw closure stops at a limit, the ``ClosureDivergence`` carries
the elements it reached, all of which lie in the least fixpoint.  The meet
closure of some of them at an object is therefore a meet-closed part of the
final flag there, and an adapted basis of the final flag would be adapted to
it, so a count that fails on it refutes the input
(``criterion.refute_partial``).  A meet-closed family in dimension n on
which the count holds consists of coordinate sets of an adapted basis, so it
has at most 2^n elements.  So ``_refuting_part`` takes, at each object, the
meet closure of the first min(k, 2^n + 1) of its k reached elements: for
k > 2^n it has more than 2^n elements and fails the count, and for
k <= 2^n + 1 it contains the meet closure of the elements of the rounds
before the stopped one, so it fails wherever that does.  The first object,
by dimension and then id, where the count fails refutes the input with that
one-object part; an object whose part would pass the element limit is
skipped.  Where no part fails, a second pass, over the objects in the same
order, closes the first 2, 4, 8, ... reached elements below that bound: the
meet closure of any prefix is a meet-closed part of the final flag too, so
the first that fails the count refutes the input as soundly, also where the
bound's part passes the element limit.  Only where none fails is the
``ClosureDivergence`` raised.  Each part is one call of the refutation
kernel, the count on the poset ``flag.meet_closure`` returns for a prefix:
it closes the prefix by the flag closure's own driver, with no maps, and
reads the poset off the down-sets that sets.  Neither that poset nor None
above the limit depends on the order in which the pairs are met, so the
driver meets them largest first there, where the meets are most often new.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

from .criterion import (
    MU_MODES,
    CriterionReport,
    check_representation,
    rank_count_excess,
    refute_partial,
)
from .errors import ClosureDivergence, ValidationError
from .flag import Arrow, BasisCoordinates, ClosureLimits, FlagAssignment, Matching, compute_flag, meet_closure
from .linalg import Matrix
from .realize import (
    ProjectionFamily,
    basis_inverse,
    mask_projections,
    realize_projections,
    transported_bases,
)
from .realize import pseudo_inverse_from_coordinates as make_pseudo_inverse
from .rep import Generator, Representation


@dataclass(eq=False)
class Analysis:
    rep: Representation
    mu_mode: str
    flag: FlagAssignment
    # the standard verdict: the rank count holds at every object of ``flag``
    passed: bool
    # set when the count holds: per object, the adapted basis (columns) of
    # ``realize.transported_bases``, and each generator's matrix in those
    # bases, as the transport hands it over
    bases: Optional[Dict[str, Matrix]] = None
    in_bases: Optional[Dict[str, Matrix]] = None
    saturation_note: Optional[str] = None
    # set when the closure stopped at a limit; ``flag`` is then the
    # one-object part (without provenance) that ``report`` refutes the input on
    stopped: Optional[ClosureDivergence] = None

    def _report(self, mode: str) -> CriterionReport:
        if self.stopped is not None:
            return refute_partial(self.flag, mode, self.stopped.message)
        return check_representation(self.rep, self.flag, mode)

    @cached_property
    def standard_report(self) -> CriterionReport:
        return self._report("standard")

    @cached_property
    def report(self) -> CriterionReport:
        return self.standard_report if self.mu_mode == "standard" else self._report(self.mu_mode)

    @cached_property
    def pseudo_inverses(self) -> Optional[Dict[str, Matrix]]:
        """Each generator's pseudo-inverse, read off its matrix in ``bases``;
        None where the count fails."""
        if self.in_bases is None:
            return None
        return {
            g.id: make_pseudo_inverse(
                self.in_bases[g.id], self.bases[g.dom], basis_inverse(self.bases[g.cod])
            )
            for g in self.rep.generators
        }

    @cached_property
    def families(self) -> Optional[Dict[str, ProjectionFamily]]:
        """The projection families of the reported flag; None where the count
        fails."""
        return None if self.bases is None else build_families(self.flag, self.bases)


def _count_holds(flag: FlagAssignment) -> bool:
    return all(rank_count_excess(p) is None for p in flag.posets.values())


def _refuting_part(
    rep: Representation, stop: ClosureDivergence, limit: int
) -> Optional[FlagAssignment]:
    """The one-object part of a stopped closure on which the rank count
    refutes the input, or None (see the module docstring): the first poset
    ``meet_closure`` closes on a prefix, within ``limit``, on which
    ``rank_count_excess`` finds an excess.  Every prefix starts with the
    seeds 0 and the full space, which the closure needs.  The reached
    elements are dropped from ``stop``."""
    reached, stop.reached = stop.reached, None
    objects = sorted(rep.objects, key=lambda o: (o.dim, o.id))
    bound = {o.id: min(len(reached[o.id]), 2 ** o.dim + 1) for o in objects}
    # (object, prefix length): the bound's parts first, then 2, 4, 8, ... below it
    prefixes = [(o.id, bound[o.id]) for o in objects] + [
        (o.id, 1 << j) for o in objects for j in range(1, (bound[o.id] - 1).bit_length())
    ]
    for oid, k in prefixes:
        p = meet_closure(reached[oid][:k], limit)
        if p is not None and rank_count_excess(p) is not None:
            return FlagAssignment({oid: p}, {}, stop.detail["rounds"])
    return None


def build_families(flag: FlagAssignment, bases: Dict[str, Matrix]) -> Dict[str, ProjectionFamily]:
    """Projection families of a passing flag, one per object: on a flag
    saturated on bitmasks in ``bases`` each is read off the masks of its
    elements (``realize.mask_projections``), otherwise off the adapted basis
    of ``criterion.adapted_complements`` (``realize_projections``)."""
    if flag.masks is None:
        return {
            oid: realize_projections(flag.posets[oid], object_id=oid)
            for oid in sorted(flag.posets)
        }
    return {
        oid: mask_projections(flag.posets[oid], flag.masks[oid], bases[oid], oid)
        for oid in sorted(flag.posets)
    }


def _saturate(analysis: Analysis, limits: ClosureLimits) -> None:
    """Close the passing flag under the pseudo-inverses read off the
    analysis's bases, on bitmasks where every generator's reading is a
    matching, and record the flag to report and an optional note.

    On bitmasks the closure reads only the matchings and the ids and ends of
    the g†, so no pseudo-inverse is built.  Every saturated element is then
    a coordinate set of the bases and the family is meet-closed, so the rank
    count holds by construction and is not taken.  On subspaces the closure
    takes the pseudo-inverses as matrices, and the count decides whether the
    flag is kept.
    """
    rep = analysis.rep
    matchings = [Matching.of(analysis.in_bases[g.id]) for g in rep.generators]
    if None not in matchings:
        # a pseudo-inverse's matrix in the bases is the inverse matching
        matchings += [m.dagger for m in matchings]
        coordinates = BasisCoordinates(analysis.bases, tuple(matchings))
        arrows = [Arrow(f"{g.id}†", g.cod, g.dom) for g in rep.generators]
        analysis.flag = compute_flag(rep, limits, extra_maps=arrows, coordinates=coordinates)
        analysis.flag.saturated = True
        return
    daggers = analysis.pseudo_inverses
    extra = [Generator(f"{g.id}†", g.cod, g.dom, daggers[g.id]) for g in rep.generators]
    saturated = compute_flag(rep, limits, extra_maps=extra)
    saturated.saturated = True
    if _count_holds(saturated):
        analysis.flag = saturated
    else:
        # The bases were not coherent across a cycle; enrichment would flip
        # the verdict, so it is dropped.  The raw-flag verdict stands.
        analysis.saturation_note = "saturation discarded: enlarged flag goes criterion-negative"


def analyze(
    rep: Representation,
    limits: ClosureLimits = ClosureLimits(),
    mu_mode: str = "standard",
    saturate: bool = True,
) -> Analysis:
    if mu_mode not in MU_MODES:
        raise ValidationError(f"unknown mu mode {mu_mode!r}")
    try:
        flag = compute_flag(rep, limits)
    except ClosureDivergence as stop:
        part = _refuting_part(rep, stop, limits.max_elements_per_object)
        if part is None:
            raise
        # the traceback holds the closure's frames and all its state
        stopped = stop.with_traceback(None)
        return Analysis(rep, mu_mode, part, passed=False, stopped=stopped)
    analysis = Analysis(rep, mu_mode, flag, passed=_count_holds(flag))
    if analysis.passed:
        analysis.bases, analysis.in_bases = transported_bases(rep, flag)
        if saturate:
            _saturate(analysis, limits)
    return analysis

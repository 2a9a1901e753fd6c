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
per object, and each generator's pseudo-inverse is read off the bases at its
two ends.  The flag is then *saturated*: the closure is run once more with
those pseudo-inverses as extra maps.  The saturated flag is what gets
reported; it is the family of images reachable in the generated envelope,
which is what published worked examples depict.

Each basis is inverted at most once: the inverse is cached on its ``Matrix``
(``linalg.inverse``), and every reader calls ``realize.basis_inverse``.  The
inverse of each generator's codomain basis gives the generator's matrix in
the bases, from which its pseudo-inverse is read; ``check`` inverts no other
basis.  When each of those matrices has at most one nonzero entry per row
and per column, every generator is a partial matching of basis indices, and
its pseudo-inverse the transposed matching; every saturated element is then
spanned by basis vectors, and the saturation closure runs on bitmasks of
basis indices (``flag.BasisCoordinates``).  That closure reads only the
matchings and the ids and ends of the maps, so no pseudo-inverse matrix is
built for it: ``Analysis.pseudo_inverses`` builds them when first read,
which only ``envelope`` does.  The saturated flag then carries each
element's mask, and the passing path stays in the bases
(``Analysis.bases``) to the end: its report takes no rank count (it holds by
construction), each projection is read off its element's mask in the bases
(``build_families``), and the families hand the bases to
``realize.verify_envelope``, which closes the envelope on monomial maps in
them.  The bases are transported along a spanning forest of the quiver, so
that always holds on a cycle-free quiver, where the bases stay adapted and
the saturated flag passes.  Otherwise the saturation closure runs on
subspaces, with the same result wherever both apply.  On a quiver with an
undirected cycle the edges that close a cycle need not respect the
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
kernel, the count on the poset ``poset.meet_closure`` returns for a prefix:
it intersects each pair of the part once and reads the poset off those
meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from .criterion import (
    MU_MODES,
    CriterionReport,
    check_representation,
    rank_count_excess,
    refute_partial,
)
from .errors import ClosureDivergence, ValidationError
from .flag import Arrow, BasisCoordinates, ClosureLimits, FlagAssignment, Matching, compute_flag
from .linalg import Matrix
from .poset import meet_closure
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
    # per object, the adapted basis (columns) of ``realize.transported_bases``
    bases: Optional[Dict[str, Matrix]] = None
    # set when the count holds and the flag was saturated: each generator's
    # matrix in ``bases``, off which its pseudo-inverse is read
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
        """Each generator's pseudo-inverse, read off ``bases``; None unless
        the flag passed and was saturated.  A saturation on subspaces closes
        under them and sets them; on bitmasks they are built here, when first
        read, which only ``envelope`` does."""
        if self.in_bases is None:
            return None
        return _read_pseudo_inverses(self.rep, self.bases, self.in_bases)

    @cached_property
    def families(self) -> Optional[Dict[str, ProjectionFamily]]:
        """The projection families of the reported flag; None unless it passed
        and was saturated."""
        return None if self.in_bases is None else build_families(self.flag, self.bases)


def _count_holds(flag: FlagAssignment) -> bool:
    return all(rank_count_excess(p) is None for p in flag.posets.values())


def _refuting_part(
    rep: Representation, stop: ClosureDivergence, limit: int
) -> Optional[FlagAssignment]:
    """The one-object part of a stopped closure on which the rank count
    refutes the input, or None (see the module docstring): the first poset
    ``meet_closure`` closes on a prefix, within ``limit``, on which
    ``rank_count_excess`` finds an excess.  The reached elements are dropped
    from ``stop``."""
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


def _generator_coordinates(rep: Representation, bases: Dict[str, Matrix]) -> Dict[str, Matrix]:
    """Each generator's matrix in ``bases``, B_cod^-1 g B_dom.  Only the
    codomains' bases are inverted."""
    inverses = {g.cod: basis_inverse(bases[g.cod]) for g in rep.generators}
    return {g.id: inverses[g.cod] @ g.matrix @ bases[g.dom] for g in rep.generators}


def _read_pseudo_inverses(
    rep: Representation, bases: Dict[str, Matrix], in_bases: Dict[str, Matrix]
) -> Dict[str, Matrix]:
    """Each generator's pseudo-inverse, read off its matrix in ``bases``."""
    return {
        g.id: make_pseudo_inverse(in_bases[g.id], bases[g.dom], basis_inverse(bases[g.cod]))
        for g in rep.generators
    }


def _matchings(
    rep: Representation, bases: Dict[str, Matrix], in_bases: Dict[str, Matrix]
) -> Optional[BasisCoordinates]:
    """The ``BasisCoordinates`` of the generators and their pseudo-inverses,
    or None unless every generator's matrix in ``bases`` is a matching."""
    matchings = [Matching.of(in_bases[g.id]) for g in rep.generators]
    if None in matchings:
        return None
    # a pseudo-inverse's matrix in the bases is the inverse matching
    return BasisCoordinates(bases, tuple(matchings + [m.dagger for m in matchings]))


def _dagger_maps(rep: Representation, daggers: Dict[str, Matrix]) -> Tuple[Generator, ...]:
    """The maps g† that adjoin the pseudo-inverses ``daggers`` to a closure."""
    return tuple(
        Generator(id=f"{g.id}†", dom=g.cod, cod=g.dom, matrix=daggers[g.id])
        for g in rep.generators
    )


def saturation_maps(
    rep: Representation, bases: Dict[str, Matrix]
) -> Tuple[Dict[str, Matrix], Tuple[Generator, ...], Optional[BasisCoordinates]]:
    """The pseudo-inverses read off ``bases``, the maps g† that adjoin them to
    the closure, and the ``BasisCoordinates`` of the generators and the g†,
    or None unless every generator's matrix in ``bases`` is a matching."""
    in_bases = _generator_coordinates(rep, bases)
    daggers = _read_pseudo_inverses(rep, bases, in_bases)
    return daggers, _dagger_maps(rep, daggers), _matchings(rep, bases, in_bases)


def _saturate(analysis: Analysis, limits: ClosureLimits) -> None:
    """Close the passing flag under the pseudo-inverses read off the
    analysis's bases, on bitmasks where every generator is a matching in the
    bases, and record the flag to report and an optional note.

    On bitmasks the closure reads only the matchings and the ids and ends of
    the g†, so no pseudo-inverse is built (``Analysis.pseudo_inverses``
    builds them when first read).  Every saturated element is then a
    coordinate set of the bases and the family is meet-closed, so the rank
    count holds by construction and is not taken.  On subspaces the
    closure takes the pseudo-inverses as matrices, and the count decides
    whether the flag is kept.
    """
    rep, bases = analysis.rep, analysis.bases
    in_bases = analysis.in_bases = _generator_coordinates(rep, bases)
    coordinates = _matchings(rep, bases, in_bases)
    if coordinates is not None:
        arrows = [Arrow(f"{g.id}†", g.cod, g.dom) for g in rep.generators]
        analysis.flag = compute_flag(rep, limits, extra_maps=arrows, coordinates=coordinates)
        analysis.flag.saturated = True
        return
    # set on the cached property, which is then not computed again
    daggers = analysis.pseudo_inverses = _read_pseudo_inverses(rep, bases, in_bases)
    saturated = compute_flag(rep, limits, extra_maps=_dagger_maps(rep, daggers))
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
        # the traceback holds the closure's frames and its whole meet record
        stopped = stop.with_traceback(None)
        return Analysis(rep, mu_mode, part, passed=False, stopped=stopped)
    analysis = Analysis(rep, mu_mode, flag, passed=_count_holds(flag))
    if analysis.passed:
        analysis.bases = transported_bases(rep, flag)
        if saturate:
            _saturate(analysis, limits)
    return analysis

"""The factorization criterion: Moebius-weighted dimension sums over flags,
completed by a rank count that makes the verdict exact.

For a poset P of subspaces at one object and a pair (b, c) of elements, the
score is

    sum over a <= b of  mu(a) * (dim a - dim(a meet c))

with mu(a) = two_var(a, b) in "standard" mode and mu(a) = one_var(a) in
"literal" mode.  Standard mode is the default: it is the reading under
which known worked examples come out right; literal mode is kept so the
divergence between the two is observable.

A negative score refutes factorization, but a nonnegative one does not
prove it: three coplanar lines in a 3-space score >= 0 on every pair, yet
no multiplicative projection family exists.  The verdict therefore also
takes the rank count.  For each element b let

    r(b) = dim b - dim(sum of the lower covers of b).

Complements of the lower-cover sums, one per element
(``adapted_complements``), together span the space, and they form a basis
exactly when the r(b) add up to the ambient dimension.  In that basis every
element is spanned by a subset of the basis, and coordinate projections
multiply as meets do; the projection families are built from exactly these
complements.  Conversely, the projections of a multiplicative family
commute, so they are simultaneously diagonalizable, and a joint eigenbasis
makes the count come out equal.  So the count holds exactly when a
projection family exists.

The score never needs the two-variable Moebius table.  Let

    rho(b) = dim b - sum(rho(a) for a < b)

be the Moebius inverse of dimension, so that dim x = sum(rho(y) for
y <= x).  Then the standard score of (b, c) is rho(b) when b is not below c,
and 0 when it is.  For, with dim(a meet c) = sum(rho(y) for y <= a meet c)
and sum(mu(a, b) for y <= a <= b) = [y = b] (Rota, *On the foundations of
combinatorial theory I*, 1964),

    sum over a <= b of mu(a, b) dim(a meet c)
        = sum over y <= b meet c of rho(y) [y = b] = rho(b) [b <= c],

while the same sum over dim a alone is rho(b).  Both scores depend on c only
through b meet c, since a meet c = a meet (b meet c) for a <= b: they are
summed once per element m of b's down-set and read off for every c with
b meet c = m.  Nothing on the verdict or report path builds ``mobius``.

A representation passes when, at every object, every ordered pair scores
>= 0 and the count equals the ambient dimension.  Where the count holds the
elements are coordinate sets in that basis, and then rho(b) = r(b) =
dim C_b, so no standard score is negative.  So the count alone decides the
standard verdict, and ``pipeline`` takes nothing else; the score is taken
only for a report that gets printed.  In a report the score's witnesses take
precedence: the count's distributivity witnesses are listed only when no
pair scores negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .errors import ValidationError
from .flag import FlagAssignment
from .linalg import Subspace, complement_within
from .poset import SubspacePoset, mobius_invert
# unused here, kept bound so that per-layer tracers can wrap it by name
from .poset import mobius  # noqa: F401
from .rep import Representation

MU_MODES = ("standard", "literal")


class CriterionValue(NamedTuple):
    """One pair (b, c) at an object that scores negative in ``mu_mode``.

    A refutation lists every such pair, about 1,700 on a star of 14 planes,
    so a witness is a plain tuple, which is built faster than a frozen
    dataclass.  It compares and hashes by its fields, and so equals a plain
    tuple of the same fields."""

    object_id: str
    b: Subspace
    c: Subspace
    value: int
    mu_mode: str

    def to_json(self) -> dict:
        return {
            "object": self.object_id,
            "b_basis": self.b.json_rows(),
            "c_basis": self.c.json_rows(),
            "value": self.value,
        }


@dataclass(frozen=True)
class DistributivityWitness:
    """The least element b of a flag at which the rank count exceeds dim b:
    the complements counted below b are linearly dependent, so no basis is
    adapted to the flag."""

    object_id: str
    b: Subspace
    count: int

    def to_json(self) -> dict:
        return {
            "object": self.object_id,
            "b_basis": self.b.json_rows(),
            "dim": self.b.dim,
            "count": self.count,
        }


@dataclass(eq=False)
class CriterionReport:
    passed: bool
    mu_mode: str
    witnesses: Tuple[CriterionValue, ...]
    distributivity_witnesses: Tuple[DistributivityWitness, ...]
    poset_sizes: Dict[str, int]
    mode_disagreements: int
    disagreement_examples: Tuple[CriterionValue, ...]
    saturated: bool
    # set when the closure stopped at a limit and the count refuted its part
    closure_note: Optional[str] = None

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        doc = {
            "verdict": self.verdict,
            "mu_mode": self.mu_mode,
            "witnesses": [w.to_json() for w in self.witnesses],
            "poset_sizes": dict(sorted(self.poset_sizes.items())),
            "mode_disagreements": self.mode_disagreements,
            "disagreement_examples": [w.to_json() for w in self.disagreement_examples],
            "saturated": self.saturated,
        }
        if self.distributivity_witnesses:
            doc["distributivity_witnesses"] = [
                w.to_json() for w in self.distributivity_witnesses
            ]
        if self.closure_note:
            doc["closure_note"] = self.closure_note
        return doc


def _scores_of(p: SubspacePoset) -> Callable[[int], Dict[int, Tuple[int, int]]]:
    """For one poset, the function that maps an element b to the scores of
    its pairs by meet: ``{m: (standard, literal)}`` over the m <= b, each the
    score of every (b, c) with b meet c = m.

    The standard score is rho(b) unless m = b (see the module docstring).
    rho (the Moebius inverse of dimension) and one_var (that of the
    indicator of the zero element) are computed once, by ``mobius_invert``'s
    recursion.  The literal score of (b, c) is the sum of
    one_var(a) (dim a - dim(a meet m)) over the a <= b with one_var(a) != 0.
    """
    n = len(p.elements)
    dims = [s.dim for s in p.elements]
    rho = mobius_invert(p, dims)
    one = mobius_invert(p, [1] + [0] * (n - 1))
    leq, meet = p.leq, p.meet_table

    def scores(bi: int) -> Dict[int, Tuple[int, int]]:
        down = [ai for ai in range(bi + 1) if leq[ai][bi]]
        terms = [(ai, one[ai]) for ai in down if one[ai]]
        top = sum(w * dims[ai] for ai, w in terms)
        return {
            m: (
                0 if m == bi else rho[bi],
                top - sum(w * dims[meet[m][ai]] for ai, w in terms),
            )
            for m in down
        }

    return scores


def evaluate_pair(
    p: SubspacePoset,
    b: Subspace,
    c: Subspace,
    mode: str = "standard",
) -> int:
    if mode not in MU_MODES:
        raise ValidationError(f"unknown mu mode {mode!r}")
    bi, ci = p.index_of(b), p.index_of(c)
    v_std, v_lit = _scores_of(p)(bi)[p.meet_table[bi][ci]]
    return v_std if mode == "standard" else v_lit


def check_poset(
    p: SubspacePoset,
) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, int, int]], int]:
    """All-pairs scan of one poset, on element indices.

    Returns (standard-mode negatives, literal-mode negatives, count of pairs
    where the two modes land on different sides of zero).  A negative is
    ``(b index, c index, score)``; both lists are in index order, b-major,
    which is the order of ``Subspace.sort_key`` since the elements are
    sorted by it.  A b none of whose meets scores negative in either mode
    contributes nothing, and its row of the meet table is not read.
    """
    scores = _scores_of(p)
    std_neg: List[Tuple[int, int, int]] = []
    lit_neg: List[Tuple[int, int, int]] = []
    disagreements = 0
    for bi, row in enumerate(p.meet_table):
        negative = {m: v for m, v in scores(bi).items() if v[0] < 0 or v[1] < 0}
        if not negative:
            continue
        for ci, m in enumerate(row):
            v = negative.get(m)
            if v is None:
                continue
            v_std, v_lit = v
            if v_std < 0:
                std_neg.append((bi, ci, v_std))
            if v_lit < 0:
                lit_neg.append((bi, ci, v_lit))
            if (v_std < 0) != (v_lit < 0):
                disagreements += 1
    return std_neg, lit_neg, disagreements


def _complements_in_order(p: SubspacePoset) -> Iterator[Subspace]:
    """C_b for each element b, in index order: the complement inside b of the
    span of the rows of all of b's lower covers (one elimination where b
    has more than one)."""
    elems = p.elements
    lower: List[List[Subspace]] = [[] for _ in elems]
    for i, j in p.covers:
        lower[j].append(elems[i])
    zero = elems[p.zero_index]
    for b, covers in zip(elems, lower):
        if len(covers) > 1:
            rows = [r for s in covers for r in s._ints()[0]]
            below = Subspace.span(p.field, p.ambient_dim, rows)
        else:
            below = covers[0] if covers else zero
        yield complement_within(b, below)


def adapted_complements(p: SubspacePoset) -> Tuple[Subspace, ...]:
    """For each element b, in index order, the complement C_b inside b of the
    sum of b's lower covers (``linalg.complement_within``).

    This is the one adapted-basis construction: r(b) = dim C_b is the rank
    count, and where the count holds the C_b together are a basis in which
    every element is spanned by the C_a with a <= b, which is what
    ``realize`` reads the projection families and the transported bases off.
    Computed once per poset and cached on it.
    """
    comps = p._complements
    if comps is None:
        comps = tuple(_complements_in_order(p))
        object.__setattr__(p, "_complements", comps)
    return comps


def rank_count_excess(p: SubspacePoset) -> Optional[Tuple[int, int]]:
    """Where the rank count of one poset fails, or None where it holds.

    Scans the elements in index order (a linear extension) and returns
    ``(index of b, count)`` for the first b whose cumulative count
    sum(r(a) for a <= b) exceeds dim b.  The count is never below dim b, and
    it exceeds it at some element exactly when it exceeds the ambient
    dimension at the full space.  The complements are built as the scan
    reaches them, so a scan stops at the first excess, which is cached; one
    that completes caches the complements as ``adapted_complements`` does.
    """
    if p._excess is not None:
        return p._excess
    found: List[Subspace] = []
    r: List[int] = []
    for bi, c in enumerate(p._complements or _complements_in_order(p)):
        found.append(c)
        r.append(c.dim)
        count = sum(r[ai] for ai in range(bi + 1) if p.leq[ai][bi])
        if count > p.elements[bi].dim:
            object.__setattr__(p, "_excess", (bi, count))
            return bi, count
    object.__setattr__(p, "_complements", tuple(found))
    return None


def poset_passes(p: SubspacePoset, mode: str = "standard") -> bool:
    """The verdict on one poset: every pair scores >= 0 in ``mode`` and the
    rank count holds, i.e. a multiplicative projection family exists (in
    standard mode).  Every m <= b is the meet of (b, m), so a score by meet
    stands for at least one pair."""
    if mode not in MU_MODES:
        raise ValidationError(f"unknown mu mode {mode!r}")
    k = MU_MODES.index(mode)
    scores = _scores_of(p)
    return (
        all(v[k] >= 0 for bi in range(len(p.elements)) for v in scores(bi).values())
        and rank_count_excess(p) is None
    )


def _distributivity_witnesses(flag: FlagAssignment) -> List[DistributivityWitness]:
    """One witness for each object, in id order, where the rank count fails."""
    found = []
    for oid in sorted(flag.posets):
        p = flag.posets[oid]
        excess = rank_count_excess(p)
        if excess is not None:
            found.append(DistributivityWitness(oid, p.elements[excess[0]], excess[1]))
    return found


def refute_partial(flag: FlagAssignment, mode: str, reason: str) -> CriterionReport:
    """The refutation of an input whose closure stopped at a limit, where the
    rank count fails on ``flag``: a meet-closed part, at one object, of the
    elements the closure reached (``pipeline._refuting_part``).

    Every reached element lies in the least fixpoint, and an adapted basis
    of the final flag is adapted to every meet-closed subfamily of it, so a
    count that fails on ``flag`` refutes the input.  The report fails with
    the distributivity witnesses and a note naming ``reason`` and the round.
    The score is not taken, so the report has no score witnesses and no mode
    disagreements.
    """
    if mode not in MU_MODES:
        raise ValidationError(f"unknown mu mode {mode!r}")
    return CriterionReport(
        passed=False,
        mu_mode=mode,
        witnesses=(),
        distributivity_witnesses=tuple(_distributivity_witnesses(flag)),
        poset_sizes=flag.sizes(),
        mode_disagreements=0,
        disagreement_examples=(),
        saturated=False,
        closure_note=(
            f"closure stopped ({reason}); the rank count fails on the meet closure "
            f"of elements reached by round {flag.rounds}"
        ),
    )


def check_representation(
    rep: Representation,
    flag: FlagAssignment,
    mode: str = "standard",
) -> CriterionReport:
    """Evaluate every object and every ordered pair; collect all violations.

    Each poset gets one ``check_poset`` scan.  The witnesses are the
    negatives of ``mode``, ordered by object id and then by the ``sort_key``
    of b and of c, which is the scan's index order.  The disagreement
    examples are the first ten pairs in the same order that score negative
    in the other mode alone; ``CriterionValue`` objects are made only for
    the witnesses and those ten.

    When no pair scores negative, the rank count is taken at every object and
    each object where it fails contributes one distributivity witness; a
    flag closed on bitmasks passes it by construction, and it is not taken
    there."""
    if mode not in MU_MODES:
        raise ValidationError(f"unknown mu mode {mode!r}")
    other_mode = "literal" if mode == "standard" else "standard"
    witnesses: List[CriterionValue] = []
    disagreement_examples: List[CriterionValue] = []
    disagreements = 0
    for oid in sorted(flag.posets):
        p = flag.posets[oid]
        elems = p.elements
        std_neg, lit_neg, dis = check_poset(p)
        disagreements += dis
        chosen, other = (std_neg, lit_neg) if mode == "standard" else (lit_neg, std_neg)
        witnesses.extend(CriterionValue(oid, elems[bi], elems[ci], v, mode) for bi, ci, v in chosen)
        if len(disagreement_examples) < 10:
            seen = {(bi, ci) for bi, ci, _ in chosen}
            for bi, ci, v in other:
                if (bi, ci) not in seen:
                    example = CriterionValue(oid, elems[bi], elems[ci], v, other_mode)
                    disagreement_examples.append(example)
                    if len(disagreement_examples) == 10:
                        break
    # a flag closed on bitmasks is a meet-closed family of coordinate sets,
    # on which the count holds by construction
    distributivity = [] if witnesses or flag.masks is not None else _distributivity_witnesses(flag)
    return CriterionReport(
        passed=not witnesses and not distributivity,
        mu_mode=mode,
        witnesses=tuple(witnesses),
        distributivity_witnesses=tuple(distributivity),
        poset_sizes=flag.sizes(),
        mode_disagreements=disagreements,
        disagreement_examples=tuple(disagreement_examples),
        saturated=flag.saturated,
    )

"""The factorization criterion: Moebius-weighted dimension sums over flags,
completed by a rank count that makes the verdict exact.

For a poset P of subspaces at one object and a pair (b, c) of elements, the
score is

    sum over a <= b of  mu(a) * (dim a - dim(a meet c))

with mu(a) = two_var(a, b) in "standard" mode and mu(a) = one_var(a) in
"literal" mode.  Standard mode is the default: it is the reading under
which known worked examples come out right; literal mode is kept, under
``--mu literal``, so the divergence between the two is observable.

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

while the same sum over dim a alone is rho(b).  So the standard negatives
of b are the c outside b's up-set, where rho(b) < 0, and no meet is read.
The literal score depends on c only through m = b meet c, since
a meet c = a meet (b meet c) for a <= b, and with F_b(y) the sum of one_var
over [y, b],

    sum over a <= b of one_var(a) dim(a meet m)
        = sum over y <= m of rho(y) F_b(y),

so it is summed once per element m of b's down-set.  The c with
b meet c = m are those above m and above no element of (m, b], so the pairs
of each meet class are counted by a popcount of up-set masks, and listed
only where they are printed.  Everything is read off the poset's down-set
masks: nothing on the verdict or report path builds ``mobius`` or an
n x n view of the order.

A representation passes when, at every object, every ordered pair scores
>= 0 and the count equals the ambient dimension.  Where the count holds the
elements are coordinate sets in that basis, and then rho(b) = r(b) =
dim C_b, so no standard score is negative.  So the count alone decides the
standard verdict, and ``pipeline`` takes nothing else; the score is taken
only for a report that gets printed.  In a report the score's witnesses take
precedence: the count's distributivity witnesses are listed only when no
pair scores negative.  The literal mode is scored only where it is read: for
the witnesses of a literal report, and for the mode disagreements and their
examples, counted when first read, which only a literal report that scored
something prints; a standard report takes no one_var.  An atom b, with
down(b) = {0, b}, meets every c outside up(b) in 0, where it scores
rho(b) > 0 in standard mode and -rho(b) in literal mode, so its
disagreements are those c, counted by one popcount.

A report reads its witnesses off runs (``_Scores.runs``): b, a score and the
mask of the c, as long as b and the score stay the same, so a standard run
is the whole product b x (complement of up(b)).  ``CriterionReport.to_json``
returns them as plain lists of ``CriterionValue.to_json`` dicts, for
library callers.  The CLI prints ``spliced_json`` instead, where the witness
list is a ``jsontext.Splice``: it renders each element's basis once and
writes each run as one join of its c's bases within a frame fixed by b, the
object and the score, with the same bytes and no witness built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, groupby
from operator import itemgetter, mul
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple
from weakref import ref

from .errors import ValidationError
from .flag import FlagAssignment
from .jsontext import Splice, block, separator
from .linalg import Subspace, complement_within
from .poset import SubspacePoset, bits, members, mobius_invert
# unused here, kept bound so that per-layer tracers can wrap it by name
from .poset import mobius  # noqa: F401
from .rep import Representation

MU_MODES = ("standard", "literal")


class CriterionValue(NamedTuple):
    """One pair (b, c) at an object that scores negative in ``mu_mode``.

    A refutation has about 1,700 such pairs on a star of 14 planes.  They
    are built only for a caller that reads ``CriterionReport.witnesses`` or
    ``to_json()``, and for the ten disagreement examples, which only a
    literal report prints; a printed report writes its witnesses off the
    score's runs without them.  A witness compares and hashes by its
    fields, and so equals a plain tuple of the same fields."""

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


# a witness's keys in the order of ``CriterionValue.to_json``; sorted, they
# are b_basis, c_basis, object, value
_WITNESS_KEYS = ("object", "b_basis", "c_basis", "value")


@dataclass(eq=False)
class CriterionReport:
    passed: bool
    mu_mode: str
    distributivity_witnesses: Tuple[DistributivityWitness, ...]
    poset_sizes: Dict[str, int]
    saturated: bool
    # set when the closure stopped at a limit and the count refuted its part
    closure_note: Optional[str] = None
    # the scored posets by object id, in id order, off which the witnesses
    # and the mode disagreements are read when first asked for; none where
    # the score is not taken
    scored: Tuple[Tuple[str, SubspacePoset], ...] = ()

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def _runs(self) -> Iterator[Tuple[str, SubspacePoset, int, int, int]]:
        """The witnesses as runs ``(object id, poset, b, score, the mask of
        the c)`` (``_Scores.runs``), ordered by object id and then by the
        ``sort_key`` of b and of c: the one source of ``witnesses`` and of
        both documents."""
        for oid, p in self.scored:
            for bi, v, cs in _scores_of(p).runs(self.mu_mode):
                yield oid, p, bi, v, cs

    @cached_property
    def witnesses(self) -> Tuple[CriterionValue, ...]:
        """Every pair that scores negative in ``mu_mode``, in the runs' order."""
        return tuple(
            CriterionValue(oid, p.elements[bi], c, v, self.mu_mode)
            for oid, p, bi, v, cs in self._runs()
            for c in compress(p.elements, bits(cs))
        )

    def _write_witnesses(self, render: Any, depth: int) -> str:
        """The text ``jsontext.dumps`` writes for ``to_json()``'s witness list
        at ``depth``, written off the runs.  Each scored poset's element
        bases are rendered once, by one ``render.matrices`` call (over
        GF(p) one exact-int check, then each basis straight from its
        frame), and each run is one join of its c's bases within a frame
        fixed by b, the object and the score."""
        order, prefixes, close = render.layout(_WITNESS_KEYS, depth + 1)
        key = dict(zip(order, prefixes))
        sep = separator(depth)
        runs: List[str] = []
        shown = None
        for oid, p, bi, v, cs in self._runs():
            if p is not shown:
                shown = p
                bases = render.matrices([s.json_rows() for s in p.elements], depth + 2)
                object_text = key["object"] + render.value(oid, depth + 2)
            head = key["b_basis"] + bases[bi] + key["c_basis"]
            tail = object_text + key["value"] + render.value(v, depth + 2) + close
            runs.append(head + (tail + sep + head).join(compress(bases, bits(cs))) + tail)
        return block(runs, depth) if runs else "[]"

    @cached_property
    def mode_disagreements(self) -> int:
        """The number of pairs on which the two modes land on different
        sides of zero."""
        return sum(_scores_of(p).disagreements() for _, p in self.scored)

    @cached_property
    def disagreement_examples(self) -> Tuple[CriterionValue, ...]:
        """The first ten pairs, in the witnesses' order, that score negative
        in the other mode alone, valued in that mode."""
        other = "literal" if self.mu_mode == "standard" else "standard"
        found: List[CriterionValue] = []
        for oid, p in self.scored:
            elems = p.elements
            for bi, ci, v in _scores_of(p).negatives_of(other, alone=True):
                found.append(CriterionValue(oid, elems[bi], elems[ci], v, other))
                if len(found) == 10:
                    return tuple(found)
        return tuple(found)

    def to_json(self) -> dict:
        """The report as plain JSON values."""
        return self._json(spliced=False)

    def spliced_json(self) -> dict:
        """``to_json()``'s document for ``jsontext.dumps`` alone: the witness
        list is a ``jsontext.Splice`` that writes the same text off the runs,
        and no witness is built."""
        return self._json(spliced=True)

    def witness_json(self, spliced: bool = False) -> dict:
        """The witness lists: ``witnesses`` and, where there are any,
        ``distributivity_witnesses``, as plain lists, or with ``spliced`` the
        first as ``spliced_json()`` has it.  ``decompose``'s refusal prints
        them as its detail."""
        doc: Dict[str, Any] = {
            "witnesses": Splice(self._write_witnesses) if spliced
            else [w.to_json() for w in self.witnesses],
        }
        if self.distributivity_witnesses:
            doc["distributivity_witnesses"] = [
                w.to_json() for w in self.distributivity_witnesses
            ]
        return doc

    def _json(self, spliced: bool) -> dict:
        doc = self.witness_json(spliced)
        doc.update(
            verdict=self.verdict,
            mu_mode=self.mu_mode,
            poset_sizes=dict(sorted(self.poset_sizes.items())),
        )
        if self.mu_mode == "literal" and self.scored:
            doc["mode_disagreements"] = self.mode_disagreements
            doc["disagreement_examples"] = [w.to_json() for w in self.disagreement_examples]
        doc["saturated"] = self.saturated
        if self.closure_note:
            doc["closure_note"] = self.closure_note
        return doc


class _Scores:
    """The scores of one poset's pairs, by meet class, on its down-set masks.

    rho (the Moebius inverse of dimension) and the up-set masks are computed
    once, in one pass over the down-sets that runs ``mobius_invert``'s
    recursion.  one_var, that of the indicator of the zero element, is taken
    by ``mobius_invert`` when a literal score first reads it.  The standard
    score of (b, c) is rho(b) unless b <= c (see the module docstring), so
    the standard negatives of b are the c outside up(b) where rho(b) < 0.
    The literal score of every (b, c) with b meet c = m is
    top_b - sum(rho(y) F_b(y) for y <= m), where top_b is the sum of
    one_var(a) dim a over the a <= b and F_b(y) that of one_var over [y, b];
    it is computed per b, when first asked for.  The c with b meet c = m are
    those of up(m) in no up(x) for x in (m, b] (``meeting``), so a count of
    pairs needs no list of them.
    """

    def __init__(self, p: SubspacePoset):
        n = len(p.elements)
        self.down = p.down
        self.dims = dims = [s.dim for s in p.elements]
        rho: List[int] = []
        up = [0] * n
        for y, mask in enumerate(p.down):
            bit = 1 << y
            r = dims[y]
            for x in members(mask ^ bit):
                r -= rho[x]
                up[x] |= bit
            rho.append(r)
            up[y] |= bit
        self.rho, self.up = rho, up
        self.all = (1 << n) - 1
        # weak: p holds these scores, so a strong reference would be a cycle
        self._poset = ref(p)
        # each down-set's members, ascending, listed when a literal score
        # first reads it
        self._lower: List[Optional[List[int]]] = [None] * n
        self._literal: List[Optional[Dict[int, int]]] = [None] * n

    @cached_property
    def one(self) -> List[int]:
        """one_var, read by the literal scores alone."""
        return mobius_invert(self._poset(), [1] + [0] * (len(self.down) - 1))

    def lower(self, i: int) -> List[int]:
        """The members of i's down-set, ascending."""
        found = self._lower[i]
        if found is None:
            found = self._lower[i] = list(members(self.down[i]))
        return found

    def meeting(self, bi: int, m: int) -> int:
        """The mask of the c with b meet c = m, for an m <= b."""
        up = self.up
        above = 0
        for x in members(self.down[bi] & up[m] & ~(1 << m)):
            above |= up[x]
        return up[m] & ~above

    def literal(self, bi: int) -> Dict[int, int]:
        """``{m: literal score}`` over the m <= b, in index order: the score
        of every (b, c) with b meet c = m."""
        found = self._literal[bi]
        if found is None and self.down[bi].bit_count() == 2:
            # an atom: see ``disagreements``
            found = self._literal[bi] = {0: -self.rho[bi], bi: 0}
        elif found is None:
            up, one, rho, lower = self.up, self.one, self.rho, self.lower
            below, down_b = self.down[bi], lower(bi)
            top = sum(map(mul, map(one.__getitem__, down_b), map(self.dims.__getitem__, down_b)))
            terms = [0] * (bi + 1)  # rho(y) F_b(y)
            for y in down_b:
                if rho[y]:
                    terms[y] = rho[y] * sum(map(one.__getitem__, members(up[y] & below)))
            at = terms.__getitem__
            found = self._literal[bi] = {m: top - sum(map(at, lower(m))) for m in down_b}
        return found

    def pairs(self, bi: int, values: Dict[int, int]) -> List[Tuple[int, int, int]]:
        """``(b, c, values[b meet c])`` for every c whose meet with b is a
        key of ``values``, in c order."""
        found = sorted((ci, v) for m, v in values.items() for ci in members(self.meeting(bi, m)))
        return [(bi, ci, v) for ci, v in found]

    def refutes(self, mode: str) -> bool:
        """Whether some pair scores negative in ``mode``.  The bottom lies
        outside up(b) for every other b, and every m <= b is the meet of
        (b, m), so a negative rho(b) or literal score by meet stands for at
        least one pair; no pair is listed."""
        if mode == "standard":
            return any(r < 0 for r in self.rho)
        return any(v < 0 for bi in range(len(self.rho)) for v in self.literal(bi).values())

    def runs(self, mode: str) -> Iterator[Tuple[int, int, int]]:
        """The pairs that score negative in ``mode`` as runs ``(b, score, the
        mask of the c)``, b-major and then in c order, each run as long as b
        and the score stay the same.  A standard run is all of b's
        negatives, the c outside up(b) where rho(b) < 0, and takes no
        literal score."""
        if mode == "standard":
            up, everything = self.up, self.all
            return ((bi, r, everything & ~up[bi]) for bi, r in enumerate(self.rho) if r < 0)
        return (
            (bi, v, sum(1 << ci for _, ci, _ in run))
            for (bi, v), run in groupby(self.negatives_of(mode), key=itemgetter(0, 2))
        )

    def negatives_of(self, mode: str, alone: bool = False) -> Iterator[Tuple[int, int, int]]:
        """The pairs ``(b, c, score)`` that score negative in ``mode``, b-major
        and then in c order; with ``alone``, only those that do not score
        negative in the other mode.  Each b visited takes its literal score,
        so the standard negatives are listed by ``runs``."""
        standard = mode == "standard"
        for bi, r in enumerate(self.rho):
            if standard and r >= 0:
                continue
            values = {}
            for m, v_lit in self.literal(bi).items():
                v_std = 0 if m == bi else r
                v, v_other = (v_std, v_lit) if standard else (v_lit, v_std)
                if v < 0 and not (alone and v_other < 0):
                    values[m] = v
            if values:
                yield from self.pairs(bi, values)

    def disagreements(self) -> int:
        """The number of pairs on which the two modes land on different
        sides of zero.  An atom b, with down(b) = {0, b}, scores 0 in both
        modes against the c above it.  Against every other c, whose meet
        with b is 0, it scores rho(b) = dim b - dim 0 > 0 in standard mode
        and -rho(b) in literal mode.  So an atom adds the c outside up(b),
        with no literal score and no ``meeting``.  The full space b meets
        each c in c, so the class of m is {m}, and counts 1."""
        count = 0
        down, up, everything = self.down, self.up, self.all
        full = len(down) - 1
        for bi, r in enumerate(self.rho):
            if down[bi].bit_count() == 2:
                count += (everything & ~up[bi]).bit_count()
                continue
            for m, v in self.literal(bi).items():
                if ((r < 0) and m != bi) != (v < 0):
                    count += 1 if bi == full else self.meeting(bi, m).bit_count()
        return count


def _scores_of(p: SubspacePoset) -> _Scores:
    """The scores of ``p``, computed once per poset and cached on it."""
    scores = p._scores
    if scores is None:
        scores = _Scores(p)
        object.__setattr__(p, "_scores", scores)
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
    scores = _scores_of(p)
    m = p.meet(bi, ci)
    if mode == "standard":
        return 0 if m == bi else scores.rho[bi]
    return scores.literal(bi)[m]


def check_poset(
    p: SubspacePoset,
) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, int, int]], int]:
    """All-pairs scan of one poset, on element indices.

    Returns (standard-mode negatives, literal-mode negatives, count of pairs
    where the two modes land on different sides of zero).  A negative is
    ``(b index, c index, score)``; both lists are in index order, b-major,
    which is the order of ``Subspace.sort_key`` since the elements are
    sorted by it.
    """
    scores = _scores_of(p)
    standard, literal = (
        [(bi, ci, v) for bi, v, cs in scores.runs(mode) for ci in members(cs)] for mode in MU_MODES
    )
    return standard, literal, scores.disagreements()


def _complements_in_order(p: SubspacePoset) -> Iterator[Subspace]:
    """C_b for each element b, in index order: the complement inside b of the
    span of the rows of all of b's lower covers (one elimination where b
    has more than one).  Where that span is 0, as at 0 and at the atoms,
    C_b is b itself, and no complement is eliminated.  b's lower covers are
    read when the scan reaches b, so a scan that stops early reduces no
    more of the poset."""
    elems = p.elements
    zero = elems[p.zero_index]
    for j, b in enumerate(elems):
        covers = list(compress(elems, bits(p._lower_covers(j))))
        if len(covers) > 1:
            rows = [r for s in covers for r in s._ints()[0]]
            below = Subspace.span(p.field, p.ambient_dim, rows)
        else:
            below = covers[0] if covers else zero
        yield b if below.is_zero else complement_within(b, below)


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
        count = sum(r[ai] for ai in members(p.down[bi]))
        if count > p.elements[bi].dim:
            object.__setattr__(p, "_excess", (bi, count))
            return bi, count
    object.__setattr__(p, "_complements", tuple(found))
    return None


def poset_passes(p: SubspacePoset, mode: str = "standard") -> bool:
    """The verdict on one poset: every pair scores >= 0 in ``mode`` and the
    rank count holds, i.e. a multiplicative projection family exists (in
    standard mode).  Where the count holds no standard score is negative
    (see the module docstring), so the standard verdict is the count alone,
    as in ``pipeline``."""
    if mode not in MU_MODES:
        raise ValidationError(f"unknown mu mode {mode!r}")
    if mode == "literal" and _scores_of(p).refutes(mode):
        return False
    return rank_count_excess(p) is None


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
    The score is not taken, so the report has no score witnesses, and it
    prints no mode disagreements in either mode.
    """
    if mode not in MU_MODES:
        raise ValidationError(f"unknown mu mode {mode!r}")
    return CriterionReport(
        passed=False,
        mu_mode=mode,
        distributivity_witnesses=tuple(_distributivity_witnesses(flag)),
        poset_sizes=flag.sizes(),
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

    The report fails where some pair scores negative in ``mode``
    (``_Scores.refutes``, which lists no pair).  Its witnesses, the
    negatives of ``mode`` ordered by object id and then by the ``sort_key``
    of b and of c (the posets' index order), are read off the score's runs
    when first asked for: as ``CriterionValue`` objects by
    ``CriterionReport.witnesses`` and ``to_json``, and as text by
    ``spliced_json``, which builds none.  A literal report also prints the
    mode disagreements and the disagreement examples, the first ten pairs in
    the same order that score negative in the other mode alone, counted when
    first read; a standard report prints neither and takes no literal score.

    When no pair scores negative, the rank count is taken at every object and
    each object where it fails contributes one distributivity witness; a
    flag closed on bitmasks passes it by construction, and it is not taken
    there."""
    if mode not in MU_MODES:
        raise ValidationError(f"unknown mu mode {mode!r}")
    scored = tuple((oid, flag.posets[oid]) for oid in sorted(flag.posets))
    refuted = any(_scores_of(p).refutes(mode) for _, p in scored)
    # a flag closed on bitmasks is a meet-closed family of coordinate sets,
    # on which the count holds by construction
    distributivity = [] if refuted or flag.masks is not None else _distributivity_witnesses(flag)
    return CriterionReport(
        passed=not refuted and not distributivity,
        mu_mode=mode,
        distributivity_witnesses=tuple(distributivity),
        poset_sizes=flag.sizes(),
        saturated=flag.saturated,
        scored=scored,
    )

"""Per-object subspace families closed under images, preimages and meets.

``compute_flag`` computes the least fixpoint of four rules, starting from the
seed {0, full} at every object:

* image: for a generator f: x -> y and a in flag(x), add f(a) to flag(y)
* preimage: for b in flag(y), add f^-1(b) to flag(x)
* intersect: flag(o) is closed under pairwise intersection
* seed: 0 and the full space belong to flag(o)

Rounds are synchronous (each round derives only from the previous round's
elements), so the result does not depend on scheduling.  Termination over an
infinite field is not guaranteed in general; the limits make the closure fail
loudly instead of spinning.

On subspaces, each object's state is kept by ordinal, the order of
arrival: the element, its witness and, once it is a member, its down-set
mask, the bits of the ordinals of the members found to lie in it.  Offers
take their sources by ordinal.  The elements a round adds join the members
at the round's end (the seeds before round 1); those of the last join are
the fresh ones, in ``sort_key`` order, and the members keep that order
across rounds.  A round that adds nothing ends the closure.  Every
containment between two members has then been decided once, and
``poset.assemble_poset`` takes the masks, their bits moved to the members'
``sort_key`` positions, with no intersection.

When an element joins, each of its containments that dimension decides is
set: 0 lies in every element and every element in the full space, two
lines are incomparable, and a line lies in a larger element or not by one
incidence test (dot products with the larger one's cached normal rows, for
all the lines to test at once).  A round's meet step intersects only pairs
of two elements of dimension 2 or more, neither the full space, at least
one of them fresh, and offers their meets in ``sort_key`` pair order; a
meet that is one of its pair is a containment, and sets its bit.

On subspaces the preimage of b under g is the lift of its key b meet im g
(``preimage_of_meet``).  In round 1, b is a seed, and the key is 0 or
im g.  From round 2 on, b and im g (the image of the full seed) are
members, and the key is read off the masks: none where im g lies in b, b
where b lies in im g, and none where they are incomparable and one is a
line (their meet is 0).  Only the key of two elements of dimension 2 or
more is one intersection, kept for the meet step.  The join has set every
bit these read: b is fresh, so no meet step has yet met it with a larger
element.  The preimages of the keys 0 and im g, ker g and the full domain,
arrived in round 1 and are not offered again.  The image of a preimage
is the key it was lifted from, which ``map_image`` reads off the map's
factorization.  So a round runs in three steps:

1. the image and the preimage offers, map by map;
2. the meet offers, object by object;
3. the join of the elements the round added.

The offers, the ordinals and the witnesses are those of a round that
intersects every pair anew.

One object's state and its join and meet step make one small class
(``_Closing``), which ``meet_closure`` also runs, on a family alone, with
no maps: seeded with 0 and the full space, it joins and meets until a meet
step adds nothing, and returns the poset of the down-sets those set.

When a limit stops the closure, the ``ClosureDivergence`` carries, per
object, every element reached so far in order of arrival (``reached``): the
seeds first, and the elements of the round it stopped in included.  Each is
a seed or follows by a rule from elements that arrived before it, so each
lies in the least fixpoint, and ``pipeline.analyze`` can refute the input by
the rank count on a part of them.

A second, smaller loop closes on bitmasks (``_close_on_masks``).  Given
``BasisCoordinates`` (a basis per object in which every map is a partial
matching of basis indices, see ``Matching``), every element is a
coordinate subspace and is held as the bitmask of its basis indices: an
image is the OR of the matched bits, a preimage the unmatched bits plus
the bits matched into the target, a meet a bitwise AND, and equal masks
are equal subspaces.  That loop makes the same offers in the same order:
the images and the preimages of the fresh elements, map by map, then the
AND of each pair of members of 2 or more bits, neither the full mask, at
least one of them fresh, in ``sort_key`` pair order.  It keeps no preimage
keys, and offers what the loop on subspaces skips
as known; a known mask adds nothing, so each element arrives at the same
offer with the same witness, and the same limits stop both.  A mask's
``Subspace``, the span of its basis vectors, is built once, when the mask
first appears; it gives the sort key, the provenance sources and the
reported form.  At the end a member's down-set is the members whose masks
are subsets of its own (m & n == m), and ``poset.assemble_poset`` takes
the covers off them.  A flag
closed on bitmasks also hands out each element's mask
(``FlagAssignment.masks``), off which ``pipeline.build_families`` reads
the projections in the bases it was closed in.  ``Matching.of`` reads a
map with ``monomial``, the scan ``realize.verify_envelope`` shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_left, bisect_right
from functools import reduce
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import ClosureDivergence, MissingBounds
from .fields import Scalar
from .linalg import Matrix, Subspace, map_image, preimage_of_meet, sub_intersect
from .poset import SubspacePoset, ambient_space, assemble_poset, export_dot, members
# The closure never calls ``build_poset``; the binding stays because the
# benchmark's layer tracer (perfbench/layers.py) wraps ``flag.build_poset``.
from .poset import build_poset  # noqa: F401
from .rep import Generator, Representation


@dataclass(frozen=True)
class ClosureLimits:
    max_rounds: int = 64
    max_elements_per_object: int = 4096


@dataclass(frozen=True)
class Witness:
    """How a subspace first entered the closure."""

    rule: str                      # "seed" | "image" | "preimage" | "intersect"
    generator: Optional[str] = None
    sources: Tuple[Subspace, ...] = ()

    def to_json(self) -> dict:
        obj = {"rule": self.rule}
        if self.generator is not None:
            obj["generator"] = self.generator
        if self.sources:
            obj["sources"] = [s.to_json() for s in self.sources]
        return obj


@dataclass(eq=False)
class FlagAssignment:
    posets: Dict[str, SubspacePoset]
    provenance: Dict[str, Dict[Subspace, Witness]]
    rounds: int
    saturated: bool = False
    # set by a closure on bitmasks: per object, the bitmask of each poset
    # element, in element order
    masks: Optional[Dict[str, Tuple[int, ...]]] = None

    @property
    def total_elements(self) -> int:
        return sum(len(p) for p in self.posets.values())

    def sizes(self) -> Dict[str, int]:
        return {oid: len(p) for oid, p in self.posets.items()}

    def to_json(self) -> dict:
        objects = {}
        for oid in sorted(self.posets):
            p = self.posets[oid]
            prov = self.provenance[oid]
            objects[oid] = {
                "ambient_dim": p.ambient_dim,
                "poset_size": len(p),
                "elements": [
                    {
                        "dim": s.dim,
                        "basis": s.to_json(),
                        "provenance": prov[s].to_json(),
                    }
                    for s in p.elements
                ],
            }
        return {
            "objects": objects,
            "rounds": self.rounds,
            "total_elements": self.total_elements,
            "saturated": self.saturated,
        }

    def export_dot(self, oid: str) -> str:
        return export_dot(self.posets[oid], name=oid)


def _check_budget(oid: str, count: int, rule: str, limits: ClosureLimits, rounds: int) -> None:
    if count > limits.max_elements_per_object:
        raise ClosureDivergence(
            f"flag({oid}) exceeded {limits.max_elements_per_object} elements "
            f"while applying rule {rule!r}",
            object=oid,
            rule=rule,
            partial_size=count,
            rounds=rounds,
        )


# A monomial map: per domain basis index, the target index and a nonzero
# scalar, or None where that basis vector goes to zero.
Monomial = Tuple[Optional[Tuple[int, Scalar]], ...]


def monomial(m: Matrix) -> Optional[Monomial]:
    """``m`` as a monomial map, or None when a column has two nonzero entries.
    An integer scalar is held as an int, which multiplies faster than a
    Fraction and compares and hashes equal to it."""
    out = []
    for col in zip(*m.entries) if m.rows else ((),) * m.cols:
        nonzero = [(i, x.numerator if x.denominator == 1 else x) for i, x in enumerate(col) if x]
        if len(nonzero) > 1:
            return None
        out.append(nonzero[0] if nonzero else None)
    return tuple(out)


class Matching(NamedTuple):
    """A map that sends each basis vector to a nonzero multiple of a basis
    vector, no two to the same one, or to zero: a partial matching of basis
    indices.  A set of indices is a bitmask."""

    image_bits: Tuple[int, ...]     # per domain index: the bit it is matched to, or 0
    preimage_bits: Tuple[int, ...]  # per codomain index: the bit matched to it, or 0
    unmatched: int                  # the bits of the domain indices matched to nothing

    @classmethod
    def of(cls, m: Matrix) -> Optional["Matching"]:
        """The matching of ``m``, or None when ``m`` is not ``monomial`` or
        two of its columns hit the same row."""
        hat = monomial(m)
        if hat is None:
            return None
        preimage_bits = [0] * m.rows
        for j, e in enumerate(hat):
            if e is not None:
                if preimage_bits[e[0]]:
                    return None
                preimage_bits[e[0]] = 1 << j
        image_bits = tuple(0 if e is None else 1 << e[0] for e in hat)
        return cls._of_bits(image_bits, tuple(preimage_bits))

    @classmethod
    def _of_bits(cls, image_bits: Tuple[int, ...], preimage_bits: Tuple[int, ...]) -> "Matching":
        unmatched = sum(1 << j for j, bit in enumerate(image_bits) if not bit)
        return cls(image_bits, preimage_bits, unmatched)

    @property
    def dagger(self) -> "Matching":
        """The transposed matching, which is that of a pseudo-inverse."""
        return Matching._of_bits(self.preimage_bits, self.image_bits)

    def image(self, mask: int) -> int:
        out = 0
        for j, bit in enumerate(self.image_bits):
            if mask >> j & 1:
                out |= bit
        return out

    def preimage(self, mask: int) -> int:
        out = self.unmatched
        for i, bit in enumerate(self.preimage_bits):
            if mask >> i & 1:
                out |= bit
        return out


class BasisCoordinates(NamedTuple):
    """Bases in which every map of a closure is a ``Matching``.

    ``bases[oid]`` holds a basis of object oid as its columns; ``matchings``
    has one entry per map, the generators first and then the extra maps, in
    the order ``compute_flag`` takes them.
    """

    bases: Dict[str, Matrix]
    matchings: Tuple[Matching, ...]


class Arrow(NamedTuple):
    """A map's id and ends: all that a closure on bitmasks reads of a map
    besides its ``Matching``."""

    id: str
    dom: str
    cod: str


def _join(spaces: Sequence[Subspace], order: List[int], sort_keys: list) -> List[int]:
    """Make the elements offered since the last join (the ordinals past the
    members ``order``) members, inserting each into ``order`` and its key into
    ``sort_keys`` in ``sort_key`` order; return them in that order, as the
    fresh ones."""
    joining = sorted((spaces[k].sort_key, k) for k in range(len(order), len(spaces)))
    at = 0
    for sk, k in joining:
        at = bisect_right(sort_keys, sk, at)
        sort_keys.insert(at, sk)
        order.insert(at, k)
        at += 1
    return [k for _, k in joining]


def _fresh_pairs(mids: Sequence[int], first: int) -> Iterator[Tuple[int, int]]:
    """The pairs of the ordinals ``mids``, given in ``sort_key`` order, in
    which a fresh one (an ordinal of ``first`` or more) takes part, in
    ``sort_key`` pair order."""
    fresh_at = [j for j, k in enumerate(mids) if k >= first]
    for i, ka in enumerate(mids):
        later = range(i + 1, len(mids)) if ka >= first else fresh_at[bisect_right(fresh_at, i):]
        for j in later:
            yield ka, mids[j]


class _Closing:
    """One object's family while it closes, by ordinal (order of arrival):
    each element, its ordinal, and for a member the mask of the ordinals of
    the members found to lie in it so far.  Ordinal 0 is the zero space,
    and the full space is given with it.  ``order`` holds the members'
    ordinals in ``sort_key`` order and ``sort_keys`` their keys; ``fresh``
    those of the last join and ``larger`` those of dimension 2 or more but
    not the full space, both in that order; ``kept`` the meets of two
    larger elements intersected for preimage keys, by the pair's ordinals
    (lower first), for the meet step to take."""

    __slots__ = ("elements", "ordinal", "down", "order", "sort_keys", "fresh", "larger", "kept")

    def __init__(self, elements: List[Subspace]) -> None:
        self.elements = elements
        self.ordinal = {s: k for k, s in enumerate(elements)}
        self.down, self.order, self.sort_keys, self.fresh, self.larger = [], [], [], [], []
        self.kept: Dict[Tuple[int, int], Subspace] = {}
        self.join()

    def join(self) -> None:
        """Make the elements offered since the last join members and the
        fresh ones, and set the bits of each one's containments that
        dimension decides: 0 lies in it and it in the full space, and a line
        lies in a larger element or meets it in 0, by one incidence (dot
        products with the larger one's cached normal rows, for all the lines
        to test at once)."""
        elems, ords, keys, below = self.elements, self.order, self.sort_keys, self.down
        first = len(ords)
        self.fresh = _join(elems, ords, keys)
        if not self.fresh:
            return
        below.extend(1 | 1 << k for k in range(first, len(elems)))
        below[ords[-1]] = (1 << len(elems)) - 1
        # each pair of a line and a larger element, one of them fresh
        top = len(ords) - 1  # the position of the full space
        mid = max(1, min(bisect_left(keys, (2,)), top))
        lines, mids = ords[1:mid], ords[mid:top]
        self.larger = mids
        if not (lines and mids):
            return
        fresh_lines = [ln for ln in lines if ln >= first]
        for tested, against in (
            (lines, [m for m in mids if m >= first]),
            (fresh_lines, [m for m in mids if m < first]),
        ):
            rows = [elems[ln]._ints()[0][0] for ln in tested]
            for m in against:
                for i in elems[m]._holding(rows):
                    below[m] |= 1 << tested[i]

    def meet_step(self, offer: Callable[[Subspace, int, int], int]) -> None:
        """Intersect every pair of members of dimension 2 or more, neither
        the full space, in which a fresh one takes part (or take the meet
        ``kept``), and offer the meets with their pairs' ordinals, in
        ``sort_key`` pair order.  A meet that is one of its pair sets the
        bit of that containment."""
        elems, below, kept = self.elements, self.down, self.kept
        for ka, kb in _fresh_pairs(self.larger, len(self.order) - len(self.fresh)):
            s = kept.pop((ka, kb) if ka < kb else (kb, ka), None) if kept else None
            if s is None:
                s = sub_intersect(elems[ka], elems[kb])
            k = offer(s, ka, kb)
            if k == ka:
                below[kb] |= 1 << ka
            elif k == kb:
                below[ka] |= 1 << kb

    def poset(self) -> SubspacePoset:
        """The poset of the members: each mask's bits go to the members'
        ``sort_key`` positions."""
        bit = [0] * len(self.order)
        for i, k in enumerate(self.order):
            bit[k] = 1 << i
        at = bit.__getitem__
        return assemble_poset(
            [self.elements[k] for k in self.order],
            [sum(map(at, members(self.down[k]))) for k in self.order],
        )


def _out_of_rounds(limits: ClosureLimits, rounds: int, sizes: Dict[str, int]) -> ClosureDivergence:
    return ClosureDivergence(
        f"no fixpoint after {limits.max_rounds} rounds", rule="rounds", rounds=rounds, sizes=sizes
    )


def compute_flag(
    rep: Representation,
    limits: ClosureLimits = ClosureLimits(),
    extra_maps: Sequence[Union[Generator, Arrow]] = (),
    coordinates: Optional[BasisCoordinates] = None,
) -> FlagAssignment:
    """Least fixpoint of the closure rules, deduplicated by canonical form.

    ``extra_maps`` adjoins additional linear maps (same closure rules) without
    touching the representation itself; the pipeline uses this to saturate a
    passing flag with constructed pseudo-inverses.  With ``coordinates`` the
    closure runs on bitmasks of basis indices (``_close_on_masks``), and
    reads of an extra map only its id and ends (an ``Arrow`` will do); the
    result is the same, and carries each element's mask.  On subspaces
    each poset is assembled off the down-set masks the closure set while
    closing (see the module docstring).

    Where a limit stops the closure, the ``ClosureDivergence`` carries each
    object's elements in order of arrival as ``reached`` (see the module
    docstring).
    """
    maps = list(rep.generators) + list(extra_maps)
    if coordinates is not None:
        return _close_on_masks(rep, limits, maps, coordinates)
    # each map's image: the one cached with the factorization that
    # ``preimage_of_meet`` lifts keys by, and from round 2 on its ordinal
    ims = [g.matrix._factored()[1] for g in maps]
    im_at: List[int] = []
    # per object: its family while it closes, the seed 0 at ordinal 0 and
    # the full space at ordinal 1 (in a space of dimension 0 they are one
    # element), and each element's witness by ordinal
    family: Dict[str, _Closing] = {}
    witness: Dict[str, List[Witness]] = {}
    rounds = 0

    def offer(oid: str, s: Subspace, rule: str, g: Optional[Generator], *sources: int) -> int:
        """Add ``s`` unless already known, with its witness: the rule, the
        map ``g`` and the ordinals of the sources (an element at g's other
        end, or the two elements of a meet); return its ordinal."""
        fam = family[oid]
        k = fam.ordinal.get(s)
        if k is None:
            k = fam.ordinal[s] = len(fam.elements)
            fam.elements.append(s)
            at = family[oid if g is None else g.dom if rule == "image" else g.cod].elements
            sources_at = tuple(at[x] for x in sources)
            witness[oid].append(Witness(rule, None if g is None else g.id, sources_at))
            _check_budget(oid, k + 1, rule, limits, rounds)
        return k

    def key(oid: str, b: int, gi: int) -> Optional[Subspace]:
        """The key b meet im g of the preimage of member b under map gi, or
        None where that preimage is known.  In round 1, b is a seed, and the
        key is 0 or im g.  From round 2 on, b and im g are members: where
        one lies in the other, the key is b, or None for im g; the meet of
        two that do not, one of them a line, is 0, whose preimage is known;
        and the meet of two elements of dimension 2 or more is one
        intersection, kept for the meet step.  The join has set every bit
        these read: b is fresh, so the meet step has not yet met it with a
        larger element.  The preimages of the keys 0 and im g, ker g and the
        full domain, arrived in round 1."""
        fam = family[oid]
        if rounds == 1:
            return ims[gi] if b else fam.elements[0]
        im, below, elems = im_at[gi], fam.down, fam.elements
        if below[b] >> im & 1:
            return None
        if below[im] >> b & 1:
            return elems[b] if b else None
        if elems[b].dim < 2 or elems[im].dim < 2:
            return None
        pair = (b, im) if b < im else (im, b)
        s = fam.kept.get(pair)
        if s is None:
            s = fam.kept[pair] = sub_intersect(elems[b], elems[im])
        return s

    for o in rep.objects:
        seeds = dict.fromkeys((Subspace.zero(rep.field, o.dim), Subspace.full(rep.field, o.dim)))
        family[o.id] = _Closing(list(seeds))
        witness[o.id] = [Witness("seed")] * len(seeds)
    # rounds until one adds nothing.  Semi-naive: a round derives only from
    # the elements of the last join; older combinations were offered.
    try:
        while True:
            if rounds >= limits.max_rounds:
                raise _out_of_rounds(limits, rounds, {oid: len(f.elements) for oid, f in family.items()})
            rounds += 1
            # step 1: the image and preimage offers
            for gi, g in enumerate(maps):
                for a in family[g.dom].fresh:
                    offer(g.cod, map_image(g.matrix, family[g.dom].elements[a]), "image", g, a)
                for b in family[g.cod].fresh:
                    k = key(g.cod, b, gi)
                    if k is not None:
                        offer(g.dom, preimage_of_meet(g.matrix, k), "preimage", g, b)
            if rounds == 1:
                im_at = [family[g.cod].ordinal[im] for g, im in zip(maps, ims)]
            # step 2: the meet offers
            for oid, fam in family.items():
                fam.meet_step(lambda s, ka, kb: offer(oid, s, "intersect", None, ka, kb))
            if all(len(f.order) == len(f.elements) for f in family.values()):
                break
            # step 3: the join
            for fam in family.values():
                fam.join()
    except ClosureDivergence as stop:
        stop.reached = {oid: list(f.elements) for oid, f in family.items()}
        raise
    return FlagAssignment(
        posets={oid: f.poset() for oid, f in family.items()},
        provenance={oid: dict(zip(f.elements, witness[oid])) for oid, f in family.items()},
        rounds=rounds,
    )


def meet_closure(subspaces: Iterable[Subspace], limit: Optional[int] = None) -> Optional[SubspacePoset]:
    """The poset of the closure of a family under pairwise intersection, or
    None where it has more than ``limit`` members.  It runs the closure's
    own steps on the family alone: the join sets the containments that
    dimension decides, and the meet step intersects the pairs of larger
    elements in which a fresh one takes part, until a step adds nothing.

    The closure must hold the full space, which only the family can give,
    and 0, which the family gives or the meet of its members is; else
    ``MissingBounds``, whatever the limit.
    """
    given = dict.fromkeys(subspaces)
    field, n = ambient_space(list(given))
    zero, full = Subspace.zero(field, n), Subspace.full(field, n)
    if full not in given:
        raise MissingBounds("family does not contain the full space")
    if zero not in given and not reduce(sub_intersect, given).is_zero:
        raise MissingBounds("meet closure does not contain the zero subspace")
    elements = list(dict.fromkeys((zero, full, *given)))
    if limit is not None and len(elements) > limit:
        return None
    closing = _Closing(elements)
    ords = closing.ordinal

    def offer(s: Subspace, ka: int, kb: int) -> int:
        k = ords.get(s)
        if k is None:
            if len(elements) == limit:
                raise ClosureDivergence(f"meet closure exceeded {limit} elements")
            k = ords[s] = len(elements)
            elements.append(s)
        return k

    try:
        while True:
            closing.meet_step(offer)
            if len(closing.order) == len(elements):
                return closing.poset()
            closing.join()
    except ClosureDivergence:
        return None


def _close_on_masks(
    rep: Representation,
    limits: ClosureLimits,
    maps: Sequence[Union[Generator, Arrow]],
    coordinates: BasisCoordinates,
) -> FlagAssignment:
    """``compute_flag`` on the bitmasks of basis indices of ``coordinates``,
    whose ``matchings`` are those of ``maps``, in order.

    It makes the offers of the closure on subspaces in the same order:
    per round, map by map, the image of each fresh element at the domain and
    the preimage of each at the codomain; then, object by object, the AND of
    each pair of members of 2 or more bits, neither the full mask, at least
    one of them fresh, in ``sort_key`` pair order.  A known mask adds
    nothing, so each element arrives as it does there, with the same
    witness, and the same limits stop it at the same offer.  At the end a
    member's down-set is the members whose masks are subsets of its own.
    """
    field = rep.field
    columns = {oid: b._ints()[2] for oid, b in coordinates.bases.items()}
    # per object, by ordinal (order of arrival): each mask, its Subspace,
    # the span of its basis vectors, and its witness; and the members'
    # ordinals in ``sort_key`` order, their keys and the fresh ones
    ordinal: Dict[str, Dict[int, int]] = {}
    masks: Dict[str, List[int]] = {}
    spaces: Dict[str, List[Subspace]] = {}
    witness: Dict[str, List[Witness]] = {}
    order: Dict[str, List[int]] = {}
    sort_keys: Dict[str, list] = {}
    fresh: Dict[str, List[int]] = {}
    rounds = 0

    def add(oid: str, mask: int, rule: str, g: Optional[Arrow], *sources: int) -> None:
        """Add a mask not yet known, with its Subspace and its witness (see
        ``compute_flag``'s ``offer``)."""
        ords = ordinal[oid]
        k = ords[mask] = len(ords)
        masks[oid].append(mask)
        cols = columns[oid]
        spaces[oid].append(
            Subspace.span(field, len(cols), [c for j, c in enumerate(cols) if mask >> j & 1])
        )
        at = spaces[oid if g is None else g.dom if rule == "image" else g.cod]
        sources_at = tuple(at[x] for x in sources)
        witness[oid].append(Witness(rule, None if g is None else g.id, sources_at))
        _check_budget(oid, k + 1, rule, limits, rounds)

    for o in rep.objects:
        ms = masks[o.id] = list(dict.fromkeys((0, (1 << o.dim) - 1)))
        ordinal[o.id] = {m: k for k, m in enumerate(ms)}
        spaces[o.id] = [Subspace.zero(field, o.dim), Subspace.full(field, o.dim)][: len(ms)]
        witness[o.id] = [Witness("seed")] * len(ms)
        order[o.id], sort_keys[o.id] = [], []
        fresh[o.id] = _join(spaces[o.id], order[o.id], sort_keys[o.id])
    try:
        while True:
            if rounds >= limits.max_rounds:
                raise _out_of_rounds(limits, rounds, {oid: len(ms) for oid, ms in masks.items()})
            rounds += 1
            # an offer of a known mask adds nothing, and is not made
            for g, m in zip(maps, coordinates.matchings):
                for a in fresh[g.dom]:
                    mask = m.image(masks[g.dom][a])
                    if mask not in ordinal[g.cod]:
                        add(g.cod, mask, "image", g, a)
                for b in fresh[g.cod]:
                    mask = m.preimage(masks[g.cod][b])
                    if mask not in ordinal[g.dom]:
                        add(g.dom, mask, "preimage", g, b)
            for oid, ms in masks.items():
                full, known = (1 << len(columns[oid])) - 1, ordinal[oid]
                mids = [k for k in order[oid] if ms[k] != full and ms[k].bit_count() > 1]
                for ka, kb in _fresh_pairs(mids, len(order[oid]) - len(fresh[oid])):
                    mask = ms[ka] & ms[kb]
                    if mask not in known:
                        add(oid, mask, "intersect", None, ka, kb)
            if all(len(order[oid]) == len(ms) for oid, ms in masks.items()):
                break
            for oid in masks:
                fresh[oid] = _join(spaces[oid], order[oid], sort_keys[oid])
    except ClosureDivergence as stop:
        stop.reached = {oid: list(s) for oid, s in spaces.items()}
        raise
    posets, in_order = {}, {}
    for oid, ms in masks.items():
        ordered = in_order[oid] = tuple(ms[k] for k in order[oid])
        down = [
            sum(1 << i for i, m in enumerate(ordered[:j]) if m & n == m) | 1 << j
            for j, n in enumerate(ordered)
        ]
        posets[oid] = assemble_poset([spaces[oid][k] for k in order[oid]], down)
    return FlagAssignment(
        posets=posets,
        provenance={oid: dict(zip(spaces[oid], witness[oid])) for oid in masks},
        rounds=rounds,
        masks=in_order,
    )

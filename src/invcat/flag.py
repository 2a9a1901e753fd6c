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

Each object's state is one record by ordinal, the order of arrival: the
element, its ``Subspace``, its witness and, once it is a member, the
ordinals of its meets with the lower ordinals.  Offers take their sources
by ordinal.  The elements a round adds join the members at the round's end
(the seeds before round 1); those of the last join are the fresh ones, in
``sort_key`` order, and the members keep that order across rounds.  A
round that adds nothing ends the closure.  The record then holds the meet
of every pair of elements exactly once, and ``build_poset`` reads the order
and the covers off it instead of intersecting again.

When an element joins, each of its meets that dimension decides is
recorded: 0 and the full space meet every element in 0 and in the element,
two lines meet in 0, and a line and a larger element meet in the line or
in 0, by one incidence test (dot products with the larger one's cached
normal rows, for all the lines to test at once).  A round's meet step
intersects only pairs of two elements of dimension 2 or more, neither the
full space, at least one of them fresh, and offers their meets in
``sort_key`` pair order.

On subspaces the preimage of b under g is the lift of its key b meet im g
(``preimage_of_meet``), read off the record.  In round 1, b is a seed, and
the key is 0 or im g.  From round 2 on, b and im g (the image of the full
seed) are members, and the key is their recorded meet, or for two elements
of dimension 2 or more one intersection, kept for the meet step.  The
preimages of the keys 0 and im g, ker g and the full domain, arrived in
round 1 and are not offered again.  The image of a preimage is the key it
was lifted from, which ``map_image`` reads off the map's factorization.
So a round runs in three steps:

1. the image and the preimage offers, map by map;
2. the meet offers, object by object;
3. the join of the elements the round added.

The offers, the ordinals and the witnesses are those of a round that
intersects every pair anew.

When a limit stops the closure, the ``ClosureDivergence`` carries, per
object, every element reached so far in order of arrival (``reached``): the
seeds first, and the elements of the round it stopped in included.  Each is
a seed or follows by a rule from elements that arrived before it, so each
lies in the least fixpoint, and ``pipeline.analyze`` can refute the input by
the rank count on a part of them.

The same loop runs on one of two kinds of element.  By default an element is
a ``Subspace``, and the rules are ``map_image``, ``preimage_of_meet`` and
``sub_intersect``.  Given ``BasisCoordinates`` (a basis per object in which
every map is a partial matching of basis indices, see ``Matching``), every
element is a coordinate subspace and is held as the bitmask of its basis
indices: an image is the OR of the matched bits, a preimage the unmatched
bits plus the bits matched into the target, a meet a bitwise AND, and
equal masks are equal subspaces.  A mask's ``Subspace``, the span of its
basis vectors, is built once, when the mask first appears; it gives the
sort key, the provenance sources and the reported form.  Both kinds record
meets by dimension class (a mask's incidence is one AND); only the
``Subspace`` kind keeps the keys of its preimages (a mask's preimage is one
pass over its bits).  An offer of a known element adds nothing, so both
kinds add the same elements in the same order and give the same flag.  A
flag closed on bitmasks also hands out each element's mask
(``FlagAssignment.masks``), off which ``pipeline.build_families`` reads the
projections in the bases it was closed in.  ``Matching.of`` reads a map
with ``monomial``, the scan ``realize.verify_envelope`` shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_left, bisect_right
from functools import partial
from operator import and_
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ClosureDivergence
from .fields import Scalar
from .linalg import Matrix, Subspace, map_image, preimage_of_meet, sub_intersect
from .poset import SubspacePoset, build_poset, export_dot
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


Element = Hashable  # a Subspace, or the bitmask of a coordinate subspace


# The closure rules on one kind of element: the seeds (zero, full) of a
# dimension, the image and the preimage under each map, the meet, the
# incidence of lines with larger elements (given the lines, a test that
# returns the positions of those that lie in an element), and the Subspace
# of an element at an object, which is built once per element.  A Subspace
# preimage is taken of the element's meet with the map's image
# (``preimage_of_meet``), a bitmask one of the element itself.
_Rules = Tuple[
    Callable[[int], Tuple[Element, Element]],
    Sequence[Callable[[Element], Element]],
    Sequence[Callable[[Element], Element]],
    Callable[[Element, Element], Element],
    Callable[[Sequence[Element]], Callable[[Element], List[int]]],
    Callable[[str, Element], Subspace],
]


def _lines_in(lines: Sequence[Subspace]) -> Callable[[Subspace], List[int]]:
    rows = [line._ints()[0][0] for line in lines]
    return lambda b: b._holding(rows)


def _subspace_rules(rep: Representation, maps: Sequence[Generator]) -> _Rules:
    return (
        lambda n: (Subspace.zero(rep.field, n), Subspace.full(rep.field, n)),
        [partial(map_image, g.matrix) for g in maps],
        [partial(preimage_of_meet, g.matrix) for g in maps],
        sub_intersect,
        _lines_in,
        lambda oid, s: s,
    )


def _mask_rules(rep: Representation, coordinates: BasisCoordinates) -> _Rules:
    columns = {oid: b._ints()[2] for oid, b in coordinates.bases.items()}

    def subspace(oid: str, mask: int) -> Subspace:
        cols = columns[oid]
        return Subspace.span(rep.field, len(cols), [c for j, c in enumerate(cols) if mask >> j & 1])

    return (
        lambda n: (0, (1 << n) - 1),
        [m.image for m in coordinates.matchings],
        [m.preimage for m in coordinates.matchings],
        and_,
        lambda lines: lambda b: [i for i, line in enumerate(lines) if line & b == line],
        subspace,
    )


def compute_flag(
    rep: Representation,
    limits: ClosureLimits = ClosureLimits(),
    extra_maps: Sequence[Generator] = (),
    coordinates: Optional[BasisCoordinates] = None,
) -> FlagAssignment:
    """Least fixpoint of the closure rules, deduplicated by canonical form.

    ``extra_maps`` adjoins additional linear maps (same closure rules) without
    touching the representation itself; the pipeline uses this to saturate a
    passing flag with constructed pseudo-inverses.  With ``coordinates`` the
    closure runs on bitmasks of basis indices (see the module docstring); the
    result is the same, and carries each element's mask.

    Where a limit stops the closure, the ``ClosureDivergence`` carries each
    object's elements in order of arrival as ``reached`` (see the module
    docstring).
    """
    maps: List[Generator] = list(rep.generators) + list(extra_maps)
    seeds, images, preimages, meet, incident, subspace = (
        _subspace_rules(rep, maps) if coordinates is None else _mask_rules(rep, coordinates)
    )
    # on subspaces, each map's image: the one cached with the factorization
    # that ``preimage_of_meet`` lifts keys by, and from round 2 on its ordinal
    ims = [g.matrix._factored()[1] for g in maps] if coordinates is None else None
    im_at: List[int] = []
    # per object, by ordinal (order of arrival): each element, its Subspace
    # and its witness; and for a member of ordinal k, the ordinals of its
    # meets with ordinals 0..k-1.  The seed 0 has ordinal 0 and the full
    # space ordinal 1 (in a space of dimension 0 they are one element).
    ordinal: Dict[str, Dict[Element, int]] = {}
    element: Dict[str, List[Element]] = {}
    space: Dict[str, List[Subspace]] = {}
    witness: Dict[str, List[Witness]] = {}
    meets: Dict[str, List[List[Optional[int]]]] = {}
    # per object: the members' ordinals in ``sort_key`` order and their sort
    # keys, the ordinals of the last join (the fresh ones), in that order,
    # and the members of dimension 2 or more but not the full space, in
    # that order
    order: Dict[str, List[int]] = {}
    sort_keys: Dict[str, list] = {}
    fresh: Dict[str, List[int]] = {}
    larger: Dict[str, List[int]] = {}
    # the meets of two elements of dimension 2 or more intersected for
    # preimage keys, by object and the ordinals (lower first) of the pair;
    # the round's meet step takes them
    keyed: Dict[Tuple[str, int, int], Subspace] = {}
    rounds = 0

    def offer(oid: str, s: Element, rule: str, g: Optional[Generator], *sources: int) -> int:
        """Add ``s`` unless already known, with its witness: the rule, the
        map ``g`` and the ordinals of the sources (an element at g's other
        end, or the two elements of a meet); return its ordinal."""
        ords = ordinal[oid]
        k = ords.get(s)
        if k is None:
            k = ords[s] = len(ords)
            element[oid].append(s)
            space[oid].append(subspace(oid, s))
            at = space[oid if g is None else g.dom if rule == "image" else g.cod]
            sources_at = tuple(at[x] for x in sources)
            witness[oid].append(Witness(rule, None if g is None else g.id, sources_at))
            _check_budget(oid, k + 1, rule, limits, rounds)
        return k

    def join(oid: str) -> None:
        """Make the elements offered since the last join members and the
        fresh ones, and record each one's meets that dimension decides: 0
        and the full space meet it in 0 and in it, two lines meet in 0, and
        a line and a larger element meet in the line or in 0, by one
        incidence."""
        elems, spaces, ords, keys, record = (
            element[oid], space[oid], order[oid], sort_keys[oid], meets[oid]
        )
        first = len(ords)
        joining = sorted((spaces[k].sort_key, k) for k in range(first, len(elems)))
        fresh[oid] = [k for _, k in joining]
        if not joining:
            return
        record.extend([None] * len(joining))
        at = 0
        for sk, k in joining:
            at = bisect_right(keys, sk, at)
            keys.insert(at, sk)
            ords.insert(at, k)
            at += 1
            # 0 with ordinal 0, k with the full space, and 0 with every
            # other ordinal below a line (its incidences follow)
            record[k] = [0, k][:k] + [0 if sk[0] == 1 else None] * (k - 2)
        # each pair of a line and a larger element, one of them fresh
        top = len(ords) - 1  # the position of the full space
        mid = max(1, min(bisect_left(keys, (2,)), top))
        lines, mids = ords[1:mid], ords[mid:top]
        larger[oid] = mids
        if not (lines and mids):
            return
        fresh_lines = [ln for ln in lines if ln >= first]
        for tested, against in (
            (lines, [m for m in mids if m >= first]),
            (fresh_lines, [m for m in mids if m < first]),
        ):
            lines_in = incident([elems[ln] for ln in tested])
            for m in against:
                inside = set(lines_in(elems[m]))
                for i, ln in enumerate(tested):
                    lo, hi = (ln, m) if ln < m else (m, ln)
                    record[hi][lo] = ln if i in inside else 0

    def key(oid: str, b: int, gi: int) -> Optional[Subspace]:
        """The key b meet im g of the preimage of member b under map gi, or
        None where that preimage is known.  In round 1, b is a seed, and the
        key is 0 or im g.  From round 2 on, b and im g are members, and the
        key is their recorded meet, or for two elements of dimension 2 or
        more one intersection, kept for the meet step; the preimages of the
        keys 0 and im g, ker g and the full domain, arrived in round 1."""
        if rounds == 1:
            return ims[gi] if b else element[oid][0]
        im = im_at[gi]
        if b == im:
            return None
        lo, hi = (b, im) if b < im else (im, b)
        m = meets[oid][hi][lo]
        if m is None:
            s = keyed.get((oid, lo, hi))
            if s is None:
                s = keyed[oid, lo, hi] = meet(element[oid][b], element[oid][im])
            return s
        return None if m == 0 or m == im else element[oid][m]

    def meet_step(oid: str) -> None:
        """Intersect every pair of members of dimension 2 or more, neither
        the full space, in which a fresh one takes part (or take the meet
        ``key`` kept), and offer the meets, in ``sort_key`` pair order."""
        mids, elems, record = larger[oid], element[oid], meets[oid]
        first = len(order[oid]) - len(fresh[oid])
        fresh_at = [j for j, k in enumerate(mids) if k >= first]
        for i, ka in enumerate(mids):
            a = elems[ka]
            later = range(i + 1, len(mids)) if ka >= first else fresh_at[bisect_right(fresh_at, i):]
            for j in later:
                kb = mids[j]
                lo, hi = (ka, kb) if ka < kb else (kb, ka)
                s = keyed.pop((oid, lo, hi), None) if keyed else None
                if s is None:
                    s = meet(a, elems[kb])
                record[hi][lo] = offer(oid, s, "intersect", None, ka, kb)

    for o in rep.objects:
        elems = element[o.id] = list(dict.fromkeys(seeds(o.dim)))
        ordinal[o.id] = {s: k for k, s in enumerate(elems)}
        space[o.id] = [subspace(o.id, s) for s in elems]
        witness[o.id] = [Witness("seed")] * len(elems)
        meets[o.id], order[o.id], sort_keys[o.id], larger[o.id] = [], [], [], []
        join(o.id)
    # rounds until one adds nothing.  Semi-naive: a round derives only from
    # the elements of the last join; older combinations were offered.
    try:
        while True:
            if rounds >= limits.max_rounds:
                raise ClosureDivergence(
                    f"no fixpoint after {limits.max_rounds} rounds",
                    rule="rounds",
                    rounds=rounds,
                    sizes={oid: len(elems) for oid, elems in element.items()},
                )
            rounds += 1
            # step 1: the image and preimage offers
            for gi, (g, image_of, preimage) in enumerate(zip(maps, images, preimages)):
                for a in fresh[g.dom]:
                    offer(g.cod, image_of(element[g.dom][a]), "image", g, a)
                for b in fresh[g.cod]:
                    k = element[g.cod][b] if ims is None else key(g.cod, b, gi)
                    if k is not None:
                        offer(g.dom, preimage(k), "preimage", g, b)
            if rounds == 1 and ims is not None:
                im_at = [ordinal[g.cod][im] for g, im in zip(maps, ims)]
            # step 2: the meet offers
            for oid in element:
                meet_step(oid)
            if all(len(order[oid]) == len(elems) for oid, elems in element.items()):
                break
            for oid in element:
                join(oid)
    except ClosureDivergence as stop:
        stop.reached = {oid: list(spaces) for oid, spaces in space.items()}
        raise
    return FlagAssignment(
        posets={oid: build_poset(space[oid], meets[oid]) for oid in element},
        provenance={oid: dict(zip(space[oid], witness[oid])) for oid in element},
        rounds=rounds,
        masks=None if coordinates is None else {
            oid: tuple(elems[k] for k in order[oid]) for oid, elems in element.items()
        },
    )

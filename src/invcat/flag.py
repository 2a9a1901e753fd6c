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

The meet of every pair of final elements is recorded exactly once, in the
round after the later of the two arrived, by element ordinal, and handed to
``build_poset``, which reads the order and the covers off the record instead
of intersecting again.  The meet step takes each object's members in
``sort_key`` order, by dimension, and dimension decides most meets: 0 and the
full space meet every element in 0 and in the element, and two lines meet in
0, so these are recorded in bulk.  A line and a larger element meet in the
line or in 0, by one incidence test on cached integer rows (one dot product
with the normal row of a hyperplane).  Only two elements of dimension 2 or
more, neither the full space, are intersected, and their meets offered in
``sort_key`` pair order.  The members keep that order across rounds: each
round's fresh elements are merged in.

On subspaces every intersection and every incidence of a round is made
once.  The preimage of b under g is the lift of its key b meet im g
(``preimage_of_meet``), and im g, the image of the full seed, is an element
from round 2 on, so the key is the meet of a pair of the round's meet step
(in round 1, b is 0 or the full space, and the key is known).  A round runs
in two steps:

1. the image and the preimage offers, map by map.  A preimage's key is
   known from dimension; or it is a line's incidence with a larger element,
   recorded at once under the ordinals of the pair; or it is intersected
   and kept under those ordinals.  From round 2 on, the preimages of the
   keys 0 and im g (ker g and the full domain) are known since round 1, and
   are not offered again.  The image of a preimage is the key it was lifted
   from, which ``map_image`` reads off the map's factorization;
2. the meet offers, by dimension class; a pair that step 1 recorded or kept
   takes its meet instead of testing or intersecting again.

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
flag closed on bitmasks also hands out its coordinates and each element's
mask (``FlagAssignment.masks``), off which ``pipeline.build_families`` reads
the projections.  ``Matching.of`` reads a map with ``monomial``, the scan
``realize.verify_envelope`` shares.
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
    # set by a closure on bitmasks: its coordinates, and per object the
    # bitmask of each poset element, in element order
    coordinates: Optional[BasisCoordinates] = None
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
# incidence of a line with a larger element (true when the line lies in it),
# and the Subspace of an element at an object, which is built once per
# element.  A Subspace preimage is taken of the element's meet with the
# map's image (``preimage_of_meet``), a bitmask one of the element itself.
_Rules = Tuple[
    Callable[[int], Tuple[Element, Element]],
    Sequence[Callable[[Element], Element]],
    Sequence[Callable[[Element], Element]],
    Callable[[Element, Element], Element],
    Callable[[Element, Element], bool],
    Callable[[str, Element], Subspace],
]


def _subspace_rules(rep: Representation, maps: Sequence[Generator]) -> _Rules:
    return (
        lambda n: (Subspace.zero(rep.field, n), Subspace.full(rep.field, n)),
        [partial(map_image, g.matrix) for g in maps],
        [partial(preimage_of_meet, g.matrix) for g in maps],
        sub_intersect,
        lambda line, b: b._holds(line._ints()[0][0]),
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
        lambda line, b: line & b == line,
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
    result is the same, and carries ``coordinates`` and each element's mask.

    Where a limit stops the closure, the ``ClosureDivergence`` carries each
    object's elements in order of arrival as ``reached`` (see the module
    docstring).
    """
    maps: List[Generator] = list(rep.generators) + list(extra_maps)
    seeds, images, preimages, meet, incident, subspace = (
        _subspace_rules(rep, maps) if coordinates is None else _mask_rules(rep, coordinates)
    )
    # on subspaces, each map's image, whose meet with an element is the key
    # of the element's preimage: the one cached with the factorization that
    # ``preimage_of_meet`` lifts keys by
    ims = [g.matrix._factored()[1] for g in maps] if coordinates is None else None
    fam: Dict[str, Dict[Element, Witness]] = {}
    fresh: Dict[str, List[Element]] = {}
    # per object: each element's Subspace, in order of arrival
    spaces: Dict[str, Dict[Element, Subspace]] = {}
    # per object: each element's ordinal (order of arrival), the element of
    # each ordinal, and for the element of ordinal k, the ordinals of its
    # meets with ordinals 0..k-1.  The seed 0 has ordinal 0 and the full
    # space ordinal 1 (in a space of dimension 0 they are one element).
    ordinal: Dict[str, Dict[Element, int]] = {}
    element: Dict[str, List[Element]] = {}
    meets: Dict[str, List[List[Optional[int]]]] = {}
    # per object: the ordinals of the members in ``sort_key`` order, and
    # their sort keys; each round's fresh elements are merged in
    order: Dict[str, List[int]] = {}
    sort_keys: Dict[str, list] = {}
    for o in rep.objects:
        zero, full = seeds(o.dim)
        fam[o.id] = {zero: Witness("seed")}
        if full not in fam[o.id]:
            fam[o.id][full] = Witness("seed")
        space = spaces[o.id] = {s: subspace(o.id, s) for s in fam[o.id]}
        fresh[o.id] = sorted(space, key=lambda s: space[s].sort_key)
        element[o.id] = list(fam[o.id])
        ordinal[o.id] = {s: k for k, s in enumerate(element[o.id])}
        meets[o.id] = [[None] * k for k in range(len(element[o.id]))]
        order[o.id] = [ordinal[o.id][s] for s in fresh[o.id]]
        sort_keys[o.id] = [space[s].sort_key for s in fresh[o.id]]
    # per object, the elements the current round adds
    new: Dict[str, Dict[Element, Witness]] = {oid: {} for oid in fam}
    # the meets of two elements of dimension 2 or more intersected for
    # preimage keys, by object and the ordinals (lower first) of the pair;
    # the round's meet step takes them
    keyed: Dict[Tuple[str, int, int], Subspace] = {}
    rounds = 0

    def offer(oid: str, s: Element, rule: str, g: Optional[Generator],
              a: Element, b: Optional[Element] = None) -> int:
        """Add ``s`` unless already known (then with its witness: the rule,
        the map ``g`` and the source ``a``, or the sources ``a`` and ``b`` of
        a meet); return its ordinal."""
        ords = ordinal[oid]
        k = ords.get(s)
        if k is None:
            k = ords[s] = len(ords)
            element[oid].append(s)
            spaces[oid][s] = subspace(oid, s)
            if g is None:
                new[oid][s] = Witness(rule, None, (spaces[oid][a], spaces[oid][b]))
            else:
                at = g.dom if rule == "image" else g.cod
                new[oid][s] = Witness(rule, g.id, (spaces[at][a],))
            meets[oid].append([None] * k)
            _check_budget(oid, k + 1, rule, limits, rounds)
        return k

    def key(oid: str, b: Subspace, im: Subspace) -> Subspace:
        """b meet im, decided once.  In round 1, b is 0 or the full space,
        and the meet is one of them or im.  From round 2 on, im is an
        element (the image of the full space, from round 1), so b and im
        are a pair of this round's meet step unless b = im: the meet of a
        line and a larger element is one incidence, recorded here, and that
        of two larger ones is intersected and kept for the meet step."""
        small, big = (b, im) if len(b.basis) <= len(im.basis) else (im, b)
        k = len(small.basis)
        if k == 0 or len(big.basis) == big.ambient_dim:
            return small
        if k == len(big.basis) and small.basis == big.basis:
            return b
        zero = element[oid][0]
        if k == 1 and len(big.basis) == 1:
            return zero
        kb, ki = ordinal[oid][b], ordinal[oid][im]
        lo, hi = (kb, ki) if kb < ki else (ki, kb)
        if k == 1:
            m = small if incident(small, big) else zero
            meets[oid][hi][lo] = ordinal[oid][m]
            return m
        m = keyed.get((oid, lo, hi))
        if m is None:
            m = keyed[oid, lo, hi] = meet(b, im)
        return m

    def meet_step(oid: str) -> None:
        """Record the meet of every pair of members in which a fresh element
        takes part, by dimension class: 0 and the full space meet every
        element in 0 and in the element; two lines meet in 0; a line and a
        larger element meet in the line or in 0, by one incidence (unless
        ``key`` recorded it); and every other pair, of two elements of
        dimension 2 or more, is intersected (or takes its meet from ``key``)
        and offered, in ``sort_key`` order."""
        ords = order[oid]
        top = len(ords) - 1  # the position of the full space
        if not top:
            return
        elems, record = element[oid], meets[oid]
        first_fresh = len(ords) - len(fresh[oid])
        for k in range(max(first_fresh, 1), len(ords)):
            row = record[k]
            row[0] = 0
            if k > 1:
                row[1] = k
        mid = max(1, min(bisect_left(sort_keys[oid], (2,)), top))
        lines, mids = ords[1:mid], ords[mid:top]
        fresh_mids = [m for m in mids if m >= first_fresh]
        for ln in lines:
            if ln >= first_fresh:
                row = record[ln]
                for other in lines:
                    if other < ln:
                        row[other] = 0
            line = elems[ln]
            for m in mids if ln >= first_fresh else fresh_mids:
                lo, hi = (ln, m) if ln < m else (m, ln)
                row = record[hi]
                if row[lo] is None:
                    row[lo] = ln if incident(line, elems[m]) else 0
        # the pairs (i, j), i < j, in which a fresh element takes part
        fresh_at = [j for j in range(mid, top) if ords[j] >= first_fresh]
        for i in range(mid, top):
            ka = ords[i]
            a = elems[ka]
            later = range(i + 1, top) if ka >= first_fresh else fresh_at[bisect_right(fresh_at, i):]
            for j in later:
                kb = ords[j]
                b = elems[kb]
                lo, hi = (ka, kb) if ka < kb else (kb, ka)
                s = keyed.pop((oid, lo, hi), None) if keyed else None
                if s is None:
                    s = meet(a, b)
                record[hi][lo] = offer(oid, s, "intersect", None, a, b)

    # rounds until one adds nothing.  Semi-naive: a round derives only from
    # the elements the previous one added; older combinations were offered.
    try:
        while True:
            if rounds >= limits.max_rounds:
                raise ClosureDivergence(
                    f"no fixpoint after {limits.max_rounds} rounds",
                    rule="rounds",
                    rounds=rounds,
                    sizes={oid: len(members) for oid, members in fam.items()},
                )
            rounds += 1
            # step 1: the image and preimage offers
            for gi, (g, image_of, preimage) in enumerate(zip(maps, images, preimages)):
                for a in fresh[g.dom]:
                    offer(g.cod, image_of(a), "image", g, a)
                for b in fresh[g.cod]:
                    if ims is None:
                        offer(g.dom, preimage(b), "preimage", g, b)
                        continue
                    k = key(g.cod, b, ims[gi])
                    # from round 2 on, the preimages of keys 0 and im g,
                    # ker g and the full domain, are known (from round 1)
                    if rounds == 1 or (k.basis and k is not ims[gi]):
                        offer(g.dom, preimage(k), "preimage", g, b)
            if rounds == 1 and ims is not None:
                # the flag's own im g, which dict lookups find by identity
                ims = [element[g.cod][ordinal[g.cod][im]] for g, im in zip(maps, ims)]
            # step 2: the meet offers
            for oid in fam:
                meet_step(oid)
            if all(not added for added in new.values()):
                break
            for oid, added in new.items():
                fam[oid].update(added)
                space = spaces[oid]
                fresh[oid] = sorted(added, key=lambda s: space[s].sort_key)
                # merge the fresh elements into the members' sort order
                ords, keys, at = order[oid], sort_keys[oid], 0
                for s in fresh[oid]:
                    sk = space[s].sort_key
                    at = bisect_right(keys, sk, at)
                    keys.insert(at, sk)
                    ords.insert(at, ordinal[oid][s])
                    at += 1
                added.clear()
    except ClosureDivergence as stop:
        stop.reached = {oid: list(space.values()) for oid, space in spaces.items()}
        raise
    posets = {oid: build_poset(list(spaces[oid].values()), meets[oid]) for oid in fam}
    masks = None
    if coordinates is not None:
        masks = {}
        for oid, p in posets.items():
            mask_of = {s: mask for mask, s in spaces[oid].items()}
            masks[oid] = tuple(mask_of[s] for s in p.elements)
    return FlagAssignment(
        posets=posets,
        provenance={
            oid: {spaces[oid][s]: w for s, w in members.items()}
            for oid, members in fam.items()
        },
        rounds=rounds,
        coordinates=coordinates,
        masks=masks,
    )

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
of intersecting again.  A meet that dimension and containment already give
(``_known_meet``: the smaller element is zero or a line, or the larger is the
full space) is a known element and is recorded without intersecting; every
other pair is intersected and its meet offered.

On subspaces every intersection of a round is made once.  The preimage of b
under g is the lift of its key b meet im g (``preimage_of_meet``), and im g,
the image of the full seed, is an element from round 2 on, so the key is
the meet of a pair of the round's meet step (in round 1, b is 0 or the full
space, and the key is known).  A round runs in two steps:

1. the image and the preimage offers, map by map; a preimage's key is a
   known meet (``_known_meet``), or one kept earlier in the round, or it is
   intersected and kept under the ordinals of its pair;
2. the meet offers, pair by pair in ``sort_key`` order; a pair whose meet
   was kept in step 1 takes it instead of intersecting.

The offers, the ordinals and the witnesses are those of a round that
intersects every key anew.

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
sort key, the provenance sources and the reported form.  Only the
``Subspace`` kind records known meets without offering them and keeps the
keys of its preimages (a mask's preimage is one pass over its bits); an
offer of a known element adds nothing, so both kinds add the same elements
in the same order and give the same flag.  A flag closed on bitmasks also
hands out its coordinates and each element's mask (``FlagAssignment.masks``),
off which ``pipeline.build_families`` reads the projections.  ``Matching.of``
reads a map with ``monomial``, the scan ``realize.verify_envelope`` shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_right
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


def _known_meet(a: Subspace, b: Subspace, zero: Subspace) -> Optional[Subspace]:
    """The meet of distinct ``a`` and ``b``, dim a <= dim b, where dimension
    and containment give it without intersecting, or None.

    It is ``a`` when a is zero or b is the full space; ``zero`` when a and b
    are distinct lines; and for a line a in a larger b, a if b contains it,
    else ``zero``.  Either way it is an element already known.
    """
    k = len(a.basis)
    if k == 0 or len(b.basis) == b.ambient_dim:
        return a
    if k == 1:
        return a if len(b.basis) > 1 and b.contains(a) else zero
    return None


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
# dimension, the image and the preimage under each map, the meet, the known
# meet (``_known_meet``, or None where every meet is computed), and the
# Subspace of an element at an object, which is built once per element.  A
# Subspace preimage is taken of the element's meet with the map's image
# (``preimage_of_meet``), a bitmask one of the element itself.
_Rules = Tuple[
    Callable[[int], Tuple[Element, Element]],
    Sequence[Callable[[Element], Element]],
    Sequence[Callable[[Element], Element]],
    Callable[[Element, Element], Element],
    Optional[Callable[[Element, Element, Element], Optional[Element]]],
    Callable[[str, Element], Subspace],
]


def _subspace_rules(rep: Representation, maps: Sequence[Generator]) -> _Rules:
    return (
        lambda n: (Subspace.zero(rep.field, n), Subspace.full(rep.field, n)),
        [partial(map_image, g.matrix) for g in maps],
        [partial(preimage_of_meet, g.matrix) for g in maps],
        sub_intersect,
        _known_meet,
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
        None,
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
    seeds, images, preimages, meet, known_meet, subspace = (
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
    # per object: each element's ordinal (order of arrival), and for the
    # element of ordinal k, the ordinals of its meets with ordinals 0..k-1
    ordinal: Dict[str, Dict[Element, int]] = {}
    meets: Dict[str, List[List[Optional[int]]]] = {}
    for o in rep.objects:
        zero, full = seeds(o.dim)
        fam[o.id] = {zero: Witness("seed")}
        if full not in fam[o.id]:
            fam[o.id][full] = Witness("seed")
        space = spaces[o.id] = {s: subspace(o.id, s) for s in fam[o.id]}
        fresh[o.id] = sorted(space, key=lambda s: space[s].sort_key)
        ordinal[o.id] = {s: k for k, s in enumerate(fam[o.id])}
        meets[o.id] = [[None] * k for k in range(len(fam[o.id]))]
    # per object, the elements the current round adds
    new: Dict[str, Dict[Element, Witness]] = {oid: {} for oid in fam}
    # the meets intersected for preimage keys, by object and the ordinals
    # (lower first) of the pair; the round's meet step takes them
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
        """b meet im, intersected at most once.  im arrived in round 1 (as
        the image of the full space), so from round 2 on the fresh b and im
        are a pair of this round's meet step, unless b = im; in round 1, b
        is 0 or the full space, and the meet is known."""
        small, big = (b, im) if len(b.basis) <= len(im.basis) else (im, b)
        if small.basis == big.basis:
            return b
        m = known_meet(small, big, next(iter(fam[oid])))  # the seed 0 comes first
        if m is None:
            kb, ki = ordinal[oid][b], ordinal[oid][im]
            pair = (oid, kb, ki) if kb < ki else (oid, ki, kb)
            m = keyed.get(pair)
            if m is None:
                m = keyed[pair] = meet(b, im)
        return m

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
                    arg = b if ims is None else key(g.cod, b, ims[gi])
                    offer(g.dom, preimage(arg), "preimage", g, b)
            # step 2: the meet offers
            for oid, members in fam.items():
                space = spaces[oid]
                elems = sorted(members, key=lambda s: space[s].sort_key)
                # each position's ordinal: ``members`` has 0..len-1, fresh last
                ords = [ordinal[oid][s] for s in elems]
                first_fresh = len(members) - len(fresh[oid])
                # the pairs (i, j), i < j, in which a fresh element takes part
                fresh_at = [j for j, k in enumerate(ords) if k >= first_fresh]
                record = meets[oid]
                zero = elems[0]  # first in sort_key order
                for i, a in enumerate(elems):
                    ka = ords[i]
                    if ka >= first_fresh:
                        later = range(i + 1, len(elems))
                    else:
                        later = fresh_at[bisect_right(fresh_at, i):]
                    for j in later:
                        b = elems[j]  # dim a <= dim b, by the sort
                        known = known_meet(a, b, zero) if known_meet else None
                        kb = ords[j]
                        lo, hi = (ka, kb) if ka < kb else (kb, ka)
                        if known is None:
                            s = keyed.pop((oid, lo, hi), None) if keyed else None
                            if s is None:
                                s = meet(a, b)
                            m = offer(oid, s, "intersect", None, a, b)
                        else:
                            # a known meet is a or zero
                            m = ka if known is a else ords[0]
                        record[hi][lo] = m
            if all(not added for added in new.values()):
                break
            for oid, added in new.items():
                fam[oid].update(added)
                space = spaces[oid]
                fresh[oid] = sorted(added, key=lambda s: space[s].sort_key)
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

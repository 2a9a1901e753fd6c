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
loudly instead of spinning.  When a limit stops it, the elements of the
completed rounds are closed under meets (within the element limit) and
handed over with the ``ClosureDivergence``, so that the pipeline can still
refute the input by the rank count.

Every pair of final elements is intersected exactly once, in the round after
the later of the two arrived.  Those meets are recorded by element ordinal
and handed to ``build_poset``, which reads the order and the covers off them
instead of intersecting again.

The same loop runs on one of two kinds of element.  By default an element is
a ``Subspace``, and the rules are ``map_image``, ``map_preimage`` and
``sub_intersect``.  Given ``BasisCoordinates`` (a basis per object in which
every map is a partial matching of basis indices, see ``Matching``), every
element is a coordinate subspace and is held as the bitmask of its basis
indices: an image is the OR of the matched bits, a preimage the unmatched
bits plus the bits matched into the target, a meet a bitwise AND, and
equal masks are equal subspaces.  A mask's ``Subspace``, the span of its
basis vectors, is built once, when the mask first appears; it gives the
sort key, the provenance sources and the reported form.  Both kinds make the
same offers in the same order, so they give the same flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_right
from functools import partial
from operator import and_
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ClosureDivergence
from .linalg import Matrix, Subspace, map_image, map_preimage, sub_intersect
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


def _partial_flag(
    fam: Dict[str, Dict[Subspace, Witness]], rounds: int, limits: ClosureLimits
) -> Optional[FlagAssignment]:
    """The meet closure of the elements in ``fam``, reached after ``rounds``
    rounds, or None where an object would exceed the element limit.

    Each element is intersected once with every element before it, and a new
    meet joins the end of the queue, so every pair is intersected once.
    """
    posets: Dict[str, SubspacePoset] = {}
    provenance: Dict[str, Dict[Subspace, Witness]] = {}
    for oid, members in fam.items():
        prov = dict(members)
        elems = list(members)
        index = {s: k for k, s in enumerate(elems)}
        meets: List[List[Optional[int]]] = [[None] * k for k in range(len(elems))]
        k = 0
        while k < len(elems):
            for i in range(k):
                m = sub_intersect(elems[i], elems[k])
                j = index.get(m)
                if j is None:
                    if len(elems) >= limits.max_elements_per_object:
                        return None
                    j = index[m] = len(elems)
                    elems.append(m)
                    meets.append([None] * j)
                    prov[m] = Witness("intersect", None, (elems[i], elems[k]))
                meets[k][i] = j
            k += 1
        posets[oid] = build_poset(elems, meets)
        provenance[oid] = prov
    return FlagAssignment(posets=posets, provenance=provenance, rounds=rounds)


class Matching(NamedTuple):
    """A map that sends each basis vector to a nonzero multiple of a basis
    vector, no two to the same one, or to zero: a partial matching of basis
    indices.  A set of indices is a bitmask."""

    image_bits: Tuple[int, ...]     # per domain index: the bit it is matched to, or 0
    preimage_bits: Tuple[int, ...]  # per codomain index: the bit matched to it, or 0
    unmatched: int                  # the bits of the domain indices matched to nothing

    @classmethod
    def of(cls, m: Matrix) -> Optional["Matching"]:
        """The matching of ``m``, or None when a row or a column of ``m`` has
        two nonzero entries."""
        image_bits = [0] * m.cols
        preimage_bits = [0] * m.rows
        for i, row in enumerate(m.entries):
            for j, x in enumerate(row):
                if x:
                    if image_bits[j] or preimage_bits[i]:
                        return None
                    image_bits[j] = 1 << i
                    preimage_bits[i] = 1 << j
        return cls._of_bits(tuple(image_bits), tuple(preimage_bits))

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
# dimension, the image and the preimage under each map, the meet, and the
# Subspace of an element at an object, which is built once per element.
_Rules = Tuple[
    Callable[[int], Tuple[Element, Element]],
    Sequence[Callable[[Element], Element]],
    Sequence[Callable[[Element], Element]],
    Callable[[Element, Element], Element],
    Callable[[str, Element], Subspace],
]


def _subspace_rules(rep: Representation, maps: Sequence[Generator]) -> _Rules:
    return (
        lambda n: (Subspace.zero(rep.field, n), Subspace.full(rep.field, n)),
        [partial(map_image, g.matrix) for g in maps],
        [partial(map_preimage, g.matrix) for g in maps],
        sub_intersect,
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
    result is the same.
    """
    maps: List[Generator] = list(rep.generators) + list(extra_maps)
    seeds, images, preimages, meet, subspace = (
        _subspace_rules(rep, maps) if coordinates is None else _mask_rules(rep, coordinates)
    )
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

    rounds = 0
    completed = 0  # rounds whose elements are all in ``fam``
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
            new: Dict[str, Dict[Element, Witness]] = {oid: {} for oid in fam}

            def offer(oid: str, s: Element, rule: str, g: Optional[Generator],
                      a: Element, b: Optional[Element] = None) -> int:
                """Add ``s`` unless already known (then with its witness: the
                rule, the map ``g`` and the source ``a``, or the sources ``a``
                and ``b`` of a meet); return its ordinal."""
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

            # semi-naive: only derive from elements added in the previous round;
            # older combinations were already offered.
            for g, image, preimage in zip(maps, images, preimages):
                for a in fresh[g.dom]:
                    offer(g.cod, image(a), "image", g, a)
                for b in fresh[g.cod]:
                    offer(g.dom, preimage(b), "preimage", g, b)
            for oid, members in fam.items():
                fresh_set = set(fresh[oid])
                space = spaces[oid]
                elems = sorted(members, key=lambda s: space[s].sort_key)
                # the pairs (i, j), i < j, in which a fresh element takes part
                fresh_at = [j for j, s in enumerate(elems) if s in fresh_set]
                ords = ordinal[oid]
                record = meets[oid]
                for i, a in enumerate(elems):
                    if a in fresh_set:
                        later = range(i + 1, len(elems))
                    else:
                        later = fresh_at[bisect_right(fresh_at, i):]
                    for j in later:
                        b = elems[j]
                        m = offer(oid, meet(a, b), "intersect", None, a, b)
                        ka, kb = ords[a], ords[b]
                        if ka < kb:
                            record[kb][ka] = m
                        else:
                            record[ka][kb] = m
            if all(not added for added in new.values()):
                break
            for oid, added in new.items():
                fam[oid].update(added)
                space = spaces[oid]
                fresh[oid] = sorted(added, key=lambda s: space[s].sort_key)
            completed = rounds
    except ClosureDivergence as stop:
        stop.partial = _partial_flag(_as_subspaces(fam, spaces), completed, limits)
        raise

    posets = {oid: build_poset(list(spaces[oid].values()), meets[oid]) for oid in fam}
    return FlagAssignment(posets=posets, provenance=_as_subspaces(fam, spaces), rounds=rounds)


def _as_subspaces(
    fam: Dict[str, Dict[Element, Witness]], spaces: Dict[str, Dict[Element, Subspace]]
) -> Dict[str, Dict[Subspace, Witness]]:
    return {
        oid: {spaces[oid][s]: w for s, w in members.items()} for oid, members in fam.items()
    }

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

One driver (``_close``) runs every closure, over one ``_Closing`` per
object: its elements by ordinal, the order of arrival, and for each member
its down-set mask, the bits of the ordinals of the members found to lie in
it.  The elements a round adds join the members at the round's end (the
seeds before round 1); those of the last join are the fresh ones, in
``sort_key`` order, and the members keep that order across rounds.  A round
runs in three steps:

1. the image and the preimage offers of the fresh elements, map by map,
   read by the map's two readers;
2. the meet offers, object by object: the meet of each pair of members of
   dimension 2 or more, neither the full space, at least one of them fresh,
   in ``sort_key`` pair order (``meet_closure`` takes the reverse);
3. the join of the elements the round added.

A round that adds nothing ends the closure.  The driver alone keeps the
rounds, the limits and each element's witness, recorded as the rule, the
map and the sources' ordinals.  A returned flag keeps those records and
each object's elements by ordinal, and makes them ``Witness`` objects only
when its provenance is first read, which only the ``flag`` command does.
Every containment between two members is decided once, while closing.  The
join sets those that dimension decides: 0 lies in every element and every
element in the full space, two lines are incomparable, and a line lies in a
larger element or meets it in 0.  A meet that is one of its pair sets that
bit.  ``poset.assemble_poset`` takes the masks, their bits moved to the
members' ``sort_key`` positions in one pass over each mask, with no
intersection; the poset builds its Hasse covers off them only when they
are read.

Two kinds of element close through the driver, and only these differ:

* *Subspaces* (``_Closing``).  A meet is ``sub_intersect``, and the lines in
  a larger element are found by one incidence test (dot products with its
  cached normal rows, for all the lines to test at once).  The preimage of
  b under g is the lift of its key b meet im g (``preimage_of_meet``),
  read off the masks where they decide it, and otherwise one intersection,
  kept for the meet step (see ``_readers``).  The image of a preimage is
  the key it was lifted from, which ``map_image`` reads off the map's
  factorization.  Round 1's offers, the images and preimages of the seeds,
  are all read off it, with no elimination.
* *Basis-index masks* (``_OnMasks``).  Given ``BasisCoordinates`` (a basis
  per object in which every map is a partial matching of basis indices, see
  ``Matching``), every element is a coordinate subspace, held as the
  bitmask of its basis indices: an image is the OR of the matched bits, a
  preimage the unmatched bits plus the bits matched into the target, a meet
  a bitwise AND, containment the test m & n == m, and equal masks are equal
  subspaces.  A known mask is one dict hit.  A mask's ``Subspace``, the span
  of its basis vectors, is built once, on first arrival; it gives the sort
  key, the witness sources, ``reached`` and the reported form.  A flag
  closed on bitmasks also hands out each element's mask
  (``FlagAssignment.masks``), off which ``pipeline.build_families`` reads
  the projections in the bases it was closed in.  ``Matching.of`` reads a
  map with ``monomial``, the scan ``realize.verify_envelope`` shares.

Both kinds run the same steps in the same order, so where both apply they
reach the same elements at the same offers, with the same witnesses, and
the same limits stop them.

``meet_closure`` is the driver on a family alone, with no maps: it joins
the family with 0 and the full space and meets until a step adds nothing,
and returns the poset of the down-sets that sets.

When a limit stops the closure, the ``ClosureDivergence`` carries, per
object, every element reached so far in order of arrival (``reached``): the
seeds first, and the elements of the round it stopped in included.  Each is
a seed or follows by a rule from elements that arrived before it, so each
lies in the least fixpoint, and ``pipeline.analyze`` can refute the input by
the rank count on a part of them.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass
from bisect import bisect_left, bisect_right
from functools import partial, reduce
from itertools import compress
from operator import and_
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import ClosureDivergence, MissingBounds
from .fields import Field, Scalar
from .linalg import Matrix, Subspace, map_image, preimage_of_meet, sub_intersect
from .poset import SubspacePoset, ambient_space, assemble_poset, bits, export_dot
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
    # per object, each element's witness in order of arrival; a closure's
    # own is built per object when first read (``_Provenance``)
    provenance: Mapping[str, Dict[Subspace, Witness]]
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


# how an element first arrived: its rule, its map and its sources' ordinals
_Step = Tuple[str, Optional[Union[Generator, Arrow]], Tuple[int, ...]]


class _Provenance(Mapping):
    """A closure's provenance, per object: each element's ``Witness``, in
    order of arrival, built off the ``_Step`` records when the object is
    first read.  It holds only the steps and each object's elements by
    ordinal (``spaces``), off which the sources are read."""

    def __init__(self, steps: Dict[str, List[_Step]], spaces: Dict[str, List[Subspace]]) -> None:
        self._steps, self._spaces = steps, spaces
        self._built: Dict[str, Dict[Subspace, Witness]] = {}

    def __getitem__(self, oid: str) -> Dict[Subspace, Witness]:
        out = self._built.get(oid)
        if out is None:
            out = self._built[oid] = self._witnesses(oid)
        return out

    def __iter__(self) -> Iterator[str]:
        return iter(self._steps)

    def __len__(self) -> int:
        return len(self._steps)

    def _witnesses(self, oid: str) -> Dict[Subspace, Witness]:
        """Each element's ``Witness``, its sources read off their ordinals."""
        seed, out = Witness("seed"), []
        for rule, g, sources in self._steps[oid]:
            if rule == "seed":
                out.append(seed)
            else:
                at = self._spaces[oid if g is None else g.dom if rule == "image" else g.cod]
                out.append(Witness(rule, None if g is None else g.id, tuple(map(at.__getitem__, sources))))
        return dict(zip(self._spaces[oid], out))


def _fresh_pairs(mids: Sequence[int], first: int, largest_first: bool) -> Iterator[Tuple[int, int]]:
    """The pairs of the ordinals ``mids``, given in ``sort_key`` order, in
    which a fresh one (an ordinal of ``first`` or more) takes part, in
    ``sort_key`` pair order or, ``largest_first``, in its exact reverse."""
    fresh_at = [j for j, k in enumerate(mids) if k >= first]
    rows = range(len(mids))
    for i in reversed(rows) if largest_first else rows:
        ka = mids[i]
        later = range(i + 1, len(mids)) if ka >= first else fresh_at[bisect_right(fresh_at, i):]
        for j in reversed(later) if largest_first else later:
            yield ka, mids[j]


class _Closing:
    """One object's family of subspaces while it closes, by ordinal (order
    of arrival): each element, its ordinal, and for a member the mask of
    the ordinals of the members found to lie in it so far.  Ordinal 0 is
    the zero space, and the full space is given with it.  ``spaces`` holds
    each element's ``Subspace``, here the element itself.  ``order`` holds
    the members' ordinals in ``sort_key`` order and ``sort_keys`` their
    keys; ``fresh`` those of the last join and ``larger`` those of
    dimension 2 or more but not the full space, both in that order;
    ``kept`` the meets of two larger elements intersected for preimage
    keys, by the pair's ordinals (lower first), for the meet step to take."""

    __slots__ = ("elements", "spaces", "ordinal", "down", "order", "sort_keys", "fresh", "larger", "kept")

    def __init__(self, elements: list, spaces: Optional[List[Subspace]] = None) -> None:
        self.elements = elements
        self.spaces = elements if spaces is None else spaces
        self.ordinal = {x: k for k, x in enumerate(elements)}
        self.down, self.order, self.sort_keys, self.fresh, self.larger = [], [], [], [], []
        self.kept: Dict[Tuple[int, int], Subspace] = {}
        self.join()

    def add(self, x) -> int:
        """Add the new element ``x``; return its ordinal."""
        k = self.ordinal[x] = len(self.elements)
        self.elements.append(x)
        return k

    def _meet(self, a: Subspace, b: Subspace) -> Subspace:
        return sub_intersect(a, b)

    def _lines_in(self, lines: List[int], larger: List[int]) -> None:
        """Set the bit of each of ``lines`` in each of ``larger`` it lies in,
        by one incidence test per larger element."""
        elems, below = self.elements, self.down
        rows = [elems[ln]._ints()[0][0] for ln in lines]
        for m in larger:
            for i in elems[m]._holding(rows):
                below[m] |= 1 << lines[i]

    def join(self) -> None:
        """Make the elements offered since the last join members, inserting
        each into ``order`` and its key into ``sort_keys`` in ``sort_key``
        order, and the fresh ones; and set the bits of each one's
        containments that dimension decides: 0 lies in it and it in the full
        space, and a line lies in a larger element or meets it in 0."""
        ords, keys, below = self.order, self.sort_keys, self.down
        first, n = len(ords), len(self.elements)
        if first == n:
            self.fresh = []
            return
        joining = sorted((self.spaces[k].sort_key, k) for k in range(first, n))
        at = 0
        for sk, k in joining:
            at = bisect_right(keys, sk, at)
            keys.insert(at, sk)
            ords.insert(at, k)
            at += 1
        self.fresh = [k for _, k in joining]
        below.extend(1 | 1 << k for k in range(first, n))
        below[ords[-1]] = (1 << n) - 1
        # each pair of a line and a larger element, one of them fresh
        top = len(ords) - 1  # the position of the full space
        mid = max(1, min(bisect_left(keys, (2,)), top))
        lines, mids = ords[1:mid], ords[mid:top]
        self.larger = mids
        if lines and mids:
            self._lines_in(lines, [m for m in mids if m >= first])
            self._lines_in([ln for ln in lines if ln >= first], [m for m in mids if m < first])

    def meet_step(self, add: Callable[[object, int, int], None], largest_first: bool) -> None:
        """Meet every pair of larger members in which a fresh one takes part
        (or take the meet ``kept``), in ``_fresh_pairs`` order, and ``add``
        each new meet with its pair's ordinals.  A meet that is one of its
        pair sets the bit of that containment."""
        if not self.fresh:
            return
        elems, below, kept, known, meet = self.elements, self.down, self.kept, self.ordinal, self._meet
        for ka, kb in _fresh_pairs(self.larger, len(self.order) - len(self.fresh), largest_first):
            x = kept.pop((ka, kb) if ka < kb else (kb, ka), None) if kept else None
            if x is None:
                x = meet(elems[ka], elems[kb])
            k = known.get(x)
            if k is None:
                add(x, ka, kb)
            elif k == ka:
                below[kb] |= 1 << ka
            elif k == kb:
                below[ka] |= 1 << kb

    def poset(self) -> SubspacePoset:
        """The poset of the members: each mask's bits go to the members'
        ``sort_key`` positions."""
        bit = [0] * len(self.order)
        for i, k in enumerate(self.order):
            bit[k] = 1 << i
        return assemble_poset(
            [self.spaces[k] for k in self.order],
            [sum(compress(bit, bits(self.down[k]))) for k in self.order],
        )


class _OnMasks(_Closing):
    """One object's family of basis-index masks while it closes (see
    ``_Closing``): a meet is a bitwise AND, containment the test
    m & n == m, and each mask's ``Subspace``, the span of its basis
    vectors, is built when the mask first arrives."""

    __slots__ = ("field", "columns")
    _meet = staticmethod(and_)

    def __init__(self, field: Field, basis: Matrix) -> None:
        self.field, self.columns = field, basis._ints()[2]
        n = len(self.columns)
        masks = list(dict.fromkeys((0, (1 << n) - 1)))
        super().__init__(masks, [Subspace.zero(field, n), Subspace.full(field, n)][: len(masks)])

    def add(self, mask: int) -> int:
        cols = self.columns
        vectors = [c for j, c in enumerate(cols) if mask >> j & 1]
        self.spaces.append(Subspace.span(self.field, len(cols), vectors))
        return super().add(mask)

    def _lines_in(self, lines: List[int], larger: List[int]) -> None:
        elems, below = self.elements, self.down
        for m in larger:
            n = elems[m]
            below[m] |= sum(1 << ln for ln in lines if elems[ln] & n == elems[ln])


# A map's readers: the image of an element of its domain, and the preimage
# of member b of its codomain's family, each the element to offer at the
# other end or None where that offer is known.  The preimage reader takes
# the family and b, since on subspaces it reads b's down-set.
_ImageReader = Callable[[object], object]
_PreimageReader = Callable[[_Closing, int], object]


def _close(
    family: Dict[str, _Closing],
    maps: Sequence[Tuple[Union[Generator, Arrow], _ImageReader, _PreimageReader]],
    limits: ClosureLimits,
    largest_first: bool = False,
) -> Tuple[int, Dict[str, List[_Step]]]:
    """Close ``family`` under ``maps``, each with its image and preimage
    readers, and meets, by rounds (see the module docstring), taking each
    meet step's pairs largest first where asked.  Return the rounds and,
    per object, each element's ``_Step`` by ordinal.  Where a limit stops
    it, the ``ClosureDivergence`` carries ``reached``."""
    steps = {oid: [("seed", None, ())] * len(f.elements) for oid, f in family.items()}
    rounds = 0

    def add(oid: str, x: object, rule: str, g: Optional[Union[Generator, Arrow]], *sources: int) -> None:
        k = family[oid].add(x)
        steps[oid].append((rule, g, sources))
        if k + 1 > limits.max_elements_per_object:
            raise ClosureDivergence(
                f"flag({oid}) exceeded {limits.max_elements_per_object} elements "
                f"while applying rule {rule!r}",
                object=oid,
                rule=rule,
                partial_size=k + 1,
                rounds=rounds,
            )

    # rounds until one adds nothing.  Semi-naive: a round derives only from
    # the elements of the last join; older combinations were offered.
    try:
        while True:
            if rounds >= limits.max_rounds:
                sizes = {oid: len(f.elements) for oid, f in family.items()}
                raise ClosureDivergence(
                    f"no fixpoint after {limits.max_rounds} rounds", rule="rounds", rounds=rounds, sizes=sizes
                )
            rounds += 1
            for g, image, preimage in maps:
                dom, cod = family[g.dom], family[g.cod]
                for a in dom.fresh:
                    x = image(dom.elements[a])
                    if x not in cod.ordinal:
                        add(g.cod, x, "image", g, a)
                for b in cod.fresh:
                    x = preimage(cod, b)
                    if x is not None and x not in dom.ordinal:
                        add(g.dom, x, "preimage", g, b)
            for oid, fam in family.items():
                fam.meet_step(lambda x, ka, kb: add(oid, x, "intersect", None, ka, kb), largest_first)
            if all(len(f.order) == len(f.elements) for f in family.values()):
                return rounds, steps
            for fam in family.values():
                fam.join()
    except ClosureDivergence as stop:
        stop.reached = {oid: list(f.spaces) for oid, f in family.items()}
        raise


def _readers(g: Generator) -> Tuple[Generator, _ImageReader, _PreimageReader]:
    """``g`` with its readers on subspaces: ``map_image``, and the lift by
    ``preimage_of_meet`` of the key b meet im g of member b's preimage, or
    None where that preimage is known.  In round 1, b is a seed (ordinal 0
    or 1), and the key is 0 or im g, whose preimages ker g and the full
    domain, like the images of the domain's seeds, are read off the memos
    that ``Matrix._factored`` seeds.  From round 2 on, b and im g are
    members: where one lies in the other, the key is b, or None for im g;
    the meet of two that do not, one of them a line, is 0, whose preimage
    is known; and the meet of two elements of dimension 2 or more is one
    intersection, kept for the meet step.  The join has set every bit these
    read: b is fresh, so the meet step has not yet met it with a larger
    element.  The preimages of the keys 0 and im g, ker g and the full
    domain, arrived in round 1."""
    # g's image, the one cached with the factorization keys are lifted by
    m, im = g.matrix, g.matrix._factored()[1]
    i = None  # the ordinal of im g, from round 2 on

    def preimage(fam: _Closing, b: int) -> Optional[Subspace]:
        nonlocal i
        elems = fam.elements
        if b < 2:
            return preimage_of_meet(m, im if b else elems[0])
        if i is None:
            i = fam.ordinal[im]
        below = fam.down
        if below[b] >> i & 1:
            return None
        if below[i] >> b & 1:
            return preimage_of_meet(m, elems[b])
        if elems[b].dim < 2 or elems[i].dim < 2:
            return None
        pair = (b, i) if b < i else (i, b)
        key = fam.kept.get(pair)
        if key is None:
            key = fam.kept[pair] = sub_intersect(elems[b], elems[i])
        return preimage_of_meet(m, key)

    return g, partial(map_image, m), preimage


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
    closure runs on bitmasks of basis indices, and reads of an extra map
    only its id and ends (an ``Arrow`` will do); the result is the same, and
    carries each element's mask.

    Where a limit stops the closure, the ``ClosureDivergence`` carries each
    object's elements in order of arrival as ``reached`` (see the module
    docstring).
    """
    maps, field = list(rep.generators) + list(extra_maps), rep.field
    if coordinates is None:
        # per object: the seed 0 at ordinal 0 and the full space at ordinal
        # 1 (in a space of dimension 0 they are one element)
        family = {
            o.id: _Closing(list(dict.fromkeys((Subspace.zero(field, o.dim), Subspace.full(field, o.dim)))))
            for o in rep.objects
        }
        readers = [_readers(g) for g in maps]
    else:
        family = {o.id: _OnMasks(field, coordinates.bases[o.id]) for o in rep.objects}
        readers = [
            (g, m.image, lambda fam, b, m=m: m.preimage(fam.elements[b]))
            for g, m in zip(maps, coordinates.matchings)
        ]
    rounds, steps = _close(family, readers, limits)
    masks = None
    if coordinates is not None:
        masks = {oid: tuple(f.elements[k] for k in f.order) for oid, f in family.items()}
    return FlagAssignment(
        posets={oid: f.poset() for oid, f in family.items()},
        provenance=_Provenance(steps, {oid: f.spaces for oid, f in family.items()}),
        rounds=rounds,
        masks=masks,
    )


def meet_closure(subspaces: Iterable[Subspace], limit: Optional[int] = None) -> Optional[SubspacePoset]:
    """The poset of the closure of a family under pairwise intersection, or
    None where it has more than ``limit`` members: the driver on the family
    alone, with no maps.  It needs no round limit, since every member is a
    meet of finitely many given ones.

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
    limits = ClosureLimits(sys.maxsize, sys.maxsize if limit is None else limit)
    try:
        # Largest pairs first, where the meets are most often new, so a
        # closure past ``limit`` finds out soonest.  Unlike compute_flag's,
        # whose arrival order is printed, this result does not depend on it.
        _close({"": closing}, (), limits, largest_first=True)
    except ClosureDivergence:
        return None
    return closing.poset()

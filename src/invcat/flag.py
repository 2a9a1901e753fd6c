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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ClosureDivergence
from .linalg import Subspace, map_image, map_preimage, sub_intersect
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
    extra_maps: Tuple[Generator, ...] = ()

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


def compute_flag(
    rep: Representation,
    limits: ClosureLimits = ClosureLimits(),
    extra_maps: Sequence[Generator] = (),
) -> FlagAssignment:
    """Least fixpoint of the closure rules, deduplicated by canonical form.

    ``extra_maps`` adjoins additional linear maps (same closure rules) without
    touching the representation itself; the pipeline uses this to saturate a
    passing flag with constructed pseudo-inverses.
    """
    fam: Dict[str, Dict[Subspace, Witness]] = {}
    fresh: Dict[str, List[Subspace]] = {}
    # per object: each element's ordinal (order of arrival), and for the
    # element of ordinal k, the ordinals of its meets with ordinals 0..k-1
    ordinal: Dict[str, Dict[Subspace, int]] = {}
    meets: Dict[str, List[List[Optional[int]]]] = {}
    for o in rep.objects:
        zero = Subspace.zero(rep.field, o.dim)
        full = Subspace.full(rep.field, o.dim)
        fam[o.id] = {zero: Witness("seed")}
        if full not in fam[o.id]:
            fam[o.id][full] = Witness("seed")
        fresh[o.id] = sorted(fam[o.id], key=lambda s: s.sort_key)
        ordinal[o.id] = {s: k for k, s in enumerate(fam[o.id])}
        meets[o.id] = [[None] * k for k in range(len(fam[o.id]))]
    maps: List[Generator] = list(rep.generators) + list(extra_maps)

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
            new: Dict[str, Dict[Subspace, Witness]] = {oid: {} for oid in fam}

            def offer(oid: str, s: Subspace, rule: str, generator: Optional[str],
                      sources: Tuple[Subspace, ...]) -> int:
                """Add ``s`` unless already known (then with its witness);
                return its ordinal."""
                ords = ordinal[oid]
                k = ords.get(s)
                if k is None:
                    k = ords[s] = len(ords)
                    new[oid][s] = Witness(rule, generator, sources)
                    meets[oid].append([None] * k)
                    _check_budget(oid, k + 1, rule, limits, rounds)
                return k

            # semi-naive: only derive from elements added in the previous round;
            # older combinations were already offered.
            for g in maps:
                for a in fresh[g.dom]:
                    offer(g.cod, map_image(g.matrix, a), "image", g.id, (a,))
                for b in fresh[g.cod]:
                    offer(g.dom, map_preimage(g.matrix, b), "preimage", g.id, (b,))
            for oid, members in fam.items():
                fresh_set = set(fresh[oid])
                elems = sorted(members, key=lambda s: s.sort_key)
                ords = ordinal[oid]
                record = meets[oid]
                for i, a in enumerate(elems):
                    for b in elems[i + 1:]:
                        if a not in fresh_set and b not in fresh_set:
                            continue
                        m = offer(oid, sub_intersect(a, b), "intersect", None, (a, b))
                        ka, kb = ords[a], ords[b]
                        if ka < kb:
                            record[kb][ka] = m
                        else:
                            record[ka][kb] = m
            if all(not added for added in new.values()):
                break
            for oid, added in new.items():
                fam[oid].update(added)
                fresh[oid] = sorted(added, key=lambda s: s.sort_key)
            completed = rounds
    except ClosureDivergence as stop:
        stop.partial = _partial_flag(fam, completed, limits)
        raise

    posets = {oid: build_poset(list(ordinal[oid]), meets[oid]) for oid in fam}
    return FlagAssignment(
        posets=posets,
        provenance=fam,
        rounds=rounds,
        extra_maps=tuple(extra_maps),
    )

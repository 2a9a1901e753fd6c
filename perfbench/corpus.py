"""Seeded input corpora for the benchmark, with ground truth from the generator.

The generators are ported from the test suite's fixtures and kept here, so
that an edit to the tests cannot change what the benchmark measures.  Every
instance is a pure function of (workload, seed, index).

The shape of each instance does not depend on the seed.  The index picks the
number of vertices (interval corpora) or planes (stars) in a fixed rotation,
and the interval layout comes from a stream keyed by the index alone.  The
seed draws everything else: edge orientations, scalars, the change of basis
and the plane coordinates.  The cost of one instance varies by two orders of
magnitude with its shape, so shapes drawn per seed would make the corpus mix,
not the program, the main source of run-to-run spread.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from invcat import GF, RATIONALS, Field, Matrix, image, inverse
from invcat.rep import Generator, RepObject, Representation

PRIME = 10007

# interval_corpus_instance(rng, 6, 4, 6) in the test fixtures
MAX_VERTICES = 6
MAX_DIM = 4
MAX_INTERVALS = 6

STAR_PLANES = tuple(range(8, 15))
STAR_AMBIENT = 3


@dataclass(frozen=True)
class Instance:
    """One benchmark input: its bytes plus what a correct run must report."""

    name: str
    data: bytes
    # sorted summand dimension vectors in object order; None when the
    # instance must be refuted instead
    expected_dims: Optional[Tuple[Tuple[int, ...], ...]]
    object_ids: Tuple[str, ...]
    # refuted instances only: a certificate that ``verify`` must reject
    decoy_certificate: Optional[bytes] = None

    @property
    def must_pass(self) -> bool:
        return self.expected_dims is not None


def _interval_instance(
    layout: random.Random, rng: random.Random, field: Field, n: int
) -> Tuple[Representation, List[Tuple[int, ...]]]:
    """A random direct sum of interval blockcodes over an A_n quiver.

    ``layout`` draws the intervals, ``rng`` the orientations and scalars.
    """
    orientations = [rng.random() < 0.5 for _ in range(max(0, n - 1))]
    while True:
        count = layout.randint(1, MAX_INTERVALS)
        intervals = []
        for _ in range(count):
            i = layout.randint(0, n - 1)
            j = layout.randint(i, n - 1)
            intervals.append((i, j))
        coverage = [sum(1 for (i, j) in intervals if i <= v <= j) for v in range(n)]
        if max(coverage) <= MAX_DIM:
            break
    objects = tuple(RepObject(f"v{k}", coverage[k]) for k in range(n))
    slot = {}
    for v in range(n):
        live = [s for s, (i, j) in enumerate(intervals) if i <= v <= j]
        for pos, s in enumerate(live):
            slot[(v, s)] = pos
    gens = []
    for e in range(n - 1):
        src, dst = (e, e + 1) if orientations[e] else (e + 1, e)
        rows, cols = coverage[dst], coverage[src]
        data = [[Fraction(0)] * cols for _ in range(rows)]
        for s, (i, j) in enumerate(intervals):
            if i <= e and e + 1 <= j:
                data[slot[(dst, s)]][slot[(src, s)]] = Fraction(rng.choice([1, 2, 3, -1, -2]))
        gens.append(Generator(f"e{e}", f"v{src}", f"v{dst}", Matrix.build(field, rows, cols, data)))
    expected = sorted(tuple(1 if i <= v <= j else 0 for v in range(n)) for (i, j) in intervals)
    return Representation(field, objects, tuple(gens)), expected


def _random_invertible(rng: random.Random, field: Field, n: int) -> Matrix:
    """Product of shears: invertible by construction."""
    m = Matrix.identity(field, n)
    if n == 0:
        return m
    for _ in range(2 * n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        lam = field.coerce(rng.choice([-2, -1, 1, 2]))
        shear = tuple(
            tuple(field.one if r == c else (lam if (r, c) == (i, j) else field.zero) for c in range(n))
            for r in range(n)
        )
        m = Matrix(field, n, n, shear) @ m
    return m


def _conjugate(rng: random.Random, rep: Representation) -> Representation:
    """Apply a random invertible change of basis at every object."""
    changes = {o.id: _random_invertible(rng, rep.field, o.dim) for o in rep.objects}
    inverses = {oid: inverse(m) for oid, m in changes.items()}
    gens = tuple(
        Generator(g.id, g.dom, g.cod, changes[g.cod] @ g.matrix @ inverses[g.dom])
        for g in rep.generators
    )
    return Representation(rep.field, rep.objects, gens)


def _star_instance(rng: random.Random, planes: int) -> Representation:
    """``planes`` distinct random planes mapped into GF(p)^3 at a shared centre."""
    field = GF(PRIME)
    objects = [RepObject("c", STAR_AMBIENT)]
    gens = []
    seen = set()
    while len(gens) < planes:
        data = [[rng.randrange(PRIME) for _ in range(2)] for _ in range(STAR_AMBIENT)]
        m = Matrix.build(field, STAR_AMBIENT, 2, data)
        plane = image(m)
        if plane.dim != 2 or plane in seen:
            continue
        seen.add(plane)
        k = len(gens)
        objects.append(RepObject(f"p{k}", 2))
        gens.append(Generator(f"g{k}", f"p{k}", "c", m))
    return Representation(field, tuple(objects), tuple(gens))


def _decoy_certificate(rep: Representation) -> bytes:
    """Coordinate-line atoms with every generator declared zero.

    The star's generators are injective, so the claim is false and the
    independent verifier must refute it.
    """
    dims = {o.id: o.dim for o in rep.objects}
    doc = {
        "field": rep.field.describe(),
        "objects": {
            oid: [
                {"atom": f"{oid}.{i}", "basis": [[int(i == j) for j in range(dim)]]}
                for i in range(dim)
            ]
            for oid, dim in dims.items()
        },
        "generators": {
            g.id: {"action": {f"{g.dom}.{i}": "zero" for i in range(dims[g.dom])}, "blocks": {}}
            for g in rep.generators
        },
        "summands": [[f"{oid}.{i}"] for oid, dim in dims.items() for i in range(dim)],
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def make_instance(workload: str, seed: int, index: int) -> Instance:
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "star_fail":
        rep = _star_instance(rng, STAR_PLANES[index % len(STAR_PLANES)])
        return Instance(
            f"{workload}-{index}", rep.serialize().encode(), None, rep.object_ids,
            _decoy_certificate(rep),
        )
    n = 1 + index % MAX_VERTICES
    layout = random.Random(f"layout:{index}")
    if workload == "interval_q":
        rep, expected = _interval_instance(layout, rng, RATIONALS, n)
    elif workload == "conj_gf":
        rep, expected = _interval_instance(layout, rng, GF(PRIME), n)
        rep = _conjugate(rng, rep)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Instance(f"{workload}-{index}", rep.serialize().encode(), tuple(expected), rep.object_ids)


def make_corpus(workload: str, seed: int, size: int) -> List[Instance]:
    return [make_instance(workload, seed, i) for i in range(size)]

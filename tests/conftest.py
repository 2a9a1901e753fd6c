import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from invcat import (
    GF,
    RATIONALS,
    Matrix,
    Subspace,
    all_subspaces,
    meet_closure,
    parse_representation,
)
from invcat.rep import Generator, RepObject, Representation

DATA = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="session")
def trisection():
    return parse_representation((DATA / "trisection.json").read_text())


@pytest.fixture(scope="session")
def bisection():
    return parse_representation((DATA / "bisection.json").read_text())


def random_matrix(rng, field, rows, cols, span=4):
    if field.is_rational:
        data = [[Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)]
    else:
        data = [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
    return Matrix.build(field, rows, cols, data)


def random_subspace(rng, field, ambient, max_vecs=None):
    k = rng.randint(0, max_vecs if max_vecs is not None else ambient)
    vecs = [random_matrix(rng, field, 1, ambient).entries[0] for _ in range(k)]
    return Subspace.span(field, ambient, vecs)


def random_invertible(rng, field, n):
    """Product of shears and swaps: invertible by construction."""
    m = Matrix.identity(field, n)
    if n == 0:
        return m
    for _ in range(2 * n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        lam = field.coerce(rng.choice([-2, -1, 1, 2]))
        shear = [
            [
                field.one if r == c else (lam if (r, c) == (i, j) else field.zero)
                for c in range(n)
            ]
            for r in range(n)
        ]
        m = Matrix(field, n, n, tuple(tuple(r) for r in shear)) @ m
    return m


def random_representation(rng):
    """A random representation over Q, GF(2) or GF(3): 1-4 objects of
    dimension at most 3, and 0-4 generators between random ends (loops,
    parallel edges and cycles included)."""
    field = rng.choice([RATIONALS, GF(2), GF(3)])
    n_obj = rng.randint(1, 4)
    objs = tuple(RepObject(f"o{i}", rng.randint(0, 3)) for i in range(n_obj))
    gens = []
    for j in range(rng.randint(0, 4)):
        a, b = rng.randrange(n_obj), rng.randrange(n_obj)
        gens.append(
            Generator(
                f"g{j}", objs[a].id, objs[b].id,
                random_matrix(rng, field, objs[b].dim, objs[a].dim, span=2),
            )
        )
    return Representation(field, objs, tuple(gens))


def random_star(rng, field, centre, arms):
    """``arms`` random maps into one object of dimension ``centre``, each
    from an object of dimension 1 to centre - 1: up to rank, the arms are
    lines, planes and hyperplanes of the centre."""
    objects = [RepObject("c", centre)]
    gens = []
    for k in range(arms):
        dim = rng.randint(1, centre - 1)
        objects.append(RepObject(f"p{k}", dim))
        gens.append(Generator(f"g{k}", f"p{k}", "c", random_matrix(rng, field, centre, dim)))
    return Representation(field, tuple(objects), tuple(gens))


def random_meet_closed_family(rng, field, ambient, max_seed=3, max_size=8):
    """A random meet-closed subspace family containing 0 and the full space."""
    pool = all_subspaces(field, ambient)
    while True:
        seeds = [Subspace.zero(field, ambient), Subspace.full(field, ambient)]
        seeds += rng.sample(pool, k=rng.randint(0, max_seed))
        fam = list(meet_closure(seeds).elements)
        if len(fam) <= max_size:
            return fam


def small_tree_representations():
    """Every representation of a few small tree quivers over GF(2) and GF(3).

    Over GF(2): A_2 and A_3 in every orientation with every dimension vector
    up to 2, and the star of three lines mapped into a plane.  Over GF(3):
    A_2 in both orientations with dimensions up to 2.  Every matrix of every
    shape: 2336 representations.
    """
    shapes = []  # (field, object dims, edges as (dom index, cod index))
    for field, sizes in ((GF(2), (2, 3)), (GF(3), (2,))):
        for n in sizes:
            for forward in product((True, False), repeat=n - 1):
                edges = [(e, e + 1) if f else (e + 1, e) for e, f in enumerate(forward)]
                shapes += [(field, dims, edges) for dims in product(range(3), repeat=n)]
    shapes.append((GF(2), (2, 1, 1, 1), [(1, 0), (2, 0), (3, 0)]))
    for field, dims, edges in shapes:
        objects = tuple(RepObject(f"v{k}", d) for k, d in enumerate(dims))
        sizes = [dims[j] * dims[i] for i, j in edges]
        for values in product(range(field.p), repeat=sum(sizes)):
            gens, at = [], 0
            for k, ((i, j), size) in enumerate(zip(edges, sizes)):
                flat = values[at:at + size]
                at += size
                rows = [flat[r * dims[i]:(r + 1) * dims[i]] for r in range(dims[j])]
                gens.append(Generator(f"e{k}", f"v{i}", f"v{j}", Matrix.build(field, dims[j], dims[i], rows)))
            yield Representation(field, objects, tuple(gens))


# --- blockcode corpus over A_n path quivers -----------------------------------


def interval_corpus_instance(rng, max_vertices=5, max_dim=4, max_intervals=5):
    """A random direct sum of interval blockcodes over an A_n quiver.

    Returns (representation, expected dimension-vector multiset) where each
    interval contributes dimension 1 on a contiguous vertex range and each
    in-range edge acts by a random nonzero scalar.
    """
    n = rng.randint(1, max_vertices)
    orientations = [rng.random() < 0.5 for _ in range(max(0, n - 1))]
    while True:
        count = rng.randint(1, max_intervals)
        intervals = []
        for _ in range(count):
            i = rng.randint(0, n - 1)
            j = rng.randint(i, n - 1)
            intervals.append((i, j))
        coverage = [sum(1 for (i, j) in intervals if i <= v <= j) for v in range(n)]
        if max(coverage) <= max_dim:
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
                scalar = Fraction(rng.choice([1, 2, 3, -1, -2]))
                data[slot[(dst, s)]][slot[(src, s)]] = scalar
        gens.append(
            Generator(f"e{e}", f"v{src}", f"v{dst}", Matrix.build(RATIONALS, rows, cols, data))
        )
    rep = Representation(RATIONALS, objects, tuple(gens))
    expected = sorted(
        tuple(1 if i <= v <= j else 0 for v in range(n)) for (i, j) in intervals
    )
    return rep, expected


def conjugate_representation(rng, rep):
    """Apply a random invertible change of basis at every object."""
    changes = {o.id: random_invertible(rng, rep.field, o.dim) for o in rep.objects}
    inverses = {}
    from invcat import inverse

    for oid, m in changes.items():
        inverses[oid] = inverse(m)
    gens = tuple(
        Generator(g.id, g.dom, g.cod, changes[g.cod] @ g.matrix @ inverses[g.dom])
        for g in rep.generators
    )
    return Representation(rep.field, rep.objects, gens)


def direct_sum(rep_a, rep_b):
    """Object-wise direct sum of two representations of the same quiver."""
    assert rep_a.field == rep_b.field
    dims_a = {o.id: o.dim for o in rep_a.objects}
    dims_b = {o.id: o.dim for o in rep_b.objects}
    objects = tuple(RepObject(o.id, dims_a[o.id] + dims_b[o.id]) for o in rep_a.objects)
    field = rep_a.field
    gens = []
    for ga in rep_a.generators:
        gb = rep_b.generator(ga.id)
        rows = dims_a[ga.cod] + dims_b[ga.cod]
        cols = dims_a[ga.dom] + dims_b[ga.dom]
        data = [[field.zero] * cols for _ in range(rows)]
        for r in range(dims_a[ga.cod]):
            for c in range(dims_a[ga.dom]):
                data[r][c] = ga.matrix.entries[r][c]
        for r in range(dims_b[ga.cod]):
            for c in range(dims_b[ga.dom]):
                data[dims_a[ga.cod] + r][dims_a[ga.dom] + c] = gb.matrix.entries[r][c]
        gens.append(Generator(ga.id, ga.dom, ga.cod, Matrix.build(field, rows, cols, data)))
    return Representation(field, objects, tuple(gens))


@pytest.fixture
def rng():
    return random.Random(20240817)

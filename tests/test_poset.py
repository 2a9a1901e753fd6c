import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcat import (
    GF,
    MissingBounds,
    NotMeetClosed,
    RATIONALS,
    Subspace,
    build_poset,
    export_dot,
    forward_sum,
    meet_closure,
    mobius,
    mobius_invert,
    sub_intersect,
)
from invcat.oracle import all_subspaces

from conftest import random_meet_closed_family

ZERO2 = Subspace.zero(RATIONALS, 2)
FULL2 = Subspace.full(RATIONALS, 2)
X_AXIS = Subspace.span(RATIONALS, 2, [[1, 0]])
Y_AXIS = Subspace.span(RATIONALS, 2, [[0, 1]])
DIAG = Subspace.span(RATIONALS, 2, [[1, 1]])


def trisection_poset():
    return build_poset([ZERO2, X_AXIS, Y_AXIS, DIAG, FULL2])


def diamond_poset():
    return build_poset([ZERO2, X_AXIS, Y_AXIS, FULL2])


def chain_poset():
    return build_poset([ZERO2, X_AXIS, FULL2])


def test_trisection_poset_shape():
    p = trisection_poset()
    assert len(p) == 5
    assert len([j for i, j in p.covers if i == p.zero_index]) == 3  # atoms
    assert len(p.covers) == 6


def test_two_chain():
    p = build_poset([Subspace.zero(RATIONALS, 1), Subspace.full(RATIONALS, 1)])
    assert len(p) == 2
    assert p.covers == ((0, 1),)


def test_diamond_shape():
    p = diamond_poset()
    assert len(p) == 4
    assert len(p.covers) == 4


def test_missing_bounds():
    with pytest.raises(MissingBounds):
        build_poset([X_AXIS, FULL2])
    with pytest.raises(MissingBounds):
        build_poset([ZERO2, X_AXIS])


def test_not_meet_closed():
    a = Subspace.span(RATIONALS, 3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.span(RATIONALS, 3, [[0, 1, 0], [0, 0, 1]])
    c = Subspace.span(RATIONALS, 3, [[1, 0, 0], [0, 0, 1]])
    bounds = [Subspace.zero(RATIONALS, 3), Subspace.full(RATIONALS, 3)]
    with pytest.raises(NotMeetClosed) as exc:
        build_poset(bounds + [a, b])
    assert exc.value.detail == {
        "left": [[0, 1, 0], [0, 0, 1]],
        "right": [[1, 0, 0], [0, 1, 0]],
        "missing": [[0, 1, 0]],
    }
    # three missing meets: the first pair in index order is the one reported
    with pytest.raises(NotMeetClosed) as exc:
        build_poset(bounds + [a, b, c])
    assert exc.value.detail == {
        "left": [[0, 1, 0], [0, 0, 1]],
        "right": [[1, 0, 0], [0, 0, 1]],
        "missing": [[0, 0, 1]],
    }


def test_each_pair_is_intersected_once(rng, monkeypatch):
    """``meet_closure`` intersects each pair of its closure's members at most
    once (pairs with 0, the full space or a line take none), and its poset
    equals the one ``build_poset`` assembles from k(k-1)/2 intersections of
    the closed family, one per pair."""
    import invcat.flag as flag
    import invcat.poset as poset

    pairs = []

    def intersect(a, b):
        pairs.append(frozenset((a, b)))
        return sub_intersect(a, b)

    monkeypatch.setattr(flag, "sub_intersect", intersect)
    monkeypatch.setattr(poset, "sub_intersect", intersect)
    field = GF(2)
    pool = all_subspaces(field, 3)
    for _ in range(20):
        seeds = [Subspace.zero(field, 3), Subspace.full(field, 3), *rng.sample(pool, rng.randint(0, 4))]
        pairs.clear()
        p = meet_closure(seeds)
        k = len(p)
        assert len(pairs) == len(set(pairs))
        assert set(pairs) <= {frozenset((a, b)) for i, a in enumerate(p.elements) for b in p.elements[:i]}
        pairs.clear()
        ref = build_poset(p.elements)
        assert len(pairs) == k * (k - 1) // 2
        assert (p.elements, p.down, p.covers) == (ref.elements, ref.down, ref.covers)


@st.composite
def families(draw):
    """Lines, planes and hyperplanes of Q^n, GF(2)^n or GF(10007)^n, n 3 or
    4, spanned by vectors of small entries (so that meets coincide), with 0
    and the full space each given or not."""
    field = draw(st.sampled_from([RATIONALS, GF(2), GF(10007)]))
    n = draw(st.integers(3, 4))
    vec = st.lists(st.sampled_from([0, 1, 1, 2, -1]), min_size=n, max_size=n)
    family = [
        Subspace.span(field, n, draw(st.lists(vec, min_size=dim, max_size=dim)))
        for dim in draw(st.lists(st.sampled_from([1, 2, n - 1]), max_size=6))
    ]
    bounds = [Subspace.zero(field, n), Subspace.full(field, n)]
    family += [b for b in bounds if draw(st.integers(0, 3))]
    return draw(st.permutations(family))


def naive_meet_closure(family):
    closed = set(family)
    while True:
        new = {sub_intersect(a, b) for a in closed for b in closed} - closed
        if not new:
            return closed
        closed |= new


@given(families(), st.none() | st.integers(1, 24))
@settings(max_examples=200, deadline=None)
def test_meet_closure_matches_a_naive_fixpoint(family, limit):
    """``meet_closure`` gives the poset ``build_poset`` validates on the naive
    fixpoint, or None exactly where that closure has more than ``limit``
    members, also where the family alone has; it raises ``MissingBounds``
    where the closure lacks 0 or the full space, whatever the limit."""
    closed = naive_meet_closure(family)
    if not any(s.is_zero for s in closed) or not any(s.is_full for s in closed):
        with pytest.raises(MissingBounds):
            meet_closure(family, limit)
        return
    ref = build_poset(closed)
    k = len(closed)
    for at in (limit, None, k, k - 1, len(set(family)) - 1):
        p = meet_closure(family, at)
        if at is not None and k > at:
            assert p is None
        else:
            assert (p.elements, p.down, p.covers) == (ref.elements, ref.down, ref.covers)


# --- Moebius tables ---------------------------------------------------------------


def test_mobius_diamond_two_var():
    p = diamond_poset()
    mu = mobius(p)
    full = p.index_of(FULL2)
    assert mu.two_var[p.index_of(ZERO2)][full] == 1
    assert mu.two_var[p.index_of(X_AXIS)][full] == -1
    assert mu.two_var[p.index_of(Y_AXIS)][full] == -1
    assert mu.two_var[full][full] == 1


def test_mobius_trisection_two_var():
    # recursion by hand: three atoms below the top force mu(0, top) = 2
    p = trisection_poset()
    mu = mobius(p)
    full = p.index_of(FULL2)
    assert mu.two_var[p.index_of(X_AXIS)][full] == -1
    assert mu.two_var[full][full] == 1
    assert mu.two_var[p.index_of(ZERO2)][full] == 2
    assert mu.one_var[full] == 2


def test_mobius_three_chain():
    p = chain_poset()
    mu = mobius(p)
    assert mu.two_var[p.index_of(ZERO2)][p.index_of(FULL2)] == 0
    assert mu.one_var == (1, -1, 0)


def test_two_var_delta_property(rng):
    for _ in range(25):
        fam = random_meet_closed_family(rng, GF(2), 3)
        p = build_poset(fam)
        mu = mobius(p)
        for y in range(len(p.elements)):
            total = sum(mu.two_var[x][y] for x in range(len(p.elements)) if p.down[y] >> x & 1)
            assert total == (1 if y == p.zero_index else 0)


def test_recursions_hold_by_resummation(rng):
    for _ in range(25):
        fam = random_meet_closed_family(rng, GF(3), 2)
        p = build_poset(fam)
        mu = mobius(p)
        n = len(p.elements)
        leq = [[b.contains(a) for b in p.elements] for a in p.elements]
        for y in range(n):
            if y == p.zero_index:
                assert mu.one_var[y] == 1
            else:
                assert mu.one_var[y] == -sum(
                    mu.one_var[x] for x in range(n) if leq[x][y] and x != y
                )
        for a in range(n):
            for b in range(n):
                if not leq[a][b]:
                    assert mu.two_var[a][b] == 0
                elif a != b:
                    assert mu.two_var[a][b] == -sum(
                        mu.two_var[a][z]
                        for z in range(n)
                        if leq[a][z] and leq[z][b] and z != b
                    )


# --- inversion ---------------------------------------------------------------------


def test_invert_constant_one():
    for p in (diamond_poset(), trisection_poset(), chain_poset()):
        phi = mobius_invert(p, [1] * len(p.elements))
        expect = [1 if i == p.zero_index else 0 for i in range(len(p.elements))]
        assert phi == expect


def test_invert_dimension_on_diamond():
    p = diamond_poset()
    phi = mobius_invert(p, [s.dim for s in p.elements])
    by_elem = dict(zip(p.elements, phi))
    assert by_elem[ZERO2] == 0
    assert by_elem[X_AXIS] == 1
    assert by_elem[Y_AXIS] == 1
    assert by_elem[FULL2] == 0


def all_small_gf2_families(n, max_size):
    """Every meet-closed family over GF(2)^n with at most max_size members."""
    from itertools import combinations

    field = GF(2)
    pool = all_subspaces(field, n)
    zero = Subspace.zero(field, n)
    full = Subspace.full(field, n)
    middle = [s for s in pool if s not in (zero, full)]
    out = []
    for k in range(0, max_size - 1):
        for extra in combinations(middle, k):
            fam = [zero, full] + list(extra)
            if len(meet_closure(fam)) == len(fam):
                out.append(fam)
    return out


def test_roundtrip_exhaustive_small_posets(rng):
    fams = all_small_gf2_families(2, 5)
    assert len(fams) == 8  # any set of lines in GF(2)^2 is meet-closed
    for fam in fams:
        p = build_poset(fam)
        vals = [rng.randint(-9, 9) for _ in p.elements]
        assert mobius_invert(p, forward_sum(p, vals)) == vals
        assert forward_sum(p, mobius_invert(p, vals)) == vals


def test_roundtrip_random_families(rng):
    for _ in range(20):
        fam = random_meet_closed_family(rng, GF(2), 3, max_seed=4, max_size=16)
        p = build_poset(fam)
        vals = [rng.randint(-9, 9) for _ in p.elements]
        assert mobius_invert(p, forward_sum(p, vals)) == vals


# --- DOT export ----------------------------------------------------------------------


def test_dot_two_chain():
    p = build_poset([Subspace.zero(RATIONALS, 1), Subspace.full(RATIONALS, 1)])
    dot = export_dot(p)
    assert dot.count("label=") == 2
    assert dot.count("->") == 1


def test_dot_diamond_and_trisection():
    assert export_dot(diamond_poset()).count("->") == 4
    assert export_dot(trisection_poset()).count("->") == 6


def test_dot_is_parseable_digraph():
    dot = export_dot(trisection_poset(), name="center")
    assert dot.startswith('digraph "center"')
    assert dot.rstrip().endswith("}")

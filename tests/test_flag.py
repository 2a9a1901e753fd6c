import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcat import (
    ClosureDivergence,
    ClosureLimits,
    GF,
    Matrix,
    RATIONALS,
    Subspace,
    analyze,
    build_poset,
    compute_flag,
    evaluate_word,
    inverse,
    map_image,
    map_preimage,
    sub_intersect,
)
from invcat.flag import BasisCoordinates, Matching
from invcat.rep import Generator, RepObject, Representation

from conftest import interval_corpus_instance, random_invertible, random_matrix

X_AXIS = Subspace.span(RATIONALS, 2, [[1, 0]])
Y_AXIS = Subspace.span(RATIONALS, 2, [[0, 1]])
DIAG = Subspace.span(RATIONALS, 2, [[1, 1]])


def test_trisection_flag(trisection):
    flag = compute_flag(trisection)
    center = flag.posets["center"]
    assert set(center.elements) == {
        Subspace.zero(RATIONALS, 2), X_AXIS, Y_AXIS, DIAG, Subspace.full(RATIONALS, 2),
    }
    for oid in ("top", "left", "right"):
        assert len(flag.posets[oid]) == 2
    assert flag.rounds <= 3


def test_bisection_raw_flag_is_a_chain(bisection):
    # the generator alone only reaches {0, x-axis, full}; the fourth element
    # of the published diamond appears after saturation (pipeline tests).
    flag = compute_flag(bisection)
    assert [s.dim for s in flag.posets["plane"].elements] == [0, 1, 2]
    assert flag.rounds <= 3


def test_identity_generators_give_trivial_flags():
    rep = Representation(
        RATIONALS,
        (RepObject("a", 3),),
        (Generator("e", "a", "a", Matrix.identity(RATIONALS, 3)),),
    )
    flag = compute_flag(rep)
    assert len(flag.posets["a"]) == 2


def test_provenance_witnesses_cover_everything(trisection):
    flag = compute_flag(trisection)
    for oid, p in flag.posets.items():
        for s in p.elements:
            w = flag.provenance[oid][s]
            assert w.rule in ("seed", "image", "preimage", "intersect")
            if w.rule == "seed":
                assert s.is_zero or s.is_full
            if w.rule in ("image", "preimage"):
                assert w.generator is not None and len(w.sources) == 1
            if w.rule == "intersect":
                assert len(w.sources) == 2
                assert sub_intersect(*w.sources) == s


def test_fixpoint_reapplication_adds_nothing(trisection, bisection, rng):
    cases = [trisection, bisection]
    for _ in range(5):
        rep, _ = interval_corpus_instance(rng)
        cases.append(rep)
    for rep in cases:
        flag = compute_flag(rep)
        for g in rep.generators:
            dom, cod = flag.posets[g.dom], flag.posets[g.cod]
            for a in dom.elements:
                assert map_image(g.matrix, a) in set(cod.elements)
            for b in cod.elements:
                assert map_preimage(g.matrix, b) in set(dom.elements)
        for p in flag.posets.values():
            elems = set(p.elements)
            for a in elems:
                for b in elems:
                    assert sub_intersect(a, b) in elems


def test_monotone_in_generators(rng):
    for _ in range(10):
        rep, _ = interval_corpus_instance(rng, max_vertices=4)
        flag = compute_flag(rep)
        if len(rep.objects) < 2:
            continue
        src, dst = rep.objects[0], rep.objects[1]
        extra = Generator(
            "extra", src.id, dst.id, random_matrix(rng, RATIONALS, dst.dim, src.dim, span=2)
        )
        bigger = Representation(rep.field, rep.objects, rep.generators + (extra,))
        flag2 = compute_flag(bigger)
        for oid in flag.posets:
            assert set(flag.posets[oid].elements) <= set(flag2.posets[oid].elements)


def test_generator_sufficiency_on_composites(rng):
    """Closure under generators implies closure along any composite word."""
    for _ in range(8):
        rep, _ = interval_corpus_instance(rng, max_vertices=5)
        flag = compute_flag(rep)
        gens = list(rep.generators)
        for _ in range(10):
            word = [rng.choice(gens)]
            for _ in range(rng.randint(0, 3)):
                nxt = [h for h in gens if h.dom == word[0].cod]
                if not nxt:
                    break
                word.insert(0, rng.choice(nxt))
            ids = [g.id for g in word]
            m = evaluate_word(rep, ids)
            dom, cod = word[-1].dom, word[0].cod
            for a in flag.posets[dom].elements:
                assert map_image(m, a) in set(flag.posets[cod].elements)
            for b in flag.posets[cod].elements:
                assert map_preimage(m, b) in set(flag.posets[dom].elements)


def test_prime_field_closure_terminates(rng):
    for p in (2, 3):
        field = GF(p)
        rep = Representation(
            field,
            (RepObject("a", 2), RepObject("b", 2)),
            (
                Generator("f", "a", "b", random_matrix(rng, field, 2, 2)),
                Generator("g", "a", "b", random_matrix(rng, field, 2, 2)),
            ),
        )
        flag = compute_flag(rep)
        assert flag.total_elements >= 4


def test_round_limit_raises():
    rep = Representation(
        RATIONALS,
        (RepObject("a", 2),),
        (Generator("f", "a", "a", Matrix.build(RATIONALS, 2, 2, [[0, 1], [0, 0]])),),
    )
    with pytest.raises(ClosureDivergence) as exc:
        compute_flag(rep, ClosureLimits(max_rounds=1))
    assert exc.value.detail["rule"] == "rounds"


def test_element_limit_raises():
    rep = Representation(
        RATIONALS,
        (RepObject("a", 2), RepObject("b", 2)),
        (
            Generator("f", "a", "b", Matrix.build(RATIONALS, 2, 2, [[1, 0], [0, 0]])),
            Generator("g", "a", "b", Matrix.build(RATIONALS, 2, 2, [[0, 1], [1, 0]])),
        ),
    )
    with pytest.raises(ClosureDivergence) as exc:
        compute_flag(rep, ClosureLimits(max_elements_per_object=2))
    assert exc.value.detail["rule"] in ("image", "preimage", "intersect")
    assert exc.value.detail["partial_size"] > 2


def test_limit_hands_over_the_meet_closed_part():
    """At a limit the elements of the completed rounds are closed under
    meets and handed over with the error; where that closure would itself
    pass the element limit, nothing is."""
    from invcat.criterion import rank_count_excess

    shear = Representation(
        RATIONALS,
        (RepObject("x", 2),),
        (
            Generator("z", "x", "x", Matrix.build(RATIONALS, 2, 2, [[1, 1], [0, 1]])),
            Generator("w", "x", "x", Matrix.build(RATIONALS, 2, 2, [[0, 0], [0, 1]])),
        ),
    )
    with pytest.raises(ClosureDivergence) as exc:
        compute_flag(shear, ClosureLimits(max_rounds=3))
    part = exc.value.partial
    assert part.rounds == 3
    p = part.posets["x"]
    build_poset(p.elements)  # intersects every pair: NotMeetClosed unless meet-closed
    assert {s.dim for s in p.elements[1:-1]} == {1} and len(p) > 4
    assert set(p.elements) == set(part.provenance["x"])
    assert rank_count_excess(p) is not None

    field = GF(10007)
    planes = tuple(RepObject(f"p{i}", 2) for i in range(3))
    star = Representation(
        field,
        (RepObject("c", 3),) + planes,
        tuple(
            Generator(f"g{i}", f"p{i}", "c", Matrix.build(field, 3, 2, cols))
            for i, cols in enumerate(([[1, 0], [0, 1], [0, 0]],
                                      [[1, 0], [0, 0], [0, 1]],
                                      [[0, 0], [1, 0], [0, 1]]))
        ),
    )
    assert compute_flag(star).posets["c"].elements[1].dim == 1  # the planes meet in lines
    with pytest.raises(ClosureDivergence) as exc:
        compute_flag(star, ClosureLimits(max_elements_per_object=6))
    assert exc.value.detail["rule"] == "intersect"
    assert exc.value.partial is None


def test_flag_report_json(bisection):
    flag = compute_flag(bisection)
    doc = flag.to_json()
    assert doc["objects"]["plane"]["poset_size"] == 3
    assert doc["rounds"] == flag.rounds
    assert doc["saturated"] is False


def test_matching_of_a_matrix():
    # domain 0 -> codomain 2, domain 1 -> codomain 0, domain 2 -> nothing
    g = Matching.of(Matrix.build(RATIONALS, 3, 3, [[0, 2, 0], [0, 0, 0], [-1, 0, 0]]))
    assert g.image(0b011) == 0b101 and g.image(0b100) == 0
    # the unmatched index 2, plus the index matched into the target
    assert g.preimage(0b001) == 0b110 and g.preimage(0b010) == 0b100
    assert g.preimage(0) == 0b100 and g.preimage(0b111) == 0b111
    # the dagger matches back: codomain 2 -> 0, 0 -> 1, and 1 -> nothing
    assert g.dagger.image(0b101) == 0b011 and g.dagger.image(0b010) == 0
    assert g.dagger.preimage(0b001) == 0b110
    assert g.dagger.dagger == g
    assert Matching.of(Matrix.zeros(GF(3), 2, 3)).preimage(0) == 0b111
    for rows in ([[1], [1]], [[1, 1]], [[1, 1], [0, 1]], [[0, 1, 0], [0, 2, 0]]):
        assert Matching.of(Matrix.build(RATIONALS, len(rows), len(rows[0]), rows)) is None


def _matching_representation(rng, field):
    """Random partial matchings with nonzero scalars between random objects
    (loops, parallel edges and cycles included), written in random bases;
    returns the representation and its ``BasisCoordinates``."""
    dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    objects = tuple(RepObject(f"o{i}", d) for i, d in enumerate(dims))
    bases = {o.id: random_invertible(rng, field, o.dim) for o in objects}
    gens, matchings = [], []
    for k in range(rng.randint(1, 4)):
        a, b = rng.randrange(len(dims)), rng.randrange(len(dims))
        pairs = list(zip(rng.sample(range(dims[b]), dims[b]), range(dims[a])))
        coords = [[field.zero] * dims[a] for _ in range(dims[b])]
        for i, j in pairs[: rng.randint(0, len(pairs))]:
            coords[i][j] = field.coerce(rng.choice([1, 2, -1, -2]))
        m = Matrix.build(field, dims[b], dims[a], coords)
        matrix = bases[f"o{b}"] @ m @ inverse(bases[f"o{a}"])
        gens.append(Generator(f"g{k}", f"o{a}", f"o{b}", matrix))
        matchings.append(Matching.of(m))
    rep = Representation(field, objects, tuple(gens))
    return rep, BasisCoordinates(bases, tuple(matchings))


def test_closure_on_matchings_matches_subspace_closure():
    """For maps that are matchings in given bases, the closure on bitmasks
    gives the subspace closure's flag, and stops at the same element limit
    with the same partial flag."""
    rng = random.Random(11)
    stopped = 0
    for _ in range(150):
        rep, coordinates = _matching_representation(rng, rng.choice([RATIONALS, GF(2), GF(5)]))
        for limits in (ClosureLimits(), ClosureLimits(max_elements_per_object=5)):
            try:
                ref = compute_flag(rep, limits)
            except ClosureDivergence as stop:
                with pytest.raises(ClosureDivergence) as exc:
                    compute_flag(rep, limits, coordinates=coordinates)
                assert exc.value.detail == stop.detail
                got, ref = exc.value.partial, stop.partial
                assert (got and got.to_json()) == (ref and ref.to_json())
                stopped += 1
                continue
            got = compute_flag(rep, limits, coordinates=coordinates)
            assert got.to_json() == ref.to_json()
            for oid, p in ref.posets.items():
                q = got.posets[oid]
                assert (q.elements, q.leq, q.covers, q.meet_table) == (
                    p.elements, p.leq, p.covers, p.meet_table
                )
    assert stopped >= 10


@st.composite
def representations(draw):
    """Stars of random maps into one object, interval sums on A_n quivers over
    Q, and random zigzags on A_n over a small prime field."""
    shape = draw(st.sampled_from(("star", "interval", "zigzag")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if shape == "interval":
        return interval_corpus_instance(rng)[0]
    if shape == "star":
        field = draw(st.sampled_from((RATIONALS, GF(2), GF(3), GF(10007))))
        centre = rng.randint(1, 3)
        arms = rng.randint(1, 7)
        objects = [RepObject("c", centre)]
        gens = []
        for k in range(arms):
            dim = rng.randint(1, centre)
            objects.append(RepObject(f"p{k}", dim))
            gens.append(Generator(f"g{k}", f"p{k}", "c", random_matrix(rng, field, centre, dim)))
        return Representation(field, tuple(objects), tuple(gens))
    field = draw(st.sampled_from((GF(2), GF(3))))
    dims = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
    objects = tuple(RepObject(f"v{k}", d) for k, d in enumerate(dims))
    gens = []
    for e in range(len(dims) - 1):
        src, dst = (e, e + 1) if rng.random() < 0.5 else (e + 1, e)
        m = random_matrix(rng, field, dims[dst], dims[src])
        gens.append(Generator(f"e{e}", f"v{src}", f"v{dst}", m))
    return Representation(field, objects, tuple(gens))


@given(representations())
@settings(max_examples=60, deadline=None)
def test_closure_meets_assemble_the_validated_poset(rep):
    """The posets built from the closure's own meets equal the ones
    ``build_poset`` builds by intersecting every pair, on the raw flag and
    on the saturated one (closed with the synthesized pseudo-inverses)."""
    flags = [compute_flag(rep)]
    analysis = analyze(rep)
    if analysis.flag.saturated:
        flags.append(analysis.flag)
    for flag in flags:
        for p in flag.posets.values():
            ref = build_poset(p.elements)
            assert p.elements == ref.elements
            assert p.leq == ref.leq
            assert p.covers == ref.covers
            assert p.meet_table == ref.meet_table
            # and the order is containment, the covers its transitive reduction
            n = len(p)
            assert p.leq == tuple(
                tuple(b.contains(a) for b in p.elements) for a in p.elements
            )
            assert p.covers == tuple(
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j
                and p.leq[i][j]
                and not any(p.leq[i][z] and p.leq[z][j] for z in range(n) if z not in (i, j))
            )

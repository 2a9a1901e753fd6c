import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcat import (
    ClosureDivergence,
    ClosureLimits,
    FlagAssignment,
    GF,
    Matrix,
    RATIONALS,
    Subspace,
    analyze,
    build_poset,
    compute_flag,
    evaluate_word,
    image,
    inverse,
    map_image,
    map_preimage,
    sub_intersect,
    Witness,
)
from invcat.flag import BasisCoordinates, Matching
from invcat.rep import Generator, RepObject, Representation

from conftest import (
    interval_corpus_instance,
    random_invertible,
    random_matrix,
    random_representation,
    random_star,
)

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


def test_limit_hands_over_the_reached_elements():
    """At a limit the error carries each object's reached elements in order
    of arrival, the seeds first and the elements of the stopped round
    included: the first elements of the closure stopped later, or of the
    finished one."""
    shear = Representation(
        RATIONALS,
        (RepObject("x", 2),),
        (
            Generator("z", "x", "x", Matrix.build(RATIONALS, 2, 2, [[1, 1], [0, 1]])),
            Generator("w", "x", "x", Matrix.build(RATIONALS, 2, 2, [[0, 0], [0, 1]])),
        ),
    )
    reached = []
    for rounds in (3, 4):
        with pytest.raises(ClosureDivergence) as exc:
            compute_flag(shear, ClosureLimits(max_rounds=rounds))
        assert exc.value.detail["sizes"] == {"x": len(exc.value.reached["x"])}
        reached.append(exc.value.reached["x"])
    three, four = reached
    assert three[:2] == [Subspace.zero(RATIONALS, 2), Subspace.full(RATIONALS, 2)]
    assert {s.dim for s in three[2:]} == {1} and len(set(three)) == len(three) > 4
    assert four[: len(three)] == three and len(four) > len(three)

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
    finished = compute_flag(star)
    assert finished.posets["c"].elements[1].dim == 1  # the planes meet in lines
    with pytest.raises(ClosureDivergence) as exc:
        compute_flag(star, ClosureLimits(max_elements_per_object=6))
    assert exc.value.detail["rule"] == "intersect"
    # the meet that passed the limit is handed over with the rest
    for oid, elems in exc.value.reached.items():
        assert elems == list(finished.provenance[oid])[: len(elems)]
    assert len(exc.value.reached["c"]) == 7


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


def _matching_representation(rng, field, max_dim=3, max_objects=4, max_maps=4):
    """Random partial matchings with nonzero scalars between random objects
    (loops, parallel edges and cycles included), written in random bases;
    returns the representation and its ``BasisCoordinates``."""
    dims = [rng.randint(0, max_dim) for _ in range(rng.randint(1, max_objects))]
    objects = tuple(RepObject(f"o{i}", d) for i, d in enumerate(dims))
    bases = {o.id: random_invertible(rng, field, o.dim) for o in objects}
    gens, matchings = [], []
    for k in range(rng.randint(1, max_maps)):
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
    with the same reached elements."""
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
                assert exc.value.reached == stop.reached
                stopped += 1
                continue
            got = compute_flag(rep, limits, coordinates=coordinates)
            assert got.to_json() == ref.to_json()
            for oid, p in ref.posets.items():
                q = got.posets[oid]
                assert (q.elements, q.down, q.covers) == (p.elements, p.down, p.covers)
    assert stopped >= 10


def test_a_stopped_closure_hands_over_a_prefix_of_each_arrival_order():
    """Where the element limit stops a closure in a round's image or
    preimage offers, or in its meet offers (before the round's elements
    join the members), on subspaces and on bitmasks, each object's reached elements are the first ones, in order
    of arrival, of the finished closure, and the object that stopped it
    has one more than the limit.  Where the round limit stops it, they are
    the elements of the rounds before.  Every limit below the largest flag
    of the input is tried."""
    rng = random.Random(5)
    seen = set()
    for n in range(240):
        # a random representation, or random matchings closed on subspaces
        # or on bitmasks
        if n % 3 == 0:
            rep, coordinates = random_representation(rng), None
        else:
            rep, coordinates = _matching_representation(rng, GF(3), 5, 2, 6)
            if n % 3 == 1:
                coordinates = None
        try:
            flag = compute_flag(rep, ClosureLimits(8, 200), coordinates=coordinates)
        except ClosureDivergence:
            continue
        arrival = {oid: list(members) for oid, members in flag.provenance.items()}
        for cap in range(3, max(len(p) for p in flag.posets.values())):
            with pytest.raises(ClosureDivergence) as exc:
                compute_flag(rep, ClosureLimits(max_elements_per_object=cap), coordinates=coordinates)
            stop = exc.value
            seen.add((stop.detail["rule"] == "intersect", coordinates is None))
            assert len(stop.reached[stop.detail["object"]]) == cap + 1
            for oid, elems in stop.reached.items():
                assert elems == arrival[oid][: len(elems)]
        for rounds in range(flag.rounds):
            with pytest.raises(ClosureDivergence) as exc:
                compute_flag(rep, ClosureLimits(max_rounds=rounds), coordinates=coordinates)
            sizes = exc.value.detail["sizes"]
            assert exc.value.reached == {oid: arrival[oid][: sizes[oid]] for oid in arrival}
    assert seen == {(meet_step, on_subspaces) for meet_step in (False, True) for on_subspaces in (True, False)}


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
    """The posets built from the closure's own down-sets equal the ones
    ``build_poset`` builds by intersecting every pair, on the raw flag and
    on the saturated one (closed on bitmasks with the pseudo-inverses'
    matchings, since every quiver here is a tree).  Their down-sets are
    containment, the meets read off them are the intersections, and both
    the covers and each element's lower covers are the transitive
    reduction."""
    flags = [compute_flag(rep)]
    analysis = analyze(rep)
    if analysis.flag.saturated:
        assert analysis.flag.masks is not None
        flags.append(analysis.flag)
    for flag in flags:
        for p in flag.posets.values():
            ref = build_poset(p.elements)
            assert (p.elements, p.down, p.covers) == (ref.elements, ref.down, ref.covers)
            # and the order is containment, the covers its transitive reduction
            n = len(p)
            leq = [[b.contains(a) for b in p.elements] for a in p.elements]
            assert p.down == tuple(
                sum(1 << i for i in range(n) if leq[i][j]) for j in range(n)
            )
            for i, a in enumerate(p.elements):
                for j, b in enumerate(p.elements):
                    assert p.meet(i, j) == p.index_of(sub_intersect(a, b))
            covers = tuple(
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j
                and leq[i][j]
                and not any(leq[i][z] and leq[z][j] for z in range(n) if z not in (i, j))
            )
            assert p.covers == covers
            for j in range(n):
                assert p._lower_covers(j) == sum(1 << i for i, k in covers if k == j)


@st.composite
def stars_and_intervals(draw):
    """One-centre stars whose arms are lines, planes and hyperplanes in F^3
    and F^4, and interval sums on A_n quivers over Q."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        return interval_corpus_instance(rng)[0]
    field = draw(st.sampled_from((GF(2), GF(3), GF(10007), RATIONALS)))
    return random_star(rng, field, draw(st.sampled_from((3, 4))), rng.randint(1, 8))


@given(stars_and_intervals())
@settings(max_examples=60, deadline=None)
def test_containments_set_by_class_assemble_the_validated_poset(rep):
    """Each member's containments that dimension decides are set in its
    down-set mask when it joins, and the meet step sets the rest; the
    closure never calls ``build_poset``.  The posets equal the ones a bare
    ``build_poset`` builds by intersecting every pair, on the raw flag and
    on the saturated one (closed on bitmasks where it passes); and a
    closure stopped after 1 to 3 rounds reaches a prefix of the finished
    closure's order of arrival."""
    import invcat.flag as flag
    import invcat.poset as poset

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return build_poset(*args, **kwargs)

    with patch.object(flag, "build_poset", spy), patch.object(poset, "build_poset", spy):
        raw = compute_flag(rep)
        analysis = analyze(rep)
    assert not calls
    for closed in (raw, analysis.flag) if analysis.flag.saturated else (raw,):
        for p in closed.posets.values():
            ref = build_poset(p.elements)
            assert (p.elements, p.down, p.covers) == (ref.elements, ref.down, ref.covers)
    arrival = {oid: list(members) for oid, members in raw.provenance.items()}
    for rounds in range(1, min(raw.rounds, 4)):
        with pytest.raises(ClosureDivergence) as exc:
            compute_flag(rep, ClosureLimits(max_rounds=rounds))
        for oid, elems in exc.value.reached.items():
            assert elems == arrival[oid][: len(elems)]


def _reference_closure(rep):
    """The flag closure straight from its rules, in synchronous rounds and
    with no record of earlier meets.  Each round offers, for each map in order, the
    images of the fresh elements at its domain, then the ``map_preimage``
    of the fresh elements at its codomain, each in ``sort_key`` order; then,
    at each object, the ``sub_intersect`` of every pair of members in which
    a fresh element takes part, in ``sort_key`` pair order.  A round's
    offers join the members at its end, and the fresh elements are those
    that joined.  Returns each object's members with their witnesses in
    order of arrival, the number of rounds (the last adds nothing), and
    each object's member count after each round (the seeds first)."""
    members = {}
    for o in rep.objects:
        seeds = (Subspace.zero(rep.field, o.dim), Subspace.full(rep.field, o.dim))
        members[o.id] = dict.fromkeys(seeds, Witness("seed"))
    fresh = {oid: sorted(m, key=lambda s: s.sort_key) for oid, m in members.items()}
    counts = [{oid: len(m) for oid, m in members.items()}]
    rounds = 0
    while True:
        rounds += 1
        added = {oid: {} for oid in members}

        def offer(oid, s, witness):
            if s not in members[oid] and s not in added[oid]:
                added[oid][s] = witness

        for g in rep.generators:
            for a in fresh[g.dom]:
                offer(g.cod, map_image(g.matrix, a), Witness("image", g.id, (a,)))
            for b in fresh[g.cod]:
                offer(g.dom, map_preimage(g.matrix, b), Witness("preimage", g.id, (b,)))
        for oid, m in members.items():
            elems, new = sorted(m, key=lambda s: s.sort_key), set(fresh[oid])
            for i, a in enumerate(elems):
                for b in elems[i + 1:]:
                    if a in new or b in new:
                        offer(oid, sub_intersect(a, b), Witness("intersect", None, (a, b)))
        if not any(added.values()):
            return members, rounds, counts
        for oid, m in added.items():
            members[oid].update(m)
            fresh[oid] = sorted(m, key=lambda s: s.sort_key)
        counts.append({oid: len(m) for oid, m in members.items()})


def _assert_matches_reference(rep):
    flag = compute_flag(rep)
    members, rounds, counts = _reference_closure(rep)
    ref = FlagAssignment({oid: build_poset(list(m)) for oid, m in members.items()}, members, rounds)
    assert flag.to_json() == ref.to_json()
    for oid, m in members.items():
        assert list(flag.provenance[oid].items()) == list(m.items())
        p, q = flag.posets[oid], ref.posets[oid]
        assert (p.elements, p.down, p.covers) == (q.elements, q.down, q.covers)
    for r in range(rounds):
        with pytest.raises(ClosureDivergence) as exc:
            compute_flag(rep, ClosureLimits(max_rounds=r))
        assert exc.value.reached == {oid: list(m)[: counts[r][oid]] for oid, m in members.items()}


@given(representations())
@settings(max_examples=60, deadline=None)
def test_closure_matches_the_reference_closure(rep):
    """``compute_flag`` gives the reference closure's report (witnesses and
    rounds included), its order of arrival, its posets, and at every round
    limit below its round count, its elements of those rounds."""
    _assert_matches_reference(rep)


@given(stars_and_intervals())
@settings(max_examples=60, deadline=None)
def test_closure_of_stars_matches_the_reference_closure(rep):
    """The same on stars of lines, planes and hyperplanes, where most
    containments are set by dimension class, and on interval sums."""
    _assert_matches_reference(rep)


@pytest.mark.parametrize("k", [8, 14])
def test_known_meets_are_not_intersected(k, monkeypatch):
    """On a star of k planes in GF(10007)^3, every meet but those of two
    planes is known from dimension and containment, and a preimage's key
    (its meet with the plane that is the map's image) is read off the
    down-set masks, so the whole closure makes one intersection per pair
    of planes, also where a limit stops it.  The spy sits in ``linalg`` as
    well, where ``map_preimage`` would intersect.  Each pair of a line and
    a plane of the centre takes at most one incidence test, when the later
    of the two joins the members, and the image of a preimage is read off
    the key it was lifted from, without an elimination.  The down-sets set
    still assemble the poset that intersecting every pair validates."""
    import invcat.flag as flag
    import invcat.linalg as linalg

    calls = []
    real = linalg.sub_intersect

    def spy(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(flag, "sub_intersect", spy)
    monkeypatch.setattr(linalg, "sub_intersect", spy)

    # incidence tests: ``contains`` tests the rows of its argument by
    # ``_holding`` too
    tested = Counter()
    real_holding = linalg.Subspace._holding

    def holding_spy(self, ws):
        for w in ws:
            tested[self, tuple(w)] += 1
        return real_holding(self, ws)

    monkeypatch.setattr(linalg.Subspace, "_holding", holding_spy)

    # eliminations made while taking the image of a preimage
    spans = []
    real_span = linalg.Subspace.span.__func__

    def span_spy(cls, *args):
        spans.append(1)
        return real_span(cls, *args)

    lifted = []
    real_image = flag.map_image

    def image_spy(m, a):
        form = m._preimage_form
        made = form is not None and a in form[3].values()
        before = len(spans)
        out = real_image(m, a)
        if made:
            lifted.append(len(spans) - before)
        return out

    monkeypatch.setattr(linalg.Subspace, "span", classmethod(span_spy))
    monkeypatch.setattr(flag, "map_image", image_spy)
    field = GF(10007)
    rng = random.Random(k)
    planes = [random_matrix(rng, field, 3, 2) for _ in range(k)]
    assert len({image(m) for m in planes}) == k and all(image(m).dim == 2 for m in planes)
    star = Representation(
        field,
        (RepObject("c", 3),) + tuple(RepObject(f"p{i}", 2) for i in range(k)),
        tuple(Generator(f"g{i}", f"p{i}", "c", m) for i, m in enumerate(planes)),
    )
    pairs = k * (k - 1) // 2
    result = compute_flag(star)
    assert len(calls) == pairs

    centre = result.posets["c"].elements
    lines = {s.basis[0] for s in centre if s.dim == 1}
    assert len(lines) == pairs
    # every test is of a line against a plane of the centre, and none twice
    assert all(plane.ambient_dim == 3 and plane.dim == 2 for plane, _ in tested)
    assert max(tested.values()) == 1
    assert len(tested) <= len(lines) * k
    assert lifted and not any(lifted)

    # stopped before the lines reach the planes: the closure intersects the
    # planes in round 2, and hands over the elements of both rounds
    calls.clear()
    with pytest.raises(ClosureDivergence) as exc:
        compute_flag(star, ClosureLimits(max_rounds=2))
    assert len(calls) == pairs
    reached = exc.value.reached["c"]
    assert reached == list(result.provenance["c"])[: len(reached)]
    assert {s.dim for s in reached} == {0, 1, 2, 3}

    for p in result.posets.values():
        ref = build_poset(p.elements)
        assert (p.elements, p.down, p.covers) == (ref.elements, ref.down, ref.covers)

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcat import (
    ElementNotInPoset,
    GF,
    RATIONALS,
    Subspace,
    all_subspaces,
    analyze,
    build_poset,
    check_representation,
    compute_flag,
    evaluate_pair,
    meet_closure,
    sub_intersect,
)

from conftest import (
    conjugate_representation,
    direct_sum,
    interval_corpus_instance,
    random_invertible,
)

ZERO2 = Subspace.zero(RATIONALS, 2)
FULL2 = Subspace.full(RATIONALS, 2)
X_AXIS = Subspace.span(RATIONALS, 2, [[1, 0]])
Y_AXIS = Subspace.span(RATIONALS, 2, [[0, 1]])
DIAG = Subspace.span(RATIONALS, 2, [[1, 1]])


def test_trisection_pair_value(trisection):
    a = analyze(trisection)
    p = a.flag.posets["center"]
    assert evaluate_pair(p, FULL2, ZERO2, "standard") == -1


def test_trisection_fails_with_witness(trisection):
    a = analyze(trisection)
    assert not a.report.passed
    keyed = {(w.b, w.c): w.value for w in a.report.witnesses}
    assert keyed[(FULL2, ZERO2)] == -1


def test_bisection_passes_with_zero_pair(bisection):
    a = analyze(bisection)
    assert a.report.passed
    p = a.flag.posets["plane"]
    assert evaluate_pair(p, FULL2, ZERO2, "standard") == 0


def test_pair_vanishes_when_b_below_c():
    p = build_poset([ZERO2, X_AXIS, FULL2])
    assert evaluate_pair(p, X_AXIS, FULL2, "standard") == 0
    assert evaluate_pair(p, X_AXIS, X_AXIS, "standard") == 0


def test_mu_mode_divergence_pins_diamond(bisection):
    a = analyze(bisection)  # saturated diamond
    p = a.flag.posets["plane"]
    assert evaluate_pair(p, X_AXIS, Y_AXIS, "literal") == -1
    assert evaluate_pair(p, X_AXIS, Y_AXIS, "standard") == 1


def test_element_not_in_poset(bisection):
    a = analyze(bisection)
    p = a.flag.posets["plane"]
    stranger = Subspace.span(RATIONALS, 2, [[1, 2]])
    with pytest.raises(ElementNotInPoset):
        evaluate_pair(p, stranger, ZERO2)


def test_chains_always_pass_standard(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        field = rng.choice([RATIONALS, GF(2), GF(3)])
        dims = sorted(rng.sample(range(0, n + 1), k=rng.randint(2, n + 1)))
        if dims[0] != 0:
            dims = [0] + dims
        if dims[-1] != n:
            dims = dims + [n]
        chain = [
            Subspace.span(
                field, n, [[field.one if i == j else field.zero for j in range(n)] for i in range(d)]
            )
            for d in dims
        ]
        p = build_poset(chain)
        for b in p.elements:
            for c in p.elements:
                assert evaluate_pair(p, b, c, "standard") >= 0


def test_witnesses_are_exhaustive_and_sorted(trisection):
    a = analyze(trisection)
    ws = a.report.witnesses
    # the four negative pairs at the center: (full, 0) and (full, each line)
    assert len(ws) == 4
    assert all(w.object_id == "center" and w.b == FULL2 for w in ws)
    keys = [(w.object_id, w.b.sort_key, w.c.sort_key) for w in ws]
    assert keys == sorted(keys)


def test_report_json_shape(trisection):
    a = analyze(trisection)
    doc = a.report.to_json()
    assert doc["verdict"] == "fail"
    assert doc["poset_sizes"]["center"] == 5
    assert "timing" not in doc and "timing_ms" not in doc
    assert doc["witnesses"][0]["object"] == "center"


def test_criterion_value_compares_and_hashes_by_its_fields():
    from invcat.criterion import CriterionValue

    v = CriterionValue("center", FULL2, X_AXIS, -1, "standard")
    w = CriterionValue(object_id="center", b=FULL2, c=X_AXIS, value=-1, mu_mode="standard")
    assert (v.object_id, v.b, v.c, v.value, v.mu_mode) == ("center", FULL2, X_AXIS, -1, "standard")
    assert v == w and hash(v) == hash(w)
    # an equal Subspace built anew is the same field
    assert v == CriterionValue("center", FULL2, Subspace.span(RATIONALS, 2, [[2, 0]]), -1, "standard")
    changed = [
        CriterionValue("p0", FULL2, X_AXIS, -1, "standard"),
        CriterionValue("center", DIAG, X_AXIS, -1, "standard"),
        CriterionValue("center", FULL2, Y_AXIS, -1, "standard"),
        CriterionValue("center", FULL2, X_AXIS, -2, "standard"),
        CriterionValue("center", FULL2, X_AXIS, -1, "literal"),
    ]
    assert all(u != v for u in changed)
    assert len({v, w, *changed}) == 6
    with pytest.raises(AttributeError):
        v.value = 0
    assert v.to_json() == {
        "object": "center",
        "b_basis": FULL2.json_rows(),
        "c_basis": X_AXIS.json_rows(),
        "value": -1,
    }


def test_direct_sums_of_blockcodes_pass(rng):
    for _ in range(10):
        rep, _ = interval_corpus_instance(rng)
        assert analyze(rep).report.passed


def test_verdict_invariant_under_change_of_basis(trisection, rng):
    for _ in range(3):
        assert not analyze(conjugate_representation(rng, trisection)).report.passed
    for _ in range(5):
        rep, _ = interval_corpus_instance(rng, max_vertices=4)
        conj = conjugate_representation(rng, rep)
        assert analyze(rep).report.passed == analyze(conj).report.passed is True


def test_pass_plus_pass_stays_pass(rng):
    for _ in range(5):
        rep, _ = interval_corpus_instance(rng, max_vertices=4)
        assert analyze(direct_sum(rep, rep)).report.passed


def test_fail_plus_pass_surfaces_realization_gap(trisection):
    """Summing a failing diagram with a passing one can push every Moebius
    sum back to nonnegative even though no projection family exists: the
    score only sees dimensions of meets with family members, and the summand
    that would witness the clash (the span of two of the lines) is not in
    the flag.  The rank count sees it: at the center, the complements of the
    lower-cover sums add up to 5 dimensions in a 4-space, so the verdict is
    fail with a distributivity witness and no score witness."""
    import json

    from invcat import parse_representation

    doc = json.loads(trisection.serialize())
    doc["generators"][0]["matrix"] = [[0], [0]]
    doc["generators"][2]["matrix"] = [[0], [0]]
    passing = parse_representation(json.dumps(doc))
    assert analyze(passing).report.passed
    combined = analyze(direct_sum(trisection, passing))
    assert not combined.report.witnesses  # the sums really are all nonnegative
    assert not combined.report.passed
    assert combined.families is None
    [w] = combined.report.distributivity_witnesses
    assert w.object_id == "center"
    assert (w.b, w.count) == (Subspace.full(RATIONALS, 4), 5)


def test_criterion_is_not_sufficient_for_realizability():
    """Three coplanar lines inside a strictly larger ambient space: every
    pair scores nonnegative, yet multiplicativity forces ker(pi) of the
    third line to be the plane of the first two, which meets the third
    line.  The score alone is therefore not sufficient; the verdict also
    takes the rank count (1 + 1 + 1 at the lines, 3 - 2 at the full space,
    4 in all against dimension 3), which refutes it."""
    from invcat import CriterionViolated, OracleInstance, oracle_exists_family
    from invcat.criterion import check_poset, poset_passes
    from invcat.realize import realize_projections

    field = GF(2)
    lines = [
        Subspace.span(field, 3, [[1, 0, 0]]),
        Subspace.span(field, 3, [[0, 1, 0]]),
        Subspace.span(field, 3, [[1, 1, 0]]),
    ]
    family = [Subspace.zero(field, 3), *lines, Subspace.full(field, 3)]
    p = build_poset(family)
    std_neg, _, _ = check_poset(p)
    assert not std_neg  # every pair scores >= 0
    assert not poset_passes(p)
    found, _ = oracle_exists_family(OracleInstance(field, 3, tuple(family)))
    assert not found
    with pytest.raises(CriterionViolated):
        realize_projections(p, object_id="counterexample")
    # same poset shape with the third line off the plane: realizable
    off_plane = [
        Subspace.zero(field, 3),
        lines[0],
        lines[1],
        Subspace.span(field, 3, [[0, 0, 1]]),
        Subspace.full(field, 3),
    ]
    p2 = build_poset(off_plane)
    assert poset_passes(p2)
    found2, _ = oracle_exists_family(OracleInstance(field, 3, tuple(off_plane)))
    assert found2
    realize_projections(p2, object_id="ok")


def test_rank_count_holds_on_chains_and_diamonds():
    from invcat.criterion import rank_count_excess

    assert rank_count_excess(build_poset([ZERO2, FULL2])) is None
    assert rank_count_excess(build_poset([ZERO2, X_AXIS, FULL2])) is None
    assert rank_count_excess(build_poset([ZERO2, X_AXIS, Y_AXIS, FULL2])) is None


def test_rank_count_names_least_exceeding_element():
    """Three lines in a plane inside Q^3, plus a fourth line off the plane and
    the plane itself: the count first exceeds at the plane (1 + 1 + 1 + 0
    against dimension 2), not at the full space (4 + 1 + 0 against 3)."""
    from invcat.criterion import rank_count_excess

    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    lines = [Subspace.span(RATIONALS, 3, [v]) for v in (e[0], e[1], [1, 1, 0], e[2])]
    plane = Subspace.span(RATIONALS, 3, e[:2])
    p = build_poset([Subspace.zero(RATIONALS, 3), *lines, plane, Subspace.full(RATIONALS, 3)])
    bi, count = rank_count_excess(p)
    assert (p.elements[bi], count) == (plane, 3)


def test_rank_count_stops_at_the_first_excess(monkeypatch):
    """The count builds complements only up to the first excess and keeps
    that excess; a count that holds leaves every complement for
    ``adapted_complements``.  An element whose lower covers span 0 (0 itself
    and the atoms) is its own complement and takes no elimination, so the
    spy sees exactly the other elements up to the first excess."""
    import invcat.criterion as criterion

    calls = []
    real = criterion.complement_within
    monkeypatch.setattr(
        criterion, "complement_within", lambda big, small: calls.append(big) or real(big, small)
    )
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    lines = [Subspace.span(RATIONALS, 3, [v]) for v in (e[0], e[1], [1, 1, 0], e[2])]
    plane = Subspace.span(RATIONALS, 3, e[:2])
    p = build_poset([Subspace.zero(RATIONALS, 3), *lines, plane, Subspace.full(RATIONALS, 3)])
    bi, count = criterion.rank_count_excess(p)
    # 0 and the four lines take none; the plane, where the count first
    # exceeds, takes one, and the full space is not reached
    assert p.elements[bi] == plane and calls == [plane] and bi + 1 < len(p)
    assert criterion.rank_count_excess(p) == (bi, count) and calls == [plane]

    calls.clear()
    chain = build_poset([ZERO2, X_AXIS, FULL2])
    assert criterion.rank_count_excess(chain) is None and calls == [FULL2]
    comps = criterion.adapted_complements(chain)
    assert comps[:2] == (ZERO2, X_AXIS) and comps[2].dim == 1 and calls == [FULL2]


def test_mode_disagreements_reported(bisection):
    a = analyze(bisection)
    assert a.report.mode_disagreements > 0
    assert all(w.mu_mode == "literal" for w in a.report.disagreement_examples)


def test_check_representation_unsaturated(bisection):
    flag = compute_flag(bisection)
    report = check_representation(bisection, flag, "standard")
    assert report.passed
    assert report.poset_sizes["plane"] == 3


def reference_order(p):
    """``(leq, meet)`` of ``p`` by containment and intersection of its
    subspaces (``Subspace.contains``, ``sub_intersect``), not by its down-set
    masks: leq[a][b] holds when element a lies in element b, and meet[a][b]
    is the index of their intersection."""
    elems = p.elements
    leq = [[b.contains(a) for b in elems] for a in elems]
    meet = [[0] * len(elems) for _ in elems]
    for i, a in enumerate(elems):
        for j in range(i, len(elems)):
            meet[i][j] = meet[j][i] = p.index_of(sub_intersect(a, elems[j]))
    return leq, meet


def reference_mobius(leq):
    """``(one_var, two_var)`` by their recursions over ``leq``; index order
    is a linear extension."""
    n = len(leq)
    one = []
    for y in range(n):
        one.append((y == 0) - sum(one[x] for x in range(y) if leq[x][y]))
    two = [[0] * n for _ in range(n)]
    for a in range(n):
        two[a][a] = 1
        for b in range(a + 1, n):
            if leq[a][b]:
                two[a][b] = -sum(two[a][z] for z in range(a, b) if leq[a][z] and leq[z][b])
    return one, two


def pair_scores(p):
    """``(b, c, standard score, literal score)`` for every pair, b-major, by
    the definition with the two-variable Moebius table, on the order and
    meets of ``reference_order``: for each b the terms
    (a, two_var(a, b), one_var(a)) over the down-set of b with a nonzero
    weight are listed once, and each c is scored over them."""
    leq, meet = reference_order(p)
    one, two = reference_mobius(leq)
    n = len(p.elements)
    dims = [s.dim for s in p.elements]
    for bi in range(n):
        terms = [
            (ai, two[ai][bi], one[ai])
            for ai in range(n)
            if leq[ai][bi] and (two[ai][bi] or one[ai])
        ]
        for ci in range(n):
            meet_c = meet[ci]
            std = lit = 0
            for ai, w_std, w_lit in terms:
                drop = dims[ai] - dims[meet_c[ai]]
                std += w_std * drop
                lit += w_lit * drop
            yield bi, ci, std, lit


def dense_pair_value(p, order, mu, bi, ci, mode):
    """The score of (b, c) by its definition: a scan over every element,
    with the ``reference_order`` and the ``reference_mobius`` tables."""
    (leq, meet), (one, two) = order, mu
    total = 0
    for ai, a in enumerate(p.elements):
        if leq[ai][bi]:
            weight = two[ai][bi] if mode == "standard" else one[ai]
            total += weight * (a.dim - p.elements[meet[ai][ci]].dim)
    return total


def assert_scores_match_dense(p):
    """Every pair's score in both modes (``evaluate_pair``), the negatives
    of both modes and the disagreement count (``check_poset``) are those of
    the definition.  The standard negatives are exactly the pairs (b, c)
    with rho(b) < 0 and b not below c, scored rho(b), where rho is the
    Moebius inverse of dimension, here from the two-variable table.
    Returns the dense scores by mode and the standard negatives."""
    from invcat.criterion import check_poset

    order = reference_order(p)
    leq = order[0]
    mu = reference_mobius(leq)
    two = mu[1]
    n = len(p)
    dense = {
        mode: [[dense_pair_value(p, order, mu, bi, ci, mode) for ci in range(n)] for bi in range(n)]
        for mode in ("standard", "literal")
    }
    for bi, b in enumerate(p.elements):
        for ci, c in enumerate(p.elements):
            for mode in ("standard", "literal"):
                assert evaluate_pair(p, b, c, mode) == dense[mode][bi][ci]
    std_neg, lit_neg, disagreements = check_poset(p)
    for negatives, mode in ((std_neg, "standard"), (lit_neg, "literal")):
        assert negatives == [
            (bi, ci, dense[mode][bi][ci])
            for bi in range(n)
            for ci in range(n)
            if dense[mode][bi][ci] < 0
        ]
    rho = [sum(two[ai][bi] * p.elements[ai].dim for ai in range(n)) for bi in range(n)]
    assert std_neg == [
        (bi, ci, rho[bi])
        for bi in range(n)
        for ci in range(n)
        if rho[bi] < 0 and not leq[bi][ci]
    ]
    assert disagreements == sum(
        (dense["standard"][bi][ci] < 0) != (dense["literal"][bi][ci] < 0)
        for bi in range(n)
        for ci in range(n)
    )
    return dense, std_neg


def test_down_set_score_matches_dense_reference(rng):
    from invcat.criterion import poset_passes, rank_count_excess
    from invcat.linalg import image

    from conftest import random_matrix, random_meet_closed_family

    posets = []
    for _ in range(30):
        field = rng.choice([GF(2), GF(3)])
        posets.append(build_poset(random_meet_closed_family(rng, field, rng.randint(2, 3))))
    for planes in (4, 7):  # flags of stars of random planes: larger, mostly failing
        field = GF(10007)
        seeds = [image(random_matrix(rng, field, 3, 2)) for _ in range(planes)]
        seeds += [Subspace.zero(field, 3), Subspace.full(field, 3)]
        posets.append(meet_closure(seeds))
    for p in posets:
        dense, std_neg = assert_scores_match_dense(p)
        for mode in ("standard", "literal"):
            expected = all(v >= 0 for row in dense[mode] for v in row)
            assert poset_passes(p, mode) == (expected and rank_count_excess(p) is None)
        if rank_count_excess(p) is None:  # the count alone decides the standard verdict
            assert std_neg == [] and poset_passes(p)


@st.composite
def meet_closed_posets(draw):
    """Meet closures of up to four random subspaces of GF(2)^n or GF(3)^n."""
    field = draw(st.sampled_from([GF(2), GF(3)]))
    n = draw(st.integers(1, 4))
    seeds = draw(st.lists(st.sampled_from(all_subspaces(field, n)), max_size=4))
    return meet_closure([Subspace.zero(field, n), Subspace.full(field, n), *seeds])


@given(meet_closed_posets())
@settings(max_examples=300, deadline=None)
def test_rank_count_implies_nonnegative_scores(p):
    """Where the rank count holds a projection family exists, so no pair can
    score negative: the count alone decides the verdict on a flag."""
    from invcat.criterion import check_poset, poset_passes, rank_count_excess

    if rank_count_excess(p) is None:
        assert check_poset(p)[0] == []
    assert poset_passes(p) == (rank_count_excess(p) is None)


@st.composite
def star_flag_posets(draw):
    """The posets of the flag of a star of 2 to 6 random planes in
    GF(10007)^3: the centre's and each plane's."""
    from invcat.rep import Generator, RepObject, Representation

    from conftest import random_matrix

    field = GF(10007)
    planes = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    objs = (RepObject("center", 3),) + tuple(RepObject(f"p{i}", 2) for i in range(planes))
    gens = tuple(
        Generator(f"g{i}", f"p{i}", "center", random_matrix(rng, field, 3, 2))
        for i in range(planes)
    )
    flag = compute_flag(Representation(field, objs, gens))
    return [flag.posets[oid] for oid in sorted(flag.posets)]


@given(meet_closed_posets())
@settings(max_examples=200, deadline=None)
def test_standard_score_is_the_inverse_of_dimension(p):
    """The scores by meet are the definition's on random meet-closed
    posets, and the standard ones are rho(b) or 0."""
    assert_scores_match_dense(p)


@given(star_flag_posets())
@settings(max_examples=15, deadline=None)
def test_standard_score_is_the_inverse_of_dimension_on_star_flags(posets):
    """The same on the flags of stars of planes, which mostly fail."""
    for p in posets:
        assert_scores_match_dense(p)


def test_report_paths_build_no_moebius_table(trisection, bisection, monkeypatch):
    """Neither the report nor the verdict on one poset builds the Moebius
    table: the scores come from ``mobius_invert``'s recursion."""
    import invcat.criterion as criterion
    import invcat.poset as poset

    def refuse(p):
        raise AssertionError("mobius was called")

    monkeypatch.setattr(poset, "mobius", refuse)
    monkeypatch.setattr(criterion, "mobius", refuse)
    for rep in (trisection, bisection):
        flag = analyze(rep).flag
        for mode in ("standard", "literal"):
            check_representation(rep, flag, mode)
            for p in flag.posets.values():
                criterion.poset_passes(p, mode)


def plane_star(rng, planes):
    """A star of ``planes`` random planes in GF(10007)^3."""
    from invcat.rep import Generator, RepObject, Representation

    from conftest import random_matrix

    field = GF(10007)
    objs = (RepObject("center", 3),) + tuple(RepObject(f"p{i}", 2) for i in range(planes))
    gens = tuple(
        Generator(f"g{i}", f"p{i}", "center", random_matrix(rng, field, 3, 2))
        for i in range(planes)
    )
    return Representation(field, objs, gens)


def test_command_paths_read_the_down_sets_alone(monkeypatch):
    """``check``, ``decompose`` and ``envelope`` (through ``analyze``, the
    report, ``decompose`` and ``verify_envelope``) run on a star of 14
    planes over GF(10007)^3 and on an interval sum.  The refusal of
    ``decompose`` takes no literal score; a standard report lists literal
    negatives only at the b of its ten examples; ``check --mu literal``
    lists every literal negative."""
    import invcat.criterion as criterion
    from invcat.decompose import decompose
    from invcat.errors import CriterionViolated
    from invcat.realize import verify_envelope

    literal_scores, listed = [], []
    real_literal, real_pairs = criterion._Scores.literal, criterion._Scores.pairs

    def literal(self, bi):
        literal_scores.append(bi)
        return real_literal(self, bi)

    def pairs(self, bi, values):
        found = real_pairs(self, bi, values)
        listed.extend(found)
        return found

    monkeypatch.setattr(criterion._Scores, "literal", literal)
    monkeypatch.setattr(criterion._Scores, "pairs", pairs)

    star = plane_star(random.Random(24), 14)
    with pytest.raises(CriterionViolated):
        decompose(star)
    assert literal_scores == [] and listed == []
    report = analyze(star).standard_report
    assert report.witnesses and listed == []
    doc = report.to_json()
    assert literal_scores and len(doc["disagreement_examples"]) == 10
    centre = report.scored[0][1]
    assert {centre.elements[bi] for bi, _, _ in listed} == {
        w.b for w in report.disagreement_examples
    }
    assert len(listed) < report.mode_disagreements

    listed.clear()
    literal_report = analyze(star, mu_mode="literal").report
    assert literal_report.witnesses and len(listed) == len(literal_report.witnesses)
    assert all(w.mu_mode == "literal" for w in literal_report.witnesses)
    literal_report.to_json()

    rep = interval_corpus_instance(random.Random(5))[0]
    analysis = analyze(rep)
    assert analysis.passed
    analysis.report.to_json()
    decompose(rep)
    verify_envelope(rep, analysis.families, analysis.pseudo_inverses)


def test_poset_passes_rejects_an_unknown_mode():
    from invcat.criterion import poset_passes
    from invcat.errors import ValidationError

    with pytest.raises(ValidationError):
        poset_passes(build_poset([ZERO2, X_AXIS, FULL2]), "dense")


def reference_check_representation(flag, mode):
    """``check_representation`` as it was with a ``CriterionValue`` for every
    negative pair of either mode, sorted by ``sort_key`` and cut to ten
    disagreement examples; returns the fields the new one must reproduce."""
    from invcat.criterion import CriterionValue

    witnesses, examples, disagreements = [], [], 0
    for oid in sorted(flag.posets):
        p = flag.posets[oid]
        std_neg, lit_neg = [], []
        for bi, ci, v_std, v_lit in pair_scores(p):
            b, c = p.elements[bi], p.elements[ci]
            if v_std < 0:
                std_neg.append(CriterionValue(oid, b, c, v_std, "standard"))
            if v_lit < 0:
                lit_neg.append(CriterionValue(oid, b, c, v_lit, "literal"))
            if (v_std < 0) != (v_lit < 0):
                disagreements += 1
        chosen, other = (std_neg, lit_neg) if mode == "standard" else (lit_neg, std_neg)
        witnesses.extend(chosen)
        seen = {(w.object_id, w.b, w.c) for w in chosen}
        examples.extend(w for w in other if (w.object_id, w.b, w.c) not in seen)
    witnesses.sort(key=lambda w: (w.object_id, w.b.sort_key, w.c.sort_key))
    examples.sort(key=lambda w: (w.object_id, w.b.sort_key, w.c.sort_key))
    return witnesses, disagreements, examples[:10]


def test_check_representation_matches_value_reference(rng):
    """Witnesses and their order, the disagreement count and the ten
    examples equal those of the reference, in both modes, on flags of stars
    of random planes over GF(10007) and on random meet-closed families over
    GF(2) and GF(3), several objects to a flag."""
    from invcat.flag import FlagAssignment
    from invcat.rep import Generator, RepObject, Representation

    from conftest import random_matrix, random_meet_closed_family

    field = GF(10007)
    flags = []
    for planes in (3, 5, 8):
        objs = (RepObject("center", 3),) + tuple(RepObject(f"p{i}", 2) for i in range(planes))
        gens = tuple(
            Generator(f"g{i}", f"p{i}", "center", random_matrix(rng, field, 3, 2))
            for i in range(planes)
        )
        flags.append(compute_flag(Representation(field, objs, gens)))
    for _ in range(40):
        small, n = rng.choice([(GF(2), 4), (GF(3), 3)])
        posets = {
            oid: build_poset(random_meet_closed_family(rng, small, n, max_seed=6, max_size=30))
            for oid in ("a", "b", "c")
        }
        flags.append(FlagAssignment(posets=posets, provenance={}, rounds=0))
    examples_cut = negative_in_both = 0
    for flag in flags:
        reports = {mode: check_representation(None, flag, mode) for mode in ("standard", "literal")}
        for mode, report in reports.items():
            witnesses, disagreements, examples = reference_check_representation(flag, mode)
            assert report.witnesses == tuple(witnesses)
            assert report.mode_disagreements == disagreements
            assert report.disagreement_examples == tuple(examples)
            examples_cut += len(examples) == 10
        pairs = [(w.object_id, w.b, w.c) for r in reports.values() for w in r.witnesses]
        negative_in_both += len(set(pairs)) < len(pairs)
    # the ten are cut from more, and some pairs are negative in both modes
    assert examples_cut > 0 and negative_in_both > 0


def test_a_family_that_passes_the_count_has_at_most_2_to_the_n_elements():
    """The bound by which a stopped closure is refuted: where the rank count
    holds on a meet-closed family in dimension n, its elements are
    coordinate sets of an adapted basis, so there are at most 2^n of them.
    The families are meet closures, on GF(2) and GF(3) in dimension at most
    3, of coordinate sets of a random basis and of a few random subspaces."""
    from invcat.criterion import rank_count_excess

    rng = random.Random(16)
    passing = largest = 0
    for _ in range(300):
        field = rng.choice([GF(2), GF(3)])
        n = rng.randint(1, 3)
        cols = list(zip(*random_invertible(rng, field, n).entries))
        masks = rng.sample(range(2 ** n), rng.randint(0, 2 ** n))
        seeds = [Subspace.span(field, n, [c for j, c in enumerate(cols) if m >> j & 1]) for m in masks]
        seeds += rng.sample(all_subspaces(field, n), rng.randint(0, 2))
        p = meet_closure([Subspace.zero(field, n), Subspace.full(field, n), *seeds])
        if rank_count_excess(p) is None:
            passing += 1
            assert len(p) <= 2 ** n
            largest += len(p) == 2 ** n
        else:
            assert len(p) > 2  # some family in between fails
    assert passing >= 100 and largest >= 20

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcat import (
    GF,
    AxiomViolation,
    ClosureLimits,
    ConstructionFailure,
    CriterionViolated,
    EnvelopeLimits,
    Matrix,
    RATIONALS,
    Subspace,
    ValidationError,
    analyze,
    build_poset,
    evaluate_pair,
    image,
    kernel,
    kernel_decomposition_check,
    map_preimage,
    projection_onto,
    pseudo_inverse,
    realize_projections,
    sub_intersect,
    sub_sum,
    verify_envelope,
    verify_projection_family,
)
from invcat.criterion import poset_passes, rank_count_excess
from invcat.errors import ClosureDivergence
from invcat.realize import Envelope, basis_inverse
from invcat.rep import Generator, RepObject, Representation, quiver_shape

from conftest import (
    conjugate_representation,
    interval_corpus_instance,
    random_meet_closed_family,
    random_representation,
    random_subspace,
)

ZERO2 = Subspace.zero(RATIONALS, 2)
FULL2 = Subspace.full(RATIONALS, 2)
X_AXIS = Subspace.span(RATIONALS, 2, [[1, 0]])
Y_AXIS = Subspace.span(RATIONALS, 2, [[0, 1]])


def test_family_on_the_diamond():
    p = build_poset([ZERO2, X_AXIS, Y_AXIS, FULL2])
    fam = realize_projections(p, object_id="plane")
    assert not verify_projection_family(p, fam.projections)
    px, py = fam.projections[X_AXIS], fam.projections[Y_AXIS]
    assert px @ py == Matrix.zeros(RATIONALS, 2, 2)
    assert py @ px == Matrix.zeros(RATIONALS, 2, 2)


def test_family_on_chain_is_trivial():
    p = build_poset([ZERO2, X_AXIS, FULL2])
    fam = realize_projections(p)
    pl = fam.projections[X_AXIS]
    assert pl @ pl == pl and image(pl) == X_AXIS


def test_family_rejects_failing_poset():
    diag = Subspace.span(RATIONALS, 2, [[1, 1]])
    p = build_poset([ZERO2, X_AXIS, Y_AXIS, diag, FULL2])
    with pytest.raises(CriterionViolated):
        realize_projections(p, object_id="center")


def _greedy_family(p):
    """Reference: the projection family as the greedy picker used to build it.

    For each target c and each b, in index order, it picks score(b, c) rows of
    b's canonical basis, first fit, avoiding c, every element below b and the
    rows picked so far; their span is the kernel of the projection onto c.
    Every pair is scored and the family is verified exhaustively.
    """
    if not poset_passes(p, "standard"):
        raise CriterionViolated("criterion fails")
    field, n, elems = p.field, p.ambient_dim, p.elements
    projections = {}
    for c in elems:
        kernel_rows = []
        for bi, b in enumerate(elems):
            count = evaluate_pair(p, b, c, "standard")
            if count < 0:
                raise CriterionViolated("negative score", value=count)
            forbidden = [list(r) for r in c.basis] + kernel_rows
            for ai, a in enumerate(elems):
                if p.down[bi] >> ai & 1 and ai != bi:
                    forbidden.extend(list(r) for r in a.basis)
            taken = 0
            for row in b.basis:
                if taken == count:
                    break
                if not Subspace.span(field, n, forbidden).contains_vector(row):
                    kernel_rows.append(list(row))
                    forbidden.append(list(row))
                    taken += 1
            if taken < count:
                raise ConstructionFailure("could not pick the kernel vectors")
        ker = Subspace.span(field, n, kernel_rows)
        if ker.dim + c.dim != n or not sub_intersect(ker, c).is_zero:
            raise ConstructionFailure("kernel does not complement its image")
        projections[c] = projection_onto(c, ker)
    if verify_projection_family(p, projections):
        raise ConstructionFailure("greedy family fails verification")
    return projections


def _check_against_greedy(p):
    """The adapted family equals the greedy one entry for entry and passes
    the exhaustive check; both refuse exactly where the rank count fails."""
    count_fails = rank_count_excess(p) is not None
    try:
        fam = realize_projections(p, object_id="x")
    except CriterionViolated:
        assert count_fails
        with pytest.raises(CriterionViolated):
            _greedy_family(p)
        return False
    assert not count_fails
    assert fam.projections == _greedy_family(p)
    assert list(fam.projections) == list(p.elements)
    assert not verify_projection_family(p, fam.projections)
    return True


def _over_gf(rep, field):
    """The same integer-valued representation, read over ``field``."""
    gens = tuple(
        Generator(g.id, g.dom, g.cod, Matrix.build(field, m.rows, m.cols, m.entries))
        for g, m in ((g, g.matrix) for g in rep.generators)
    )
    return Representation(field, rep.objects, gens)


def test_adapted_family_matches_greedy_on_random_families(rng):
    built = refused = 0
    for _ in range(300):
        field = rng.choice([GF(2), GF(3)])
        fam = random_meet_closed_family(rng, field, rng.choice([2, 3]))
        if _check_against_greedy(build_poset(fam)):
            built += 1
        else:
            refused += 1
    assert built > 50 and refused > 10


def test_adapted_family_matches_greedy_on_saturated_flags(rng):
    gf = GF(10007)
    for _ in range(8):
        rep, _ = interval_corpus_instance(rng)
        for r in (rep, conjugate_representation(rng, _over_gf(rep, gf))):
            a = analyze(r)
            assert a.standard_report.passed and a.flag.saturated
            for p in a.flag.posets.values():
                assert _check_against_greedy(p)


@st.composite
def mask_family_inputs(draw):
    """Random representations (trees and cyclic quivers), interval sums on
    A_n quivers over Q, and their conjugates over GF(10007)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    source = draw(st.sampled_from(("random", "interval", "conjugate")))
    if source == "random":
        return random_representation(rng)
    rep, _ = interval_corpus_instance(rng)
    return rep if source == "interval" else conjugate_representation(rng, _over_gf(rep, GF(10007)))


@given(mask_family_inputs())
@settings(max_examples=200, deadline=None)
def test_families_read_off_masks_match_the_adapted_families(rep):
    """On a flag saturated on bitmasks, each family is read off its
    elements' masks in the flag's bases, and its projections equal those
    that ``realize_projections`` builds from the first-fit adapted basis of
    the same poset."""
    try:
        a = analyze(rep, ClosureLimits(max_rounds=8, max_elements_per_object=200))
    except ClosureDivergence:
        return
    if a.flag.masks is None:
        return
    for oid, fam in a.families.items():
        assert fam.basis == a.bases[oid]
        assert fam.projections == realize_projections(a.flag.posets[oid], oid).projections


def _spy_eliminations(monkeypatch):
    """Each matrix the cached elimination inverts, with the function that
    asked ``inverse`` for it."""
    import invcat.linalg as linalg

    real = linalg._invert
    eliminated = []

    def spied(m):
        eliminated.append((m, sys._getframe(2).f_code.co_name))
        return real(m)

    monkeypatch.setattr(linalg, "_invert", spied)
    return eliminated


def _pulls(rep):
    """The generators along which ``transported_bases`` pulls a basis: the
    spanning-forest edges it takes from their codomain, breadth-first from
    the first object of each connected component."""
    reached, pulls = set(), []
    for o in rep.objects:
        if o.id in reached:
            continue
        reached.add(o.id)
        queue = [o.id]
        for here in queue:
            for g in rep.generators:
                if g.dom == here and g.cod not in reached:
                    reached.add(g.cod)
                    queue.append(g.cod)
                elif g.cod == here and g.dom not in reached:
                    reached.add(g.dom)
                    queue.append(g.dom)
                    pulls.append(g)
    return pulls


def test_each_basis_is_eliminated_once(rng, monkeypatch):
    """A basis's inverse is cached on its Matrix.  A passing ``check``
    (``analyze`` and the report) inverts only the bases the pipeline hands
    out for the generators' codomains, never another object's and never a
    copy; on a cycle-free quiver exactly the codomain bases of the
    transport's pulls, since every reading there is the matching the
    transport built.  Through the families and ``verify_envelope`` as well,
    no matrix is eliminated twice, and every basis inverted is one handed
    out.  The blocks that ``_pulled_columns`` inverts, for the transport's
    pulls and for ``pseudo_inverse_from_coordinates``, are not bases."""
    eliminated = _spy_eliminations(monkeypatch)

    def bases_inverted():
        return {id(m) for m, caller in eliminated if caller != "_pulled_columns"}

    reps = []
    for _ in range(20):
        rep, _ = interval_corpus_instance(rng)
        reps += [rep, conjugate_representation(rng, _over_gf(rep, GF(10007)))]
    reps += [random_representation(rng) for _ in range(150)]
    passed = trees = 0
    for rep in reps:
        eliminated.clear()
        try:
            a = analyze(rep, ClosureLimits(max_rounds=8, max_elements_per_object=200))
        except ClosureDivergence:
            continue
        if not a.report.passed:
            continue
        passed += 1
        if quiver_shape(rep).has_undirected_cycle:
            assert bases_inverted() <= {id(a.bases[g.cod]) for g in rep.generators}
        else:
            trees += 1
            assert bases_inverted() == {id(a.bases[g.cod]) for g in _pulls(rep)}
        try:
            verify_envelope(rep, a.families, a.pseudo_inverses)
        except AxiomViolation:
            pass
        handed = {id(b) for b in a.bases.values()} | {id(f.basis) for f in a.families.values()}
        assert bases_inverted() <= handed
        assert len({id(m) for m, _ in eliminated}) == len(eliminated)
    assert passed >= 120 and trees >= 60


@st.composite
def transported_inputs(draw):
    """Random trees and cyclic quivers, interval sums on A_n quivers over Q,
    and those sums conjugated over GF(10007)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "interval", "conjugate"]))
    if kind == "random":
        return random_representation(rng)
    rep = interval_corpus_instance(rng)[0]
    return rep if kind == "interval" else conjugate_representation(rng, _over_gf(rep, GF(10007)))


@given(transported_inputs())
@settings(max_examples=200, deadline=None)
def test_transport_readings_are_the_generators_in_the_bases(rep):
    """Each generator's reading that ``transported_bases`` hands over, the
    matching it built or the conjugate of an edge that closes a cycle, is
    the generator's matrix in the bases, B_cod^-1 g B_dom."""
    try:
        a = analyze(rep, ClosureLimits(max_rounds=8, max_elements_per_object=200), saturate=False)
    except ClosureDivergence:
        return
    if not a.passed:
        return
    assert list(a.in_bases) == [g.id for g in rep.generators]
    for g in rep.generators:
        assert a.in_bases[g.id] == basis_inverse(a.bases[g.cod]) @ g.matrix @ a.bases[g.dom]


def test_families_on_corpus(rng):
    for _ in range(10):
        rep, _ = interval_corpus_instance(rng)
        a = analyze(rep)
        assert a.families is not None
        for oid, fam in a.families.items():
            assert not verify_projection_family(fam.poset, fam.projections)


# --- pseudo-inverses ------------------------------------------------------------


def _family_pair_for(matrix, dom_dim, cod_dim):
    rep = Representation(
        RATIONALS,
        (RepObject("a", dom_dim), RepObject("b", cod_dim)),
        (Generator("f", "a", "b", matrix),),
    )
    a = analyze(rep)
    assert a.families is not None
    return a.families["a"], a.families["b"]


def test_pseudo_inverse_of_invertible_is_inverse():
    m = Matrix.build(RATIONALS, 2, 2, [[2, 1], [1, 1]])
    fd, fc = _family_pair_for(m, 2, 2)
    from invcat import inverse

    assert pseudo_inverse(m, fd.basis, fc.basis) == inverse(m)


def test_pseudo_inverse_of_zero_map():
    m = Matrix.zeros(RATIONALS, 3, 2)
    fd, fc = _family_pair_for(m, 2, 3)
    assert pseudo_inverse(m, fd.basis, fc.basis) == Matrix.zeros(RATIONALS, 2, 3)


def test_pseudo_inverse_of_nilpotent_loop(bisection):
    a = analyze(bisection)
    dagger = a.pseudo_inverses["shift"]
    assert dagger == Matrix.build(RATIONALS, 2, 2, [[0, 0], [1, 0]])
    zeta = bisection.generator("shift").matrix
    assert zeta @ dagger @ zeta == zeta


def test_pseudo_inverse_axioms_on_corpus(rng):
    for _ in range(10):
        rep, _ = interval_corpus_instance(rng)
        a = analyze(rep)
        for g in rep.generators:
            zeta = g.matrix
            dag = a.pseudo_inverses[g.id]
            pi_ker = a.families[g.dom].projections[kernel(zeta)]
            pi_im = a.families[g.cod].projections[image(zeta)]
            assert zeta @ dag @ zeta == zeta
            assert dag @ zeta @ dag == dag
            assert dag @ zeta == Matrix.identity(RATIONALS, zeta.cols) - pi_ker
            assert zeta @ dag == pi_im


def test_pseudo_inverse_maps_identities(bisection, rng):
    """im(a) = im(a b), ker(a) = ker(b a) for a pseudo-inverse pair."""
    cases = [analyze(bisection)]
    for _ in range(5):
        rep, _ = interval_corpus_instance(rng)
        cases.append(analyze(rep))
    for a in cases:
        for g in a.rep.generators:
            alpha = g.matrix
            beta = a.pseudo_inverses[g.id]
            assert image(alpha) == image(alpha @ beta)
            assert kernel(alpha) == kernel(beta @ alpha)
            assert image(beta) == image(beta @ alpha)
            assert kernel(beta) == kernel(alpha @ beta)


# --- commutation characterization --------------------------------------------------


def _commute_conditions(alpha, beta):
    ia, ib = image(alpha), image(beta)
    ka, kb = kernel(alpha), kernel(beta)
    c2 = ia == sub_sum(sub_intersect(ia, ib), sub_intersect(ia, kb))
    c3 = ia.dim == sub_intersect(ia, ib).dim + sub_intersect(ia, kb).dim
    c4 = all(
        s == sub_sum(sub_intersect(s, ib), sub_intersect(s, kb)) for s in (ia, ka)
    )
    return c2, c3, c4


def test_commute_conditions_on_constructed_families(rng):
    for _ in range(6):
        rep, _ = interval_corpus_instance(rng, max_vertices=4)
        a = analyze(rep)
        for fam in a.families.values():
            mats = list(fam.projections.values())
            for x in mats:
                for y in mats:
                    assert x @ y == y @ x
                    assert all(_commute_conditions(x, y))


def test_non_commuting_projections_fail_a_condition(rng):
    found = 0
    while found < 25:
        n = rng.randint(2, 4)
        img = random_subspace(rng, RATIONALS, n)
        ker1 = random_subspace(rng, RATIONALS, n)
        img2 = random_subspace(rng, RATIONALS, n)
        ker2 = random_subspace(rng, RATIONALS, n)
        try:
            p1 = projection_onto(img, ker1)
            p2 = projection_onto(img2, ker2)
        except Exception:
            continue
        if p1 @ p2 == p2 @ p1:
            continue
        found += 1
        both = all(_commute_conditions(p1, p2)) and all(_commute_conditions(p2, p1))
        assert not both


# --- kernel decomposition ------------------------------------------------------------


def test_kernel_decomposition_invertible_beta():
    alpha = Matrix.build(RATIONALS, 2, 2, [[1, 0], [0, 0]])
    beta = Matrix.build(RATIONALS, 2, 2, [[1, 1], [0, 1]])
    from invcat import inverse

    assert kernel_decomposition_check(alpha, beta, inverse(beta))


def test_kernel_decomposition_zero_alpha():
    alpha = Matrix.zeros(RATIONALS, 2, 3)
    beta = Matrix.build(RATIONALS, 2, 2, [[0, 1], [0, 0]])
    dagger = Matrix.build(RATIONALS, 2, 2, [[0, 0], [1, 0]])
    assert kernel_decomposition_check(alpha, beta, dagger)
    assert map_preimage(beta, image(alpha)) == kernel(beta)


def test_kernel_decomposition_on_envelope_pairs(bisection):
    a = analyze(bisection)
    env = verify_envelope(bisection, a.families, a.pseudo_inverses)
    endos = env.closure[("plane", "plane")]
    daggers = {}
    for m in endos:
        for b in endos:
            if m @ b @ m == m and b @ m @ b == b:
                daggers[m] = b
                break
    for alpha in endos:
        for beta in endos:
            if beta in daggers:
                assert kernel_decomposition_check(alpha, beta, daggers[beta])


# --- envelope ---------------------------------------------------------------------


def test_envelope_bisection(bisection):
    a = analyze(bisection)
    env = verify_envelope(bisection, a.families, a.pseudo_inverses)
    assert not env.bounded
    assert env.total_morphisms == 6
    idempotents = [m for m in env.closure[("plane", "plane")] if m @ m == m]
    assert len(idempotents) == 4
    assert env.all_have_pseudo_inverse
    assert env.endomorphisms_idempotent is None  # loop: the tree check is off


def test_envelope_a2():
    rep = Representation(
        RATIONALS,
        (RepObject("x", 1), RepObject("y", 2)),
        (Generator("f", "x", "y", Matrix.build(RATIONALS, 2, 1, [[1], [0]])),),
    )
    a = analyze(rep)
    env = verify_envelope(rep, a.families, a.pseudo_inverses)
    assert env.total_morphisms <= 8
    assert env.endomorphisms_idempotent is True
    assert env.all_have_pseudo_inverse


def test_envelope_identity_only():
    rep = Representation(
        RATIONALS,
        (RepObject("x", 2),),
        (Generator("e", "x", "x", Matrix.identity(RATIONALS, 2)),),
    )
    a = analyze(rep)
    env = verify_envelope(rep, a.families, a.pseudo_inverses)
    assert env.total_morphisms == 1


def test_envelope_limit_sets_bounded_flag(monkeypatch):
    # invertible scaling loop generates an infinite cyclic envelope; it is
    # monomial in its family's basis, and both kinds stop at the same powers
    kinds = _count_kinds(monkeypatch)
    rep = Representation(
        RATIONALS,
        (RepObject("x", 1),),
        (Generator("d", "x", "x", Matrix.build(RATIONALS, 1, 1, [[2]])),),
    )
    a = analyze(rep)
    powers = [
        Matrix.build(RATIONALS, 1, 1, [[Fraction(2) ** k]]) for k in (0, 1, -1, 2, -2, 3, -3, 4, -4, 5)
    ]
    for families in (a.families, {}):
        env = verify_envelope(
            rep, families, a.pseudo_inverses, EnvelopeLimits(max_words=50, max_matrices_per_hom=10)
        )
        assert env.bounded
        assert env.all_have_pseudo_inverse is None
        assert list(env.closure[("x", "x")]) == powers
    assert kinds == [True, False]
    # one word per arrow applied: the zero loop and its pseudo-inverse give two
    # words from the identity and two from the zero map, and the closure
    # {1, 0} is complete after the fourth
    zero = Matrix.zeros(RATIONALS, 1, 1)
    rep = Representation(RATIONALS, (RepObject("x", 1),), (Generator("z", "x", "x", zero),))
    for max_words, bounded in ((4, False), (3, True)):
        env = verify_envelope(rep, {}, {"z": zero}, EnvelopeLimits(max_words=max_words))
        assert env.bounded is bounded and env.total_morphisms == 2


def test_envelope_detects_non_commuting_idempotents():
    # two projection loops that do not commute cannot pass for inverse
    p1 = Matrix.build(RATIONALS, 2, 2, [[1, 0], [0, 0]])
    p2 = Matrix.build(RATIONALS, 2, 2, [[1, 1], [0, 0]])
    rep = Representation(
        RATIONALS,
        (RepObject("x", 2),),
        (
            Generator("p", "x", "x", p1),
            Generator("q", "x", "x", p2),
        ),
    )
    with pytest.raises(AxiomViolation):
        verify_envelope(rep, {}, {"p": p1, "q": p2})


def _back_pseudo_inverses(env, dom, cod, m):
    """The pseudo-inverses of m: dom -> cod in the back hom-set (cod, dom)."""
    back = env.closure.get((cod, dom), ())
    return [b for b in back if m @ b @ m == m and b @ m @ b == b]


def test_pseudo_inverse_uniqueness_within_envelope(bisection):
    a = analyze(bisection)
    env = verify_envelope(bisection, a.families, a.pseudo_inverses)
    for (dom, cod), mats in env.closure.items():
        for m in mats:
            assert len(_back_pseudo_inverses(env, dom, cod, m)) == 1


def test_missing_pseudo_inverse_is_refused():
    rep = Representation(
        RATIONALS,
        (RepObject("x", 1), RepObject("y", 1)),
        (Generator("f", "x", "y", Matrix.identity(RATIONALS, 1)),),
    )
    with pytest.raises(ValidationError):
        verify_envelope(rep, {}, {})


def _loop(matrix):
    return Representation(RATIONALS, (RepObject("x", 1),), (Generator("z", "x", "x", matrix),))


def test_generator_check_reads_the_supplied_pseudo_inverses():
    """0 1 0 = 0 but 1 0 1 != 1: the dagger 1 of the zero loop fails the
    second identity, the dagger 0 of the identity loop only the first.
    Either way the check reads False on the complete closure {1, 0}, though
    a back-hom-set search finds a pseudo-inverse of every morphism there."""
    zero, one = Matrix.zeros(RATIONALS, 1, 1), Matrix.identity(RATIONALS, 1)
    for loop, dagger in ((zero, one), (one, zero)):
        env = verify_envelope(_loop(loop), {}, {"z": dagger})
        assert not env.bounded and set(env.closure[("x", "x")]) == {one, zero}
        assert all(_back_pseudo_inverses(env, "x", "x", m) for m in (one, zero))
        assert env.all_have_pseudo_inverse is False
        assert verify_envelope(_loop(loop), {}, {"z": loop}).all_have_pseudo_inverse is True


def _is_idempotent(m):
    return m.rows == m.cols and m @ m == m


def _reference_envelope(rep, families, pseudo_inverses, limits=EnvelopeLimits()):
    """Reference: the envelope as the two-sided closure used to build it.

    Every queued morphism is composed on both sides with every morphism found
    so far, and each morphism's pseudo-inverse is searched for in its whole
    back hom-set.
    """
    cycle_free = not quiver_shape(rep).has_undirected_cycle
    homs = {}
    queue = []
    words = 0
    bounded = False

    def add(dom, cod, m):
        nonlocal bounded
        bucket = homs.setdefault((dom, cod), {})
        if m in bucket:
            return
        if len(bucket) >= limits.max_matrices_per_hom:
            bounded = True
            return
        bucket[m] = None
        queue.append((dom, cod, m))

    for o in rep.objects:
        add(o.id, o.id, Matrix.identity(rep.field, o.dim))
    for g in rep.generators:
        add(g.dom, g.cod, g.matrix)
        dag = pseudo_inverses.get(g.id)
        if dag is not None:
            add(g.cod, g.dom, dag)

    head = 0
    while head < len(queue):
        dom, cod, m = queue[head]
        head += 1
        snapshot = [(d, c, x) for (d, c), bucket in homs.items() for x in bucket]
        for d2, c2, other in snapshot:
            if words >= limits.max_words:
                bounded = True
                break
            if c2 == dom:
                words += 1
                add(d2, cod, m @ other)
            if cod == d2 and words < limits.max_words:
                words += 1
                add(dom, c2, other @ m)
        if bounded and words >= limits.max_words:
            break

    closure = {key: tuple(bucket.keys()) for key, bucket in homs.items()}

    for o in rep.objects:
        endos = closure.get((o.id, o.id), ())
        idempotents = [m for m in endos if _is_idempotent(m)]
        for i, e in enumerate(idempotents):
            for f in idempotents[i + 1:]:
                if e @ f != f @ e:
                    raise AxiomViolation("non-commuting idempotent endomorphisms")
        if cycle_free:
            for m in endos:
                if not _is_idempotent(m):
                    raise AxiomViolation("non-idempotent endomorphism")

    all_have = None
    if not bounded:
        all_have = True
        for (dom, cod), mats in closure.items():
            back = closure.get((cod, dom), ())
            for m in mats:
                if not any(m @ b @ m == m and b @ m @ b == b for b in back):
                    all_have = False
                    break
            if not all_have:
                break

    return Envelope(
        pseudo_inverses=dict(pseudo_inverses),
        closure=closure,
        bounded=bounded,
        idempotents_commute=True,
        endomorphisms_idempotent=True if cycle_free else None,
        all_have_pseudo_inverse=all_have,
    )


def _envelope_outcome(fn, rep, families, pseudo_inverses):
    try:
        return fn(rep, families, pseudo_inverses)
    except AxiomViolation as e:
        return type(e)


def _count_kinds(monkeypatch):
    """Record, per ``verify_envelope`` call, whether it closed on monomial
    maps (True) or on matrices (False)."""
    import invcat.realize as realize

    kinds = []
    real = realize._monomial_kind

    def spied(*args):
        kind = real(*args)
        kinds.append(kind is not None)
        return kind

    monkeypatch.setattr(realize, "_monomial_kind", spied)
    return kinds


def test_word_closure_matches_two_sided_reference(rng, bisection, monkeypatch):
    """Wherever the two-sided closure completes, the word closure finds the
    same morphisms in every hom-set and prints the same report; it raises
    the same exception class everywhere; and where only the reference is cut
    short, a complete word closure contains its fragment.  Each case runs
    with the pipeline's families, whose bases make the closure run on
    monomial maps wherever the generators and pseudo-inverses are monomial
    in them, and without families, on matrices."""
    kinds = _count_kinds(monkeypatch)
    limits = ClosureLimits(max_rounds=8, max_elements_per_object=200)
    p1 = Matrix.build(RATIONALS, 2, 2, [[1, 0], [0, 0]])
    p2 = Matrix.build(RATIONALS, 2, 2, [[1, 1], [0, 0]])
    two_loops = Representation(
        RATIONALS,
        (RepObject("x", 2),),
        (Generator("p", "x", "x", p1), Generator("q", "x", "x", p2)),
    )
    cases = [(two_loops, {}, {"p": p1, "q": p2})]
    for rep in [bisection] + [random_representation(rng) for _ in range(200)]:
        try:
            a = analyze(rep, limits)
        except ClosureDivergence:
            continue
        if a.report.passed:
            cases.append((rep, a.families, a.pseudo_inverses))
    seen = {"complete": 0, "bounded": 0, "violation": 0, "cyclic": 0}
    for rep, families, pseudo_inverses in cases:
        ref = _envelope_outcome(_reference_envelope, rep, {}, pseudo_inverses)
        seen["cyclic"] += quiver_shape(rep).has_undirected_cycle
        envs = [_envelope_outcome(verify_envelope, rep, f, pseudo_inverses) for f in (families, {})]
        if not isinstance(ref, Envelope):
            assert envs == [ref, ref]
            seen["violation"] += 1
            continue
        # the two kinds give one closure, in one order, and one report
        on_monomials, on_matrices = envs
        assert {k: list(v) for k, v in on_monomials.closure.items()} == {
            k: list(v) for k, v in on_matrices.closure.items()
        }
        assert on_monomials.to_json() == on_matrices.to_json()
        env = on_matrices
        if ref.bounded:
            seen["bounded"] += 1
            if not env.bounded:
                for key, mats in ref.closure.items():
                    assert set(mats) <= set(env.closure.get(key, ()))
            continue
        seen["complete"] += 1
        assert {k: set(v) for k, v in env.closure.items()} == {
            k: set(v) for k, v in ref.closure.items()
        }
        assert env.to_json() == ref.to_json()
    assert seen["complete"] >= 100 and seen["cyclic"] >= 50
    assert seen["bounded"] >= 5 and seen["violation"] >= 1
    assert kinds.count(True) >= 50 and kinds.count(False) >= 50


def test_a_wrong_monomial_pseudo_inverse_is_refused_alike_on_both_kinds(rng, monkeypatch):
    """Doubling a generator's pseudo-inverse on a tree keeps it monomial in
    the families' bases, and the envelope then holds the non-idempotent
    endomorphism 2 g* g: both kinds raise the same AxiomViolation, with the
    same matrix in the input's coordinates."""
    kinds = _count_kinds(monkeypatch)
    found = 0
    for _ in range(6):
        rep, _ = interval_corpus_instance(rng, max_vertices=4)
        a = analyze(rep)
        g = next((g for g in rep.generators if not g.matrix.is_zero), None)
        if g is None:
            continue
        dag = a.pseudo_inverses[g.id]
        wrong = dict(a.pseudo_inverses)
        wrong[g.id] = Matrix(
            dag.field, dag.rows, dag.cols,
            tuple(tuple(2 * x for x in r) for r in dag.entries),
        )
        payloads = []
        for families in (a.families, {}):
            with pytest.raises(AxiomViolation) as err:
                verify_envelope(rep, families, wrong)
            payloads.append(err.value.to_json())
        assert kinds[-2:] == [True, False]
        assert payloads[0] == payloads[1]
        found += 1
    assert found >= 3


def test_every_morphism_has_one_pseudo_inverse_in_its_back_hom_set(rng, bisection):
    """Where the generator check passes on a complete closure, a search of
    each morphism's back hom-set finds exactly one pseudo-inverse."""
    reps = [bisection]
    for _ in range(6):
        rep, _ = interval_corpus_instance(rng, max_vertices=4)
        reps += [rep, conjugate_representation(rng, _over_gf(rep, GF(10007)))]
    for rep in reps:
        a = analyze(rep)
        env = verify_envelope(rep, a.families, a.pseudo_inverses)
        assert not env.bounded and env.all_have_pseudo_inverse
        for (dom, cod), mats in env.closure.items():
            for m in mats:
                assert len(_back_pseudo_inverses(env, dom, cod, m)) == 1

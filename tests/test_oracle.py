import pytest

from invcat import (
    GF,
    OracleBounds,
    OracleInstance,
    RATIONALS,
    Subspace,
    TooLarge,
    all_subspaces,
    analyze,
    build_poset,
    decompose,
    meet_closure,
    oracle_blockcode_basis,
    oracle_exists_family,
    verify_decomposition,
    verify_projection_family,
)

from conftest import random_meet_closed_family, small_tree_representations

GF2 = GF(2)


def _instance(field, n, fam):
    return OracleInstance(field, n, tuple(fam))


def test_subspace_counts_over_gf2():
    # Gaussian binomials: dim 2 has 1+3+1, dim 3 has 1+7+7+1
    assert len(all_subspaces(GF2, 2)) == 5
    assert len(all_subspaces(GF2, 3)) == 16
    assert len(all_subspaces(GF(3), 2)) == 6


def test_trisection_family_is_unrealizable():
    lines = [s for s in all_subspaces(GF2, 2) if s.dim == 1]
    fam = [Subspace.zero(GF2, 2), *lines, Subspace.full(GF2, 2)]
    found, witness = oracle_exists_family(_instance(GF2, 2, fam))
    assert not found and witness is None


def test_diamond_family_is_realizable():
    lines = sorted(
        (s for s in all_subspaces(GF2, 2) if s.dim == 1), key=lambda s: s.sort_key
    )[:2]
    fam = [Subspace.zero(GF2, 2), *lines, Subspace.full(GF2, 2)]
    found, witness = oracle_exists_family(_instance(GF2, 2, fam), want_witness=True)
    assert found
    assert not verify_projection_family(build_poset(fam), witness)


def test_chains_are_always_realizable(rng):
    for n in (1, 2, 3):
        chain = [
            Subspace.span(GF2, n, [[1 if i == j else 0 for j in range(n)] for i in range(d)])
            for d in range(n + 1)
        ]
        found, _ = oracle_exists_family(_instance(GF2, n, chain))
        assert found


def test_witnesses_verify(rng):
    hits = 0
    for _ in range(30):
        fam = random_meet_closed_family(rng, GF2, 3)
        found, witness = oracle_exists_family(_instance(GF2, 3, fam), want_witness=True)
        if found:
            hits += 1
            assert not verify_projection_family(build_poset(fam), witness)
    assert hits > 0


def test_bounds_are_enforced():
    with pytest.raises(TooLarge):
        oracle_exists_family(_instance(GF(5), 2, [Subspace.zero(GF(5), 2), Subspace.full(GF(5), 2)]))
    with pytest.raises(TooLarge):
        fam = [Subspace.zero(GF2, 4), Subspace.full(GF2, 4)]
        oracle_exists_family(_instance(GF2, 4, fam))
    big = OracleBounds(max_dim=4)
    fam = [Subspace.zero(GF2, 4), Subspace.full(GF2, 4)]
    found, _ = oracle_exists_family(_instance(GF2, 4, fam), bounds=big)
    assert found


def test_rational_fields_rejected():
    fam = [Subspace.zero(RATIONALS, 2), Subspace.full(RATIONALS, 2)]
    with pytest.raises(TooLarge):
        oracle_exists_family(OracleInstance(RATIONALS, 2, tuple(fam)))


def test_meet_closure_adds_missing_meets():
    a = Subspace.span(GF2, 3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.span(GF2, 3, [[0, 1, 0], [0, 0, 1]])
    family = [Subspace.zero(GF2, 3), a, b, Subspace.full(GF2, 3)]
    closed = meet_closure(family).elements
    assert Subspace.span(GF2, 3, [[0, 1, 0]]) in closed
    assert len(closed) == 5
    # at the element limit the closure stops, and a family within it is kept
    assert meet_closure(family, 5).elements == closed
    assert meet_closure(family, 4) is None and meet_closure(family, 3) is None


def test_verdict_passes_exactly_when_a_blockcode_basis_exists():
    """Every representation of the small tree quivers: the verdict agrees
    with the exhaustive blockcode-basis search, and every pass decomposes to
    a verified certificate."""
    passed = failed = 0
    for rep in small_tree_representations():
        a = analyze(rep)
        assert a.report.passed == oracle_blockcode_basis(rep), rep.serialize()
        if a.report.passed:
            assert verify_decomposition(rep, decompose(rep, analysis=a)).ok
            passed += 1
        else:
            failed += 1
    # the star of three distinct lines in a plane fails, in 3! arrangements
    assert (passed, failed) == (2330, 6)


def test_blockcode_oracle_rejects_rationals():
    from invcat.rep import RepObject, Representation

    with pytest.raises(TooLarge):
        oracle_blockcode_basis(Representation(RATIONALS, (RepObject("x", 1),), ()))

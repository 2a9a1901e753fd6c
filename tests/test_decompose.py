import dataclasses
import json

import pytest

from invcat import (
    AlignmentFailure,
    CriterionViolated,
    CycleError,
    Matrix,
    RATIONALS,
    analyze,
    decompose,
    inverse,
    verify_decomposition,
)
from invcat.decompose import BlockcodeDecomposition
from invcat.rep import Generator, RepObject, Representation

from conftest import conjugate_representation, interval_corpus_instance


def _a2(matrix_rows, dims=(1, 2)):
    return Representation(
        RATIONALS,
        (RepObject("x", dims[0]), RepObject("y", dims[1])),
        (Generator("f", "x", "y", Matrix.build(RATIONALS, dims[1], dims[0], matrix_rows)),),
    )


def test_a2_embedding_splits_into_two_summands():
    rep = _a2([[1], [0]])
    dec = decompose(rep)
    assert dec.dims_multiset(["x", "y"]) == [(0, 1), (1, 1)]
    assert verify_decomposition(rep, dec).ok


def test_identity_is_a_single_blockcode():
    rep = _a2([[1]], dims=(1, 1))
    dec = decompose(rep)
    assert dec.dims_multiset(["x", "y"]) == [(1, 1)]


def test_bisection_loop_is_a_cycle(bisection):
    with pytest.raises(CycleError):
        decompose(bisection)


def test_trisection_fails_criterion(trisection):
    with pytest.raises(CriterionViolated):
        decompose(trisection)


def test_thick_invertible_edge_splits_into_strands():
    rep = _a2([[2, 0], [0, 3]], dims=(2, 2))
    dec = decompose(rep)
    assert dec.dims_multiset(["x", "y"]) == [(1, 1), (1, 1)]
    assert verify_decomposition(rep, dec).ok


def test_corpus_roundtrip(rng):
    for _ in range(20):
        rep, expected = interval_corpus_instance(rng)
        dec = decompose(rep)
        ids = list(rep.object_ids)
        assert dec.dims_multiset(ids) == expected
        assert verify_decomposition(rep, dec).ok


def test_conjugated_corpus_still_decomposes(rng):
    for _ in range(8):
        rep, expected = interval_corpus_instance(rng, max_vertices=4)
        conj = conjugate_representation(rng, rep)
        dec = decompose(conj)
        assert dec.dims_multiset(list(conj.object_ids)) == expected
        assert verify_decomposition(conj, dec).ok


def test_dimension_conservation(rng):
    for _ in range(10):
        rep, _ = interval_corpus_instance(rng)
        dec = decompose(rep)
        for o in rep.objects:
            assert sum(s.dim for s in dec.atoms[o.id]) == o.dim


def test_block_roundtrip_rebuilds_generators(rng):
    """Assembling the block action in the atom bases reproduces each matrix."""
    for _ in range(10):
        rep, _ = interval_corpus_instance(rng)
        dec = decompose(rep)
        basis_t = {}
        for o in rep.objects:
            rows = [r for s in dec.atoms[o.id] for r in s.basis]
            basis_t[o.id] = (
                Matrix(RATIONALS, o.dim, o.dim, tuple(zip(*rows)))
                if o.dim
                else Matrix.zeros(RATIONALS, 0, 0)
            )
        for g in rep.generators:
            doms = dec.atoms[g.dom]
            cods = dec.atoms[g.cod]
            offs_d, off = {}, 0
            for i, s in enumerate(doms):
                offs_d[i] = off
                off += s.dim
            offs_c, off = {}, 0
            for i, s in enumerate(cods):
                offs_c[i] = off
                off += s.dim
            rows = rep.object_dim(g.cod)
            cols = rep.object_dim(g.dom)
            data = [[RATIONALS.zero] * cols for _ in range(rows)]
            for i, tgt in dec.action[g.id].items():
                if tgt is None:
                    continue
                blk = dec.blocks[g.id][i]
                for r in range(blk.rows):
                    for c in range(blk.cols):
                        data[offs_c[tgt] + r][offs_d[i] + c] = blk.entries[r][c]
            block_form = Matrix.build(RATIONALS, rows, cols, data)
            rebuilt = basis_t[g.cod] @ block_form @ inverse(basis_t[g.dom])
            assert rebuilt == g.matrix


def test_certificate_roundtrip_through_json(rng):
    rep, _ = interval_corpus_instance(rng)
    dec = decompose(rep)
    doc = json.loads(json.dumps(dec.to_json()))
    again = BlockcodeDecomposition.from_json(doc, rep)
    assert verify_decomposition(rep, again).ok
    assert again.dims_multiset(list(rep.object_ids)) == dec.dims_multiset(list(rep.object_ids))


def test_tampered_certificate_is_refuted(rng):
    # steer a basis vector out of its atom: needs an object of dim >= 2
    while True:
        rep, _ = interval_corpus_instance(rng, max_vertices=4)
        if any(o.dim >= 2 for o in rep.objects):
            break
    dec = decompose(rep)
    tampered = json.loads(json.dumps(dec.to_json()))
    touched = False
    for oid in tampered["objects"]:
        atoms = tampered["objects"][oid]
        if len(atoms) >= 2:
            # collapse two atoms onto the same line: assembly turns singular
            atoms[0]["basis"] = json.loads(json.dumps(atoms[1]["basis"]))
            touched = True
            break
    assert touched
    again = BlockcodeDecomposition.from_json(tampered, rep)
    assert not verify_decomposition(rep, again).ok


def test_certificate_for_wrong_representation_is_refuted(rng):
    while True:
        rep1, _ = interval_corpus_instance(rng, max_vertices=3)
        if any(not g.matrix.is_zero for g in rep1.generators):
            break
    dec = decompose(rep1)
    # change one generator scalar: same shapes, different representation
    doc = json.loads(rep1.serialize())
    changed = False
    for g in doc["generators"]:
        for row in g["matrix"]:
            for j, x in enumerate(row):
                if x not in (0, "0"):
                    row[j] = 17
                    changed = True
                    break
            if changed:
                break
        if changed:
            break
    assert changed
    from invcat import parse_representation

    rep2 = parse_representation(json.dumps(doc))
    again = BlockcodeDecomposition.from_json(dec.to_json(), rep2)
    assert not verify_decomposition(rep2, again).ok


def test_zero_dimensional_objects():
    rep = Representation(
        RATIONALS,
        (RepObject("a", 0), RepObject("b", 2)),
        (Generator("f", "a", "b", Matrix.zeros(RATIONALS, 2, 0)),),
    )
    dec = decompose(rep)
    assert dec.atoms["a"] == ()
    assert dec.dims_multiset(["a", "b"]) == [(0, 1), (0, 1)]
    assert verify_decomposition(rep, dec).ok


def test_prime_field_pipeline():
    from invcat import GF, analyze, verify_envelope

    field = GF(5)
    rep = Representation(
        field,
        (RepObject("x", 2), RepObject("y", 2)),
        (Generator("g", "x", "y", Matrix.build(field, 2, 2, [[1, 2], [2, 4]])),),
    )
    a = analyze(rep)
    assert a.report.passed
    dec = decompose(rep, analysis=a)
    assert dec.dims_multiset(["x", "y"]) == [(0, 1), (1, 0), (1, 1)]
    assert verify_decomposition(rep, dec).ok
    env = verify_envelope(rep, a.families, a.pseudo_inverses)
    assert env.endomorphisms_idempotent is True


def test_a_reading_that_is_not_monomial_is_refused():
    """``decompose`` reads each generator's action off its matrix in the
    adapted bases; where a supplied matrix sends a basis vector to a vector
    that is not a multiple of a basis vector, it refuses with
    AlignmentFailure, naming the generator."""
    rep = _a2([[1, 0], [0, 1]], dims=(2, 2))
    a = analyze(rep, saturate=False)
    assert decompose(rep, analysis=a).dims_multiset(["x", "y"]) == [(1, 1), (1, 1)]
    sheared = Matrix.build(RATIONALS, 2, 2, [[1, 1], [0, 1]])
    bad = dataclasses.replace(a, in_bases={"f": sheared})
    with pytest.raises(AlignmentFailure) as err:
        decompose(rep, analysis=bad)
    assert err.value.detail == {"generator": "f"}


def test_generator_free_representation():
    rep = Representation(RATIONALS, (RepObject("solo", 3),), ())
    dec = decompose(rep)
    assert dec.dims_multiset(["solo"]) == [(1,), (1,), (1,)]
    assert verify_decomposition(rep, dec).ok



# A conjugated interval sum on A_4 over Q (dims 0/2/2/3), and the certificate
# ``decompose`` printed for it when it still saturated the flag first.
A4_CONJUGATED = {
    "field": {"kind": "rational"},
    "objects": [
        {"id": "v0", "dim": 0},
        {"id": "v1", "dim": 2},
        {"id": "v2", "dim": 2},
        {"id": "v3", "dim": 3},
    ],
    "generators": [
        {"id": "e0", "dom": "v1", "cod": "v0", "matrix": []},
        {"id": "e1", "dom": "v1", "cod": "v2", "matrix": [[38, -16], [-7, 3]]},
        {"id": "e2", "dom": "v2", "cod": "v3", "matrix": [[0, 0], [2, 8], [-2, -8]]},
    ],
}
A4_CERTIFICATE = (
    '{"field": {"kind": "rational"}, "generators": {"e0": {"action": {"v1#0": "zero", '
    '"v1#1": "zero"}, "blocks": {}}, "e1": {"action": {"v1#0": "v2#0", "v1#1": "v2#1"}, '
    '"blocks": {"v1#0": [[-2]], "v1#1": [[38]]}}, "e2": {"action": {"v2#0": "zero", '
    '"v2#1": "v3#0"}, "blocks": {"v2#1": [["10/19"]]}}}, "objects": {"v0": [], "v1": '
    '[{"atom": "v1#0", "basis": [[1, "5/2"]]}, {"atom": "v1#1", "basis": [[1, 0]]}], '
    '"v2": [{"atom": "v2#0", "basis": [[1, "-1/4"]]}, {"atom": "v2#1", "basis": '
    '[[1, "-7/38"]]}], "v3": [{"atom": "v3#0", "basis": [[0, 1, -1]]}, {"atom": "v3#1", '
    '"basis": [[1, 0, 0]]}, {"atom": "v3#2", "basis": [[0, 1, 0]]}]}, "summands": '
    '[["v1#0", "v2#0"], ["v1#1", "v2#1", "v3#0"], ["v3#1"], ["v3#2"]]}'
)


def test_decompose_runs_one_closure(monkeypatch):
    """The certificate is read off the adapted bases, which exist before
    saturation, so ``decompose`` closes the flag once and does not saturate;
    the certificate is the one the saturating version gave."""
    import invcat.pipeline
    from invcat import parse_representation

    closures = []
    compute_flag = invcat.pipeline.compute_flag

    def counted(*args, **kwargs):
        closures.append(kwargs.get("extra_maps", ()))
        return compute_flag(*args, **kwargs)

    monkeypatch.setattr(invcat.pipeline, "compute_flag", counted)
    rep = parse_representation(json.dumps(A4_CONJUGATED))
    dec = decompose(rep)
    assert closures == [()]
    assert json.dumps(dec.to_json(), sort_keys=True) == A4_CERTIFICATE
    assert verify_decomposition(rep, dec).ok
    assert dec.dims_multiset(["v0", "v1", "v2", "v3"]) == [
        (0, 0, 0, 1), (0, 0, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1)
    ]

import json
from pathlib import Path

from invcat import parse_representation, verify_decomposition
from invcat.cli import main
from invcat.decompose import BlockcodeDecomposition

from conftest import direct_sum

DATA = Path(__file__).resolve().parents[1] / "data"
TRISECTION = str(DATA / "trisection.json")
BISECTION = str(DATA / "bisection.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_trisection_fails(capsys):
    code, out = run_cli(capsys, "check", TRISECTION)
    doc = json.loads(out)
    assert code == 1
    assert doc["verdict"] == "fail"
    witnesses = doc["witnesses"]
    assert {"object": "center", "b_basis": [[1, 0], [0, 1]], "c_basis": [], "value": -1} in witnesses


def test_check_bisection_passes(capsys):
    code, out = run_cli(capsys, "check", BISECTION)
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["poset_sizes"]["plane"] == 4
    assert doc["saturated"] is True


def test_check_literal_mode_diverges(capsys):
    code, out = run_cli(capsys, "check", BISECTION, "--mu", "literal")
    doc = json.loads(out)
    assert code == 1
    assert doc["mu_mode"] == "literal"
    assert {"object": "plane", "b_basis": [[1, 0]], "c_basis": [[0, 1]], "value": -1} in doc["witnesses"]


def test_decompose_bisection_cycle_error(capsys):
    code, out = run_cli(capsys, "decompose", BISECTION)
    doc = json.loads(out)
    assert code == 2
    assert doc["error"]["code"] == "CycleError"


def test_decompose_and_verify_roundtrip(tmp_path, capsys):
    rep_path = tmp_path / "embed.json"
    rep_path.write_text(
        json.dumps(
            {
                "field": {"kind": "rational"},
                "objects": [{"id": "x", "dim": 1}, {"id": "y", "dim": 2}],
                "generators": [
                    {"id": "f", "dom": "x", "cod": "y", "matrix": [[1], [0]]}
                ],
            }
        )
    )
    cert_path = tmp_path / "cert.json"
    code, out = run_cli(capsys, "decompose", str(rep_path), "-o", str(cert_path))
    assert code == 0
    code, out = run_cli(capsys, "verify", str(rep_path), str(cert_path))
    assert code == 0
    assert json.loads(out)["verified"] is True
    # tamper: swap the two atom bases at y onto the same line
    doc = json.loads(cert_path.read_text())
    doc["objects"]["y"][0]["basis"] = doc["objects"]["y"][1]["basis"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", str(rep_path), str(bad))
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_envelope_bisection(capsys):
    code, out = run_cli(capsys, "envelope", BISECTION)
    doc = json.loads(out)
    assert code == 0
    assert doc["verified"] is True
    assert doc["pseudo_inverses"]["shift"] == [[0, 0], [1, 0]]


def test_envelope_trisection_refuted(capsys):
    code, out = run_cli(capsys, "envelope", TRISECTION)
    doc = json.loads(out)
    assert code == 1
    assert doc["verdict"] == "fail"


def test_check_rank_count_refutation_is_well_formed(tmp_path, capsys):
    """Trisection plus a trisection with two maps zeroed: every pair scores
    >= 0, but the rank count fails at the center.  Exit 1 still carries a
    report that says why, and envelope and decompose refute the same way."""
    trisection = parse_representation(Path(TRISECTION).read_bytes())
    doc = json.loads(trisection.serialize())
    doc["generators"][0]["matrix"] = [[0], [0]]
    doc["generators"][2]["matrix"] = [[0], [0]]
    rep_path = tmp_path / "sum.json"
    rep_path.write_text(direct_sum(trisection, parse_representation(json.dumps(doc))).serialize())
    expected = [
        {
            "object": "center",
            "b_basis": [[int(i == j) for j in range(4)] for i in range(4)],
            "dim": 4,
            "count": 5,
        }
    ]
    code, out = run_cli(capsys, "check", str(rep_path))
    report = json.loads(out)
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["witnesses"] == []
    assert report["distributivity_witnesses"] == expected
    code, out = run_cli(capsys, "envelope", str(rep_path))
    assert code == 1
    assert json.loads(out)["distributivity_witnesses"] == expected
    code, out = run_cli(capsys, "decompose", str(rep_path))
    error = json.loads(out)["error"]
    assert code == 2
    assert error["code"] == "CriterionViolated"
    assert error["detail"]["distributivity_witnesses"] == expected


# An A_4 zigzag (dims 2/2/2/3 over GF(10007)): a conjugated direct sum of the
# intervals [3,3] twice, [1,3], [0,0] and [0,2].  It passes the verdict, but
# each object's own first-fit adapted basis is not carried onto the next
# object's, so bases chosen object by object cannot certify it.
CONJUGATED_ZIGZAG = {
    "field": {"kind": "prime", "p": 10007},
    "objects": [
        {"id": "v0", "dim": 2}, {"id": "v1", "dim": 2},
        {"id": "v2", "dim": 2}, {"id": "v3", "dim": 3},
    ],
    "generators": [
        {"id": "e0", "dom": "v1", "cod": "v0", "matrix": [[0, 0], [2, 10005]]},
        {"id": "e1", "dom": "v2", "cod": "v1", "matrix": [[0, 2], [2, 6]]},
        {"id": "e2", "dom": "v3", "cod": "v2", "matrix": [[0, 4, 2], [0, 10005, 10006]]},
    ],
}
ZIGZAG_SUMMANDS = [(0, 0, 0, 1), (0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 0, 0), (1, 1, 1, 0)]


def test_conjugated_zigzag_is_certified(tmp_path, capsys):
    rep_path = tmp_path / "zigzag.json"
    rep_path.write_text(json.dumps(CONJUGATED_ZIGZAG))
    code, out = run_cli(capsys, "check", str(rep_path))
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "pass" and doc["saturated"] is True
    assert "saturation_note" not in doc

    code, out = run_cli(capsys, "decompose", str(rep_path))
    assert code == 0
    rep = parse_representation(rep_path.read_text())
    dec = BlockcodeDecomposition.from_json(json.loads(out), rep)
    assert verify_decomposition(rep, dec).ok
    assert dec.dims_multiset(["v0", "v1", "v2", "v3"]) == ZIGZAG_SUMMANDS
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out = run_cli(capsys, "verify", str(rep_path), str(cert_path))
    assert code == 0 and json.loads(out)["verified"] is True

    code, out = run_cli(capsys, "envelope", str(rep_path))
    assert code == 0 and json.loads(out)["verified"] is True

def test_flag_writes_dot(tmp_path, capsys):
    code, out = run_cli(capsys, "flag", BISECTION, "--dot", str(tmp_path / "dots"))
    assert code == 0
    doc = json.loads(out)
    assert doc["objects"]["plane"]["poset_size"] == 4
    dot = (tmp_path / "dots" / "plane.dot").read_text()
    assert dot.count("->") == 4


def test_mobius_command(capsys):
    code, out = run_cli(capsys, "mobius", BISECTION)
    doc = json.loads(out)
    assert code == 0
    plane = doc["objects"]["plane"]
    assert plane["one_var"] == [1, -1, -1, 1]


def test_missing_file_is_error(capsys):
    code, out = run_cli(capsys, "check", "/nonexistent/nope.json")
    doc = json.loads(out)
    assert code == 2
    assert doc["error"]["code"] == "SyntaxError"


def test_validation_error_reported(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"field": {"kind": "rational"}, "objects": [], "generators": [
        {"id": "f", "dom": "x", "cod": "x", "matrix": []}
    ]}))
    code, out = run_cli(capsys, "check", str(p))
    doc = json.loads(out)
    assert code == 2
    assert doc["error"]["code"] == "ValidationError"


def test_closure_limit_error(capsys, tmp_path):
    code, out = run_cli(capsys, "check", BISECTION, "--max-rounds", "1")
    doc = json.loads(out)
    assert code == 2
    assert doc["error"]["code"] == "ClosureDivergence"


def test_output_bytes_deterministic(capsys):
    _, out1 = run_cli(capsys, "check", TRISECTION)
    _, out2 = run_cli(capsys, "check", TRISECTION)
    assert out1 == out2
    _, flag1 = run_cli(capsys, "flag", BISECTION)
    _, flag2 = run_cli(capsys, "flag", BISECTION)
    assert flag1 == flag2


def _embed_certificate(tmp_path, capsys):
    rep_path = tmp_path / "embed.json"
    rep_path.write_text(
        json.dumps(
            {
                "field": {"kind": "rational"},
                "objects": [{"id": "x", "dim": 1}, {"id": "y", "dim": 2}],
                "generators": [{"id": "f", "dom": "x", "cod": "y", "matrix": [[1], [0]]}],
            }
        )
    )
    cert_path = tmp_path / "cert.json"
    code, _ = run_cli(capsys, "decompose", str(rep_path), "-o", str(cert_path))
    assert code == 0
    return rep_path, json.loads(cert_path.read_text())


def test_certificate_basis_row_not_a_list_is_error(tmp_path, capsys):
    rep_path, doc = _embed_certificate(tmp_path, capsys)
    for bad_basis in ([5], [[1]], [[1, 0], 7]):
        doc["objects"]["y"][0]["basis"] = bad_basis
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "verify", str(rep_path), str(bad))
        assert code == 2
        assert json.loads(out)["error"]["code"] == "ValidationError"


def test_deeply_nested_json_is_syntax_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out = run_cli(capsys, "check", str(deep))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "SyntaxError"
    code, out = run_cli(capsys, "verify", BISECTION, str(deep))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "SyntaxError"


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    import invcat.cli

    def broken(*args, **kwargs):
        raise TypeError("boom")

    monkeypatch.setattr(invcat.cli, "analyze", broken)
    code, out = run_cli(capsys, "check", TRISECTION)
    assert code == 2
    assert json.loads(out)["error"] == {"code": "InternalError", "message": "TypeError: boom"}


def test_divergent_closure_refuted_by_rank_count(capsys, tmp_path):
    """A shear z and a projection w on Q^2: the images of the line im w
    under the powers of z are the lines through (k, 1), so the closure never
    ends.  Three distinct lines in the plane already break the rank
    count, so ``check`` refutes the input on the part the closure reached
    (exit 1), with a distributivity witness and a note naming the round.
    ``flag`` has no flag to print and still reports the divergence."""
    p = tmp_path / "shear.json"
    p.write_text(json.dumps({
        "field": {"kind": "rational"},
        "objects": [{"id": "x", "dim": 2}],
        "generators": [
            {"id": "z", "dom": "x", "cod": "x", "matrix": [[1, 1], [0, 1]]},
            {"id": "w", "dom": "x", "cod": "x", "matrix": [[0, 0], [0, 1]]},
        ],
    }))
    code, out = run_cli(capsys, "check", str(p))
    doc = json.loads(out)
    assert code == 1
    assert doc["verdict"] == "fail"
    assert doc["witnesses"] == []
    [w] = doc["distributivity_witnesses"]
    assert (w["object"], w["b_basis"], w["dim"]) == ("x", [[1, 0], [0, 1]], 2)
    assert w["count"] == doc["poset_sizes"]["x"] - 2 > 2
    assert "no fixpoint after 64 rounds" in doc["closure_note"]
    assert "round 64" in doc["closure_note"]
    code, out = run_cli(capsys, "check", str(p), "--max-rounds", "3")
    assert code == 1
    assert "round 3" in json.loads(out)["closure_note"]
    code, out = run_cli(capsys, "flag", str(p))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "ClosureDivergence"


def test_oversized_input_is_refused_at_parse_time(capsys, tmp_path):
    """An object above ``MAX_OBJECT_DIM``, or more than ``MAX_TOTAL_ENTRIES``
    matrix entries (dim^2 per object plus each generator's), exits 2 with
    TooLarge before any elimination; at the limits the input is analyzed."""
    from invcat.rep import MAX_OBJECT_DIM, MAX_TOTAL_ENTRIES

    def check(doc):
        p = tmp_path / "rep.json"
        p.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "check", str(p))
        return code, json.loads(out)

    rational = {"kind": "rational"}
    code, doc = check({"field": rational, "objects": [{"id": "a", "dim": 100000}], "generators": []})
    assert code == 2
    assert doc["error"]["code"] == "TooLarge"
    assert doc["error"]["detail"] == {"path": "objects[0].dim"}

    n = MAX_OBJECT_DIM
    assert 2 * n * n == MAX_TOTAL_ENTRIES
    zero = [[0] * n for _ in range(n)]
    loops = [{"id": g, "dom": "a", "cod": "a", "matrix": zero} for g in ("f", "g")]
    code, doc = check({"field": rational, "objects": [{"id": "a", "dim": n}], "generators": loops})
    assert code == 2
    assert doc["error"] == {
        "code": "TooLarge",
        "message": f"the input has more than {MAX_TOTAL_ENTRIES} matrix entries "
                   "(dim^2 per object, rows x cols per generator)",
        "detail": {"path": "generators[1].matrix"},
    }
    code, doc = check({
        "field": rational,
        "objects": [{"id": o, "dim": n} for o in ("a", "b", "c")],
        "generators": [],
    })
    assert (code, doc["error"]["detail"]) == (2, {"path": "objects"})
    code, doc = check({"field": rational, "objects": [{"id": "a", "dim": n}], "generators": loops[:1]})
    assert code == 0 and doc["verdict"] == "pass"

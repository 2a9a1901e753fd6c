import json
from pathlib import Path

from invcat.cli import main

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

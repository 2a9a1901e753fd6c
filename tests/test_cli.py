import gc
import json
import random
from pathlib import Path

import pytest

from invcat import ToolError, parse_representation, verify_decomposition
from invcat.cli import build_parser, main
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


def test_mu_is_an_option_of_check_alone(capsys):
    """The weighting changes only the criterion report, which only ``check``
    prints; the other commands refuse the option."""
    for command in ("flag", "mobius", "decompose", "envelope"):
        with pytest.raises(SystemExit) as e:
            main([command, BISECTION, "--mu", "literal"])
        assert e.value.code == 2
    assert "--mu" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, code_at_1",
    [
        ("check", "--max-rounds", 2),
        ("check", "--max-elements", 2),
        ("envelope", "--max-words", 0),
        ("envelope", "--max-matrices", 0),
    ],
)
def test_limit_flags_take_positive_integers(command, flag, code_at_1, capsys):
    """A limit below 1 is an argument error that names the flag, not a run
    that stops at once, or a closure of nothing that verifies.  A limit of 1
    runs: the closure limits stop the bisection's closure, and the envelope
    limits bound its closure."""
    for value in ("-3", "0"):
        with pytest.raises(SystemExit) as e:
            main([command, BISECTION, flag, value])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: must be at least 1, got {value}" in captured.err
        assert captured.out == ""
    code, out = run_cli(capsys, command, BISECTION, flag, "1")
    assert code == code_at_1
    assert code == 0 or json.loads(out)["error"]["code"] == "ClosureDivergence"


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


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


def _shear(tmp_path):
    """A shear z and a projection w on Q^2, whose closure never ends."""
    p = tmp_path / "shear.json"
    p.write_text(json.dumps({
        "field": {"kind": "rational"},
        "objects": [{"id": "x", "dim": 2}],
        "generators": [
            {"id": "z", "dom": "x", "cod": "x", "matrix": [[1, 1], [0, 1]]},
            {"id": "w", "dom": "x", "cod": "x", "matrix": [[0, 0], [0, 1]]},
        ],
    }))
    return str(p)


def test_divergent_closure_refuted_by_rank_count(capsys, tmp_path):
    """A shear z and a projection w on Q^2: the images of the line im w
    under the powers of z are the lines through (k, 1), so the closure never
    ends.  Three distinct lines in the plane already break the rank
    count, so ``check`` refutes the input on the part the closure reached
    (exit 1), with a distributivity witness and a note naming the round.
    ``flag`` has no flag to print and still reports the divergence."""
    p = _shear(tmp_path)
    code, out = run_cli(capsys, "check", p)
    doc = json.loads(out)
    assert code == 1
    assert doc["verdict"] == "fail"
    assert doc["witnesses"] == []
    [w] = doc["distributivity_witnesses"]
    assert (w["object"], w["b_basis"], w["dim"]) == ("x", [[1, 0], [0, 1]], 2)
    assert w["count"] == doc["poset_sizes"]["x"] - 2 > 2
    assert "no fixpoint after 64 rounds" in doc["closure_note"]
    assert "round 64" in doc["closure_note"]
    code, out = run_cli(capsys, "check", p, "--max-rounds", "3")
    assert code == 1
    assert "round 3" in json.loads(out)["closure_note"]
    code, out = run_cli(capsys, "flag", p)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "ClosureDivergence"


def test_a_refuted_stop_is_stored_without_its_traceback(tmp_path):
    """``analyze`` stores the stop it refutes without its traceback, which
    holds the closure's frames and each object's closing state (elements,
    down-set masks, kept meets and witness records), and drops the
    reached elements once the part is built."""
    from invcat import analyze

    analysis = analyze(parse_representation(Path(_shear(tmp_path)).read_bytes()))
    assert analysis.stopped is not None and not analysis.passed
    assert analysis.stopped.__traceback__ is None
    assert analysis.stopped.reached is None


def test_check_times_the_whole_command(capsys, tmp_path, monkeypatch):
    """The stderr line of ``check`` times the analysis and the report
    together, so a long closure that stops shows in it."""
    import time

    import invcat.cli

    now = [100.0]
    real = invcat.cli.analyze

    def slow(*args, **kwargs):
        now[0] += 2.5
        return real(*args, **kwargs)

    monkeypatch.setattr(time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(invcat.cli, "analyze", slow)
    assert main(["check", _shear(tmp_path)]) == 1
    assert capsys.readouterr().err == "check: fail (2500.0 ms)\n"


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


def test_overlong_entries_are_too_large(capsys, tmp_path):
    """A matrix entry whose integer passes ``MAX_ENTRY_BITS`` bits exits 2
    with TooLarge: a raw int over Q, or over GF(p) before it is reduced, the
    numerator or the denominator of a rational literal, and a JSON integer
    past the interpreter's digit limit, which ``json.loads`` refuses to
    read.  At the bound the input is analyzed."""
    from invcat.fields import MAX_ENTRY_BITS

    past = 1 << MAX_ENTRY_BITS
    unreadable = "1" * 5000  # more digits than the interpreter converts

    def check(field, entry):
        # the text is written by hand: json.dumps cannot print ``unreadable``
        p = tmp_path / "rep.json"
        p.write_text(
            '{"field": %s, "objects": [{"id": "a", "dim": 1}], "generators": '
            '[{"id": "f", "dom": "a", "cod": "a", "matrix": [[%s]]}]}' % (json.dumps(field), entry)
        )
        code, out = run_cli(capsys, "check", str(p))
        return code, json.loads(out)

    rational, gf7 = {"kind": "rational"}, {"kind": "prime", "p": 7}
    for field in (rational, gf7):
        code, doc = check(field, unreadable)
        assert code == 2 and doc["error"]["code"] == "TooLarge"
        assert doc["error"]["message"].startswith("JSON integer too long")
    entry = {"path": "generators[0].matrix[0][0]"}
    for field, text in (
        (rational, str(past)),
        (rational, str(-past)),
        (gf7, str(past)),
        (rational, f'"1/{past}"'),
        (rational, f'"-{past}/3"'),
        (rational, f'"{unreadable}/2"'),
    ):
        code, doc = check(field, text)
        assert code == 2, text
        assert (doc["error"]["code"], doc["error"]["detail"]) == ("TooLarge", entry)
    for field, text in ((rational, str(past - 1)), (gf7, str(1 - past)), (rational, f'"{past - 1}/{1 - past}"')):
        code, doc = check(field, text)
        assert code == 0 and doc["verdict"] == "pass"


def test_overlong_certificate_entries_are_too_large(tmp_path, capsys):
    """``verify`` refuses a certificate entry past ``MAX_ENTRY_BITS`` bits,
    and a JSON integer that ``json.loads`` refuses to read, with TooLarge."""
    from invcat.fields import MAX_ENTRY_BITS

    rep_path, doc = _embed_certificate(tmp_path, capsys)
    doc["objects"]["y"][0]["basis"][0][0] = "ENTRY"
    template = json.dumps(doc)
    bad = tmp_path / "bad.json"
    for entry in ("1" * 5000, str(1 << MAX_ENTRY_BITS)):
        bad.write_text(template.replace('"ENTRY"', entry))
        code, out = run_cli(capsys, "verify", str(rep_path), str(bad))
        assert code == 2
        assert json.loads(out)["error"]["code"] == "TooLarge"


def _refuted_star(tmp_path, planes=8):
    """Eight (or ``planes``) random planes mapped into GF(10007)^3 at a
    shared centre; the criterion refutes it with a few hundred witnesses."""
    rng = random.Random(3)
    p = 10007
    objects = [{"id": "c", "dim": 3}] + [{"id": f"p{k}", "dim": 2} for k in range(planes)]
    generators = [
        {
            "id": f"g{k}",
            "dom": f"p{k}",
            "cod": "c",
            "matrix": [[rng.randrange(p) for _ in range(2)] for _ in range(3)],
        }
        for k in range(planes)
    ]
    doc = {"field": {"kind": "prime", "p": p}, "objects": objects, "generators": generators}
    path = tmp_path / f"star{planes}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_output_file_matches_stdout(tmp_path, capsys):
    """``-o FILE`` writes the bytes ``stdout`` would get, reports and errors
    alike.  (The output digest hashes stdout only.)"""
    star = _refuted_star(tmp_path)
    code, out = run_cli(capsys, "check", star)
    assert code == 1 and len(json.loads(out)["witnesses"]) > 100
    inputs = sorted(str(p) for p in DATA.glob("*.json")) + [star]
    out_path = tmp_path / "out.json"
    for rep in inputs:
        for command in ("check", "flag", "mobius", "decompose", "envelope"):
            code, out = run_cli(capsys, command, rep)
            code_o, out_o = run_cli(capsys, command, rep, "-o", str(out_path))
            assert (code_o, out_o) == (code, "")
            assert out_path.read_bytes() == out.encode(), (command, rep)


def test_error_report_leaves_no_cyclic_garbage(tmp_path, capsys):
    """An error is freed by reference counting: no cycle through the frames
    it passed keeps the exception and its detail alive until a full
    collection.  That covers a refutation raised as an error, the
    divergence that ``flag`` and ``mobius`` raise on a closure the count
    refutes, and one that ``check`` re-raises where the count holds on the
    part the closure reached."""
    runs = [
        (("decompose", _refuted_star(tmp_path)), "CriterionViolated"),
        (("flag", _shear(tmp_path)), "ClosureDivergence"),
        (("mobius", _shear(tmp_path)), "ClosureDivergence"),
        (("check", BISECTION, "--max-rounds", "1"), "ClosureDivergence"),
    ]
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.collect()
    before = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv, error in runs:
            code, out = run_cli(capsys, *argv)
            assert code == 2
            assert json.loads(out)["error"]["code"] == error
            gc.collect()
            assert not [o for o in gc.garbage[before:] if isinstance(o, ToolError)], argv
    finally:
        gc.set_debug(flags)
        del gc.garbage[before:]
        if enabled:
            gc.enable()


@pytest.mark.parametrize("command", ["check", "flag", "mobius", "decompose", "envelope"])
def test_an_unwritable_output_path_is_an_output_error(command, tmp_path, capsys):
    """``-o F/x.json``, where F is a regular file: the report cannot be
    written, so exactly one document, an ``OutputError``, goes to stdout,
    and the command exits 2 (not 1 with a traceback)."""
    blocker = tmp_path / "F"
    blocker.write_text("")
    code, out = run_cli(capsys, command, TRISECTION, "-o", str(blocker / "x.json"))
    assert code == 2
    doc = json.loads(out)  # one document: a second would not parse
    assert doc["error"]["code"] == "OutputError"
    assert str(blocker / "x.json") in doc["error"]["message"]


def test_an_unwritable_dot_directory_is_an_output_error(tmp_path, capsys):
    """``flag --dot F``, where F is a regular file: the DOT files are written
    before the report, so stdout holds one document, the ``OutputError``,
    and no flag report; a writable ``-o`` receives that error report."""
    blocker = tmp_path / "F"
    blocker.write_text("")
    code, out = run_cli(capsys, "flag", TRISECTION, "--dot", str(blocker))
    assert code == 2
    doc = json.loads(out)  # one document: a second would not parse
    assert list(doc) == ["error"] and doc["error"]["code"] == "OutputError"
    assert str(blocker) in doc["error"]["message"]
    out_path = tmp_path / "out.json"
    code_o, out_o = run_cli(capsys, "flag", TRISECTION, "--dot", str(blocker), "-o", str(out_path))
    assert (code_o, out_o) == (2, "")
    assert out_path.read_text() == out


def test_refutations_are_written_without_a_witness_object(tmp_path, capsys, monkeypatch):
    """On a star of 14 planes, ``check``, ``envelope`` and ``decompose``
    write every witness off the score's runs: a ``CriterionValue`` is built,
    and turned into a dict, only for each of the ten disagreement examples
    that ``check`` and ``envelope`` print, and no report's ``to_json`` runs."""
    import invcat.criterion as criterion

    built, dicts = [], []
    real_to_json = criterion.CriterionValue.to_json

    class Spy(criterion.CriterionValue):
        __slots__ = ()

        def __new__(cls, *fields):
            built.append(fields)
            return super().__new__(cls, *fields)

    def to_json(self):
        dicts.append(self)
        return real_to_json(self)

    def refused(self):
        raise AssertionError("a plain report document was built")

    monkeypatch.setattr(criterion, "CriterionValue", Spy)
    monkeypatch.setattr(criterion.CriterionValue, "to_json", to_json)
    monkeypatch.setattr(criterion.CriterionReport, "to_json", refused)
    star = _refuted_star(tmp_path, 14)
    for command, code, examples in (("check", 1, 10), ("envelope", 1, 10), ("decompose", 2, 0)):
        built.clear()
        dicts.clear()
        got, out = run_cli(capsys, command, star)
        doc = json.loads(out)
        witnesses = doc["error"]["detail"]["witnesses"] if code == 2 else doc["witnesses"]
        assert got == code and len(witnesses) > 1000
        assert len(built) == len(dicts) == examples
        assert all(fields[-1] == "literal" for fields in built)

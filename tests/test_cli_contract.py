"""The CLI's exit-code contract on hostile input: every command exits 0, 1
or 2, an exit 2 is a structured error and never ``InternalError``, and the
same input prints the same stdout twice.

The inputs are single-value mutations, at a random JSON path, of a small
representation and of the certificate ``decompose`` prints for it.
"""

import contextlib
import copy
import io
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invcat import decompose, parse_representation
from invcat.cli import main
from invcat.rep import MAX_TOTAL_ENTRIES

# x -> y -> z over Q, dims 1, 2, 1: it decomposes into two strands
REP = {
    "field": {"kind": "rational"},
    "objects": [{"id": "x", "dim": 1}, {"id": "y", "dim": 2}, {"id": "z", "dim": 1}],
    "generators": [
        {"id": "f", "dom": "x", "cod": "y", "matrix": [[1], [0]]},
        {"id": "g", "dom": "y", "cod": "z", "matrix": [[0, 1]]},
    ],
}
CERT = decompose(parse_representation(json.dumps(REP))).to_json()
LIMITS = ("--max-rounds", "8", "--max-elements", "200")

VALUES = [
    None, True, 0, 1, -1, 2, 3, 129, 10**400, 1.5, "", "x", "y", "zero", "x#0", "y#1",
    "1/2", "1/0", "2", "../escape", "a/b", ".", [], [1], [[1]], [[1, 0]], ["1"], [[]],
    {}, {"kind": "prime", "p": 2}, {"kind": "prime", "p": 4},
]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


TARGETS = [("rep", p) for p in _paths(REP)] + [("cert", p) for p in _paths(CERT)]


def _mutated(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _full_rank_basis(n):
    rng = random.Random(0)
    return [[int(i == j) + rng.randint(-3, 3) * (j > i) for j in range(n)] for i in range(n)]


# Malformed certificates that once escaped as InternalError, were accepted,
# or were eliminated at a width the representation does not give, each with
# the path of its ValidationError.
BAD_CERTIFICATES = [
    (("generators", "f", "blocks"), [1], "generators.f.blocks"),
    (("generators", "f", "blocks", "x#0"), [5], "generators.f.blocks.x#0[0]"),
    (("objects", "y", 0, "atom"), [], "objects.y[0].atom"),
    (("generators", "f", "action", "x#0"), [], "generators.f.action.x#0"),
    (("summands", 0, 0), {}, "summands[0][0]"),
    (("generators", "f", "blocks", "x#0", 0), "1", "generators.f.blocks.x#0[0]"),
    (("objects", "w"), [{"atom": "w#0", "basis": _full_rank_basis(180)}], "objects.w"),
]


def _with_bad_certificates(test):
    for path, value, _ in BAD_CERTIFICATES:
        test = example(target=("cert", path), value=value)(test)
    return test


@settings(max_examples=400, deadline=None, derandomize=True)
@given(target=st.sampled_from(TARGETS), value=st.sampled_from(VALUES))
@_with_bad_certificates
def test_every_command_keeps_the_exit_code_contract(tmp_path_factory, target, value):
    kind, path = target
    base = tmp_path_factory.mktemp("contract")
    rep, cert = (_mutated(REP, path, value), CERT) if kind == "rep" else (REP, _mutated(CERT, path, value))
    rep_path, cert_path = base / "rep.json", base / "cert.json"
    rep_path.write_text(json.dumps(rep))
    cert_path.write_text(json.dumps(cert))
    runs = [("verify", str(rep_path), str(cert_path))]
    if kind == "rep":
        runs += [
            (command, str(rep_path), *LIMITS)
            for command in ("check", "mobius", "decompose", "envelope")
        ]
        runs.append(("flag", str(rep_path), *LIMITS, "--dot", str(base / "dots" / "in")))
    for argv in runs:
        code, out = _run(*argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert json.loads(out)["error"]["code"] != "InternalError", (argv, out)
        assert _run(*argv) == (code, out), argv
    # the Graphviz files stay inside the directory they were asked for
    assert sorted(p.name for p in (base / "dots").glob("*")) in ([], ["in"])


@pytest.mark.parametrize("path, value, where", BAD_CERTIFICATES)
def test_malformed_certificate_is_a_validation_error(tmp_path, path, value, where):
    rep_path, cert_path = tmp_path / "rep.json", tmp_path / "cert.json"
    rep_path.write_text(json.dumps(REP))
    cert_path.write_text(json.dumps(_mutated(CERT, path, value)))
    code, out = _run("verify", str(rep_path), str(cert_path))
    assert code == 2
    error = json.loads(out)["error"]
    assert (error["code"], error["detail"]) == ("ValidationError", {"path": where})


def test_certificate_entry_budget(tmp_path):
    """A certificate with more than ``MAX_TOTAL_ENTRIES`` entries in its atom
    bases and blocks is TooLarge before any entry past the limit is read;
    one at the limit is read and verified."""
    rep_path, cert_path = tmp_path / "rep.json", tmp_path / "cert.json"
    rep_path.write_text(json.dumps(REP))
    # CERT holds 8 entries: bases 1 at x, 2 + 2 at y, 1 at z; two 1x1 blocks
    row = CERT["objects"]["y"][1]["basis"][0]
    fill = (MAX_TOTAL_ENTRIES - 6) // 2
    at_limit = _mutated(CERT, ("objects", "y", 1, "basis"), [row] * fill)
    cert_path.write_text(json.dumps(at_limit))
    code, out = _run("verify", str(rep_path), str(cert_path))
    assert code == 0 and json.loads(out)["verified"] is True
    # 3 entries before y#1, and y#1 alone passes the limit
    over = _mutated(CERT, ("objects", "y", 1, "basis"), [["unread", 0]] + [row] * (fill + 1))
    cert_path.write_text(json.dumps(over))
    code, out = _run("verify", str(rep_path), str(cert_path))
    error = json.loads(out)["error"]
    assert (code, error["code"], error["detail"]) == (2, "TooLarge", {"path": "objects.y[1].basis"})
    assert error["message"].startswith(f"the certificate has more than {MAX_TOTAL_ENTRIES} matrix entries")


@pytest.mark.parametrize("oid", ["../escape", "a/b", "..", ".", ""])
def test_flag_dot_refuses_ids_that_are_not_file_names(tmp_path, oid):
    doc = {"field": {"kind": "rational"}, "objects": [{"id": "x", "dim": 1}, {"id": oid, "dim": 1}],
           "generators": []}
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(doc))
    dots = tmp_path / "out" / "dots"
    code, out = _run("flag", str(rep_path), "--dot", str(dots))
    assert code == 2
    assert json.loads(out)["error"]["detail"] == {"path": "objects[1].id"}
    assert not (tmp_path / "out").exists()
    code, out = _run("flag", str(rep_path))
    assert code == 0 and oid in json.loads(out)["objects"]

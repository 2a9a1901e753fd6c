"""Command-line front end.

Exit codes: 0 = pass/verified, 1 = fail/refuted, 2 = error.  All reports are
JSON on stdout (or -o FILE); for fixed input bytes and flags the output bytes
are identical run to run.  Timing goes to stderr only.  Each command returns
its document and exit code, and ``main`` writes the one document; where the
report cannot be written to -o, an ``OutputError`` goes to stdout instead.

Every report is written by :func:`invcat.jsontext.dumps`, whose output is
byte-identical to ``json.dumps(doc, indent=2, sort_keys=True)``: it builds
each container's text with one ``str.join``.  Within one report it renders
each shared basis tuple once per indent depth, found by identity, and each
repeated basis of equal rows once per content; a dict's sorted key order
and quoted key prefixes are laid out once per key set.  That matters for
refutations that print the same subspaces in hundreds of witnesses, each a
dict with the same four keys.  So ``check`` and ``envelope`` print a
criterion report's ``spliced_json()``, and an error prints its
``spliced_json()``: the witness list of a report, or of ``decompose``'s
``CriterionViolated`` refusal, is a ``jsontext.Splice`` that writes the
witnesses run by run off the score, with the bytes of the plain list that
``to_json()`` returns and no witness object or dict built.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from functools import cache
from pathlib import Path
from typing import Optional, Tuple

from .decompose import BlockcodeDecomposition, decompose, verify_decomposition
from .errors import AxiomViolation, InputSyntaxError, InternalError, OutputError, ToolError
from .flag import ClosureLimits, FlagAssignment
from .jsontext import dumps
from .pipeline import analyze
from .poset import mobius
from .realize import EnvelopeLimits, verify_envelope
from .rep import decode_json, expect, parse_representation


Result = Tuple[dict, int]  # a command's document and exit code


def _dump(doc: dict, out: Optional[str]) -> None:
    text = dumps(doc) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise InputSyntaxError(f"cannot read {path}: {e}") from e


def _load_rep(path: str):
    return parse_representation(_read(path))


def _limits(args: argparse.Namespace) -> ClosureLimits:
    return ClosureLimits(
        max_rounds=args.max_rounds,
        max_elements_per_object=args.max_elements,
    )


def _cmd_check(args: argparse.Namespace) -> Result:
    rep = _load_rep(args.input)
    analysis = analyze(rep, _limits(args), mu_mode=args.mu)
    doc = analysis.report.spliced_json()
    if analysis.saturation_note:
        doc["saturation_note"] = analysis.saturation_note
    return doc, 0 if analysis.report.passed else 1


def _closed_flag(rep, args: argparse.Namespace) -> FlagAssignment:
    """The flag to report.  A closure stopped at a limit has none, and its
    ``ClosureDivergence`` is raised instead."""
    analysis = analyze(rep, _limits(args))
    if analysis.stopped is None:
        return analysis.flag
    try:
        raise analysis.stopped
    finally:
        # the traceback holds this frame, and so would hold the error in a
        # cycle through this local (see ``main``)
        del analysis


def _cmd_flag(args: argparse.Namespace) -> Result:
    rep = _load_rep(args.input)
    if args.dot:  # each object's file is named by its id, which must stay in DIR
        for i, o in enumerate(rep.objects):
            expect(o.id not in ("", ".", "..") and "/" not in o.id and "\0" not in o.id,
                   "--dot needs object ids that are plain file names", f"objects[{i}].id")
    flag = _closed_flag(rep, args)
    if args.dot:  # before the report, which is then the one document written
        dot_dir = Path(args.dot)
        try:
            dot_dir.mkdir(parents=True, exist_ok=True)
            for oid in sorted(flag.posets):
                (dot_dir / f"{oid}.dot").write_text(flag.export_dot(oid), encoding="utf-8")
        except OSError as e:
            raise OutputError(f"cannot write the DOT files to {args.dot}: {e}") from None
    return flag.to_json(), 0


def _cmd_mobius(args: argparse.Namespace) -> Result:
    flag = _closed_flag(_load_rep(args.input), args)
    objects = {}
    for oid in sorted(flag.posets):
        p = flag.posets[oid]
        table = mobius(p)
        objects[oid] = {
            "elements": [s.to_json() for s in p.elements],
            "one_var": list(table.one_var),
            "two_var": [list(r) for r in table.two_var],
        }
    return {"objects": objects}, 0


def _cmd_decompose(args: argparse.Namespace) -> Result:
    return decompose(_load_rep(args.input), _limits(args)).to_json(), 0


def _cmd_verify(args: argparse.Namespace) -> Result:
    rep = _load_rep(args.input)
    cert_doc = decode_json(_read(args.certificate), "certificate JSON")
    dec = BlockcodeDecomposition.from_json(cert_doc, rep)
    outcome = verify_decomposition(rep, dec)
    return {"verified": outcome.ok, "problems": outcome.problems}, 0 if outcome.ok else 1


def _cmd_envelope(args: argparse.Namespace) -> Result:
    rep = _load_rep(args.input)
    analysis = analyze(rep, _limits(args))
    if not analysis.passed:
        doc = analysis.standard_report.spliced_json()
        doc["note"] = "criterion fails; no inverse envelope exists"
        return doc, 1
    try:
        env = verify_envelope(
            rep,
            analysis.families,
            analysis.pseudo_inverses,
            EnvelopeLimits(max_words=args.max_words, max_matrices_per_hom=args.max_matrices),
        )
    except AxiomViolation as e:
        return {"verified": False, "violation": e.to_json()}, 1
    doc = env.to_json()
    doc["verified"] = True
    doc["families"] = {
        oid: fam.to_json() for oid, fam in sorted(analysis.families.items())
    }
    return doc, 0


def positive_int(text: str) -> int:
    """A limit flag's value: an integer of at least 1.  Anything else is an
    argument error (exit 2, naming the flag)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="invcat",
        description=(
            "Decide, in exact arithmetic, whether a diagram of linear maps "
            "factors through an inverse category, and decompose cycle-free "
            "diagrams into blockcodes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="representation JSON file")
        p.add_argument("--max-rounds", type=positive_int, default=64, help="closure round limit")
        p.add_argument("--max-elements", type=positive_int, default=4096,
                       help="per-object flag size limit")
        p.add_argument("-o", "--output", default=None, help="write the JSON report here")

    p_check = sub.add_parser("check", help="evaluate the factorization criterion")
    common(p_check)
    p_check.add_argument("--mu", choices=("standard", "literal"), default="standard",
                         help="Moebius weighting mode (default: standard)")
    p_check.set_defaults(fn=_cmd_check)

    p_flag = sub.add_parser("flag", help="report the per-object subspace flags")
    common(p_flag)
    p_flag.add_argument("--dot", default=None, metavar="DIR",
                        help="also write one Graphviz file per object")
    p_flag.set_defaults(fn=_cmd_flag)

    p_mob = sub.add_parser("mobius", help="print Moebius tables of the flag posets")
    common(p_mob)
    p_mob.set_defaults(fn=_cmd_mobius)

    p_dec = sub.add_parser("decompose", help="decompose into blockcodes (cycle-free only)")
    common(p_dec)
    p_dec.set_defaults(fn=_cmd_decompose)

    p_ver = sub.add_parser("verify", help="re-check a decomposition certificate")
    p_ver.add_argument("input", help="representation JSON file")
    p_ver.add_argument("certificate", help="certificate JSON file")
    p_ver.add_argument("-o", "--output", default=None)
    p_ver.set_defaults(fn=_cmd_verify)

    p_env = sub.add_parser("envelope", help="synthesize pseudo-inverses and verify axioms")
    common(p_env)
    p_env.add_argument("--max-words", type=positive_int, default=10_000)
    p_env.add_argument("--max-matrices", type=positive_int, default=1_000)
    p_env.set_defaults(fn=_cmd_envelope)

    return parser


def _error(error: ToolError) -> Result:
    print(f"error: {error.code}: {error.message}", file=sys.stderr)
    return {"error": error.spliced_json()}, 2


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    # Build the error document inside the ``except`` clause, which unbinds the
    # exception on exit: a local holding it would close the cycle exception ->
    # traceback -> this frame, and keep the error's detail alive until a full
    # collection.
    try:
        doc, code = args.fn(args)
        doc["command"] = args.command
    except ToolError as e:
        doc, code = _error(e)
    except Exception as e:  # the exit-code contract: a defect is an error, never a refutation
        traceback.print_exc(file=sys.stderr)
        doc, code = _error(InternalError(f"{type(e).__name__}: {e}"))
    try:
        _dump(doc, args.output)
    except OSError as e:  # -o is unwritable: the error goes to stdout
        doc, code = _error(OutputError(f"cannot write {args.output}: {e}"))
        _dump(doc, None)
    if args.command == "check" and code != 2:  # the whole command's wall time
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        print(f"check: {doc['verdict']} ({elapsed_ms:.1f} ms)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

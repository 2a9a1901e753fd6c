"""Command-line front end.

Exit codes: 0 = pass/verified, 1 = fail/refuted, 2 = error.  All reports are
JSON on stdout (or -o FILE); for fixed input bytes and flags the output bytes
are identical run to run.  Timing goes to stderr only.

Every report is written by :func:`invcat.jsontext.dumps`, whose output is
byte-identical to ``json.dumps(doc, indent=2, sort_keys=True)``: it builds
each container's text with one ``str.join``.  Within one report it renders
each shared basis tuple once per indent depth, found by identity, and each
repeated basis of equal rows once per content; a dict's sorted key order
and quoted key prefixes are laid out once per key set.  That matters for
refutations that print the same subspaces in hundreds of witnesses, each a
dict with the same four keys.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from functools import cache
from pathlib import Path
from typing import Optional

from .decompose import BlockcodeDecomposition, decompose, verify_decomposition
from .errors import AxiomViolation, InputSyntaxError, InternalError, ToolError
from .flag import ClosureLimits, FlagAssignment
from .jsontext import dumps
from .pipeline import analyze
from .poset import mobius
from .realize import EnvelopeLimits, verify_envelope
from .rep import decode_json, expect, parse_representation


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


def _cmd_check(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    rep = _load_rep(args.input)
    analysis = analyze(rep, _limits(args), mu_mode=args.mu)
    doc = analysis.report.to_json()
    doc["command"] = "check"
    if analysis.saturation_note:
        doc["saturation_note"] = analysis.saturation_note
    _dump(doc, args.output)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(f"check: {analysis.report.verdict} ({elapsed_ms:.1f} ms)", file=sys.stderr)
    return 0 if analysis.report.passed else 1


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


def _cmd_flag(args: argparse.Namespace) -> int:
    rep = _load_rep(args.input)
    if args.dot:  # each object's file is named by its id, which must stay in DIR
        for i, o in enumerate(rep.objects):
            expect(o.id not in ("", ".", "..") and "/" not in o.id and "\0" not in o.id,
                   "--dot needs object ids that are plain file names", f"objects[{i}].id")
    flag = _closed_flag(rep, args)
    doc = flag.to_json()
    doc["command"] = "flag"
    _dump(doc, args.output)
    if args.dot:
        dot_dir = Path(args.dot)
        dot_dir.mkdir(parents=True, exist_ok=True)
        for oid in sorted(flag.posets):
            (dot_dir / f"{oid}.dot").write_text(flag.export_dot(oid), encoding="utf-8")
    return 0


def _cmd_mobius(args: argparse.Namespace) -> int:
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
    _dump({"command": "mobius", "objects": objects}, args.output)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    rep = _load_rep(args.input)
    dec = decompose(rep, _limits(args))
    doc = dec.to_json()
    doc["command"] = "decompose"
    _dump(doc, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    rep = _load_rep(args.input)
    cert_doc = decode_json(_read(args.certificate), "certificate JSON")
    dec = BlockcodeDecomposition.from_json(cert_doc, rep)
    outcome = verify_decomposition(rep, dec)
    _dump(
        {"command": "verify", "verified": outcome.ok, "problems": outcome.problems},
        args.output,
    )
    return 0 if outcome.ok else 1


def _cmd_envelope(args: argparse.Namespace) -> int:
    rep = _load_rep(args.input)
    analysis = analyze(rep, _limits(args))
    if not analysis.passed:
        doc = analysis.standard_report.to_json()
        doc["command"] = "envelope"
        doc["note"] = "criterion fails; no inverse envelope exists"
        _dump(doc, args.output)
        return 1
    try:
        env = verify_envelope(
            rep,
            analysis.families,
            analysis.pseudo_inverses,
            EnvelopeLimits(max_words=args.max_words, max_matrices_per_hom=args.max_matrices),
        )
    except AxiomViolation as e:
        _dump({"command": "envelope", "verified": False, "violation": e.to_json()}, args.output)
        return 1
    doc = env.to_json()
    doc["command"] = "envelope"
    doc["verified"] = True
    doc["families"] = {
        oid: fam.to_json() for oid, fam in sorted(analysis.families.items())
    }
    _dump(doc, args.output)
    return 0


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


def _report_error(error: ToolError, args: argparse.Namespace) -> int:
    _dump({"error": error.to_json()}, getattr(args, "output", None))
    print(f"error: {error.code}: {error.message}", file=sys.stderr)
    return 2


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Report inside the ``except`` clause, which unbinds the exception on exit:
    # a local holding it would close the cycle exception -> traceback -> this
    # frame, and keep the error's detail alive until a full collection.
    try:
        return args.fn(args)
    except ToolError as e:
        return _report_error(e, args)
    except Exception as e:  # the exit-code contract: a defect is an error, never a refutation
        traceback.print_exc(file=sys.stderr)
        return _report_error(InternalError(f"{type(e).__name__}: {e}"), args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print one sha256 over the exit codes and stdout of the CLI on fixed inputs.

Usage: python scripts/output_digest.py SEED

Runs ``check``, ``flag``, ``mobius``, ``decompose`` and ``envelope`` on every
file in ``data/`` and on every instance of the three benchmark corpora
(``perfbench/corpus.py`` at SEED, at the benchmark's corpus sizes), through
``invcat.cli.main`` in process.  ``verify`` runs too wherever there is a
certificate to check: the one ``decompose`` printed, or a corpus instance's
decoy.  Two source trees that print the same digest for a seed gave the same
stdout bytes and exit codes on every one of those runs.

``scripts/expected_digests.txt`` holds this tree's lines for seeds 5 and 11,
and CI diffs this script's output at both seeds against them.  A change that
alters report bytes on purpose updates that file.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus import make_corpus  # noqa: E402
from run import CORPUS_SIZES, run_cli  # noqa: E402

from invcat.cli import main as cli_main  # noqa: E402

COMMANDS = ("check", "flag", "mobius", "decompose", "envelope")


def inputs(seed):
    """(name, representation bytes, decoy certificate bytes or None)."""
    for path in sorted((ROOT / "data").glob("*.json")):
        yield path.name, path.read_bytes(), None
    for workload in sorted(CORPUS_SIZES):
        for inst in make_corpus(workload, seed, CORPUS_SIZES[workload]):
            yield inst.name, inst.data, inst.decoy_certificate


def digest(seed, workdir):
    h = hashlib.sha256()
    runs = 0

    def record(name, argv):
        nonlocal runs
        code, out, _ = run_cli(cli_main, argv)
        h.update(f"{name} {argv[0]} {code}\n".encode())
        h.update(out.encode())
        runs += 1
        return code, out

    for name, data, decoy in inputs(seed):
        rep_path = workdir / "rep.json"
        rep_path.write_bytes(data)
        certificate = None
        for command in COMMANDS:
            code, out = record(name, [command, str(rep_path)])
            if command == "decompose" and code == 0:
                certificate = out.encode()
        for cert in (certificate, decoy):
            if cert is not None:
                cert_path = workdir / "cert.json"
                cert_path.write_bytes(cert)
                record(name, ["verify", str(rep_path), str(cert_path)])
    return h.hexdigest(), runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        value, runs = digest(args.seed, Path(tmp))
    print(f"{value}  seed={args.seed} runs={runs}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Print one sha256 over the exit codes and stdout of the CLI on fixed inputs.

Usage: python scripts/output_digest.py SEED
       python scripts/output_digest.py draws
       python scripts/output_digest.py stars
       python scripts/output_digest.py stopped

With a SEED, runs ``check``, ``check --mu literal``, ``flag``, ``mobius``,
``decompose`` and ``envelope`` on every file in ``data/`` and on every
instance of the three benchmark corpora (``perfbench/corpus.py`` at SEED, at
the benchmark's corpus sizes), through ``invcat.cli.main`` in process.
``verify`` runs too wherever there is a certificate to check: the one
``decompose`` printed, or a corpus instance's decoy.  Two source trees that
print the same digest for a seed gave the same stdout bytes and exit codes on
every one of those runs.

With ``draws``, runs the same commands at ``--max-rounds 8 --max-elements
200`` on the first 500 draws of ``random_representation(random.Random(7))``
(``tests/conftest.py``).  Most of those draws have an undirected cycle, so
this line covers the subspace saturation, the first-fit families and the
matrix envelope, which the corpora reach only through ``bisection.json``.

With ``stars``, runs the same commands on 60 seeded stars
(``random_star`` in ``tests/conftest.py``): 2 to 10 arms of dimension 1 to
n - 1 into one centre, over GF(10007)^4, Q^4 and GF(2)^3 in turn.  The
benchmark's stars are all planes in a 3-space, so only this line meets a
line against a plane that is not a hyperplane, and lines, planes and
hyperplanes in one flag.

With ``stopped``, runs ``check`` and ``flag`` at the default limits on
``tests/inputs/random7_draw59.json`` and ``random7_draw375.json``, whose
closures pass 4096 elements: ``check`` refutes each on a part of the
elements reached, and ``flag`` reports the ``ClosureDivergence``.  The other
lines stop their closures at 200 elements at most, so only this one pins the
order of arrival of a large stopped closure.

Every stdout is also checked against the writer's byte contract: it must
equal ``json.dumps(json.loads(out), indent=2, sort_keys=True)`` plus a
newline.  It must not report an ``InternalError`` either, which is a defect
and not a verdict.  The first output that fails either check stops the
script with exit 1 and names the input and the command.

``scripts/expected_digests.txt`` holds this tree's lines for seeds 5 and 11,
for the draws, the stars and the stopped closures, and CI diffs this script's output against
them.  A change that alters report bytes on purpose updates that file.
"""

import argparse
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

from conftest import random_representation, random_star  # noqa: E402
from corpus import make_corpus  # noqa: E402
from run import CORPUS_SIZES, run_cli  # noqa: E402

from invcat import GF, RATIONALS  # noqa: E402
from invcat.cli import main as cli_main  # noqa: E402

# each command's arguments before the representation path
COMMANDS = (
    ("check",),
    ("check", "--mu", "literal"),
    ("flag",),
    ("mobius",),
    ("decompose",),
    ("envelope",),
)

DRAWS, DRAW_SEED = 500, 7
DRAW_LIMITS = ("--max-rounds", "8", "--max-elements", "200")

STARS, STAR_SEED = 60, 3
STAR_CENTRES = ((GF(10007), 4), (RATIONALS, 4), (GF(2), 3))

STOPPED_DRAWS = (59, 375)


def corpus_inputs(seed):
    """(name, representation bytes, decoy certificate bytes or None)."""
    for path in sorted((ROOT / "data").glob("*.json")):
        yield path.name, path.read_bytes(), None
    for workload in sorted(CORPUS_SIZES):
        for inst in make_corpus(workload, seed, CORPUS_SIZES[workload]):
            yield inst.name, inst.data, inst.decoy_certificate


def draw_inputs():
    rng = random.Random(DRAW_SEED)
    for i in range(DRAWS):
        yield f"draw{i}", random_representation(rng).serialize().encode(), None


def star_inputs():
    rng = random.Random(STAR_SEED)
    for i in range(STARS):
        field, centre = STAR_CENTRES[i % len(STAR_CENTRES)]
        star = random_star(rng, field, centre, rng.randint(2, 10))
        yield f"star{i}", star.serialize().encode(), None


def stopped_inputs():
    for i in STOPPED_DRAWS:
        path = ROOT / "tests" / "inputs" / f"random7_draw{i}.json"
        yield path.name, path.read_bytes(), None


def check_output(name, words, out):
    """Stop unless ``out`` is ``json``'s own rendering of the document it
    holds, and that document reports no ``InternalError``."""
    where = f"{name} {' '.join(words)}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as e:
        sys.exit(f"{where}: stdout is not JSON ({e})")
    if out != json.dumps(doc, indent=2, sort_keys=True) + "\n":
        sys.exit(f"{where}: stdout differs from json.dumps of its document")
    if doc.get("error", {}).get("code") == "InternalError":
        sys.exit(f"{where}: InternalError: {doc['error']['message']}")


def digest(inputs, limits, workdir, commands=COMMANDS):
    h = hashlib.sha256()
    runs = 0

    def record(name, words, paths):
        nonlocal runs
        code, out, _ = run_cli(cli_main, [*words, *paths])
        check_output(name, words, out)
        h.update(f"{name} {' '.join(words)} {code}\n".encode())
        h.update(out.encode())
        runs += 1
        return code, out

    for name, data, decoy in inputs:
        rep_path = workdir / "rep.json"
        rep_path.write_bytes(data)
        certificate = None
        for command in commands:
            code, out = record(name, (*command, *limits), [str(rep_path)])
            if command == ("decompose",) and code == 0:
                certificate = out.encode()
        for cert in (certificate, decoy):
            if cert is not None:
                cert_path = workdir / "cert.json"
                cert_path.write_bytes(cert)
                record(name, ["verify"], [str(rep_path), str(cert_path)])
    return h.hexdigest(), runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", help="a corpus seed, 'draws', 'stars' or 'stopped'")
    args = ap.parse_args()
    commands = COMMANDS
    if args.seed == "draws":
        inputs, limits, label = draw_inputs(), DRAW_LIMITS, f"draws={DRAWS} seed={DRAW_SEED}"
    elif args.seed == "stars":
        inputs, limits, label = star_inputs(), (), f"stars={STARS} seed={STAR_SEED}"
    elif args.seed == "stopped":
        inputs, limits, label = stopped_inputs(), (), "stopped=" + ",".join(map(str, STOPPED_DRAWS))
        commands = (("check",), ("flag",))
    else:
        inputs, limits, label = corpus_inputs(int(args.seed)), (), f"seed={args.seed}"
    with tempfile.TemporaryDirectory() as tmp:
        value, runs = digest(inputs, limits, Path(tmp), commands)
    print(f"{value}  {label} runs={runs}")


if __name__ == "__main__":
    main()

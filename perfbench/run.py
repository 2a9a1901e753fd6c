#!/usr/bin/env python3
"""The invcat benchmark: per-command latency of the CLI on seeded corpora.

Run from the repository root:

    python3 perfbench/run.py --workload interval_q --seed 1 --seconds 30 --trace 0

With ``--trace 0`` one closed-loop client drives the user entry point,
``invcat.cli.main``, in process, one instance at a time.  Every instance runs
``check``, ``decompose -o CERT``, ``verify CERT`` and ``envelope``.  Each
output is checked against ground truth known from the generator, and the
end-to-end metrics are printed.  With ``--trace 1`` the layer pass of
``layers.py`` runs instead and prints the per-layer metrics.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  The lines before it are a readable summary.

Set-up (``setup_s``) is the import of the package, corpus generation and the
input files written.  It is repeated SETUP_REPEATS times, with a fresh
import each time, and the median is reported.

Latency statistics are taken over instances.  Each instance's latency for a
command is the median of its samples, and the corpus is cycled until the
time is up.  So a faster program gets more samples per instance, and is
still judged on the same instances at the same percentile.  Every time is
scaled to reference speed by the kernel in reference.py, and percentiles are
Harrell-Davis estimates; README.md gives the measurements behind both.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Instances per corpus.  Each is a multiple of the size rotation in
# corpus.py (6 vertex counts, 7 plane counts).  On a 2-core machine with
# Python 3.11 one pass takes about 28 s (interval_q), 16 s (conj_gf) and
# 24 s (star_fail), so a 30 s run makes one pass or a little more.
CORPUS_SIZES = {"interval_q": 96, "conj_gf": 240, "star_fail": 21}
COMMANDS = ("check", "decompose", "verify", "envelope")
HAS_TAIL = ("check", "decompose", "envelope")
SETUP_REPEATS = 9
TAIL_BEYOND = 10


class CanaryFailure(Exception):
    """A bundled example gave the wrong result: the build under test is broken."""


def _purge_modules() -> None:
    for name in list(sys.modules):
        if name in ("invcat", "corpus") or name.startswith("invcat."):
            del sys.modules[name]


def set_up(workload: str, seed: int, size: int, workdir: Path):
    """Import the package, generate the corpus and write its input files."""
    _purge_modules()
    importlib.import_module("invcat.cli")
    corpus = importlib.import_module("corpus")
    instances = corpus.make_corpus(workload, seed, size)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for inst in instances:
        (workdir / f"{inst.name}.json").write_bytes(inst.data)
        if inst.decoy_certificate is not None:
            (workdir / f"{inst.name}.decoy.json").write_bytes(inst.decoy_certificate)
    return instances


def corpus_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.data)
        h.update(inst.decoy_certificate or b"")
    return h.hexdigest()


def run_cli(main, argv):
    """One CLI call in process; returns (exit code or None on a crash, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # escaped the CLI's exit-code contract
            code = None
            traceback.print_exc(file=err)
    elapsed = time.perf_counter() - start
    if code is None:
        print(f"crash in {' '.join(argv)}:\n{err.getvalue()}", file=sys.stderr)
    return code, out.getvalue(), elapsed


def _doc(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return {}
    return doc if isinstance(doc, dict) else {}


def run_canaries(main) -> None:
    """The two bundled examples, with the results the paper's figures give."""
    data = ROOT / "data"
    tri, bis = str(data / "trisection.json"), str(data / "bisection.json")
    code, out, _ = run_cli(main, ["check", tri])
    full_zero = [
        w for w in _doc(out).get("witnesses", [])
        if w.get("b_basis") == [[1, 0], [0, 1]] and w.get("c_basis") == [] and w.get("value") == -1
    ]
    if code != 1 or not full_zero:
        raise CanaryFailure(f"trisection: check exit {code}, no (full, zero) = -1 witness")
    code, _, _ = run_cli(main, ["check", bis])
    if code != 0:
        raise CanaryFailure(f"bisection: check exit {code}, expected 0")
    code, out, _ = run_cli(main, ["decompose", bis])
    if code != 2 or _doc(out).get("error", {}).get("code") != "CycleError":
        raise CanaryFailure(f"bisection: decompose exit {code}, expected 2 with CycleError")
    code, out, _ = run_cli(main, ["envelope", bis])
    if code != 0 or _doc(out).get("pseudo_inverses", {}).get("shift") != [[0, 0], [1, 0]]:
        raise CanaryFailure(f"bisection: envelope exit {code}, expected shift+ = [[0,0],[1,0]]")


# --- ground truth -------------------------------------------------------------
#
# Each command ends "ok", "refused" (a structured error or an own-construction
# failure where an answer exists: counted as failed) or "wrong" (an output
# that contradicts ground truth: counted as failed and makes the run
# incorrect).


def _cert_dims(cert: dict, object_ids) -> list:
    """Sorted summand dimension vectors of a certificate, in object order."""
    atom_dim = {
        a["atom"]: (oid, len(a["basis"]))
        for oid, atoms in cert.get("objects", {}).items()
        for a in atoms
    }
    vectors = []
    for summand in cert.get("summands", []):
        dims = dict.fromkeys(object_ids, 0)
        for atom in summand:
            oid, d = atom_dim[atom]
            dims[oid] += d
        vectors.append(tuple(dims[oid] for oid in object_ids))
    return sorted(vectors)


def judge_factoring(command: str, code, doc: dict, inst) -> str:
    if code is None:
        return "wrong"
    if command == "check":
        if code == 0 and doc.get("verdict") == "pass":
            return "ok"
        return "refused" if code == 2 else "wrong"
    if command == "decompose":
        if code == 0:
            return "ok" if _cert_dims(doc, inst.object_ids) == list(inst.expected_dims) else "wrong"
        return "refused" if code == 2 else "wrong"
    if command == "verify":
        return "ok" if code == 0 and doc.get("verified") is True else "wrong"
    if code == 0 and doc.get("verified") is True:
        return "ok"
    if code == 2 or (code == 1 and "violation" in doc):
        return "refused"
    return "wrong"


def judge_refuted(command: str, code, doc: dict) -> str:
    if code is None or code == 0:
        return "wrong"
    if command in ("check", "envelope"):
        if code == 1:
            return "ok" if doc.get("verdict") == "fail" and doc.get("witnesses") else "wrong"
        return "refused"
    if command == "decompose":
        return "ok" if doc.get("error", {}).get("code") == "CriterionViolated" else "refused"
    if code == 1:
        return "ok" if doc.get("verified") is False and doc.get("problems") else "wrong"
    return "refused"


def run_sequence(main, inst, workdir: Path, last_s=None):
    """The four commands on one instance.

    Returns [(command, seconds, [reference kernel seconds], outcome, output
    bytes)]; the times are None for a command that could not run.  The
    reference kernel runs just before each command, for about a fixed share
    of the time the same command took last, as recorded in ``last_s``.  A
    short command thus follows a single kernel run, as it would follow the
    command before it without one.
    """
    path = str(workdir / f"{inst.name}.json")
    cert_path = workdir / f"{inst.name}.cert.json"
    results = []
    cert_made = False
    last_s = {} if last_s is None else last_s
    for command in COMMANDS:
        if command == "decompose":
            cert_path.unlink(missing_ok=True)
            argv = [command, path, "-o", str(cert_path)]
        elif command == "verify":
            if inst.must_pass and not cert_made:
                results.append((command, None, None, "refused", b""))  # nothing to verify
                continue
            target = cert_path if inst.must_pass else workdir / f"{inst.name}.decoy.json"
            argv = [command, path, str(target)]
        else:
            argv = [command, path]
        kernel_s = reference.time_kernels(last_s.get(command, 0.0))
        code, out, seconds = run_cli(main, argv)
        last_s[command] = seconds
        output = out.encode()
        doc = _doc(out)
        if command == "decompose" and cert_path.exists():
            # -o receives the certificate, or the error report on exit 2
            cert_bytes = cert_path.read_bytes()
            output += cert_bytes
            doc = _doc(cert_bytes.decode())
            cert_made = code == 0
        if inst.must_pass:
            outcome = judge_factoring(command, code, doc, inst)
        else:
            outcome = judge_refuted(command, code, doc)
        results.append((command, seconds, kernel_s, outcome, output))
    return results


# --- statistics ---------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta(q(n+1), (1-q)(n+1))-weighted mean of the order statistics.  The
    per-instance latencies come from a few dozen shapes with gaps of 5-10%
    between neighbours.  A single order statistic jumps across such a gap
    when two instances swap places, and this estimate does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    steps = 16  # midpoint rule per order statistic; the weights are normalised below
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        points = ((i * steps + k + 0.5) * h for k in range(steps))
        weights.append(sum(math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)) for x in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_level(n: int) -> float:
    """The highest quantile with at least TAIL_BEYOND of n samples beyond it."""
    return max(1, n - TAIL_BEYOND) / n


def measure(workload: str, seed: int, seconds: float, main, instances, workdir: Path):
    """Closed loop over the corpus for ``seconds`` (at least one full pass).

    ``attempted`` and ``failed`` count the commands of the first pass, so
    for a seed they do not depend on how many passes fit in the time.  A
    later pass whose outcome or stdout bytes differ from the first is a
    mismatch, and makes the run incorrect.
    """
    # a sample is (wall seconds, index of the kernel run just before it)
    samples = {c: [[] for _ in instances] for c in COMMANDS}  # per instance
    sequences = [[] for _ in instances]  # per instance, per pass: its samples
    kernel_s = []
    last_s = {}  # command -> its seconds on the previous instance
    first_result = {}  # (instance, command) -> (outcome, stdout digest) on the first pass
    mismatches = 0
    attempted = failed = wrong = 0
    done = 0
    start = time.perf_counter()
    while done < len(instances) or time.perf_counter() - start < seconds:
        i = done % len(instances)
        inst = instances[i]
        sequence = []
        for command, secs, k_secs, outcome, output in run_sequence(main, inst, workdir, last_s):
            if done < len(instances):  # each command of the corpus is judged once
                attempted += 1
                failed += outcome != "ok"
                wrong += outcome == "wrong"
            if secs is not None:
                kernel_s.extend(k_secs)
                samples[command][i].append((secs, len(kernel_s) - 1))
                sequence.append((secs, len(kernel_s) - 1))
            result = (outcome, hashlib.sha256(output).digest())
            if first_result.setdefault((i, command), result) != result:
                mismatches += 1
                print(f"output changed between passes: {inst.name} {command}", file=sys.stderr)
        sequences[i].append(sequence)
        done += 1
    elapsed = time.perf_counter() - start
    factor = reference.speed_factors(kernel_s)

    metrics = {}
    lines = [
        f"workload={workload} seed={seed} instances={len(instances)} "
        f"sequences={done} passes={done / len(instances):.2f} wall_s={elapsed:.1f} "
        f"reference kernel median={statistics.median(kernel_s) * 1000:.4f} ms"
    ]
    for command in COMMANDS:
        scaled = [
            statistics.median(secs * factor[k] * 1000.0 for secs, k in s) for s in samples[command] if s
        ]
        raw = [statistics.median(secs * 1000.0 for secs, _ in s) for s in samples[command] if s]
        count = sum(len(s) for s in samples[command])
        if not scaled:
            lines.append(f"{command}: no samples")
            continue
        level = tail_level(len(scaled))
        p50, t_value = quantile(scaled, 0.5), quantile(scaled, level)
        metrics[f"{command}_p50_ms"] = p50
        if command in HAS_TAIL:
            metrics[f"{command}_tail_ms"] = t_value
        pct = f"p{100 * level:.1f}"
        lines.append(
            f"{command}: p50={p50:.3f} ms {pct}={t_value:.3f} ms (wall clock p50="
            f"{quantile(raw, 0.5):.3f} ms {pct}={quantile(raw, level):.3f} ms) "
            f"over {len(scaled)} instances ({count} samples)"
        )
    per_sequence = [
        statistics.median(sum(secs * factor[k] for secs, k in seq) for seq in passes)
        for passes in sequences
        if passes
    ]
    metrics["instances_per_s"] = len(per_sequence) / sum(per_sequence)
    metrics["ops_ok_frac"] = (attempted - failed) / attempted
    lines.append(
        f"ops: attempted={attempted} failed={failed} wrong={wrong} "
        f"ops_failed_frac={failed / attempted:.6f}"
    )
    by_command = {}
    for command in COMMANDS:
        h = hashlib.sha256()
        for i in range(len(instances)):
            h.update(first_result.get((i, command), (None, b""))[1])
        by_command[command] = h.hexdigest()[:16]
    lines.append(
        "stdout digest (first pass): "
        + " ".join(f"{c}={d}" for c, d in by_command.items())
        + f" mismatches={mismatches}"
    )
    correct = wrong == 0 and mismatches == 0
    return correct, attempted, failed, metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CORPUS_SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "invcat" / "__init__.py").is_file():
        print(f"invcat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    workdir = WORK / f"{args.workload}-{args.seed}"
    try:
        setups, raw_setups, digests = [], [], set()
        for _ in range(SETUP_REPEATS):
            factor = reference.speed_factor_now()
            t0 = time.perf_counter()
            instances = set_up(args.workload, args.seed, CORPUS_SIZES[args.workload], workdir)
            raw_setups.append(time.perf_counter() - t0)
            setups.append(raw_setups[-1] * factor)
            digests.add(corpus_digest(instances))
        if len(digests) != 1:
            print("corpus generation is not deterministic", file=sys.stderr)
            return 3
        cli_main = sys.modules["invcat.cli"].main
        run_canaries(cli_main)
        print(f"setup: median {statistics.median(setups):.4f} s of {SETUP_REPEATS} "
              f"(wall clock {statistics.median(raw_setups):.4f} s), "
              f"corpus sha256 {digests.pop()[:16]}, canaries ok")
        if args.trace:
            import layers

            correct, attempted, failed, metrics, lines = layers.run_traced(
                args.workload, args.seed, args.seconds, instances, WORK
            )
        else:
            correct, attempted, failed, metrics, lines = measure(
                args.workload, args.seed, args.seconds, cli_main, instances, workdir
            )
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except CanaryFailure as e:
        print(f"canary failed: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in lines:
        print(line)
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer timing for the benchmark's traced run, measured from outside.

The program has no tracing of its own yet, so the spans are recorded here.
The layer pass below calls each layer's public functions the way the CLI's
four commands do, once per instance.  While it is traced, wrappers sit on the
module bindings through which one layer calls the next (``BINDINGS``) and on
the two linear-algebra entry points (``LINALG``).

A span is (name, start, end, parent, instance).  Spans stay in memory and are
written to a JSON-lines file when the run ends.  Linear-algebra calls are too
many to keep one span each (about a million per star pass), so their time and
count are added to the enclosing span as its linalg children.  A span's self
time is its duration minus its child spans and its linalg time.

Each instance runs the layer pass twice, untraced and then traced.  The
difference of the two totals is the tracing overhead.  Times are scaled to
reference speed with one factor for the run (see reference.py); the
percentages are ratios of wall-clock times.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import invcat.criterion
import invcat.flag
import invcat.pipeline
import invcat.realize
from invcat import (
    BlockcodeDecomposition,
    Matrix,
    Subspace,
    analyze,
    decompose,
    parse_representation,
    verify_decomposition,
    verify_envelope,
)
from invcat.errors import AxiomViolation, ToolError

import reference

LAYERS = ("rep", "flag", "poset", "criterion", "pipeline", "realize", "decompose", "linalg")

# (module, binding, span name): how one layer reaches the next
BINDINGS = (
    (invcat.pipeline, "compute_flag", "flag.closure"),
    (invcat.pipeline, "check_representation", "criterion.score"),
    (invcat.pipeline, "build_families", "realize.families"),
    (invcat.pipeline, "make_pseudo_inverse", "realize.pseudo_inverse"),
    (invcat.flag, "build_poset", "poset.build"),
    (invcat.criterion, "mobius", "poset.mobius"),
    (invcat.realize, "mobius", "poset.mobius"),
    (invcat.realize, "poset_passes", "criterion.poset_passes"),
    (invcat.realize, "verify_projection_family", "realize.verify_family"),
)
LINALG = ((Matrix, "__matmul__", "matmul"), (Subspace, "span", "span"))

# spans whose summed duration is reported as "<name>_ms"
TIMED_SPANS = (
    "rep.parse", "pipeline.analyze", "flag.closure", "poset.build", "poset.mobius",
    "criterion.score", "realize.families", "realize.verify_family", "realize.pseudo_inverse",
    "realize.envelope", "decompose.decompose", "decompose.verify",
)


class Stopwatch:
    """The untraced twin of Tracer: sums each step's wall time, nothing else."""

    def __init__(self):
        self.seconds = {}

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start


class Tracer:
    def __init__(self):
        # [name, start, end, parent, instance, linalg seconds, linalg calls]
        self.spans = []
        self.stack = []
        self.instance = None
        self.linalg_calls = {kind: 0 for _, _, kind in LINALG}
        self.linalg_seconds = {kind: 0.0 for _, _, kind in LINALG}
        self._in_linalg = False

    @contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        record = [name, time.perf_counter(), None, parent, self.instance, 0.0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_linalg(self, kind, fn):
        def traced(*args, **kwargs):
            if self._in_linalg:
                return fn(*args, **kwargs)
            self._in_linalg = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                self._in_linalg = False
                self.linalg_calls[kind] += 1
                self.linalg_seconds[kind] += spent
                if self.stack:
                    record = self.spans[self.stack[-1]]
                    record[5] += spent
                    record[6] += 1

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name in BINDINGS:
                original = module.__dict__[attr]
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            for cls, attr, kind in LINALG:
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                if isinstance(original, classmethod):
                    setattr(cls, attr, classmethod(self.wrap_linalg(kind, original.__func__)))
                else:
                    setattr(cls, attr, self.wrap_linalg(kind, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_seconds(self):
        """Self time per layer: span durations minus child spans and linalg time."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent is not None:
                children[parent] += end - start
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, _, linalg_s, _) in enumerate(self.spans):
            per_layer[name.split(".")[0]] += end - start - children[i] - linalg_s
        per_layer["linalg"] = sum(self.linalg_seconds.values())
        return per_layer

    def flush(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for name, start, end, parent, instance, linalg_s, linalg_calls in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "instance": instance, "linalg_s": linalg_s, "linalg_calls": linalg_calls,
                }) + "\n")


def layer_pass(inst, span, counts):
    """One instance through the layers behind check, decompose, verify and envelope.

    ``analyze`` runs once here where the CLI runs it once per command.
    Returns the number of operations attempted, failed and wrong (as in
    run.py: "wrong" contradicts ground truth).
    """
    attempted, failed, wrong = 1, 0, 0
    with span("rep.parse"):
        rep = parse_representation(inst.data)
    with span("pipeline.analyze"):
        analysis = analyze(rep)
    passed = analysis.standard_report.passed
    counts["saturated_elements"] += analysis.flag.total_elements
    counts["pairs"] += sum(len(p) ** 2 for p in analysis.flag.posets.values())
    if passed != inst.must_pass or not (passed or analysis.standard_report.witnesses):
        return attempted, 1, 1
    if not passed:
        attempted += 1
        with span("decompose.verify"):
            decoy = BlockcodeDecomposition.from_json(json.loads(inst.decoy_certificate), rep)
            if verify_decomposition(rep, decoy).ok:
                failed, wrong = failed + 1, wrong + 1
        return attempted, failed, wrong

    attempted += 1
    if analysis.families is None:
        failed += 1
    else:
        try:
            with span("realize.envelope"):
                env = verify_envelope(rep, analysis.families, analysis.pseudo_inverses)
            counts["envelope_morphisms"] += env.total_morphisms
        except AxiomViolation:
            failed += 1
            counts["envelope_failures"] += 1
    attempted += 1
    try:
        with span("decompose.decompose"):
            dec = decompose(rep, analysis=analysis)
    except ToolError:
        counts["decompose_failures"] += 1
        return attempted + 1, failed + 2, wrong
    counts["summands"] += len(dec.summands)
    if [tuple(v) for v in dec.dims_multiset(list(inst.object_ids))] != list(inst.expected_dims):
        failed, wrong = failed + 1, wrong + 1
    attempted += 1
    with span("decompose.verify"):
        if not verify_decomposition(rep, dec).ok:
            failed, wrong = failed + 1, wrong + 1
    return attempted, failed, wrong


def run_traced(workload, seed, seconds, instances, out_dir: Path):
    """Untraced and traced layer passes over the corpus for ``seconds``.

    The corpus is passed over at least once.  Operations are counted on the
    first pass only, so for a seed the counts do not depend on the time.
    """
    tracer = Tracer()
    counts = Counter()
    elapsed = Counter()  # seconds per step: untraced, traced, raw analyze
    raw = {"rounds": 0, "elements": 0, "max_size": 0}
    analyze_s = 0.0
    attempted = failed = wrong = 0
    first_ops = []  # per instance: (attempted, failed, wrong) on the first pass
    kernel_s = []
    done = 0
    start = time.perf_counter()
    while done < len(instances) or time.perf_counter() - start < seconds:
        inst = instances[done % len(instances)]
        kernel_s.append(reference.time_kernel())
        rep = parse_representation(inst.data)
        watch = Stopwatch()
        # the first step on an instance runs colder; alternating the order
        # keeps that out of the overhead and saturation differences
        order = ("raw", "untraced", "traced") if done % 2 == 0 else ("traced", "untraced", "raw")
        for step in order:
            t0 = time.perf_counter()
            if step == "raw":
                flag = analyze(rep, saturate=False).flag
            elif step == "untraced":
                layer_pass(inst, watch.span, Counter())
            else:
                tracer.instance = inst.name
                with tracer.installed():
                    a, f, w = layer_pass(inst, tracer.span, counts)
            elapsed[step] += time.perf_counter() - t0
        if done < len(instances):  # each instance is judged once, as in run.py
            attempted, failed, wrong = attempted + a, failed + f, wrong + w
            first_ops.append((a, f, w))
        elif (a, f, w) != first_ops[done % len(instances)]:
            wrong += 1
            print(f"outcome changed between passes: {inst.name}", file=sys.stderr)
        analyze_s += watch.seconds["pipeline.analyze"]
        raw["rounds"] += flag.rounds
        raw["elements"] += flag.total_elements
        raw["max_size"] = max(raw["max_size"], max(flag.sizes().values(), default=0))
        done += 1
    untraced_s, traced_s = elapsed["untraced"], elapsed["traced"]

    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.flush(out_dir / f"trace-{workload}-{seed}.jsonl")

    spans_s, spans_n = {}, {}
    for name, t_start, t_end, *_ in tracer.spans:
        spans_s[name] = spans_s.get(name, 0.0) + t_end - t_start
        spans_n[name] = spans_n.get(name, 0) + 1
    per = 1.0 / done
    metrics = {f"{name}_ms": spans_s.get(name, 0.0) * 1000.0 * per for name in TIMED_SPANS}
    metrics.update({
        "linalg.matmul_ms": tracer.linalg_seconds["matmul"] * 1000.0 * per,
        "linalg.matmul_calls": tracer.linalg_calls["matmul"] * per,
        "linalg.span_ms": tracer.linalg_seconds["span"] * 1000.0 * per,
        "linalg.span_calls": tracer.linalg_calls["span"] * per,
        "flag.rounds": raw["rounds"] * per,
        "flag.raw_elements": raw["elements"] * per,
        "poset.max_size": raw["max_size"],
        "criterion.pairs": counts["pairs"] * per,
        "pipeline.saturation_ms": (analyze_s - elapsed["raw"]) * 1000.0 * per,
        "pipeline.saturated_elements": counts["saturated_elements"] * per,
        "pipeline.closure_runs": spans_n.get("flag.closure", 0) * per,
        "pipeline.score_runs": spans_n.get("criterion.score", 0) * per,
        "pipeline.family_builds": spans_n.get("realize.families", 0) * per,
        "realize.verify_family_calls": spans_n.get("realize.verify_family", 0) * per,
        "realize.envelope_morphisms": counts["envelope_morphisms"] * per,
        "realize.envelope_failures": counts["envelope_failures"],
        "decompose.summands": counts["summands"] * per,
        "decompose.failures": counts["decompose_failures"],
        "trace.instances": done,
        "trace.overhead_ms": (traced_s - untraced_s) * 1000.0 * per,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    })
    self_s = tracer.self_seconds()
    for layer, secs in self_s.items():
        metrics[f"{layer}.self_ms"] = secs * 1000.0 * per
    # times at reference speed, as in the end-to-end run (see reference.py)
    factor = reference.NOMINAL_MS / (statistics.median(kernel_s) * 1000.0)
    for name in metrics:
        if name.endswith("_ms"):
            metrics[name] *= factor

    total_self = sum(self_s.values())
    dominant = max(self_s, key=self_s.get)
    lines = [
        f"workload={workload} seed={seed} traced instances={done} "
        f"untraced_s={untraced_s:.3f} traced_s={traced_s:.3f} "
        f"overhead={metrics['trace.overhead_pct']:.1f}%",
        "self time by layer: " + " ".join(
            f"{layer}={100.0 * s / total_self:.1f}%" for layer, s in
            sorted(self_s.items(), key=lambda kv: -kv[1])
        ),
        f"dominant layer: {dominant}",
        f"ops: attempted={attempted} failed={failed} wrong={wrong}",
    ]
    return wrong == 0, attempted, failed, metrics, lines

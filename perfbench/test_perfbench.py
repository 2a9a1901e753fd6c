"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402

# sha256 over the input bytes (and decoy certificates) of seed 1.  A change
# here means the benchmark's inputs changed, and its history restarts.
GOLDEN = {
    ("interval_q", 12): "59ade3a7e2b273385965c5d6d6d7e65306f29ce82383165ad296c8c82497d045",
    ("conj_gf", 12): "7168629df6d67e848c963f44904e275e1f1700d85c401ef671adb39324148343",
    ("star_fail", 7): "c3fbffbf63525f703af558ebd648be87a5e2fb4197630c4c2bffbabd112993e2",
}
# a run small enough for a test: every size in each rotation at least once
# for the interval corpora, the two smallest stars
SMOKE_SIZES = {"interval_q": 6, "conj_gf": 6, "star_fail": 2}


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload,size", sorted(GOLDEN))
def test_seed_regenerates_byte_identical_inputs(workload, size):
    first = corpus.make_corpus(workload, 1, size)
    again = corpus.make_corpus(workload, 1, size)
    assert run.corpus_digest(first) == run.corpus_digest(again) == GOLDEN[(workload, size)]
    other = corpus.make_corpus(workload, 2, size)
    assert run.corpus_digest(other) != GOLDEN[(workload, size)]


def test_instance_shape_is_independent_of_the_seed():
    for index in range(12):
        a = json.loads(corpus.make_instance("interval_q", 1, index).data)
        b = json.loads(corpus.make_instance("interval_q", 2, index).data)
        assert a["objects"] == b["objects"]


def test_tail_level_keeps_ten_samples_beyond():
    assert run.tail_level(96) == 86 / 96
    assert run.tail_level(21) == 11 / 21


def test_quantile_is_a_smoothed_order_statistic():
    values = [float(v) for v in range(1, 42)]
    assert run.quantile(values, 0.5) == pytest.approx(21.0)
    assert 29.0 < run.quantile(values, run.tail_level(41)) < 33.0
    assert run.quantile([4.0] * 7, 0.9) == pytest.approx(4.0)


def _smoke(monkeypatch, capsys, workload, trace):
    monkeypatch.setitem(run.CORPUS_SIZES, workload, SMOKE_SIZES[workload])
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", [w["name"] for w in _benchmark_json()["workloads"]])
def test_smoke_run_passes_checks_and_prints_declared_metrics(monkeypatch, capsys, workload):
    bench = _benchmark_json()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, summary = _smoke(monkeypatch, capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        if workload != "conj_gf":  # conj_gf keeps its known decompose failures
            assert result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in bench[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        if trace:
            assert any(line.startswith("dominant layer: ") for line in summary)
        else:
            assert all(v["value"] > 0 for v in result["metrics"].values())
            assert any("mismatches=0" in line for line in summary)


@pytest.mark.parametrize("trace", [0, 1])
def test_operation_counts_do_not_depend_on_the_time(monkeypatch, capsys, trace):
    counts = []
    for seconds in ("0", "3"):
        monkeypatch.setitem(run.CORPUS_SIZES, "conj_gf", 12)
        # seed 1 has refused commands among its first 12 instances
        assert run.main(["--workload", "conj_gf", "--seed", "1", "--seconds", seconds,
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] is True
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interval_q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_stdout_digest_is_a_function_of_the_input():
    workdir = run.WORK / "test-digest"
    try:
        instances = run.set_up("conj_gf", 5, 3, workdir)
        main = sys.modules["invcat.cli"].main
        digests = [
            [hashlib.sha256(out).hexdigest() for *_, out in run.run_sequence(main, inst, workdir)]
            for inst in instances
            for _ in range(2)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert digests[0::2] == digests[1::2]

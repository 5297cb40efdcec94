"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The span arithmetic and the wrappers are tested directly; the smoke test
runs every workload at toy size through `run.py --smoke`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402


def span(i, name, parent, start, end, info=None, tid=1):
    return [i, name, tid, parent, start, end, info or {}]


def test_self_time_subtracts_union_of_children():
    spans = [
        span(0, "harness.run_experiment", None, 0.0, 10.0),
        # two overlapping children on different threads cover 1..6
        span(1, "decomp.weighted_hosvd", 0, 1.0, 4.0, tid=1),
        span(2, "decomp.weighted_hosvd", 0, 3.0, 6.0, tid=2),
        span(3, "kernels.gram_matrix", 0, 7.0, 8.0, {"kind": "wsek", "entries": 10}),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0)


def test_aggregate_counts_and_shares():
    spans = [
        span(0, "harness.run_experiment", None, 0.0, 10.0),
        span(1, "kernels.gram_matrix", 0, 0.0, 4.0, {"kind": "wsek", "entries": 6}),
        span(2, "svm.train", 0, 4.0, 6.0,
             {"kind": "wsek", "n": 3, "updates": 5, "fallback": 1}),
        span(3, "svm.train", 0, 6.0, 7.0, {"convergence_error": 1}),
    ]
    m = tracing.aggregate([spans, spans])
    assert m["kernels.gram.wsek.entries"] == (12, "count")
    assert m["kernels.gram.dusk.entries"] == (0, "count")
    assert m["svm.train.calls"] == (4, "count")
    assert m["svm.train.updates"] == (10, "count")
    assert m["svm.train.updates_max"] == (5, "count")
    assert m["svm.train.fallback_ratio"] == (1.0, "ratio")
    assert m["svm.train.convergence_errors"] == (2, "count")
    assert m["harness.self_s"][0] == pytest.approx(2 * 3.0)
    assert m["kernels.self_share"][0] == pytest.approx(0.4)


def test_wrappers_pass_results_through_and_count_failures():
    import numpy as np

    from stmkernels import harness
    from stmkernels.svm import ConvergenceError, TrainingSet

    saved = {attr: getattr(harness, attr) for _, owner, attr in tracing.TARGETS
             if owner is None}
    saved_generate = harness.synth.generate
    tracer = tracing.Tracer()
    try:
        tracer.install(harness)
        gram = np.array([[1.0, 0.2], [0.2, 1.0]])
        ts = TrainingSet([None, None], np.array([-1.0, 1.0]))
        model = harness.train(ts, gram, 1.0)
        reference = saved["train"](ts, gram, 1.0)
        assert np.array_equal(model.alphas, reference.alphas)
        assert model.bias == reference.bias
        with pytest.raises(ConvergenceError):
            harness.train(ts, np.array([[1.0, 0.9], [0.9, 1.0]]), 1.0, max_updates=0)
    finally:
        for attr, fn in saved.items():
            setattr(harness, attr, fn)
        harness.synth.generate = saved_generate
    first, second = tracer.spans
    assert first[tracing.INFO]["updates"] == model.updates
    assert second[tracing.INFO] == {"convergence_error": 1}
    assert second[tracing.END] >= second[tracing.START]


def test_smoke_mode_passes():
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == {"smoke": "pass", "errors": 0}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense_dir",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""

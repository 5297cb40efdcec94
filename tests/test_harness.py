"""Dataset I/O, stratified CV, grid selection, and report rendering."""

import json
import math

import numpy as np
import pytest

import stmkernels as sk
from stmkernels.harness import (
    CellResult,
    ExperimentConfig,
    MANIFEST_NAME,
    emit_report,
    load_dataset,
    load_report,
    render_csv,
    run_experiment,
    save_dataset,
    stratified_folds,
)
from stmkernels.kernels import KernelSpec, gram_matrix
from stmkernels.svm import TrainingSet, predict_from_gram, train
from stmkernels.synth import SynthConfig, generate


def tiny_synth(**kw):
    base = dict(scenario="leaf", mode_size=12, r_exact=2, r_approx=2,
                noise_variance=0.01, samples_per_class=6, seed=5)
    base.update(kw)
    return SynthConfig(**base)


def tiny_experiment(**kw):
    base = dict(
        synth=tiny_synth(),
        noise_grid=(0.01,),
        kernels=("subspace", "wsek"),
        rank_grid=(2,),
        c_grid=(0.5, 2.0, 8.0),
        g_grid=(0.5, 2.0, 8.0),
        repeats=2,
        folds=3,
        seed=5,
        measure_time=False,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _no_decomposition(*args, **kwargs):
    raise AssertionError("decomposed before the class counts were checked")


class TestDatasetIO:
    def test_roundtrip_bitwise(self, tmp_path):
        data = generate(tiny_synth(samples_per_class=3), dense=True)
        save_dataset(data, tmp_path)
        ts = load_dataset(tmp_path)
        assert len(ts.samples) == 6
        for orig, loaded in zip(data, ts.samples):
            assert np.array_equal(orig.tensor, loaded)
        assert np.array_equal(ts.labels, [s.label for s in data])

    def test_zero_label_maps_to_minus_one(self, tmp_path):
        data = generate(tiny_synth(samples_per_class=1), dense=True)
        save_dataset(data, tmp_path)
        manifest = tmp_path / MANIFEST_NAME
        text = manifest.read_text().replace("-1", "0")
        manifest.write_text(text)
        ts = load_dataset(tmp_path)
        assert list(ts.labels) == [-1.0, 1.0]

    def test_unknown_label_rejected(self, tmp_path):
        data = generate(tiny_synth(samples_per_class=1), dense=True)
        save_dataset(data, tmp_path)
        manifest = tmp_path / MANIFEST_NAME
        manifest.write_text("sample_0000.tnsr,2\n")
        with pytest.raises(ValueError, match="unknown label"):
            load_dataset(tmp_path)

    def test_truncated_tensor_names_file(self, tmp_path):
        data = generate(tiny_synth(samples_per_class=1), dense=True)
        save_dataset(data, tmp_path)
        victim = tmp_path / "sample_0001.tnsr"
        victim.write_bytes(victim.read_bytes()[:-16])
        with pytest.raises(ValueError) as err:
            load_dataset(tmp_path)
        assert "sample_0001.tnsr" in str(err.value)
        assert "bytes" in str(err.value)

    def test_mixed_shapes_rejected(self, tmp_path):
        data = generate(tiny_synth(samples_per_class=1), dense=True)
        save_dataset(data, tmp_path)
        sk.save_tensor(tmp_path / "sample_0001.tnsr", np.zeros((3, 3, 3)))
        with pytest.raises(ValueError, match="shape"):
            load_dataset(tmp_path)


class TestStratifiedFolds:
    def test_class_counts_within_one(self):
        rng = np.random.default_rng(0)
        labels = np.array([-1.0] * 13 + [1.0] * 17)
        folds = stratified_folds(labels, 4, rng)
        assert sorted(i for f in folds for i in f) == list(range(30))
        for cls, total in ((-1.0, 13), (1.0, 17)):
            per = [np.sum(labels[f] == cls) for f in folds]
            ideal = total / 4
            assert all(abs(p - ideal) < 1.0 for p in per)

    def test_seeded_reproducible(self):
        labels = np.array([-1.0, 1.0] * 10)
        a = stratified_folds(labels, 5, np.random.default_rng(9))
        b = stratified_folds(labels, 5, np.random.default_rng(9))
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)


class TestRunExperiment:
    def test_separable_sanity(self, tmp_path):
        # trivially separable two-cluster data: every kernel reaches 1.0
        rng = np.random.default_rng(2)
        center_a = 5.0 * rng.standard_normal((6, 6, 6))
        center_b = 5.0 * rng.standard_normal((6, 6, 6))
        samples = []
        for center, label in ((center_a, 1), (center_b, -1)):
            for _ in range(6):
                t = center + 0.01 * rng.standard_normal((6, 6, 6))
                samples.append(sk.LabeledSample(t, label))
        save_dataset(samples, tmp_path)
        cfg = tiny_experiment(
            synth=None,
            data_dir=str(tmp_path),
            kernels=("gaussian", "dusk", "subspace", "wsek"),
        )
        rep = run_experiment(cfg)
        assert len(rep.rows) == 4
        for row in rep.rows:
            assert row.mean_acc == 1.0

    def test_leaf_scenario_subspace_accuracy(self):
        cfg = tiny_experiment(
            synth=tiny_synth(mode_size=20, r_exact=3, r_approx=3,
                             samples_per_class=8),
            kernels=("subspace",),
            rank_grid=(3,),
            c_grid=(1.0, 4.0),
            g_grid=(0.5, 1.0, 2.0),
            repeats=2,
            folds=4,
        )
        rep = run_experiment(cfg)
        assert rep.rows[0].mean_acc >= 0.95

    def test_exhaustive_replay_of_grid_selection(self):
        # replay the whole search with plain loops (no harness caching)
        # and check the selected pair and accuracy agree
        cfg = tiny_experiment(repeats=1, kernels=("wsek",))
        rep = run_experiment(cfg)
        row = rep.rows[0]

        from stmkernels.harness import _fold_splits, _shared_tuckers
        data = generate(tiny_synth())
        labels = np.array([s.label for s in data], float)
        samples = _shared_tuckers([s.tensor for s in data], 2, None)
        pairs = _fold_splits(labels, cfg)[0]
        best = None
        for g in cfg.g_grid:
            k = gram_matrix(samples, KernelSpec("wsek", g=g))
            for c in cfg.c_grid:
                accs = []
                for tr, val in pairs:
                    model = train(TrainingSet([samples[i] for i in tr],
                                              labels[tr]), k[np.ix_(tr, tr)], c)
                    accs.append(np.mean(
                        predict_from_gram(model, k[np.ix_(tr, val)]) == labels[val]))
                cand = (float(np.mean(accs)), -c, -g)
                if best is None or cand > best:
                    best = cand
        assert row.mean_acc == best[0]
        assert row.C == -best[1]
        assert row.g == -best[2]

    def test_infeasible_rank_marks_cell_invalid(self):
        cfg = tiny_experiment(rank_grid=(2, 13))
        rep = run_experiment(cfg)
        bad = [r for r in rep.rows if r.rank == 13]
        good = [r for r in rep.rows if r.rank == 2]
        assert bad and all(math.isnan(r.mean_acc) for r in bad)
        assert good and all(not math.isnan(r.mean_acc) for r in good)

    def test_threads_match_serial(self):
        cfg1 = tiny_experiment(rank_grid=(1, 2), threads=1)
        cfg4 = tiny_experiment(rank_grid=(1, 2), threads=4)
        r1 = run_experiment(cfg1)
        r4 = run_experiment(cfg4)
        assert len(r1.rows) == len(r4.rows)
        for a, b in zip(r1.rows, r4.rows):
            assert (a.kernel, a.rank, a.noise) == (b.kernel, b.rank, b.noise)
            assert a.mean_acc == b.mean_acc
            assert a.C == b.C and a.g == b.g

    def test_one_gram_per_kernel_and_g_per_feasible_group(self, monkeypatch):
        # the harness builds each Gram through `harness.gram_matrix`, once
        # per (kernel, g) of every feasible (noise, rank) group
        from stmkernels import harness
        calls = []

        def counting_gram(samples, spec):
            calls.append(spec)
            return gram_matrix(samples, spec)

        monkeypatch.setattr(harness, "gram_matrix", counting_gram)
        cfg = tiny_experiment(noise_grid=(0.01, 0.1), rank_grid=(1, 2, 13))
        run_experiment(cfg)
        feasible_groups = 2 * 2  # rank 13 exceeds the mode size of 12
        assert len(calls) == feasible_groups * len(cfg.kernels) * len(cfg.g_grid)

    @pytest.mark.parametrize("per_class, folds", [(2, 3), (1, 2)])
    def test_fold_left_empty_rejected_before_decomposing(
            self, monkeypatch, per_class, folds):
        # each class deals round-robin from fold 0, so folds past the
        # largest class get no sample
        from stmkernels import harness
        monkeypatch.setattr(harness, "weighted_hosvd", _no_decomposition)
        cfg = tiny_experiment(synth=tiny_synth(samples_per_class=per_class),
                              folds=folds)
        with pytest.raises(ValueError, match=(
                rf"class counts \(-1: {per_class}, \+1: {per_class}\) "
                rf"leave a fold empty with folds = {folds}")):
            run_experiment(cfg)

    def test_training_fold_without_class_rejected(self, tmp_path, monkeypatch):
        # the lone -1 sample's fold trains on +1 samples only
        rng = np.random.default_rng(3)
        save_dataset([sk.LabeledSample(rng.standard_normal((4, 4, 4)), label)
                      for label in (-1, 1, 1, 1, 1)], tmp_path)
        from stmkernels import harness
        monkeypatch.setattr(harness, "weighted_hosvd", _no_decomposition)
        cfg = tiny_experiment(synth=None, data_dir=str(tmp_path), folds=2)
        with pytest.raises(ValueError, match=(
                r"class counts \(-1: 1, \+1: 4\) leave a training fold "
                r"without one class with folds = 2")):
            run_experiment(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig()
        with pytest.raises(ValueError, match="folds"):
            tiny_experiment(folds=1)
        with pytest.raises(ValueError, match="nonempty"):
            tiny_experiment(kernels=())
        with pytest.raises(ValueError, match="unknown kernel"):
            tiny_experiment(kernels=("linear",))


class TestReports:
    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        render_csv([], path)
        assert path.read_text() == (
            "kernel,rank,noise,mean_acc,std,ci95,C,g,kernel_seconds,train_seconds\n")

    def test_rows_sorted_regardless_of_order(self, tmp_path):
        rows = [
            CellResult("wsek", 2, 0.1, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0),
            CellResult("dusk", 1, 0.1, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0),
            CellResult("dusk", 1, 0.01, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0),
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        render_csv(rows, a)
        render_csv(rows[::-1], b)
        assert a.read_text() == b.read_text()
        lines = a.read_text().strip().splitlines()[1:]
        assert lines[0].startswith("dusk,1,0.01")
        assert lines[-1].startswith("wsek,2,0.1")

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_experiment()
        emit_report(run_experiment(cfg), tmp_path / "r1")
        emit_report(run_experiment(cfg), tmp_path / "r2")
        assert (tmp_path / "r1/report.csv").read_bytes() == \
            (tmp_path / "r2/report.csv").read_bytes()
        assert (tmp_path / "r1/summary.json").read_bytes() == \
            (tmp_path / "r2/summary.json").read_bytes()

    def test_summary_roundtrip_rerenders_csv(self, tmp_path):
        rep = run_experiment(tiny_experiment())
        csv_path, json_path = emit_report(rep, tmp_path)
        loaded = load_report(json_path)
        out = tmp_path / "again.csv"
        render_csv(loaded.rows, out)
        assert out.read_bytes() == open(csv_path, "rb").read()

    def test_summary_contains_config(self, tmp_path):
        rep = run_experiment(tiny_experiment())
        _, json_path = emit_report(rep, tmp_path)
        payload = json.loads(open(json_path).read())
        assert payload["config"]["folds"] == 3
        assert payload["config"]["synth"]["scenario"] == "leaf"

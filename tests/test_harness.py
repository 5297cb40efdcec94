"""Dataset I/O, stratified CV, grid selection, and report rendering."""

import ctypes
import json
import math
import warnings
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import stmkernels as sk
from stmkernels.harness import (
    CellResult,
    DEFAULT_NOISE_GRID,
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
from stmkernels.svm import ConvergenceError, TrainingSet, predict_from_gram, train
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
    if kw.get("data_dir") is not None:
        del base["noise_grid"]  # a data directory has no noise grid
    base.update(kw)
    return ExperimentConfig(**base)


def _spoil(path, t, fault):
    """Rewrite the container at `path`, which holds `t`, with `fault`."""
    if fault == "truncated":
        path.write_bytes(path.read_bytes()[:-16])
    elif fault == "shape":
        sk.save_tensor(path, np.zeros((12, 12, 11)))
    else:
        t = t.copy()
        t[1, 0, 2] = float(fault)
        sk.save_tensor(path, t)


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

    def test_loaded_samples_share_no_memory(self, tmp_path):
        # a run reads every container into one buffer; load_dataset
        # gives each sample an array of its own
        save_dataset(generate(tiny_synth(samples_per_class=3), dense=True),
                     tmp_path)
        samples = load_dataset(tmp_path).samples
        assert len(samples) == 6
        for i, a in enumerate(samples):
            assert a.flags.f_contiguous and a.flags.writeable
            for b in samples[:i]:
                assert not np.shares_memory(a, b)

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

    @pytest.mark.parametrize("label", [0.5, 2, float("nan")])
    def test_bad_label_refused_before_any_file(self, tmp_path, label):
        # 0.5 would be written as 0 and read back as -1, 2 refused only
        # at load, and NaN refused after every container was written
        data = generate(tiny_synth(samples_per_class=1), dense=True)
        data[1] = sk.LabeledSample(data[1].tensor, label)
        with pytest.raises(ValueError) as err:
            save_dataset(data, tmp_path)
        assert str(err.value) == f"sample 1: label {label!r} is not -1, 0 or +1"
        assert list(tmp_path.iterdir()) == []

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError) as err:
            load_dataset(tmp_path)
        assert str(err.value) == f"{tmp_path}: no {MANIFEST_NAME} found"

    @pytest.mark.parametrize("text, message", [
        ("sample_0000.tnsr,-1\nsample_0001.tnsr\n",
         "{manifest}:2: expected '<path>,<label>'"),
        ("sample_0000.tnsr,-1\n ,1\n",
         "{manifest}:2: expected '<path>,<label>'"),
        ("", "{manifest}: empty manifest"),
        ("# no samples\n\n", "{manifest}: empty manifest"),
    ])
    def test_malformed_manifest_rejected(self, tmp_path, text, message):
        save_dataset(generate(tiny_synth(samples_per_class=1)), tmp_path)
        manifest = tmp_path / MANIFEST_NAME
        manifest.write_text(text)
        with pytest.raises(ValueError) as err:
            load_dataset(tmp_path)
        assert str(err.value) == message.format(manifest=manifest)

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        data = generate(tiny_synth(samples_per_class=1), dense=True)
        save_dataset(data, tmp_path)
        manifest = tmp_path / MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        manifest.write_text(f"# two samples\n\n{lines[0]}\n   \n"
                            f"# the +1 sample\n{lines[1]}\n")
        ts = load_dataset(tmp_path)
        assert list(ts.labels) == [-1.0, 1.0]
        for orig, loaded in zip(data, ts.samples):
            assert np.array_equal(orig.tensor, loaded)

    def test_truncated_tensor_names_file(self, tmp_path):
        data = generate(tiny_synth(samples_per_class=1), dense=True)
        save_dataset(data, tmp_path)
        victim = tmp_path / "sample_0001.tnsr"
        victim.write_bytes(victim.read_bytes()[:-16])
        with pytest.raises(ValueError) as err:
            load_dataset(tmp_path)
        assert "sample_0001.tnsr" in str(err.value)
        assert "bytes" in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_names_file(self, tmp_path, bad):
        data = generate(tiny_synth(samples_per_class=1), dense=True)
        data[1].tensor[0, 1, 0] = bad
        save_dataset(data, tmp_path)
        with pytest.raises(ValueError, match="NaN or inf") as err:
            load_dataset(tmp_path)
        assert "sample_0001.tnsr" in str(err.value)

    def test_mixed_shapes_rejected(self, tmp_path):
        data = generate(tiny_synth(samples_per_class=1), dense=True)
        save_dataset(data, tmp_path)
        sk.save_tensor(tmp_path / "sample_0001.tnsr", np.zeros((3, 3, 3)))
        with pytest.raises(ValueError, match="shape"):
            load_dataset(tmp_path)


    def test_tucker_sample_written_from_one_dense_copy(self, tmp_path):
        # a Tucker sample is built F-ordered, so the container is written
        # from its own memory: one dense tensor, the same bytes as the
        # plain contraction's column-major values
        import struct
        import tracemalloc

        from stmkernels.tensor import mode_product
        sample = generate(tiny_synth(mode_size=64, r_approx=3,
                                     samples_per_class=1))[0]
        tt = sample.tensor
        dense = tt.core
        for m, f in enumerate(tt.factors):
            dense = mode_product(dense, f, m + 1)
        save_dataset([sample], tmp_path / "warm")  # first-call allocations
        tracemalloc.start()
        try:
            save_dataset([sample], tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * dense.nbytes
        header = b"TNSR" + struct.pack("<I3Q", 3, 64, 64, 64)
        values = np.ascontiguousarray(dense.ravel(order="F"), dtype="<f8")
        written = (tmp_path / "out" / "sample_0000.tnsr").read_bytes()
        assert written == header + values.tobytes()

    @pytest.mark.parametrize("mode", [50, 74])
    def test_round_trip_decomposes_to_the_same_bits(self, tmp_path, mode):
        # a generated sample's container, read back, decomposes to the
        # same bits as the sample's F-ordered dense build; at mode 74,
        # with numpy's OpenBLAS, a reconstruction in C order differs from
        # the F-ordered one in the last bit of a few entries, so both
        # paths must read F. In memory the sample is decomposed from its
        # core, which agrees with both to rounding
        from stmkernels import decomp
        from stmkernels.harness import _decompose_by_rank, _open_dataset
        data = generate(tiny_synth(mode_size=mode, r_approx=3,
                                   samples_per_class=2, seed=74))
        save_dataset(data, tmp_path)
        grid = [(2, 2, 2), (3, 3, 3)]
        with decomp._blas_threads(1):
            dense = [decomp.weighted_hosvd(decomp.tucker_reconstruct(
                s.tensor), grid) for s in data]
            in_memory = _decompose_by_rank(
                [s.tensor for s in data], (2, 3), None, 0.01)
            # a run's readers: the one buffer and the in-place dgelqf
            read_back = _decompose_by_rank(
                _open_dataset(tmp_path)[1], (2, 3), None, 0.01)
        assert list(in_memory) == list(read_back) == [2, 3]
        for rank in (2, 3):
            for a, b, tk in zip(in_memory[rank], read_back[rank], dense,
                                strict=True):
                _assert_same_bits(b, tk[rank - 2])
                _assert_close(a, tk[rank - 2])


def _assert_same_bits(a, b):
    assert a.p == b.p and np.array_equal(a.core, b.core)
    for x, y in zip(a.factors + a.sigmas, b.factors + b.sigmas, strict=True):
        assert np.array_equal(x, y)


def _assert_close(a, b, rtol=1e-12):
    """Core, factors and sigmas of `a` within `rtol` of `b`'s, relative
    to each array's largest magnitude in `b`."""
    assert a.p == b.p
    for x, y in zip([a.core] + a.factors + a.sigmas,
                    [b.core] + b.factors + b.sigmas, strict=True):
        assert x.shape == y.shape
        assert np.max(np.abs(x - y)) <= rtol * np.max(np.abs(y))


class TestCoreRoute:
    """A Tucker sample is decomposed from its core at every rank, a rank
    above the core at the core's size; a container is decomposed
    dense."""

    @staticmethod
    def _dense(tuckers, ranks, p=None):
        from stmkernels import decomp
        grid = [(r,) * 3 for r in ranks]
        with decomp._blas_threads(1):
            return [decomp.weighted_hosvd(decomp.tucker_reconstruct(t), grid, p)
                    for t in tuckers]

    @pytest.mark.parametrize("mode", [50, 74])
    @pytest.mark.parametrize("scenario", ["leaf", "core"])
    def test_generated_samples_agree_with_the_dense_path(self, mode,
                                                         scenario):
        from stmkernels import decomp
        from stmkernels.harness import _decompose_by_rank
        for theta2 in (0.01, 0.1, 1.0):
            samples = [s.tensor for s in generate(tiny_synth(
                scenario=scenario, mode_size=mode, r_exact=3, r_approx=3,
                noise_variance=theta2, samples_per_class=1))]
            with decomp._blas_threads(1):
                got = _decompose_by_rank(samples, (1, 2, 3), None, theta2)
            for k, tk in enumerate(self._dense(samples, (1, 2, 3))):
                for rank in (1, 2, 3):
                    _assert_close(got[rank][k], tk[rank - 1])

    @pytest.mark.parametrize("p", [None, 0.0, 0.5])
    def test_random_tucker_tensors_agree_with_the_dense_path(self, p):
        # factors that are neither orthonormal nor of one width, and
        # cores that are not cubic
        from stmkernels import decomp
        from stmkernels.harness import _decompose_by_rank
        rng = np.random.default_rng(18)
        for core_shape in ((3, 3, 3), (3, 4, 5), (6, 3, 4)):
            samples = [sk.TuckerTensor(
                core=rng.standard_normal(core_shape),
                factors=[rng.standard_normal((n, r)) * rng.uniform(0.1, 10, r)
                         for n, r in zip((20, 9, 14), core_shape)])
                for _ in range(3)]
            with decomp._blas_threads(1):
                got = _decompose_by_rank(samples, (1, 2, 3), p, 0.0)
            for k, tk in enumerate(self._dense(samples, (1, 2, 3), p)):
                for rank in (1, 2, 3):
                    _assert_close(got[rank][k], tk[rank - 1])

    def test_rank_above_the_core_decomposes_at_the_core_size(self):
        # the grid's other ranks change no bit of a rank's decomposition
        from stmkernels import decomp
        from stmkernels.harness import _decompose_by_rank
        samples = [s.tensor for s in generate(tiny_synth(
            mode_size=20, r_exact=3, r_approx=3, noise_variance=0.1,
            samples_per_class=2))]
        with decomp._blas_threads(1):
            got = _decompose_by_rank(samples, (2, 4), None, 0.1)
            within = _decompose_by_rank(samples, (2, 3), None, 0.1)
        assert list(got) == [2, 4]
        for k, tk in enumerate(self._dense(samples, (3,))):
            assert got[4][k].core.shape == (3, 3, 3)
            _assert_same_bits(got[2][k], within[2][k])
            _assert_same_bits(got[4][k], within[3][k])
            _assert_close(got[4][k], tk[0])

    def test_ranks_capped_alike_share_one_decomposition(self, monkeypatch):
        # ranks 2, 3 and 4 on r_approx 2 all cap to (2, 2, 2): the batch
        # runs one ST-HOSVD pass for them, and they get the same objects,
        # bit for bit rank 2's decompositions in a grid of its own
        from stmkernels import decomp, harness
        from stmkernels.harness import _decompose_by_rank
        grids = []
        real = harness.weighted_hosvd

        def recording(t, grid, p, **kwargs):
            grids.append(list(grid))
            return real(t, grid, p, **kwargs)

        monkeypatch.setattr(harness, "weighted_hosvd", recording)
        samples = [s.tensor for s in generate(tiny_synth(mode_size=10))]
        with decomp._blas_threads(1):
            got = _decompose_by_rank(samples, (1, 2, 3, 4), None, 0.01)
            alone = _decompose_by_rank(samples, (2,), None, 0.01)
        assert grids[0] == [(1, 1, 1), (2, 2, 2)]
        assert list(got) == [1, 2, 3, 4]
        for k in range(len(samples)):
            assert got[2][k] is got[3][k] is got[4][k]
            assert got[1][k] is not got[2][k]
            _assert_same_bits(got[2][k], alone[2][k])

    @pytest.mark.parametrize("low", [1, 2])
    def test_one_core_sized_build_per_sample(self, monkeypatch, low):
        # with ranks below, at and above a core's sizes each sample is
        # built once, at its core's size
        from stmkernels import harness
        from stmkernels.harness import _decompose_by_rank
        rng = np.random.default_rng(19)
        samples = [sk.TuckerTensor(
            core=rng.standard_normal((3, 4, 5)),
            factors=[rng.standard_normal((n, r))
                     for n, r in zip((20, 9, 14), (3, 4, 5))])
            for _ in range(5)]
        built = []
        real = harness.tucker_reconstruct

        def recording(t):
            out = real(t)
            built.append((id(t.core), out.shape))
            return out

        monkeypatch.setattr(harness, "tucker_reconstruct", recording)
        _decompose_by_rank(samples, (low, 3), None, 0.0)
        assert sorted(built) == sorted((id(s.core), (3, 4, 5))
                                       for s in samples)


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

    @pytest.mark.parametrize("labels, bad", [
        ([0, 1, 1, 0, 0, 1], r"\[0\]"),
        ([-1.0, 1.0, 2.0, -1.0], r"\[2.0\]"),
        ([-1.0, 1.0, math.nan, 1.0], r"\[nan\]"),
    ])
    def test_labels_other_than_plus_minus_one_rejected(self, labels, bad):
        # 0/1 labels used to drop every 0-labelled sample from all folds
        with pytest.raises(ValueError, match=rf"^labels must be -1 or \+1, "
                                             rf"found {bad}$"):
            stratified_folds(labels, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("n_folds", [0, -1])
    def test_fewer_than_one_fold_rejected(self, n_folds):
        # 0 used to divide by zero and -1 to index past the fold list
        with pytest.raises(ValueError, match=rf"^n_folds must be at least 1, "
                                             rf"got {n_folds}$"):
            stratified_folds([-1.0, 1.0, 1.0, -1.0], n_folds,
                             np.random.default_rng(0))


def _cv_problem():
    """A hand-made PSD Gram stack (3 g) over 12 samples, its labels and
    the splits of 2 repeats of 3 folds."""
    rng = np.random.default_rng(31)
    labels = np.array([-1.0, 1.0] * 6)
    points = rng.standard_normal((12, 4)) + 0.8 * labels[:, None]
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    stack = np.exp(-d2[None] / np.array([0.5, 2.0, 8.0])[:, None, None])
    everyone = np.arange(12)
    splits = []
    for rep in range(2):
        folds = stratified_folds(labels, 3, np.random.default_rng(rep))
        splits.append([(np.setdiff1d(everyone, f), f) for f in folds])
    return stack, labels, splits, (0.25, 1.0, 4.0)


class TestCrossValidate:
    def test_equals_brute_force_replay(self):
        from stmkernels.harness import _cross_validate
        stack, labels, splits, c_grid = _cv_problem()
        acc = _cross_validate(stack, labels, splits, c_grid, 1e-3)
        assert acc.shape == (2, 3, 3)
        for rep, pairs in enumerate(splits):
            for i, c in enumerate(c_grid):
                for j, k in enumerate(stack):
                    accs = []
                    for tr, val in pairs:
                        model = train(TrainingSet(tr, labels[tr]),
                                      k[np.ix_(tr, tr)], c)
                        accs.append(np.mean(predict_from_gram(
                            model, k[np.ix_(tr, val)]) == labels[val]))
                    assert acc[rep, i, j] == np.mean(accs)
        assert len(np.unique(acc)) > 1

    def test_failed_pair_is_nan_and_trains_no_later_fold(self, monkeypatch):
        from stmkernels import harness
        stack, labels, splits, c_grid = _cv_problem()
        clean = harness._cross_validate(stack, labels, splits, c_grid, 1e-3)
        real_train = harness.train
        fail_c, fail_fold = c_grid[1], tuple(splits[0][1][0])
        calls = []

        def recording_train(ts, gram, C, **kwargs):
            # the g of a call is the layer its training block was cut from
            tr = ts.samples
            j = next(j for j, k in enumerate(stack)
                     if np.array_equal(gram, k[np.ix_(tr, tr)]))
            calls.append((tuple(tr), j, C))
            if (tuple(tr), C) == (fail_fold, fail_c):
                raise ConvergenceError("forced")
            return real_train(ts, gram, C, **kwargs)

        monkeypatch.setattr(harness, "train", recording_train)
        acc = harness._cross_validate(stack, labels, splits, c_grid, 1e-3)
        failed = np.zeros(acc.shape, dtype=bool)
        failed[0, 1, :] = True
        assert np.isnan(acc[failed]).all()
        assert np.array_equal(acc[~failed], clean[~failed])

        # every (repeat, g, C) trains its folds in order up to and
        # including the first that fails, as a fold-by-fold search would
        expected = Counter()
        for pairs in splits:
            for j in range(len(stack)):
                for c in c_grid:
                    for tr, _ in pairs:
                        expected[tuple(tr), j, c] += 1
                        if (tuple(tr), c) == (fail_fold, fail_c):
                            break
        assert Counter(calls) == expected
        assert sum(expected.values()) == 2 * 3 * 3 * 3 - 3

        # C ascends within every (repeat, g, fold)
        by_problem = {}
        for tr, j, c in calls:
            by_problem.setdefault((tr, j), []).append(c)
        assert len(by_problem) == 2 * 3 * 3
        for cs in by_problem.values():
            assert cs == sorted(set(cs))

    def test_fold_settled_below_c_is_not_retrained(self, monkeypatch):
        # on this stack every (repeat, fold, g) model at C = 4 leaves every
        # alpha below C, so C = 16 and 64 reuse it instead of training
        from stmkernels import harness
        stack, labels, splits, _ = _cv_problem()
        c_grid = (0.25, 1.0, 4.0, 16.0, 64.0)
        real_train = harness.train
        calls = []

        def counting_train(ts, gram, C, **kwargs):
            calls.append(C)
            return real_train(ts, gram, C, **kwargs)

        monkeypatch.setattr(harness, "train", counting_train)
        acc = harness._cross_validate(stack, labels, splits, c_grid, 1e-3)
        # one call per (repeat, fold, g) at each C up to 4, none above
        assert Counter(calls) == {c: 2 * 3 * 3 for c in c_grid[:3]}
        assert np.array_equal(acc, _retrained_acc(stack, labels, splits, c_grid))

    def test_settled_fold_survives_a_later_fold_failing_at_its_c(
            self, monkeypatch):
        # folds 0 and 1 of repeat 0 settle at C = 4; fold 2 fails there,
        # which makes C = 4 NaN for every fold, yet at C = 16 and 64 the
        # settled folds still count with the accuracy they had at C = 4
        from stmkernels import harness
        stack, labels, splits, _ = _cv_problem()
        c_grid = (0.25, 1.0, 4.0, 16.0, 64.0)
        fail = (tuple(splits[0][2][0]), 4.0)
        real_train = harness.train

        def failing_train(ts, gram, C, **kwargs):
            if (tuple(ts.samples), C) == fail:
                raise ConvergenceError("forced")
            return real_train(ts, gram, C, **kwargs)

        monkeypatch.setattr(harness, "train", failing_train)
        acc = harness._cross_validate(stack, labels, splits, c_grid, 1e-3)
        expected = _retrained_acc(stack, labels, splits, c_grid, fail)
        assert np.array_equal(acc, expected, equal_nan=True)
        assert np.isnan(acc[0, 2]).all()
        assert not np.isnan(acc[0, 3:]).any() and not np.isnan(acc[1]).any()

    def test_earlier_fold_failing_above_where_later_folds_settle(
            self, monkeypatch):
        # fold 0 of repeat 0 is kept from settling below C = 16 and fails
        # there, while every other fold settled at C = 4 and copied its
        # accuracy up the C grid: repeat 0 is NaN at C = 16 for every g,
        # and only fold 0 trains above C = 4
        from stmkernels import harness
        stack, labels, splits, _ = _cv_problem()
        c_grid = (0.25, 1.0, 4.0, 16.0, 64.0)
        first = tuple(splits[0][0][0])
        assert all(tuple(tr) != first for tr, _ in splits[1])
        real_train = harness.train
        calls = []

        def train_fold_0_unsettled(ts, gram, C, **kwargs):
            tr = tuple(ts.samples)
            calls.append((tr, C))
            if (tr, C) == (first, 16.0):
                raise ConvergenceError("forced")
            model = real_train(ts, gram, C, **kwargs)
            if tr == first and C < 16.0:
                model.reached_c = True
            return model

        monkeypatch.setattr(harness, "train", train_fold_0_unsettled)
        acc = harness._cross_validate(stack, labels, splits, c_grid, 1e-3)
        expected = _retrained_acc(stack, labels, splits, c_grid,
                                  (first, 16.0))
        assert np.array_equal(acc, expected, equal_nan=True)
        assert np.isnan(acc[0, 3]).all()
        assert np.isnan(acc).sum() == 3
        assert Counter(c for _, c in calls) == {0.25: 18, 1.0: 18, 4.0: 18,
                                                16.0: 3, 64.0: 3}
        assert all(tr == first for tr, c in calls if c > 4.0)


def _retrained_acc(stack, labels, splits, c_grid, fail=None):
    """acc[repeat, i, j] with every fold trained afresh at every (C, g);
    NaN where a fold's (training indices, C) equals `fail`."""
    acc = np.empty((len(splits), len(c_grid), len(stack)))
    for rep, pairs in enumerate(splits):
        for i, c in enumerate(c_grid):
            for j, k in enumerate(stack):
                accs = []
                for tr, val in pairs:
                    if (tuple(tr), c) == fail:
                        accs.append(math.nan)
                        continue
                    model = train(TrainingSet(tr, labels[tr]),
                                  k[np.ix_(tr, tr)], c, tol=1e-3)
                    accs.append(np.mean(predict_from_gram(
                        model, k[np.ix_(tr, val)]) == labels[val]))
                acc[rep, i, j] = np.mean(accs)
    return acc


class TestDuskInputs:
    def test_dusk_cell_holds_one_expansion_at_a_time(self, monkeypatch):
        # each CP expansion is made as the Gram reads it and freed once its
        # view exists: when the rows start, at most one is alive
        from stmkernels import harness, kernels
        made = []  # a weakref to every expansion harness.tucker_to_cp made
        alive_at_rows = []
        real_cp = harness.tucker_to_cp
        required, view, row, unit_diagonal = kernels._EVALUATORS["dusk"]

        def recording_cp(t):
            cp = real_cp(t)
            made.append(weakref.ref(cp))
            return cp

        def counting_row(xv, yvs, g):
            if len(alive_at_rows) < len(made) // n:  # a cell's first row
                alive_at_rows.append(sum(r() is not None for r in made))
            return row(xv, yvs, g)

        monkeypatch.setattr(harness, "tucker_to_cp", recording_cp)
        monkeypatch.setitem(kernels._EVALUATORS, "dusk",
                            (required, view, counting_row, unit_diagonal))
        cfg = tiny_experiment(kernels=("dusk",), noise_grid=(0.01, 0.1))
        n = 2 * cfg.synth.samples_per_class
        run_experiment(cfg)
        cells = len(cfg.noise_grid) * len(cfg.rank_grid)
        assert len(made) == cells * n  # once per sample per dusk cell
        assert len(alive_at_rows) == cells
        assert max(alive_at_rows) <= 1

    def test_dusk_inputs_equal_the_expansions(self):
        from stmkernels.harness import derive_kernel_inputs
        rng = np.random.default_rng(35)
        tuckers = [sk.weighted_hosvd(rng.standard_normal((6, 5, 4)),
                                     (2, 2, 2), p=0.5) for _ in range(3)]
        expected = [sk.tucker_to_cp(sk.reweight(t, 0.0)) for t in tuckers]
        inputs = derive_kernel_inputs(tuckers, "dusk")
        assert len(inputs) == len(tuckers)
        got = list(inputs)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert [f.tobytes() for f in a.factors] == \
                [f.tobytes() for f in b.factors]
        assert derive_kernel_inputs(tuckers, "wsek") is tuckers


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
        # replay the whole search with plain loops (no harness caching):
        # each repeat picks its best (accuracy, -C, -g); the row holds the
        # mean and spread of the picked accuracies and the most frequent
        # pair, ties to the smaller C, then the smaller g. At this noise
        # the three repeats pick three different pairs.
        synth_cfg = tiny_synth(noise_variance=0.5, seed=9)
        cfg = tiny_experiment(synth=synth_cfg, noise_grid=(0.5,), repeats=3,
                              kernels=("wsek",), seed=9)
        rep = run_experiment(cfg)
        row = rep.rows[0]

        from stmkernels.harness import _decompose_by_rank, _fold_splits
        data = generate(synth_cfg)
        labels = np.array([s.label for s in data], float)
        samples = _decompose_by_rank([s.tensor for s in data], (2,), None, 0.5)[2]
        grams = {g: gram_matrix(samples, KernelSpec("wsek", g=g))
                 for g in cfg.g_grid}
        picks = []
        for pairs in _fold_splits(labels, cfg):
            best = None
            for g in cfg.g_grid:
                k = grams[g]
                for c in cfg.c_grid:
                    accs = []
                    for tr, val in pairs:
                        model = train(TrainingSet([samples[i] for i in tr],
                                                  labels[tr]), k[np.ix_(tr, tr)], c)
                        accs.append(np.mean(predict_from_gram(
                            model, k[np.ix_(tr, val)]) == labels[val]))
                    cand = (float(np.mean(accs)), -c, -g)
                    if best is None or cand > best:
                        best = cand
            picks.append(best)
        accs = [acc for acc, _, _ in picks]
        assert row.mean_acc == np.mean(accs)
        assert row.std == np.std(accs, ddof=1)
        assert row.ci95 == 1.96 * row.std / math.sqrt(3)
        counts = {}
        for _, c, g in picks:
            counts[(-c, -g)] = counts.get((-c, -g), 0) + 1
        assert len(counts) == 3
        top = max(counts.values())
        assert (row.C, row.g) == min(p for p, n in counts.items() if n == top)

    def test_nonconverging_c_is_never_chosen(self, monkeypatch):
        # a (C, g) whose training fails on any fold leaves the search as if
        # C were not on the grid
        from stmkernels import harness
        cfg = tiny_experiment(kernels=("wsek",))
        chosen = run_experiment(cfg).rows[0].C
        real_train = harness.train

        def failing_train(ts, gram, C, **kwargs):
            if C == chosen:
                raise ConvergenceError("forced")
            return real_train(ts, gram, C, **kwargs)

        monkeypatch.setattr(harness, "train", failing_train)
        row = run_experiment(cfg).rows[0]
        monkeypatch.setattr(harness, "train", real_train)
        rest = tuple(c for c in cfg.c_grid if c != chosen)
        assert row == run_experiment(replace(cfg, c_grid=rest)).rows[0]
        assert row.C != chosen

    def test_c_failing_on_one_fold_is_never_chosen(self, monkeypatch):
        # training fails at the smallest C only on each repeat's last fold,
        # found by its training indices; the folds that succeeded at that C
        # count for nothing, so the row is the one without that C
        from stmkernels import harness
        cfg = tiny_experiment(kernels=("wsek",))
        smallest = cfg.c_grid[0]
        assert run_experiment(cfg).rows[0].C == smallest
        labels = harness._load_source(cfg)[0]
        last = {tuple(pairs[-1][0]) for pairs in harness._fold_splits(labels, cfg)}
        real_train = harness.train
        failed = []

        def failing_train(ts, gram, C, **kwargs):
            if C == smallest and tuple(ts.samples) in last:
                failed.append(tuple(ts.samples))
                raise ConvergenceError("forced")
            return real_train(ts, gram, C, **kwargs)

        monkeypatch.setattr(harness, "train", failing_train)
        row = run_experiment(cfg).rows[0]
        monkeypatch.setattr(harness, "train", real_train)
        assert set(failed) == last
        rest = run_experiment(replace(cfg, c_grid=cfg.c_grid[1:])).rows[0]
        assert row == rest
        assert row.C != smallest

    def test_training_that_never_converges_gives_nan_rows(self, monkeypatch):
        from stmkernels import harness

        def failing_train(*args, **kwargs):
            raise ConvergenceError("forced")

        monkeypatch.setattr(harness, "train", failing_train)
        rows = run_experiment(tiny_experiment()).rows
        assert [r.kernel for r in rows] == ["subspace", "wsek"]
        for r in rows:
            for stat in (r.mean_acc, r.std, r.ci95, r.C, r.g):
                assert math.isnan(stat)
            assert r.kernel_seconds == 0.0 and r.train_seconds == 0.0

    def test_infeasible_rank_marks_cell_invalid(self):
        cfg = tiny_experiment(rank_grid=(2, 13))
        rep = run_experiment(cfg)
        bad = [r for r in rep.rows if r.rank == 13]
        good = [r for r in rep.rows if r.rank == 2]
        assert bad and all(math.isnan(r.mean_acc) for r in bad)
        assert good and all(not math.isnan(r.mean_acc) for r in good)

    def test_every_rank_infeasible_decomposes_nothing(self, monkeypatch):
        from stmkernels import harness
        monkeypatch.setattr(harness, "weighted_hosvd", _no_decomposition)
        rows = run_experiment(tiny_experiment(rank_grid=(13, 20))).rows
        assert [(r.kernel, r.rank) for r in rows] == [
            (k, r) for k in ("subspace", "wsek") for r in (13, 20)]
        assert all(math.isnan(r.mean_acc) and math.isnan(r.C) for r in rows)

    def test_rank_grid_rows_equal_separate_runs(self):
        # decomposing all ranks together changes no bit of any row
        together = run_experiment(tiny_experiment(rank_grid=(1, 2, 13))).rows
        apart = (run_experiment(tiny_experiment(rank_grid=(1,))).rows
                 + run_experiment(tiny_experiment(rank_grid=(2,))).rows)
        feasible = [r for r in together if r.rank != 13]
        assert sorted(feasible, key=lambda r: (r.kernel, r.rank)) == \
            sorted(apart, key=lambda r: (r.kernel, r.rank))
        bad = [r for r in together if r.rank == 13]
        assert len(bad) == 2 and all(math.isnan(r.mean_acc) for r in bad)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rank_rows_independent_of_a_rank_above_the_core(self, threads):
        # a rank's rows are the same with or without the next rank in the
        # grid, and a rank above the samples' core (r_approx 2) reads as
        # the core's size. The g = 2**-4 `wsek` Grams are near the
        # identity, so their selection moves with the factors' rounding
        cfg = tiny_experiment(synth=tiny_synth(scenario="core", mode_size=10),
                              noise_grid=(0.2, 1.0),
                              kernels=("subspace", "wsek", "dusk"),
                              g_grid=(2.0 ** -4, 0.5, 2.0, 8.0),
                              threads=threads)
        for r in (1, 2):
            alone = run_experiment(replace(cfg, rank_grid=(r,))).rows
            both = run_experiment(replace(cfg, rank_grid=(r, r + 1))).rows
            assert [row for row in both if row.rank == r] == alone
            if r == 2:
                above = [row for row in both if row.rank == r + 1]
                assert [replace(row, rank=r) for row in above] == alone

    def test_one_decomposition_per_sample_and_noise(self, monkeypatch):
        # every sample of a noise level, at every rank of the grid, comes
        # out of one weighted_hosvd call on the batch of small tensors
        # built from the samples' cores, one build per sample: no sample
        # is ever dense
        from stmkernels import harness
        calls = Counter()
        batches = []

        def counting(name):
            real = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "weighted_hosvd":
                    batches.append((args[0].shape, kwargs))
                return real(*args, **kwargs)
            return wrapper

        for name in ("weighted_hosvd", "tucker_reconstruct"):
            monkeypatch.setattr(harness, name, counting(name))
        cfg = tiny_experiment(noise_grid=(0.01, 0.1), rank_grid=(1, 2, 13))
        run_experiment(cfg)
        samples = 2 * cfg.synth.samples_per_class
        assert calls["weighted_hosvd"] == 2
        assert batches == [((samples, 2, 2, 2), {"batch": True})] * 2
        assert calls["tucker_reconstruct"] == 2 * samples

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

    def test_one_gram_per_kernel_per_feasible_group(self, monkeypatch):
        # the harness builds the Grams of a whole g grid through one
        # `harness.gram_matrix` call per kernel of every feasible
        # (noise, rank) group
        from stmkernels import harness
        calls = []

        def counting_gram(samples, spec):
            calls.append(spec)
            return gram_matrix(samples, spec)

        monkeypatch.setattr(harness, "gram_matrix", counting_gram)
        cfg = tiny_experiment(noise_grid=(0.01, 0.1), rank_grid=(1, 2, 13))
        run_experiment(cfg)
        feasible_groups = 2 * 2  # rank 13 exceeds the mode size of 12
        assert len(calls) == feasible_groups * len(cfg.kernels)
        assert all(spec.g == cfg.g_grid for spec in calls)

    def test_one_gram_per_decomposition_list_and_kernel(self, monkeypatch):
        # on r_approx 2, ranks 3 and 4 decompose at the core's size and
        # share rank 2's decompositions, so their cells are rank 2's rows,
        # computed once: one Gram per kernel and noise level, no more
        from stmkernels import harness
        calls = []

        def counting_gram(samples, spec):
            calls.append(spec.kind)
            return gram_matrix(samples, spec)

        monkeypatch.setattr(harness, "gram_matrix", counting_gram)
        cfg = tiny_experiment(noise_grid=(0.01, 0.1), rank_grid=(2, 3, 4),
                              kernels=("gaussian", "dusk", "wsek"))
        rows = run_experiment(cfg).rows
        assert sorted(calls) == sorted(2 * cfg.kernels)
        monkeypatch.undo()
        for rank in cfg.rank_grid:
            alone = run_experiment(replace(cfg, rank_grid=(rank,))).rows
            assert [r for r in rows if r.rank == rank] == alone

    def test_reused_cell_times_no_work(self):
        cfg = tiny_experiment(rank_grid=(2, 3), measure_time=True)
        by_rank = {}
        for row in run_experiment(cfg).rows:
            by_rank.setdefault(row.rank, []).append(row)
        assert all(r.kernel_seconds > 0 and r.train_seconds > 0
                   for r in by_rank[2])
        assert all(r.kernel_seconds == r.train_seconds == 0.0
                   for r in by_rank[3])

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

    def test_data_dir_holds_one_dense_sample_at_a_time(self, tmp_path,
                                                       monkeypatch):
        # each sample is read twice, and every read lands in the first
        # one's array; no other sample array is alive at a read
        from stmkernels import harness
        data = generate(tiny_synth(), dense=True)
        save_dataset(data, tmp_path)
        real_load = harness.load_tensor
        loaded, alive_at_load, in_first = [], [], []

        def tracking_load(path, out=None):
            alive_at_load.append(sum(ref() is not None and ref() is not out
                                     for ref in loaded))
            t = real_load(path, out=out)
            in_first.append(t is loaded[0]() if loaded else True)
            loaded.append(weakref.ref(t))
            return t

        monkeypatch.setattr(harness, "load_tensor", tracking_load)
        cfg = tiny_experiment(synth=None, data_dir=str(tmp_path))
        rows = run_experiment(cfg).rows
        assert alive_at_load == [0] * (2 * len(data))
        assert in_first == [True] * (2 * len(data))
        monkeypatch.setattr(harness, "load_tensor", real_load)
        assert rows == run_experiment(cfg).rows

    @pytest.mark.parametrize("labels, folds, message", [
        ((-1, 1, 1, 1, 1), 2, "leave a training fold without one class"),
        ((-1, -1, 1, 1), 3, "leave a fold empty"),
    ])
    def test_data_dir_class_refusal_reads_no_tensor(self, tmp_path, monkeypatch,
                                                    labels, folds, message):
        from stmkernels import harness
        rng = np.random.default_rng(3)
        save_dataset([sk.LabeledSample(rng.standard_normal((4, 4, 4)), label)
                      for label in labels], tmp_path)

        def no_read(path):
            raise AssertionError("read a tensor before the class counts")

        monkeypatch.setattr(harness, "load_tensor", no_read)
        cfg = tiny_experiment(synth=None, data_dir=str(tmp_path), folds=folds)
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg)

    @pytest.mark.parametrize("fault", ["truncated", "nan", "inf", "-inf",
                                       "shape"])
    def test_bad_data_dir_sample_refused_as_load_dataset_does(
            self, tmp_path, monkeypatch, fault):
        # sample 3 of 12 is refused with load_dataset's message, after
        # samples 0-2 were decomposed
        from stmkernels import harness
        data = generate(tiny_synth(), dense=True)
        save_dataset(data, tmp_path)
        _spoil(tmp_path / "sample_0003.tnsr", data[3].tensor, fault)
        with pytest.raises(ValueError) as expected:
            load_dataset(tmp_path)
        decomposed = []
        real_hosvd = harness.weighted_hosvd

        def counting_hosvd(*args, **kwargs):
            decomposed.append(1)
            return real_hosvd(*args, **kwargs)

        monkeypatch.setattr(harness, "weighted_hosvd", counting_hosvd)
        with pytest.raises(ValueError) as err:
            run_experiment(tiny_experiment(synth=None, data_dir=str(tmp_path)))
        assert str(err.value) == str(expected.value)
        assert "sample_0003.tnsr" in str(err.value) or "sample 3" in str(err.value)
        assert len(decomposed) == 3

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("fault", ["truncated", "nan", "shape"])
    def test_container_changed_between_its_reads_refused(
            self, tmp_path, monkeypatch, fault, threads):
        # sample 3's container changes after its first read, so the read
        # for its mode-1 projections refuses it, with the message
        # load_dataset gives on the changed directory
        from stmkernels import harness
        data = generate(tiny_synth(), dense=True)
        save_dataset(data, tmp_path)
        victim = tmp_path / "sample_0003.tnsr"
        real_load = harness.load_tensor
        reads = []

        def changing_load(path, out=None):
            reads.append(path)
            t = real_load(path, out=out)
            if path == str(victim) and reads.count(path) == 1:
                _spoil(victim, data[3].tensor, fault)
            return t

        monkeypatch.setattr(harness, "load_tensor", changing_load)
        cfg = tiny_experiment(synth=None, data_dir=str(tmp_path),
                              threads=threads)
        with pytest.raises(ValueError) as err:
            run_experiment(cfg)
        assert reads.count(str(victim)) == 2
        monkeypatch.setattr(harness, "load_tensor", real_load)
        with pytest.raises(ValueError) as expected:
            load_dataset(tmp_path)
        assert str(err.value) == str(expected.value)
        assert "sample_0003.tnsr" in str(err.value) or "sample 3" in str(err.value)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig()
        with pytest.raises(ValueError, match="folds"):
            tiny_experiment(folds=1)
        with pytest.raises(ValueError, match="nonempty"):
            tiny_experiment(kernels=())
        with pytest.raises(ValueError, match="unknown kernel"):
            tiny_experiment(kernels=("linear",))
        # a data directory has no noise grid to read, so it takes none
        for grid in ((), (0.5, 0.7)):
            with pytest.raises(ValueError, match="^data_dir excludes noise_grid$"):
                tiny_experiment(synth=None, data_dir="data", noise_grid=grid)
        assert tiny_experiment(synth=None, data_dir="data").noise_grid is None
        assert tiny_experiment(noise_grid=None).noise_grid == DEFAULT_NOISE_GRID

    @pytest.mark.parametrize("field, value, message", [
        ("smo_tol", 0.0, "smo_tol must be positive, got 0.0"),
        ("smo_tol", -1e-3, "smo_tol must be positive, got -0.001"),
        ("c_grid", (1.0, 0.0), "c_grid entries must be positive, got 0.0"),
        ("g_grid", (-2.0, 1.0), "g_grid entries must be positive, got -2.0"),
        ("rank_grid", (2, 0), "rank_grid entries must be at least 1, got 0"),
        ("p", math.nan, "p must be finite, got nan"),
        ("p", math.inf, "p must be finite, got inf"),
        ("smo_tol", math.inf, "smo_tol must be finite, got inf"),
        ("smo_tol", math.nan, "smo_tol must be positive, got nan"),
        ("c_grid", (1.0, math.inf), "c_grid entries must be finite, got inf"),
        ("g_grid", (math.inf,), "g_grid entries must be finite, got inf"),
        ("g_grid", (1.0, math.nan), "g_grid entries must be positive, got nan"),
        ("noise_grid", (), "noise_grid must be nonempty"),
        ("noise_grid", (0.01, 0.0), "noise_grid entries must be positive, got 0.0"),
        ("noise_grid", (-0.1,), "noise_grid entries must be positive, got -0.1"),
        ("noise_grid", (math.nan,), "noise_grid entries must be positive, got nan"),
        ("noise_grid", (0.01, math.inf), "noise_grid entries must be finite, got inf"),
        ("kernels", ("wsek", "subspace", "wsek"), "kernels lists 'wsek' twice"),
        ("rank_grid", (1, 2, 1), "rank_grid lists 1 twice"),
        ("noise_grid", (0.1, 0.01, 0.1), "noise_grid lists 0.1 twice"),
        ("c_grid", (1.0, 4.0, 2.0),
         "c_grid must be strictly increasing, got 2.0 after 4.0"),
        ("g_grid", (0.5, 0.5), "g_grid must be strictly increasing, got 0.5 after 0.5"),
        ("g_grid", (2.0 ** -600, 1.0), "g_grid entries must be large enough "
                                       "that 2g^2 is not 0, got 2.409919865102884e-181"),
        ("seed", -1, "seed must be nonnegative, got -1"),
        ("rank_grid", (2.5,), "rank_grid entries must be integers, got 2.5"),
        ("rank_grid", (2, 3.0), "rank_grid entries must be integers, got 3.0"),
        ("folds", 2.5, "folds must be an integer, got 2.5"),
        ("repeats", 1.5, "repeats must be an integer, got 1.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("threads", 1.5, "threads must be an integer, got 1.5"),
        ("threads", -3, "threads must be at least 1, got -3"),
        ("threads", 0, "threads must be at least 1, got 0"),
        ("measure_time", "no", "measure_time must be True or False, got 'no'"),
        ("measure_time", 0, "measure_time must be True or False, got 0"),
        ("p", True, "p must be a number, got True"),
        ("p", False, "p must be a number, got False"),
        ("smo_tol", True, "smo_tol must be a number, got True"),
        ("rank_grid", (True, 2), "rank_grid entries must be integers, got True"),
        ("rank_grid", (2, np.True_), "rank_grid entries must be integers, got True"),
        ("c_grid", (True, 2.0), "c_grid entries must be numbers, got True"),
        ("g_grid", (False, 1.0), "g_grid entries must be numbers, got False"),
        ("noise_grid", (0.01, np.True_), "noise_grid entries must be numbers, got True"),
        ("c_grid", 1.0, "c_grid must be a sequence, got 1.0"),
        ("g_grid", np.float32(2.0), "g_grid must be a sequence, got 2.0"),
        ("rank_grid", 3, "rank_grid must be a sequence, got 3"),
        ("noise_grid", 0.1, "noise_grid must be a sequence, got 0.1"),
        ("kernels", "wsek", "kernels must be a sequence, got 'wsek'"),
        ("c_grid", {1.0}, "c_grid must be a sequence, got {1.0}"),
        ("rank_grid", ((1, 2), 3), "rank_grid entries must be integers, got (1, 2)"),
        ("synth", {"scenario": "leaf"},
         "synth must be a SynthConfig, got {'scenario': 'leaf'}"),
        ("data_dir", 3, "data_dir must be a string, got 3"),
        ("output", 3, "output must be a string, got 3"),
        ("kernels", (1,), "kernels entries must be strings, got 1"),
        ("seed", "3", "seed must be an integer, got '3'"),
        ("p", "0.5", "p must be a number, got '0.5'"),
        ("repeats", 0, "repeats must be at least 1"),
    ])
    def test_unusable_settings_rejected(self, field, value, message):
        with pytest.raises(ValueError) as err:
            tiny_experiment(**{field: value})
        assert str(err.value) == message

    def test_numpy_integer_settings_accepted(self, tmp_path):
        synth_cfg = tiny_synth(mode_size=np.int64(12),
                               samples_per_class=np.int64(6), seed=np.int64(5))
        cfg = tiny_experiment(synth=synth_cfg, rank_grid=(np.int64(2), 3),
                              folds=np.int32(3), repeats=np.int64(2),
                              seed=np.int64(5))
        assert cfg.rank_grid == (2, 3) and cfg.folds == 3 and cfg.repeats == 2
        # the run's config echo and rows reach summary.json as plain ints
        csv_path, json_path = emit_report(run_experiment(cfg), tmp_path / "np")
        render_csv(load_report(json_path).rows, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == open(csv_path, "rb").read()
        plain = emit_report(run_experiment(tiny_experiment(rank_grid=(2, 3))),
                            tmp_path / "plain")
        for ours, theirs in zip((csv_path, json_path), plain):
            assert open(ours, "rb").read() == open(theirs, "rb").read()

    def test_numpy_float_settings_stored_as_python_values(self, tmp_path):
        synth_cfg = tiny_synth(mode_size=np.int64(12),
                               noise_variance=np.float32(0.05),
                               seed=np.int64(5), freq_uniform=np.bool_(False))
        cfg = tiny_experiment(
            synth=synth_cfg, noise_grid=(np.float32(0.01), np.float64(0.1)),
            rank_grid=np.array([2, 3]), c_grid=(np.float64(0.5), 2.0, 8.0),
            g_grid=np.array([0.5, 2.0, 8.0], dtype=np.float32),
            repeats=np.int64(2), p=np.float32(0.5), threads=np.int64(2),
            smo_tol=np.float64(1e-3), measure_time=np.bool_(False))
        assert type(synth_cfg.noise_variance) is float
        assert synth_cfg.noise_variance == float(np.float32(0.05))
        assert (type(synth_cfg.mode_size), type(synth_cfg.freq_uniform)) == (
            int, bool)
        assert cfg.noise_grid == (float(np.float32(0.01)), 0.1)
        assert cfg.rank_grid == (2, 3) and cfg.g_grid == (0.5, 2.0, 8.0)
        for name in ("p", "smo_tol", "repeats", "threads", "measure_time"):
            assert not isinstance(getattr(cfg, name), np.generic), name
        for name in ("noise_grid", "rank_grid", "c_grid", "g_grid"):
            entries = getattr(cfg, name)
            assert type(entries) is tuple, name
            assert not any(isinstance(v, np.generic) for v in entries), name
        # the config echo and rows reach summary.json and re-render alike
        csv_path, json_path = emit_report(run_experiment(cfg), tmp_path)
        render_csv(load_report(json_path).rows, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == open(csv_path, "rb").read()
        echo = json.loads(open(json_path).read())["config"]
        assert echo["p"] == 0.5 and echo["rank_grid"] == [2, 3]
        assert echo["synth"]["noise_variance"] == synth_cfg.noise_variance

    def test_path_settings_stored_as_strings(self, tmp_path):
        data = tmp_path / "data"
        save_dataset(generate(tiny_synth()), data)
        cfg = tiny_experiment(synth=None, data_dir=data, noise_grid=None,
                              output=tmp_path / "out")
        assert (cfg.data_dir, cfg.output) == (str(data), str(tmp_path / "out"))
        _, json_path = emit_report(run_experiment(cfg), cfg.output)
        echo = json.loads(open(json_path).read())["config"]
        assert (echo["data_dir"], echo["output"]) == (cfg.data_dir, cfg.output)

    def test_default_p_named_in_errors(self, tmp_path):
        # entries near 1e160 overflow the gaussian kernel's squared
        # distances; the message names the p the run decomposed with
        samples = generate(tiny_synth(), dense=True)
        for s in samples:
            s.tensor = 1e160 * s.tensor / np.abs(s.tensor).max()
        save_dataset(samples, tmp_path)
        cfg = tiny_experiment(synth=None, data_dir=str(tmp_path),
                              kernels=("gaussian",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                    r"^gaussian kernel at rank 2, noise nan, "
                    r"p = 0.3333333333333333: gaussian Gram holds non-finite")):
                run_experiment(cfg)
        assert cfg.p is None

    @pytest.mark.parametrize("source", ["synth", "data_dir"])
    def test_refused_weighting_names_the_sample(self, tmp_path, source):
        # sample 5 is the first whose sigma**200 float64 cannot hold
        synth_cfg = tiny_synth(mode_size=6, r_exact=3, r_approx=3,
                               noise_variance=0.1)
        cfg = tiny_experiment(synth=synth_cfg, noise_grid=(0.1,), p=200.0)
        noise = "0.1"
        if source == "data_dir":
            save_dataset(generate(synth_cfg, dense=True), tmp_path)
            cfg = replace(cfg, synth=None, data_dir=str(tmp_path),
                          noise_grid=None)
            noise = "nan"
        with pytest.raises(ValueError, match=(
                rf"^sample 5 at noise {noise}: weighting power p = 200.0 "
                r"over- or underflows")):
            run_experiment(cfg)

    def test_gram_float64_cannot_hold_names_the_cell(self):
        # p = 200 passes reweight at rank 3, but the weighted factors'
        # squared distances overflow the wsek Gram
        cfg = tiny_experiment(
            synth=tiny_synth(mode_size=6, r_exact=3, r_approx=3),
            noise_grid=(1.0,), p=200.0, rank_grid=(3, 4, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                    r"^wsek kernel at rank 3, noise 1.0, p = 200.0: wsek Gram "
                    r"holds non-finite entries")):
                run_experiment(cfg)


def _linalg_blas_threads():
    """Thread count of numpy's OpenBLAS, read straight through numpy's
    linalg extension; None when it exports no thread-count function."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in ("scipy_openblas_get_num_threads64_",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        get = getattr(lib, name, None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            return get()
    return None


def _openblas_or_skip():
    if _linalg_blas_threads() is None:
        pytest.skip("numpy's BLAS is not a mapped OpenBLAS")


def _blas_threads_seen(monkeypatch, cfg):
    """BLAS thread count at each weighted_hosvd call of a run of `cfg`
    under a caller's pin of 2, which the run restores."""
    from stmkernels import decomp, harness
    seen = []
    real = harness.weighted_hosvd

    def recording(*args, **kwargs):
        seen.append(_linalg_blas_threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "weighted_hosvd", recording)
    with decomp._blas_threads(2):
        run_experiment(cfg)
        assert _linalg_blas_threads() == 2
    return seen


class TestBlasThreads:
    def test_run_computes_on_one_blas_thread(self, monkeypatch):
        # one weighted_hosvd call decomposes a noise level's generated
        # samples
        _openblas_or_skip()
        assert _blas_threads_seen(monkeypatch, tiny_experiment()) == [1]

    def test_data_dir_run_computes_on_one_blas_thread(self, tmp_path,
                                                      monkeypatch):
        # one weighted_hosvd call per container, 12 in all
        _openblas_or_skip()
        save_dataset(generate(tiny_synth(), dense=True), tmp_path)
        cfg = tiny_experiment(synth=None, data_dir=str(tmp_path))
        assert _blas_threads_seen(monkeypatch, cfg) == [1] * 12

    def test_caller_threads_restored_after_raise(self, monkeypatch):
        _openblas_or_skip()
        from stmkernels import decomp, harness
        monkeypatch.setattr(harness, "weighted_hosvd", _no_decomposition)
        cfg = tiny_experiment(synth=tiny_synth(samples_per_class=2), folds=3)
        with decomp._blas_threads(2):
            with pytest.raises(ValueError, match="leave a fold empty"):
                run_experiment(cfg)
            assert _linalg_blas_threads() == 2

    def test_run_without_openblas_gives_the_same_report(self, tmp_path,
                                                        monkeypatch):
        from stmkernels import decomp
        cfg = tiny_experiment()
        pinned = emit_report(run_experiment(cfg), tmp_path / "pinned")
        # a numpy whose linalg extension resolves no symbol: no pin, and
        # every SVD takes the plain route
        decomp._dgelqf.cache_clear()
        try:
            with decomp._blas_threads(2), monkeypatch.context() as m:
                m.setattr(decomp, "_numpy_symbol", lambda *args: None)
                before = _linalg_blas_threads()  # 2, or None without OpenBLAS
                with decomp._blas_threads(3):
                    assert _linalg_blas_threads() == before
                assert decomp._dgelqf() is None
                unpinned = emit_report(run_experiment(cfg),
                                       tmp_path / "unpinned")
        finally:
            decomp._dgelqf.cache_clear()
        for ours, theirs in zip(pinned, unpinned):
            assert open(ours, "rb").read() == open(theirs, "rb").read()

    def test_pin_reaches_the_blas_numpy_linalg_calls(self):
        _openblas_or_skip()
        from stmkernels import decomp
        before = _linalg_blas_threads()
        with decomp._blas_threads(3):
            assert _linalg_blas_threads() == 3
        assert _linalg_blas_threads() == before

    def test_report_independent_of_caller_blas_threads(self, tmp_path):
        # decomp_ranks' config at experiment seed 1000: a two-thread
        # mode-100 SVD moves the rank-4 cell from 0.7 to 0.9
        _openblas_or_skip()
        from stmkernels import decomp
        cfg = ExperimentConfig(
            synth=SynthConfig("leaf", mode_size=100, r_approx=3,
                              samples_per_class=5, seed=1000),
            noise_grid=(0.1,), kernels=("subspace",), rank_grid=(2, 4),
            c_grid=tuple(2.0 ** k for k in (-8, -4, 0, 4, 8)),
            g_grid=tuple(2.0 ** k for k in (-4, 0, 4, 8, 12)),
            repeats=1, folds=5, seed=1000, measure_time=False)
        for n in (1, 2):
            with decomp._blas_threads(n):
                emit_report(run_experiment(cfg), tmp_path / str(n))
        one, two = ((tmp_path / str(n) / "report.csv").read_bytes()
                    for n in (1, 2))
        assert one == two


class TestThreads:
    """`threads` is accepted and echoed, and a run starts no thread at
    any value of it; the reports, and every refusal, are those of a run
    at 1."""

    @pytest.mark.parametrize("source", ["synth", "data_dir"])
    def test_reports_byte_identical_at_any_threads(self, tmp_path, source):
        cfg = tiny_experiment(noise_grid=(0.01, 0.1), rank_grid=(1, 2))
        if source == "data_dir":
            save_dataset(generate(tiny_synth(), dense=True), tmp_path / "d")
            cfg = replace(cfg, synth=None, data_dir=str(tmp_path / "d"),
                          noise_grid=None)
        texts = {}
        for n in (1, 2, 4):
            out = tmp_path / f"t{n}"
            emit_report(run_experiment(replace(cfg, threads=n)), out)
            summary = (out / "summary.json").read_text()
            # the config echo names `threads`, and nothing else differs
            assert summary.count(f'"threads": {n}') == 1
            texts[n] = ((out / "report.csv").read_bytes(),
                        summary.replace(f'"threads": {n}', '"threads": 1'))
        assert texts[1] == texts[2] == texts[4]

    def test_generated_run_starts_no_thread(self, tmp_path, monkeypatch):
        # a generated run decomposes in the calling thread whatever
        # `threads` says: at 4 it starts no thread, and its bytes are
        # those of a run at 1
        import threading

        cfg = tiny_experiment(noise_grid=(0.01, 0.1), rank_grid=(1, 2, 3))
        emit_report(run_experiment(replace(cfg, threads=1)), tmp_path / "t1")

        def no_start(thread):
            raise AssertionError("a generated run started a thread")

        with monkeypatch.context() as m:
            m.setattr(threading.Thread, "start", no_start)
            report = run_experiment(replace(cfg, threads=4))
        emit_report(report, tmp_path / "t4")
        csv1, csv4 = ((tmp_path / t / "report.csv").read_bytes()
                      for t in ("t1", "t4"))
        json1, json4 = ((tmp_path / t / "summary.json").read_text()
                        for t in ("t1", "t4"))
        assert csv1 == csv4
        assert json4.count('"threads": 4') == 1
        assert json4.replace('"threads": 4', '"threads": 1') == json1

    def test_data_dir_reads_each_sample_into_its_slot(self, tmp_path,
                                                      monkeypatch):
        # at any `threads` both reads of every sample land in one buffer,
        # so one buffer serves 12 samples; the report is that of a run at 1
        from stmkernels import harness
        save_dataset(generate(tiny_synth(), dense=True), tmp_path / "d")
        cfg = tiny_experiment(synth=None, data_dir=str(tmp_path / "d"))
        real_load = harness.load_tensor
        texts = {}
        for n in (1, 2, 4):
            reads = {}  # path -> the arrays its reads returned

            def recording(path, out=None):
                t = real_load(path, out=out)
                reads.setdefault(path, []).append(t)
                return t

            monkeypatch.setattr(harness, "load_tensor", recording)
            out = tmp_path / f"t{n}"
            emit_report(run_experiment(replace(cfg, threads=n)), out)
            summary = (out / "summary.json").read_text()
            assert summary.count(f'"threads": {n}') == 1
            texts[n] = ((out / "report.csv").read_bytes(),
                        summary.replace(f'"threads": {n}', '"threads": 1'))
            paths = sorted(reads)
            assert len(paths) == 12
            buffer = reads[paths[0]][0]
            for path in paths:
                assert len(reads[path]) == 2
                assert all(t is buffer for t in reads[path])
        assert texts[1] == texts[2] == texts[4]

    @pytest.mark.parametrize("source", ["synth", "above_core", "data_dir"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_at_most_threads_dense_arrays_alive(self, tmp_path, monkeypatch,
                                               source, threads):
        # at any `threads`, at every build or read no array of another
        # sample is alive, not counting the buffer being refilled. A
        # generated sample is built once, at its core's size, also with a
        # rank above its core ("above_core"); a container is read twice
        from stmkernels import harness
        cfg = tiny_experiment(threads=threads)
        if source == "above_core":
            cfg = replace(cfg, rank_grid=(2, 3))  # r_approx is 2
        if source == "data_dir":
            # written before the wrapping: save_dataset builds too
            save_dataset(generate(tiny_synth(), dense=True), tmp_path / "d")
            cfg = replace(cfg, synth=None, data_dir=str(tmp_path / "d"),
                          noise_grid=None)
        made = []  # (sample, weakref) per array made, oldest first
        others = []  # per build or read, other samples' arrays alive
        shapes = []  # per build or read, the array's shape

        def tracking(real, sample, arg, out=None):
            # each live array but `out`, and the sample it last held
            alive = {id(ref()): key for key, ref in made
                     if ref() is not None and ref() is not out}
            others.append(sum(key != sample for key in alive.values()))
            t = real(arg) if out is None else real(arg, out=out)
            made.append((sample, weakref.ref(t)))
            shapes.append(t.shape)
            return t

        real_build, real_load = harness.tucker_reconstruct, harness.load_tensor
        # a generated sample's build reads its core
        monkeypatch.setattr(harness, "tucker_reconstruct", lambda t: tracking(
            real_build, id(t.core), t))
        monkeypatch.setattr(harness, "load_tensor", lambda path, out=None:
                            tracking(real_load, path, path, out))
        run_experiment(cfg)
        assert others == [0] * (24 if source == "data_dir" else 12)
        # mode 12 containers; generated samples built at their r_approx 2
        # cores only, never at mode 12
        size = (12, 12, 12) if source == "data_dir" else (2, 2, 2)
        assert set(shapes) == {size}

    @pytest.mark.parametrize("source", ["synth", "data_dir"])
    def test_threads_above_the_sample_count(self, tmp_path, monkeypatch,
                                            source):
        # 8 threads for 6 samples per noise level: the run starts no
        # thread, from either source, and its bytes are those of a run at
        # 1. A generated run makes one call per noise level for all 6, a
        # data_dir run one per container
        import threading

        from stmkernels import harness
        synth_cfg = tiny_synth(samples_per_class=3)
        cfg = tiny_experiment(synth=synth_cfg, noise_grid=(0.01, 0.1))
        if source == "data_dir":
            save_dataset(generate(synth_cfg, dense=True), tmp_path / "d")
            cfg = replace(cfg, synth=None, data_dir=str(tmp_path / "d"),
                          noise_grid=None)
        real = harness.weighted_hosvd
        calls = []

        def counting(*args, **kwargs):
            calls.append(threading.current_thread() is threading.main_thread())
            return real(*args, **kwargs)

        def no_start(thread):
            raise AssertionError("a run started a thread")

        monkeypatch.setattr(harness, "weighted_hosvd", counting)
        texts = {}
        for n in (1, 8):
            out = tmp_path / f"t{n}"
            with monkeypatch.context() as m:
                m.setattr(threading.Thread, "start", no_start)
                report = run_experiment(replace(cfg, threads=n))
            emit_report(report, out)
            summary = (out / "summary.json").read_text()
            assert summary.count(f'"threads": {n}') == 1
            texts[n] = ((out / "report.csv").read_bytes(),
                        summary.replace(f'"threads": {n}', '"threads": 1'))
        assert texts[1] == texts[8]
        # per noise level or container, at threads 1 and 8
        assert calls == [True] * (2 * 2 if source == "synth" else 2 * 6)

    @pytest.mark.parametrize("fault", ["weighting", "nan", "both", "missing",
                                       "missing-both"])
    def test_refusals_as_in_a_serial_run(self, tmp_path, monkeypatch, fault):
        # p = 200 refuses sample 5; a NaN container refuses sample 3 (or
        # 6, after sample 5's refusal) when it is read, and so does a
        # deleted one, whose read raises FileNotFoundError. The message is
        # the serial one, the samples before the refused one were
        # decomposed, and no worker is left running.
        import threading

        from stmkernels import harness
        synth_cfg = tiny_synth(mode_size=6, r_exact=3, r_approx=3,
                               noise_variance=0.1)
        data = generate(synth_cfg, dense=True)
        bad = {"weighting": None, "nan": 3, "both": 6, "missing": 3,
               "missing-both": 6}[fault]
        if bad is not None and not fault.startswith("missing"):
            data[bad].tensor[1, 0, 2] = np.nan
        save_dataset(data, tmp_path)
        if fault.startswith("missing"):
            (tmp_path / f"sample_{bad:04d}.tnsr").unlink()
        cfg = tiny_experiment(synth=None, data_dir=str(tmp_path),
                              p=None if bad == 3 else 200.0)
        error = FileNotFoundError if fault == "missing" else ValueError
        real = harness.weighted_hosvd
        messages, counts = [], []
        before = threading.enumerate()
        for n in (1, 2):
            calls = []

            def counting(*args, **kwargs):
                calls.append(1)
                return real(*args, **kwargs)

            monkeypatch.setattr(harness, "weighted_hosvd", counting)
            with pytest.raises(error) as err:
                run_experiment(replace(cfg, threads=n))
            messages.append(str(err.value))
            counts.append(len(calls))
            assert threading.enumerate() == before
        assert messages[0] == messages[1]
        if bad == 3:
            assert "sample_0003.tnsr" in messages[0]
            assert counts == [3, 3]
        else:
            assert messages[0].startswith("sample 5 at noise nan: weighting "
                                          "power p = 200.0")

    def test_tall_first_mode_data_dir_is_read_once(self, tmp_path,
                                                   monkeypatch):
        # a (40, 4, 4) sample's mode-1 unfolding is tall: np.linalg.svd
        # leaves the buffer as read, and the projections read it
        # there, so each container is read once
        _assert_each_container_read_once(tmp_path, monkeypatch, (40, 4, 4))

    def test_wide_first_mode_data_dir_without_dgelqf_is_read_once(
            self, tmp_path, monkeypatch):
        # a (6, 5, 5) sample's mode-1 unfolding is wide, but without an
        # ILP64 dgelqf it takes the plain np.linalg.svd, which leaves the
        # buffer as read, so each container is read once here too
        from stmkernels import decomp
        decomp._dgelqf.cache_clear()
        try:
            with monkeypatch.context() as m:
                m.setattr(decomp, "_dgelqf", lambda: None)
                _assert_each_container_read_once(tmp_path, m, (6, 5, 5))
        finally:
            decomp._dgelqf.cache_clear()


def _assert_each_container_read_once(tmp_path, monkeypatch, shape):
    """Eight containers of `shape`, decomposed through `data_dir`'s path
    at ranks 1, 2 and 3, are each read once and give the bits of
    `weighted_hosvd` on `load_dataset`'s arrays."""
    from stmkernels import decomp, harness
    from stmkernels.harness import _decompose_by_rank, _open_dataset
    rng = np.random.default_rng(40)
    save_dataset([sk.LabeledSample(rng.standard_normal(shape), (-1) ** k)
                  for k in range(8)], tmp_path)
    grid = [(r, r, r) for r in (1, 2, 3)]
    with decomp._blas_threads(1):
        expected = [decomp.weighted_hosvd(t, grid)
                    for t in load_dataset(tmp_path).samples]
    real_load = harness.load_tensor
    reads = Counter()

    def counting(path, out=None):
        reads[path] += 1
        return real_load(path, out=out)

    monkeypatch.setattr(harness, "load_tensor", counting)
    with decomp._blas_threads(1):
        got = _decompose_by_rank(_open_dataset(tmp_path)[1], (1, 2, 3),
                                 None, math.nan)
    assert len(reads) == 8 and set(reads.values()) == {1}
    assert list(got) == [1, 2, 3]
    for rank, tuckers in got.items():
        for a, tk in zip(tuckers, expected, strict=True):
            b = tk[rank - 1]
            assert a.p == b.p and np.array_equal(a.core, b.core)
            for x, y in zip(a.factors + a.sigmas, b.factors + b.sigmas,
                            strict=True):
                assert np.array_equal(x, y)


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

    def test_a_run_never_imports_numpy_ma(self, tmp_path):
        # np.unique's first call imports numpy.ma, which no run reads; in a
        # fresh interpreter a whole run and its report leave it unimported
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(sk.__file__))
        script = f"""
import sys
from stmkernels.harness import ExperimentConfig, emit_report, run_experiment
from stmkernels.synth import SynthConfig
synth = SynthConfig(scenario="leaf", mode_size=12, r_exact=2, r_approx=2,
                    noise_variance=0.01, samples_per_class=6, seed=5)
cfg = ExperimentConfig(synth=synth, noise_grid=(0.01,), rank_grid=(2,),
                       c_grid=(0.5, 2.0), g_grid=(0.5, 2.0), repeats=2,
                       folds=3, measure_time=False)
emit_report(run_experiment(cfg), {str(tmp_path)!r})
print("numpy.ma" in sys.modules)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "report.csv").exists()
        assert out.stdout == "False\n"

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

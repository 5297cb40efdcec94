"""Synthetic dataset generator: determinism, stream isolation, and the
placement of the class signal."""

import numpy as np
import pytest

from stmkernels.decomp import tucker_reconstruct, weighted_hosvd
from stmkernels.harness import stratified_folds
from stmkernels.kernels import KernelSpec, gram_matrix
from stmkernels.svm import TrainingSet, predict_from_gram, train
from stmkernels.synth import SynthConfig, frequencies, generate, information

from oracles import principal_angles


def small_cfg(**kw):
    base = dict(scenario="leaf", mode_size=30, r_exact=3, r_approx=3,
                noise_variance=0.01, samples_per_class=6, seed=7)
    base.update(kw)
    return SynthConfig(**base)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        cfg = small_cfg()
        a = generate(cfg)
        b = generate(cfg)
        for sa, sb in zip(a, b):
            assert sa.label == sb.label
            assert np.array_equal(sa.tensor.core, sb.tensor.core)
            for fa, fb in zip(sa.tensor.factors, sb.tensor.factors):
                assert np.array_equal(fa, fb)

    def test_different_seed_differs(self):
        a = generate(small_cfg(seed=1))
        b = generate(small_cfg(seed=2))
        assert not np.array_equal(a[0].tensor.core, b[0].tensor.core)

    def test_noise_level_preserves_class_draws(self):
        lo = small_cfg(noise_variance=0.01)
        hi = small_cfg(noise_variance=0.5)
        assert np.array_equal(frequencies(lo, 0, 0), frequencies(hi, 0, 0))
        assert np.array_equal(information(lo, 1, 3), information(hi, 1, 3))


class TestStructure:
    def test_counts_and_labels(self):
        data = generate(small_cfg(samples_per_class=4))
        assert len(data) == 8
        assert [s.label for s in data] == [-1] * 4 + [1] * 4

    def test_factors_orthonormal(self):
        for s in generate(small_cfg()):
            for f in s.tensor.factors:
                r = f.shape[1]
                assert np.linalg.norm(f.T @ f - np.eye(r)) <= 1e-10

    def test_shapes(self):
        cfg = small_cfg(mode_size=20, r_approx=5)
        s = generate(cfg)[0].tensor
        assert s.core.shape == (5, 5, 5)
        assert all(f.shape == (20, 5) for f in s.factors)

    def test_r_approx_caps_information_block(self):
        cfg = small_cfg(r_approx=2)
        assert cfg.info_size == 2
        assert information(cfg, 0, 0).shape == (2, 2, 2)
        assert frequencies(cfg, 0, 0).shape == (3, 2)

    def test_dense_switch(self):
        cfg = small_cfg(samples_per_class=2)
        dense = generate(cfg, dense=True)
        tucker = generate(cfg)
        for d, t in zip(dense, tucker):
            assert isinstance(d.tensor, np.ndarray)
            assert np.allclose(d.tensor, tucker_reconstruct(t.tensor), atol=1e-14)

    def test_invalid_configs(self):
        with pytest.raises(ValueError, match="scenario"):
            small_cfg(scenario="both")
        with pytest.raises(ValueError, match="r_approx"):
            small_cfg(r_approx=31)
        with pytest.raises(ValueError, match="noise"):
            small_cfg(noise_variance=0.0)
        with pytest.raises(ValueError, match="noise variance must be finite"):
            small_cfg(noise_variance=np.inf)
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            small_cfg(seed=-1)

    @pytest.mark.parametrize("field, value, message", [
        ("mode_size", 6.5, "mode_size must be an integer, got 6.5"),
        ("r_exact", 2.5, "r_exact must be an integer, got 2.5"),
        ("r_approx", 2.0, "r_approx must be an integer, got 2.0"),
        ("samples_per_class", np.float64(4.0),
         "samples_per_class must be an integer, got 4.0"),
        ("seed", True, "seed must be an integer, got True"),
        ("freq_uniform", "no", "freq_uniform must be True or False, got 'no'"),
        ("freq_uniform", 1, "freq_uniform must be True or False, got 1"),
        ("noise_variance", True, "noise_variance must be a number, got True"),
        ("noise_variance", np.True_, "noise_variance must be a number, got True"),
        ("noise_variance", (0.1,), "noise_variance must be a number, got (0.1,)"),
        ("seed", np.float32(3.0), "seed must be an integer, got 3.0"),
        ("r_exact", 0, "r_exact must be positive"),
        ("samples_per_class", 0, "samples_per_class must be positive"),
    ])
    def test_unusable_settings_rejected(self, field, value, message):
        with pytest.raises(ValueError) as err:
            small_cfg(**{field: value})
        assert str(err.value) == message

    def test_numpy_settings_stored_as_python_values(self):
        cfg = small_cfg(mode_size=np.int64(30), seed=np.int32(7),
                        freq_uniform=np.bool_(True))
        assert cfg == small_cfg(freq_uniform=True)
        assert type(cfg.mode_size) is int and type(cfg.seed) is int
        assert type(cfg.freq_uniform) is bool

    def test_uniform_frequency_flag(self):
        gauss = small_cfg(freq_uniform=False)
        uni = small_cfg(freq_uniform=True)
        fu = frequencies(uni, 0, 0)
        assert not np.array_equal(frequencies(gauss, 0, 0), fu)
        assert np.all(np.abs(fu) <= np.sqrt(3.0))


class TestScenarioContract:
    def test_leaf_frequencies_shared_within_class(self):
        cfg = small_cfg(scenario="leaf")
        f00 = frequencies(cfg, 0, 0)
        assert np.array_equal(f00, frequencies(cfg, 0, 5))
        assert not np.array_equal(f00, frequencies(cfg, 1, 0))
        # information is per sample in the leaf scenario
        assert not np.array_equal(information(cfg, 0, 0), information(cfg, 0, 1))

    def test_core_information_shared_within_class(self):
        cfg = small_cfg(scenario="core")
        i00 = information(cfg, 0, 0)
        assert np.array_equal(i00, information(cfg, 0, 5))
        assert not np.array_equal(i00, information(cfg, 1, 0))
        # frequencies are per sample in the core scenario
        assert not np.array_equal(frequencies(cfg, 0, 0), frequencies(cfg, 0, 1))

    def test_leaf_subspaces_separate_classes(self):
        # the class-mean mode-1 subspaces differ (principal angle > 0)
        # while within-class factors agree far better than across-class
        # ones, measured by the subspace overlap sum(cos^2(angles))
        cfg = small_cfg(scenario="leaf", noise_variance=0.01,
                        samples_per_class=5, mode_size=40)
        data = generate(cfg)
        neg = [s.tensor.factors[0] for s in data if s.label == -1]
        pos = [s.tensor.factors[0] for s in data if s.label == 1]
        mean_neg = np.linalg.qr(np.mean(neg, axis=0))[0]
        mean_pos = np.linalg.qr(np.mean(pos, axis=0))[0]
        assert principal_angles(mean_neg, mean_pos).max() > 0.05

        def overlap(a, b):
            return np.sum(np.cos(principal_angles(a, b)) ** 2)

        within = [overlap(a, b) for i, a in enumerate(neg) for b in neg[i + 1:]]
        across = [overlap(a, b) for a in neg for b in pos]
        assert min(within) > max(across)

    def test_core_scenario_subspace_kernel_near_chance(self):
        # per-mode subspaces carry no class signal in the core scenario,
        # so the subspace kernel cannot beat chance by much
        cfg = SynthConfig(scenario="core", mode_size=30, r_exact=3, r_approx=3,
                          noise_variance=0.01, samples_per_class=10, seed=3)
        data = generate(cfg)
        labels = np.array([s.label for s in data], dtype=float)
        tuckers = [weighted_hosvd(tucker_reconstruct(s.tensor), (3, 3, 3))
                   for s in data]
        spec = KernelSpec("subspace", g=1.0)
        k = gram_matrix(tuckers, spec)
        rng = np.random.default_rng(0)
        accs = []
        for _ in range(3):
            folds = stratified_folds(labels, 4, rng)
            for val in folds:
                tr = np.setdiff1d(np.arange(len(labels)), val)
                model = train(TrainingSet([tuckers[i] for i in tr], labels[tr]),
                              k[np.ix_(tr, tr)], C=1.0)
                accs.append(np.mean(
                    predict_from_gram(model, k[np.ix_(tr, val)]) == labels[val]))
        assert 0.2 <= np.mean(accs) <= 0.8

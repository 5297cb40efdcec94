"""SMO dual training against the brute-force QP oracle."""

import numpy as np
import pytest

from stmkernels.kernels import KernelSpec, gram_matrix
from stmkernels.svm import (
    ConvergenceError,
    TrainingSet,
    decision_from_gram,
    decision_value,
    dual_objective,
    predict,
    predict_from_gram,
    train,
)

from oracles import qp_decision, qp_reference, smo_index_selection


def gaussian_gram(points, g):
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    return np.exp(-d2 / (2 * g * g))


def random_instance(rng, n, extra=0, g=1.5):
    pts = rng.standard_normal((n + extra, 3))
    y = rng.choice([-1.0, 1.0], size=n)
    if np.all(y > 0) or np.all(y < 0):
        y[0] = -y[0]
    k_full = gaussian_gram(pts, g)
    return pts, y, k_full


class TestTwoPointProblem:
    def test_symmetric_separable(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0]])
        k = gaussian_gram(pts, 1.0)
        y = np.array([1.0, -1.0])
        model = train(TrainingSet(list(pts), y), k, C=100.0, tol=1e-8)
        assert model.alphas[0] > 0
        assert np.isclose(model.alphas[0], model.alphas[1], rtol=1e-10)
        dec = decision_from_gram(model, k)
        assert dec[0] > 0 > dec[1]
        # bias vanishes by symmetry (K11 == K22)
        assert abs(model.bias) <= 1e-10


class TestOracleEquivalence:
    def test_six_point_instance(self):
        rng = np.random.default_rng(42)
        pts, y, k_full = random_instance(rng, 6, extra=4)
        k = k_full[:6, :6]
        model = train(TrainingSet(list(pts[:6]), y), k, C=1.0, tol=1e-10)
        alpha_ref, bias_ref, obj_ref = qp_reference(k, y, 1.0)
        assert abs(model.dual_objective - obj_ref) <= 1e-6
        assert abs(model.bias - bias_ref) <= 1e-6
        # held-out predictions match the oracle exactly
        for t in range(6, 10):
            kvec = k_full[:6, t]
            d_ref = qp_decision(kvec, alpha_ref, y, bias_ref)
            d_smo = float(decision_from_gram(model, kvec))
            if abs(d_ref) >= 1e-8:
                assert np.sign(d_smo) == np.sign(d_ref)

    @pytest.mark.parametrize("seed", range(12))
    def test_small_instances(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(3, 9))
        c = float(rng.choice([0.1, 1.0, 10.0]))
        pts, y, k_full = random_instance(rng, n)
        model = train(TrainingSet(list(pts[:n]), y), k_full[:n, :n], c, tol=1e-10)
        _, _, obj_ref = qp_reference(k_full[:n, :n], y, c)
        assert abs(model.dual_objective - obj_ref) <= 1e-6


class TestSelectionReference:
    """`train` selects pairs exactly as the index-list reference does."""

    @pytest.mark.parametrize("log2_c", range(-8, 9, 2))
    def test_bitwise_equal_on_random_instances(self, log2_c):
        c = 2.0 ** log2_c
        rng = np.random.default_rng(2000 + log2_c)
        for _ in range(5):
            pts, y, k = random_instance(rng, 26, g=float(rng.uniform(0.5, 3.0)))
            model = train(TrainingSet(list(pts), y), k, c)
            alpha, bias, updates = smo_index_selection(k, y, c, 1e-3)
            assert np.array_equal(model.alphas, alpha)
            assert model.bias == bias
            assert model.updates == updates

    def test_bitwise_equal_with_all_alphas_at_bound(self):
        k = np.eye(4)
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = train(TrainingSet(list(range(4)), y), k, 0.5, tol=1e-10)
        alpha, bias, updates = smo_index_selection(k, y, 0.5, 1e-10)
        assert model.bias_fallback
        assert np.all(alpha == 0.5)
        assert np.array_equal(model.alphas, alpha)
        assert model.bias == bias
        assert model.updates == updates


class TestReachedC:
    """`reached_c` is set once an alpha equals C after some update; when it
    stays unset, any larger C repeats the run bit for bit."""

    def instance(self):
        rng = np.random.default_rng(37)
        pts, y, k = random_instance(rng, 4)
        return TrainingSet(list(pts), y), k

    def test_alpha_that_reaches_c_and_leaves_keeps_the_flag(self):
        ts, k = self.instance()
        model = train(ts, k, 2.0)
        assert model.reached_c
        assert np.all(model.alphas < 2.0)
        # the final alphas alone would call C = 4 a repeat, which it is not
        larger = train(ts, k, 4.0)
        assert not np.array_equal(larger.alphas, model.alphas)
        assert larger.updates != model.updates

    def test_no_alpha_at_c_repeats_at_every_larger_c(self):
        ts, k = self.instance()
        model = train(ts, k, 4.0)
        assert not model.reached_c
        for c in (4.5, 8.0, 2.0 ** 20):
            larger = train(ts, k, c)
            assert not larger.reached_c
            assert larger.alphas.tobytes() == model.alphas.tobytes()
            assert larger.bias == model.bias
            assert larger.updates == model.updates
            assert larger.bias_fallback == model.bias_fallback
            assert larger.dual_objective == model.dual_objective


class TestGramAsymmetricWithinCheck:
    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_index_selection(self, seed):
        # the symmetry check lets K[i, j] and K[j, i] differ by 1e-12 of
        # max|K|; SMO reads K's columns, as the reference does
        rng = np.random.default_rng(5000 + seed)
        for log2_c in range(-6, 9, 2):
            pts, y, k = random_instance(rng, 24, g=float(rng.uniform(0.5, 3.0)))
            k = k + rng.uniform(-4e-13, 4e-13, k.shape)
            assert 0 < np.max(np.abs(k - k.T)) <= 1e-12 * np.max(np.abs(k))
            c = 2.0 ** log2_c
            model = train(TrainingSet(list(pts), y), k, c)
            alpha, bias, updates = smo_index_selection(k, y, c, 1e-3)
            assert np.array_equal(model.alphas, alpha)
            assert model.bias == bias
            assert model.updates == updates


class TestConstraintsAndKkt:
    def test_box_and_equality(self):
        rng = np.random.default_rng(3)
        pts, y, k = random_instance(rng, 12)
        c = 2.0
        model = train(TrainingSet(list(pts), y), k, c, tol=1e-8)
        assert np.all(model.alphas >= 0.0)
        assert np.all(model.alphas <= c)
        assert abs(np.dot(model.alphas, y)) <= 1e-8 * c * len(y)

    def test_free_support_vector_reproduces_label(self):
        rng = np.random.default_rng(4)
        pts, y, k = random_instance(rng, 10)
        model = train(TrainingSet(list(pts), y), k, C=5.0, tol=1e-10)
        free = (model.alphas > 1e-9) & (model.alphas < 5.0 - 1e-9)
        dec = decision_from_gram(model, k)
        for i in np.where(free)[0]:
            assert predict_from_gram(model, k[:, i]) == y[i]
            assert np.isclose(dec[i], y[i], atol=1e-6)

    def test_monotone_dual_ascent(self):
        rng = np.random.default_rng(5)
        pts, y, k = random_instance(rng, 10)
        model = train(TrainingSet(list(pts), y), k, C=1.0, tol=1e-8,
                      record_objective=True)
        hist = model.objective_history
        assert len(hist) > 1
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))
        assert np.isclose(hist[-1], model.dual_objective, rtol=1e-12)

    def test_reorder_invariant_predictions(self):
        rng = np.random.default_rng(6)
        pts, y, k_full = random_instance(rng, 8, extra=5)
        k = k_full[:8, :8]
        model = train(TrainingSet(list(pts[:8]), y), k, C=1.0, tol=1e-10)
        perm = rng.permutation(8)
        kp = k[np.ix_(perm, perm)]
        model_p = train(TrainingSet(list(pts[perm]), y[perm]), kp, C=1.0,
                        tol=1e-10)
        for t in range(8, 13):
            a = predict_from_gram(model, k_full[:8, t])
            b = predict_from_gram(model_p, k_full[perm, t])
            assert a == b


class TestErrors:
    def test_c_zero_rejected(self):
        with pytest.raises(ValueError, match="C must be positive"):
            train(TrainingSet([0, 1], np.array([1.0, -1.0])), np.eye(2), 0.0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            train(TrainingSet([0, 1], np.array([1.0, 1.0])), np.eye(2), 1.0)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^sample and label counts differ$"):
            TrainingSet([0, 1, 2], np.array([1.0, -1.0]))

    def test_gram_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match=(
                r"^gram shape \(3, 3\) does not match 2 samples$")):
            train(TrainingSet([0, 1], np.array([1.0, -1.0])), np.eye(3), 1.0)

    def test_nonsymmetric_gram_rejected(self):
        k = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            train(TrainingSet([0, 1], np.array([1.0, -1.0])), k, 1.0)

    def test_nan_gram_rejected(self):
        k = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            train(TrainingSet([0, 1], np.array([1.0, -1.0])), k, 1.0)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            TrainingSet([0, 1], np.array([1.0, 0.0]))

    @pytest.mark.parametrize("labels, bad", [
        ([1, 0], r"\[0.0\]"),
        ([1.0, -1.0, 2.0, 0.5], r"\[0.5, 2.0\]"),
        ([-1.0, np.nan], r"\[nan\]"),
    ])
    def test_bad_labels_named_as_plain_numbers(self, labels, bad):
        # formatted as stratified_folds formats them, not as numpy reprs
        with pytest.raises(ValueError, match=rf"^labels must be -1 or \+1, "
                                             rf"found {bad}$"):
            TrainingSet(list(range(len(labels))), labels)

    def test_update_cap_raises(self):
        rng = np.random.default_rng(7)
        pts, y, k = random_instance(rng, 10)
        with pytest.raises(ConvergenceError):
            train(TrainingSet(list(pts), y), k, C=1.0, tol=0.0, max_updates=3)

    @pytest.mark.parametrize("tol", [np.nan, -1e-3])
    def test_unmeetable_tol_rejected(self, tol):
        # no KKT violation is <= a NaN or negative tol, so SMO would run to
        # the update cap; it is refused before any update
        rng = np.random.default_rng(7)
        pts, y, k = random_instance(rng, 10)
        with pytest.raises(ValueError, match=f"tol must be nonnegative, got {tol}"):
            train(TrainingSet(list(pts), y), k, C=1.0, tol=tol, max_updates=1000)


class TestBiasFallback:
    def test_all_alphas_at_bounds(self):
        # two identical same-label points plus opposites, tiny C: every
        # alpha saturates at C and the midpoint rule kicks in
        k = np.eye(4)
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = train(TrainingSet(list(range(4)), y), k, C=0.5, tol=1e-10)
        assert model.bias_fallback
        f0 = (model.alphas * y) @ k
        expected = -0.5 * (np.max(f0[y < 0]) + np.min(f0[y > 0]))
        assert np.isclose(model.bias, expected, rtol=1e-12)


class TestTieRule:
    def test_sign_zero_is_plus_one(self):
        # an exactly balanced instance puts the midpoint at zero; the
        # query equidistant to both classes gets decision 0 -> +1
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        k = gaussian_gram(pts, 1.0)
        y = np.array([1.0, -1.0])
        model = train(TrainingSet(list(pts), y), k, C=10.0, tol=1e-10)
        mid = np.array([np.exp(-0.5), np.exp(-0.5)])  # K(x_i, origin)
        assert decision_from_gram(model, mid) == pytest.approx(0.0, abs=1e-12)
        assert predict_from_gram(model, mid) == 1


class TestKernelBackedPrediction:
    def test_predict_via_spec(self):
        rng = np.random.default_rng(8)
        from stmkernels.decomp import weighted_hosvd
        samples = [weighted_hosvd(rng.standard_normal((4, 4, 4)), (2, 2, 2))
                   for _ in range(8)]
        y = np.array([1.0, -1.0] * 4)
        spec = KernelSpec("wsek", g=2.0)
        k = gram_matrix(samples, spec)
        model = train(TrainingSet(samples, y), k, C=10.0, tol=1e-10, spec=spec)
        x = weighted_hosvd(rng.standard_normal((4, 4, 4)), (2, 2, 2))
        kvec = np.array([kernel_value_for(spec, s, x) for s in samples])
        assert predict(model, x) == predict_from_gram(model, kvec)
        assert np.isclose(decision_value(model, x),
                          float(decision_from_gram(model, kvec)), rtol=1e-12)

    def test_grid_spec_rejected_by_decision_value(self):
        rng = np.random.default_rng(10)
        from stmkernels.decomp import weighted_hosvd
        samples = [weighted_hosvd(rng.standard_normal((4, 4, 4)), (2, 2, 2))
                   for _ in range(4)]
        y = np.array([1.0, -1.0] * 2)
        grid = KernelSpec("wsek", g=(2.0, 4.0))
        k = gram_matrix(samples, grid)[0]
        model = train(TrainingSet(samples, y), k, C=10.0, tol=1e-10, spec=grid)
        with pytest.raises(ValueError, match="not a grid"):
            decision_value(model, samples[0])

    def test_model_without_spec_rejected_by_decision_value(self):
        rng = np.random.default_rng(11)
        pts, y, k = random_instance(rng, 6)
        model = train(TrainingSet(list(pts), y), k, C=1.0)
        with pytest.raises(ValueError, match=(
                "^model carries no kernel spec; use decision_from_gram$")):
            decision_value(model, pts[0])

    def test_objective_helper(self):
        rng = np.random.default_rng(9)
        pts, y, k = random_instance(rng, 6)
        model = train(TrainingSet(list(pts), y), k, C=1.0, tol=1e-10)
        assert np.isclose(dual_objective(model.alphas, y, k),
                          model.dual_objective, rtol=1e-12)


def kernel_value_for(spec, a, b):
    from stmkernels.kernels import kernel_value
    return kernel_value(spec, a, b)

"""The four tensor kernels and Gram assembly."""

import copy
import math
import warnings

import numpy as np
import pytest

from stmkernels.decomp import (
    KruskalTensor,
    TuckerTensor,
    reweight,
    tt_svd,
    tucker_to_cp,
    weighted_hosvd,
)
from stmkernels.kernels import (
    KernelSpec,
    dusk_kernel,
    gaussian_kernel,
    gram_matrix,
    kernel_value,
    scalar_kernel,
    subspace_kernel,
    wsek_kernel,
)

from oracles import (
    dusk_double_loop,
    gauss_scalar,
    subspace_projector_kernel,
    wsek_pairwise_loop,
)


def random_tucker(rng, shape=(6, 6, 6), ranks=(2, 2, 2), p=1 / 3):
    return weighted_hosvd(rng.standard_normal(shape), ranks, p=p)


def random_kruskal(rng, shape=(6, 6, 6), rank=2):
    return KruskalTensor([rng.standard_normal((i, rank)) for i in shape])


def as_format(fmt, t, rank=2):
    """Order-3 dense tensor `t` as "dense", "tucker", "kruskal" or "tt"."""
    if fmt == "dense":
        return t
    if fmt == "tucker":
        return weighted_hosvd(t, (rank,) * 3, p=1 / 3)
    if fmt == "kruskal":
        # the CP expansion with part of each column moved into the weights
        cp = tucker_to_cp(weighted_hosvd(t, (rank,) * 3, p=0.0))
        w = np.linspace(0.5, 2.0, cp.rank)
        return KruskalTensor([f * w ** (-1 / 3) for f in cp.factors], w)
    return tt_svd(t, (rank, rank))


# (kind, format) for every kernel and every format `gaussian` accepts
KIND_FORMATS = [("gaussian", "dense"), ("gaussian", "tucker"),
                ("gaussian", "kruskal"), ("gaussian", "tt"),
                ("dusk", "kruskal"), ("subspace", "tucker"), ("wsek", "tucker")]


class TestScalarKernel:
    def test_self_is_one(self):
        a = np.array([1.0, -2.0, 0.5])
        assert scalar_kernel(a, a, 1.7) == 1.0

    def test_analytic_value(self):
        assert np.isclose(scalar_kernel([0.0], [2.0], 1.0), math.exp(-2.0),
                          rtol=1e-15)

    def test_matches_flat_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(7), rng.standard_normal(7)
        assert np.isclose(scalar_kernel(a, b, 0.9), gauss_scalar(a, b, 0.9),
                          rtol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            scalar_kernel([1.0], [1.0, 2.0], 1.0)

    def test_bad_g(self):
        with pytest.raises(ValueError, match="positive"):
            scalar_kernel([1.0], [1.0], 0.0)
        with pytest.raises(ValueError, match="finite"):
            scalar_kernel([1.0], [1.0], math.inf)
        with pytest.raises(ValueError, match="not a grid"):
            scalar_kernel([1.0], [2.0], (1.0,))


class TestGaussianKernel:
    def test_self_is_one_dense_and_decomposed(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((4, 4, 4))
        assert gaussian_kernel(t, t, 2.0) == 1.0
        tk = weighted_hosvd(t, (2, 2, 2))
        assert gaussian_kernel(tk, tk, 2.0) == 1.0

    def test_dense_vs_tucker_agree_at_exact_rank(self):
        rng = np.random.default_rng(2)
        from test_decomp import random_tucker_tensor
        x = random_tucker_tensor(rng, (6, 6, 6), (2, 2, 2))
        y = random_tucker_tensor(rng, (6, 6, 6), (2, 2, 2))
        kd = gaussian_kernel(x, y, 2.0)
        kt = gaussian_kernel(weighted_hosvd(x, (2, 2, 2)),
                             weighted_hosvd(y, (2, 2, 2)), 2.0)
        assert np.isclose(kd, kt, rtol=1e-10)

    def test_matches_flat_norm_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 3, 3))
        y = rng.standard_normal((3, 3, 3))
        expected = math.exp(-np.sum((x - y) ** 2) / (2 * 4.0))
        assert np.isclose(gaussian_kernel(x, y, 2.0), expected, rtol=1e-13)

    def test_kruskal_and_tt_formats(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4, 4))
        y = rng.standard_normal((4, 4, 4))
        expected = gaussian_kernel(x, y, 3.0)
        kx = tt_svd(x, (4, 4))
        ky = tt_svd(y, (4, 4))
        assert np.isclose(gaussian_kernel(kx, ky, 3.0), expected, rtol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            gaussian_kernel(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)


class TestDuskKernel:
    def test_rank_one_identical(self):
        rng = np.random.default_rng(5)
        x = random_kruskal(rng, rank=1)
        y = KruskalTensor([f.copy() for f in x.factors])
        assert np.isclose(dusk_kernel(x, y, 1.0), 1.0, rtol=1e-14)

    def test_rank_one_single_mode_offset(self):
        rng = np.random.default_rng(6)
        x = random_kruskal(rng, rank=1)
        factors = [f.copy() for f in x.factors]
        d = 0.7
        offset = np.zeros_like(x.factors[0])
        offset[0, 0] = d       # mode-1 columns differ by distance exactly d
        factors[0] = x.factors[0] + offset
        y = KruskalTensor(factors)
        g = 1.3
        assert np.isclose(dusk_kernel(x, y, g), math.exp(-d * d / (2 * g * g)),
                          rtol=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = random_kruskal(rng, rank=2)
        y = random_kruskal(rng, rank=2)
        assert np.isclose(dusk_kernel(x, y, 1.1),
                          dusk_double_loop(x.factors, y.factors, 1.1),
                          rtol=1e-12)

    def test_unequal_ranks_extend_double_sum(self):
        rng = np.random.default_rng(8)
        x = random_kruskal(rng, rank=2)
        y = random_kruskal(rng, rank=3)
        assert np.isclose(dusk_kernel(x, y, 1.0),
                          dusk_double_loop(x.factors, y.factors, 1.0),
                          rtol=1e-12)

    def test_mode_size_mismatch(self):
        rng = np.random.default_rng(9)
        x = random_kruskal(rng, shape=(4, 4, 4))
        y = random_kruskal(rng, shape=(4, 5, 4))
        with pytest.raises(ValueError, match="shape mismatch"):
            dusk_kernel(x, y, 1.0)

    def test_value_bound(self):
        rng = np.random.default_rng(10)
        x = random_kruskal(rng, rank=3)
        y = random_kruskal(rng, rank=2)
        v = dusk_kernel(x, y, 2.0)
        assert 0 < v <= 6.0


class TestSubspaceKernel:
    def test_self_is_one(self):
        rng = np.random.default_rng(11)
        x = random_tucker(rng)
        assert subspace_kernel(x, x, 1.0) == 1.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(12)
        x = random_tucker(rng, p=0.0)
        rotated = []
        for f in x.factors:
            q, _ = np.linalg.qr(rng.standard_normal((f.shape[1], f.shape[1])))
            rotated.append(f @ q)
        y = TuckerTensor(core=x.core.copy(), factors=rotated, p=0.0)
        assert np.isclose(subspace_kernel(x, y, 1.0), 1.0, atol=1e-12)

    def test_orthogonal_rank_one_frozen_value(self):
        # u perpendicular to v in every mode: ||uu' - vv'||_F^2 = 2 per
        # mode, so the kernel is exp(-3) at g=1 for an order-3 tensor
        core = np.ones((1, 1, 1))
        u = np.zeros((4, 1)); u[0, 0] = 1.0
        v = np.zeros((4, 1)); v[1, 0] = 1.0
        x = TuckerTensor(core=core, factors=[u, u, u])
        y = TuckerTensor(core=core, factors=[v, v, v])
        assert np.isclose(subspace_kernel(x, y, 1.0), math.exp(-3.0), rtol=1e-12)

    def test_matches_projector_oracle(self):
        rng = np.random.default_rng(13)
        x = random_tucker(rng)
        y = random_tucker(rng)
        expected = subspace_projector_kernel(x.unweighted_factors(),
                                             y.unweighted_factors(), 1.4)
        assert np.isclose(subspace_kernel(x, y, 1.4), expected, rtol=1e-12)

    def test_weighting_invariance(self):
        rng = np.random.default_rng(14)
        t = rng.standard_normal((5, 5, 5))
        a = weighted_hosvd(t, (2, 2, 2), p=0.0)
        b = weighted_hosvd(t, (2, 2, 2), p=0.8)
        z = weighted_hosvd(rng.standard_normal((5, 5, 5)), (2, 2, 2), p=0.3)
        assert np.isclose(subspace_kernel(a, z, 1.0), subspace_kernel(b, z, 1.0),
                          rtol=1e-12)

    def test_different_ranks_allowed(self):
        rng = np.random.default_rng(15)
        x = random_tucker(rng, ranks=(2, 2, 2))
        y = random_tucker(rng, ranks=(3, 3, 3))
        expected = subspace_projector_kernel(x.unweighted_factors(),
                                             y.unweighted_factors(), 1.0)
        assert np.isclose(subspace_kernel(x, y, 1.0), expected, rtol=1e-12)


class TestWsekKernel:
    def test_self_rank_one_is_one(self):
        rng = np.random.default_rng(16)
        x = random_tucker(rng, ranks=(1, 1, 1))
        assert np.isclose(wsek_kernel(x, x, 1.0), 1.0, rtol=1e-14)

    def test_self_rank_two_formula(self):
        rng = np.random.default_rng(17)
        x = random_tucker(rng, ranks=(2, 2, 2))
        g = 1.2
        expected = 1.0
        for f in x.factors:
            k12 = gauss_scalar(f[:, 0], f[:, 1], g)
            expected *= 2.0 + 2.0 * k12
        assert np.isclose(wsek_kernel(x, x, g), expected, rtol=1e-12)
        assert np.isclose(wsek_kernel(x, x, g),
                          wsek_pairwise_loop(x.factors, x.factors, g), rtol=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(18)
        x = random_tucker(rng)
        y = random_tucker(rng)
        assert np.isclose(wsek_kernel(x, y, 0.8),
                          wsek_pairwise_loop(x.factors, y.factors, 0.8),
                          rtol=1e-12)

    def test_distant_columns_diagonal_dominates(self):
        # all pairwise distances >> g: the value collapses to almost
        # nothing and is bounded by R * exp(-dmin^2 / 2g^2) per mode
        core = np.ones((1, 1, 1))
        far = np.zeros((6, 1)); far[0, 0] = 50.0
        near = np.zeros((6, 1)); near[1, 0] = 1.0
        x = TuckerTensor(core=core, factors=[far, far, far])
        y = TuckerTensor(core=core, factors=[near, near, near])
        g = 1.0
        dmin2 = 50.0 ** 2 + 1.0
        assert wsek_kernel(x, y, g) <= (1 * math.exp(-dmin2 / (2 * g * g))) ** 3 * 1.001

    def test_differing_p_rejected(self):
        rng = np.random.default_rng(19)
        t = rng.standard_normal((5, 5, 5))
        a = weighted_hosvd(t, (2, 2, 2), p=0.2)
        b = weighted_hosvd(t, (2, 2, 2), p=0.4)
        with pytest.raises(ValueError, match="weighting powers differ"):
            wsek_kernel(a, b, 1.0)

    def test_p_zero_permutation_invariance(self):
        rng = np.random.default_rng(20)
        x = random_tucker(rng, p=0.0)
        permuted = [f[:, ::-1].copy() for f in x.factors]
        y = TuckerTensor(core=x.core.copy(), factors=permuted, p=0.0)
        z = random_tucker(rng, p=0.0)
        assert np.isclose(wsek_kernel(x, z, 1.0), wsek_kernel(y, z, 1.0),
                          rtol=1e-12)


class TestSymmetryAndMonotonicity:
    def test_bitwise_symmetry_all_kernels(self):
        # swapping the arguments, or the order in which the two samples
        # were allocated, leaves every bit of the value unchanged
        rng = np.random.default_rng(21)
        for kind, fmt in KIND_FORMATS:
            a = as_format(fmt, rng.standard_normal((5, 5, 5)))
            b = as_format(fmt, rng.standard_normal((5, 5, 5)), rank=3)
            spec = KernelSpec(kind, g=1.3)
            values = set()
            for x_first in (True, False):
                if x_first:
                    x = copy.deepcopy(a)
                    y = copy.deepcopy(b)
                else:
                    y = copy.deepcopy(b)
                    x = copy.deepcopy(a)
                values.add(kernel_value(spec, x, y))
                values.add(kernel_value(spec, y, x))
            assert len(values) == 1, (kind, fmt)

    @pytest.mark.parametrize("kind,fmt", [("gaussian", "dense"),
                                          ("gaussian", "tucker"),
                                          ("gaussian", "kruskal"),
                                          ("gaussian", "tt"),
                                          ("subspace", "tucker")])
    def test_near_duplicate_pair_stays_in_range(self, kind, fmt):
        # expanded squared distances of almost equal samples cancel to
        # rounding noise that may be negative; it must not lift K above 1
        rng = np.random.default_rng(29)
        t = 10.0 * rng.standard_normal((5, 5, 5))
        samples = [as_format(fmt, t + 1e-9 * rng.standard_normal(t.shape))
                   for _ in range(8)]
        for g in (2.0 ** -4, 1.0):
            spec = KernelSpec(kind, g=g)
            values = [kernel_value(spec, samples[0], y) for y in samples[1:]]
            k = gram_matrix(samples, spec)
            assert not np.isnan(values).any() and max(values) <= 1.0
            assert not np.isnan(k).any() and k.max() <= 1.0

    def test_monotone_in_g(self):
        rng = np.random.default_rng(22)
        tx = random_tucker(rng)
        ty = random_tucker(rng)
        kx = random_kruskal(rng)
        ky = random_kruskal(rng)
        grid = [2.0 ** k for k in range(-4, 13)]
        for fn, a, b in [(gaussian_kernel, tx, ty), (dusk_kernel, kx, ky),
                         (subspace_kernel, tx, ty), (wsek_kernel, tx, ty)]:
            values = [fn(a, b, g) for g in grid]
            assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(values, values[1:]))


class TestGramMatrix:
    @pytest.mark.parametrize("kind,fmt", KIND_FORMATS)
    @pytest.mark.parametrize("mixed_ranks", [False, True])
    def test_matches_kernel_value(self, kind, fmt, mixed_ranks):
        rng = np.random.default_rng(30)
        samples = [as_format(fmt, rng.standard_normal((5, 5, 5)),
                             rank=1 + k % 3 if mixed_ranks else 2)
                   for k in range(5)]
        spec = KernelSpec(kind, g=1.5)
        k = gram_matrix(samples, spec)
        expected = [[kernel_value(spec, x, y) for y in samples] for x in samples]
        np.testing.assert_allclose(k, expected, rtol=1e-12, atol=0.0)
        assert np.array_equal(k, k.T)

    @pytest.mark.parametrize("kind,fmt", KIND_FORMATS)
    @pytest.mark.parametrize("mixed_ranks", [False, True])
    def test_grid_bitwise_equals_per_g_grams(self, kind, fmt, mixed_ranks):
        # the whole g grid in one call, against one call per g
        rng = np.random.default_rng(31)
        samples = [as_format(fmt, 3.0 * rng.standard_normal((5, 5, 5)),
                             rank=1 + k % 3 if mixed_ranks else 2)
                   for k in range(6)]
        grid = tuple(2.0 ** e for e in range(-4, 13))
        stack = gram_matrix(samples, KernelSpec(kind, g=grid))
        assert stack.shape == (len(grid), 6, 6)
        for layer, g in zip(stack, grid):
            k = gram_matrix(samples, KernelSpec(kind, g=g))
            assert k.shape == (6, 6)
            assert np.array_equal(layer, k), (kind, fmt, g)

    def test_one_entry_grid_is_a_stack(self):
        rng = np.random.default_rng(32)
        samples = [random_tucker(rng) for _ in range(3)]
        stack = gram_matrix(samples, KernelSpec("wsek", g=(1.5,)))
        assert stack.shape == (1, 3, 3)
        assert np.array_equal(
            stack[0], gram_matrix(samples, KernelSpec("wsek", g=1.5)))

    def test_single_sample(self):
        rng = np.random.default_rng(23)
        x = random_tucker(rng)
        k = gram_matrix([x], KernelSpec("wsek", g=1.0))
        assert k.shape == (1, 1)
        assert np.isclose(k[0, 0], wsek_kernel(x, x, 1.0), rtol=1e-14)

    def test_psd_eigenvalue_check(self):
        rng = np.random.default_rng(24)
        samples = [random_tucker(rng, shape=(5, 5, 5)) for _ in range(5)]
        k = gram_matrix(samples, KernelSpec("wsek", g=1.0))
        eig = np.linalg.eigvalsh(k)
        assert eig.min() >= -1e-8 * eig.max()

    def test_permutation_consistency(self):
        rng = np.random.default_rng(25)
        samples = [random_tucker(rng) for _ in range(4)]
        spec = KernelSpec("subspace", g=1.0)
        k = gram_matrix(samples, spec)
        perm = [2, 0, 3, 1]
        kp = gram_matrix([samples[i] for i in perm], spec)
        assert np.allclose(kp, k[np.ix_(perm, perm)], atol=1e-15)

    def test_diagonal_exactly_one(self):
        rng = np.random.default_rng(26)
        samples = [random_tucker(rng) for _ in range(3)]
        for kind in ("gaussian", "subspace"):
            k = gram_matrix(samples, KernelSpec(kind, g=2.0))
            assert np.all(np.diag(k) == 1.0)

    def test_heterogeneous_rejected(self):
        rng = np.random.default_rng(27)
        x = random_tucker(rng)
        y = random_kruskal(rng)
        with pytest.raises(ValueError, match="mixed representations"):
            gram_matrix([x, y], KernelSpec("gaussian", g=1.0))

    def test_kernel_value_dispatch(self):
        rng = np.random.default_rng(28)
        x = random_tucker(rng)
        y = random_tucker(rng)
        assert kernel_value(KernelSpec("subspace", g=1.5), x, y) == \
            subspace_kernel(x, y, 1.5)

    @pytest.mark.parametrize("kind", ["gaussian", "wsek"])
    def test_distances_float64_cannot_hold_rejected(self, kind):
        # sigma ~ 1e200 at p = 0.8 weights the factors by ~1e160: reweight
        # holds them, their squared norms do not fit in float64
        rng = np.random.default_rng(29)
        samples = [reweight(weighted_hosvd(
            1e200 * rng.standard_normal((4, 4, 4)), (2, 2, 2), 0.0), 0.8)
            for _ in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                    rf"^{kind} Gram holds non-finite entries")):
                gram_matrix(samples, KernelSpec(kind, g=(1.0, 2.0)))
            # the single-pair views share the Gram's refusal
            x, y = samples[:2]
            pair = {"gaussian": gaussian_kernel, "wsek": wsek_kernel}[kind]
            for value in (lambda: pair(x, y, 1.0),
                          lambda: kernel_value(KernelSpec(kind, g=1.0), x, y)):
                with pytest.raises(ValueError, match=(
                        rf"^{kind} kernel value holds non-finite entries")):
                    value()


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown kernel kind"):
            KernelSpec("rbf", g=1.0)
        with pytest.raises(ValueError, match="positive"):
            KernelSpec("gaussian", g=0.0)

    @pytest.mark.parametrize("g, message", [
        (math.inf, "length scale g must be finite, got inf"),
        (math.nan, "length scale g must be positive, got nan"),
        ((), "length scale grid g must be a nonempty sequence"),
        ((1.0, math.inf), "length scale g must be finite, got inf"),
        ((1.0, math.nan), "length scale g must be positive, got nan"),
        ((2.0, -1.0), "length scale g must be positive, got -1.0"),
        # 2g^2 underflows to 0 below about 2**-537
        (2.0 ** -600, "length scale g must be large enough that 2g^2 is "
                      "not 0, got 2.409919865102884e-181"),
        ((2.0 ** -538, 1.0), "length scale g must be large enough that 2g^2 "
                             "is not 0, got 1.1113793747425387e-162"),
    ])
    def test_unusable_length_scales_rejected(self, g, message):
        with pytest.raises(ValueError) as err:
            KernelSpec("wsek", g=g)
        assert str(err.value) == message

    def test_grid_kept_as_tuple(self):
        assert KernelSpec("dusk", g=[1.0, 2.0]).g == (1.0, 2.0)
        assert KernelSpec("dusk", g=2.0).g == 2.0

    @pytest.mark.parametrize("kind,fmt", KIND_FORMATS)
    def test_single_pair_functions_reject_a_grid(self, kind, fmt):
        rng = np.random.default_rng(33)
        x, y = (as_format(fmt, rng.standard_normal((5, 5, 5)))
                for _ in range(2))
        by_kind = {"gaussian": gaussian_kernel, "dusk": dusk_kernel,
                   "subspace": subspace_kernel, "wsek": wsek_kernel}
        for g in ((1.0,), (1.0, 2.0)):
            with pytest.raises(ValueError, match="not a grid"):
                kernel_value(KernelSpec(kind, g=g), x, y)
            with pytest.raises(ValueError, match="not a grid"):
                by_kind[kind](x, y, g)

"""The four tensor kernels and Gram assembly."""

import copy
import math
import tracemalloc
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
    dusk_pair_sums,
    gauss_scalar,
    subspace_projector_kernel,
    tucker_inner_chain,
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


class _OnePass:
    """A sized iterable with no __getitem__ that records its passes and
    the samples it gave, in order; `length` is what len() reports."""

    def __init__(self, samples, length=None):
        self.samples = samples
        self.length = len(samples) if length is None else length
        self.passes = 0
        self.read = []

    def __len__(self):
        return self.length

    def __iter__(self):
        self.passes += 1
        for s in self.samples:
            self.read.append(s)
            yield s


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

    @pytest.mark.parametrize("samples, kind, error, message", [
        ([], "gaussian", ValueError, "empty sample list"),
        ([np.ones((2, 2))], "dusk", TypeError,
         "dusk kernel requires KruskalTensor inputs"),
        ([np.float64(1.0)], "gaussian", TypeError,
         "unsupported tensor representation float64"),
    ])
    def test_unusable_samples_rejected(self, samples, kind, error, message):
        with pytest.raises(error) as err:
            gram_matrix(samples, KernelSpec(kind, g=1.0))
        assert str(err.value) == message

    @pytest.mark.parametrize("kind,fmt", [
        ("gaussian", "tucker"), ("dusk", "kruskal"), ("subspace", "tucker"),
        ("wsek", "tucker")])
    def test_sized_iterable_read_once_in_order(self, kind, fmt):
        # no __getitem__: the Gram must come from one pass over the samples
        rng = np.random.default_rng(33)
        samples = [as_format(fmt, rng.standard_normal((5, 5, 5)))
                   for _ in range(5)]
        once = _OnePass(samples)
        spec = KernelSpec(kind, g=(0.5, 2.0))
        stack = gram_matrix(once, spec)
        assert once.passes == 1 and once.read == samples
        assert stack.tobytes() == gram_matrix(samples, spec).tobytes()

    @pytest.mark.parametrize("length", [3, 5])
    def test_length_other_than_the_samples_read_rejected(self, length):
        rng = np.random.default_rng(34)
        samples = [random_tucker(rng) for _ in range(4)]
        with pytest.raises(ValueError) as err:
            gram_matrix(_OnePass(samples, length), KernelSpec("wsek", g=1.0))
        assert str(err.value) == f"samples has length {length} but yields 4 samples"

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


G_GRID_17 = tuple(2.0 ** k for k in range(-4, 13))


def dusk_samples(rank, mode, n, seed=0):
    """`n` Tucker -> CP samples of `rank`**3 terms, the harness's dusk view."""
    rng = np.random.default_rng(seed)
    return [tucker_to_cp(weighted_hosvd(rng.standard_normal((mode,) * 3),
                                        (rank,) * 3, p=0.0))
            for _ in range(n)]


class TestExpPerG:
    def test_one_block_alive_and_bitwise_equal_per_g(self):
        # a mode-100 rank-6 dusk pair's exponent grid, 216 x 216 terms
        from stmkernels.kernels import _exp_per_g
        expo = np.random.default_rng(40).uniform(0.0, 60.0, (216, 216))
        g = np.array(G_GRID_17)
        block = 8 * len(g) * expo.size
        tracemalloc.start()
        try:
            out = _exp_per_g(expo, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * block
        expected = np.stack([np.exp(-expo / (2.0 * v * v)) for v in g])
        assert out.tobytes() == expected.tobytes()


class TestDuskBlocks:
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_capped_blocks_bitwise_equal_one_block(self, monkeypatch, rank):
        from stmkernels import kernels
        samples = dusk_samples(rank, mode=6, n=4)
        spec = KernelSpec("dusk", g=G_GRID_17)
        whole = gram_matrix(samples, spec)  # one block at the default cap
        terms, width = rank ** 3, 3 * 6
        cap = (terms // 2 + 1) * terms * width
        rows, per_block = cap // (terms * width), cap // terms ** 2
        # the last row block and the last g block are short ones
        assert 0 < terms % rows and 0 < len(G_GRID_17) % per_block
        monkeypatch.setattr(kernels, "_DUSK_BLOCK", cap)
        assert gram_matrix(samples, spec).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("cap", [None, 2 ** 16])
    def test_rank5_pair_memory_bounded_by_cap(self, monkeypatch, cap):
        # mode 100, rank 5: 125 x 125 terms over 300 rows of factors, whose
        # difference block alone would be 37.5 MB
        from stmkernels import kernels
        if cap is not None:
            monkeypatch.setattr(kernels, "_DUSK_BLOCK", cap)
        cap = kernels._DUSK_BLOCK
        pair = dusk_samples(5, mode=100, n=2)
        terms, width = 125, 300
        tracemalloc.start()
        try:
            gram_matrix(pair, KernelSpec("dusk", g=G_GRID_17))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # alive at once: two blocks of at most `cap` floats (a difference
        # block and its einsum, or an exp block and its quotient), the
        # exponent grid, its negation and the output, and both views
        assert peak < 8 * (2 * cap + 3 * terms ** 2 + 2 * terms * width)

    def test_rank1_pairs_share_exp_blocks(self, monkeypatch):
        # mode 100, rank 1: a pair is one term over 300 rows of factors, so
        # a row's 12 pairs and 17 g are one block of each kind, far below
        # the cap, and no pair takes a block of its own
        from stmkernels import kernels
        samples = dusk_samples(1, mode=100, n=12)
        blocks = []  # (pairs, g's) of each exp block
        exp_per_g = kernels._exp_per_g

        def recording(expo, g):
            blocks.append((len(expo), len(g)))
            return exp_per_g(expo, g)

        monkeypatch.setattr(kernels, "_exp_per_g", recording)
        got = gram_matrix(samples, KernelSpec("dusk", g=G_GRID_17))
        assert blocks == [(12 - i, 17) for i in range(12)]
        expected = _reference_gram(monkeypatch, samples, "dusk", G_GRID_17)
        assert got.tobytes() == expected.tobytes()


def _reference_gram(monkeypatch, samples, kind, g):
    """`gram_matrix` with the per-pair references of tests/oracles.py in
    place of the Tucker inner-product row and the `dusk` row."""
    from stmkernels import kernels
    inner = kernels._inner_row
    required, view, _, unit_diagonal = kernels._EVALUATORS["dusk"]
    with monkeypatch.context() as patched:
        patched.setattr(kernels, "_inner_row", lambda x, ys: (
            tucker_inner_chain(x, ys) if isinstance(x, TuckerTensor)
            else inner(x, ys)))
        patched.setitem(kernels._EVALUATORS, "dusk",
                        (required, view, dusk_pair_sums, unit_diagonal))
        return gram_matrix(samples, KernelSpec(kind, g=g))


def _generated(mode, ranks, p, seed=7):
    """Decompositions of generated samples at each rank, by the harness's
    path, rank -> list."""
    from stmkernels import harness
    from stmkernels.synth import SynthConfig, generate
    cfg = SynthConfig(scenario="leaf", mode_size=mode, r_exact=3,
                      r_approx=max(ranks), noise_variance=0.1,
                      samples_per_class=3, seed=seed)
    samples = [s.tensor for s in generate(cfg)]
    return harness._decompose_by_rank(samples, ranks, p, 0.1)


def _with_layout(t, layout):
    """TuckerTensor `t` with its core copied into `layout` ("C" or "F")."""
    return TuckerTensor(np.array(t.core, order=layout), t.factors, t.sigmas,
                        t.p)


class TestRowBits:
    """The stacked Tucker contractions of `gaussian` and the blocks of
    `dusk` pairs give every bit of the per-pair references."""

    GRIDS = (G_GRID_17, 1.5)

    def assert_bitwise(self, monkeypatch, samples, kind):
        for g in self.GRIDS:
            got = gram_matrix(samples, KernelSpec(kind, g=g))
            expected = _reference_gram(monkeypatch, samples, kind, g)
            assert got.tobytes() == expected.tobytes(), (kind, g)

    @pytest.mark.parametrize("mode", [20, 50, 100])
    @pytest.mark.parametrize("p", [None, 0.0, 0.5])
    def test_generated_decompositions(self, monkeypatch, mode, p):
        from stmkernels.harness import derive_kernel_inputs
        by_rank = _generated(mode, range(1, 11), p)
        for rank, tuckers in by_rank.items():
            assert tuckers[0].ranks == (rank,) * 3
            self.assert_bitwise(monkeypatch, tuckers, "gaussian")
            if rank <= 4:  # rank r has r**6 CP term pairs per entry
                self.assert_bitwise(
                    monkeypatch, derive_kernel_inputs(tuckers, "dusk"), "dusk")

    def test_mixed_ranks(self, monkeypatch):
        # runs of one core shape of lengths 1 to 3, and shapes that recur
        rng = np.random.default_rng(50)
        ranks = [(1, 1, 1), (2, 3, 1), (2, 3, 1), (3, 3, 3), (2, 3, 1),
                 (3, 3, 3), (3, 3, 3), (3, 3, 3), (1, 2, 3), (4, 2, 2)]
        samples = [weighted_hosvd(rng.standard_normal((8, 7, 6)), r)
                   for r in ranks]
        self.assert_bitwise(monkeypatch, samples, "gaussian")
        self.assert_bitwise(monkeypatch, samples[::-1], "gaussian")

    @pytest.mark.parametrize("ranks", [(3, 4, 5), (10, 9, 8)])
    @pytest.mark.parametrize("layout", ["C", "F", "mixed"])
    def test_per_mode_ranks_and_core_layouts(self, monkeypatch, ranks, layout):
        rng = np.random.default_rng(51)
        samples = [weighted_hosvd(rng.standard_normal((12, 11, 10)), ranks)
                   for _ in range(7)]
        layouts = "CCFFFCF" if layout == "mixed" else layout * 7
        samples = [_with_layout(t, order) for t, order in zip(samples, layouts)]
        assert [t.core.flags.c_contiguous for t in samples] == [
            order == "C" for order in layouts]
        self.assert_bitwise(monkeypatch, samples, "gaussian")

    def test_cp_lists_of_mixed_term_counts(self, monkeypatch):
        rng = np.random.default_rng(52)
        terms = [1, 4, 4, 9, 4, 9, 9, 2, 27, 1]
        samples = [KruskalTensor([rng.standard_normal((n, r)) for n in (9, 8, 7)],
                                 rng.uniform(0.5, 2.0, r)) for r in terms]
        self.assert_bitwise(monkeypatch, samples, "dusk")
        self.assert_bitwise(monkeypatch, samples, "gaussian")

    @pytest.mark.parametrize("cap, grid, grouped, split_g", [
        (None, G_GRID_17, True, False),
        (30000, G_GRID_17, True, False),
        (8000, G_GRID_17, True, True),
        (8000, (1.5,), True, False),
        (1, G_GRID_17, False, True)])
    def test_dusk_blocks_split_pairs_and_g(self, monkeypatch, cap, grid,
                                           grouped, split_g):
        # mode 20: pairs of 27 x 27, 27 x 8 and 8 x 8 terms, over 60 rows.
        # At a cap of 8000 a 27 x 27 pair's 17 g split into blocks of 8,
        # while 27 x 8 pairs go 2 to a block; a cap of 1 leaves one g of
        # one pair per block
        from stmkernels import kernels
        samples = dusk_samples(3, mode=20, n=7) + dusk_samples(2, mode=20, n=3)
        if cap is not None:
            monkeypatch.setattr(kernels, "_DUSK_BLOCK", cap)
        blocks = []  # (pairs, g's) of each exp block
        exp_per_g = kernels._exp_per_g

        def recording(expo, g):
            blocks.append((len(expo), len(g)))
            return exp_per_g(expo, g)

        monkeypatch.setattr(kernels, "_exp_per_g", recording)
        got = gram_matrix(samples, KernelSpec("dusk", g=grid))
        assert (max(p for p, _ in blocks) > 1) == grouped
        assert (min(n for _, n in blocks) < len(grid)) == split_g
        expected = _reference_gram(monkeypatch, samples, "dusk", grid)
        assert got.tobytes() == expected.tobytes()

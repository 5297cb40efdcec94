"""Weighted HOSVD, CP-ALS, TT-SVD, and the conversions to CP."""

import ctypes
import warnings

import numpy as np
import pytest

from stmkernels import decomp
from stmkernels.decomp import (
    SIGMA_FLOOR,
    KruskalTensor,
    TTTensor,
    TuckerTensor,
    cp_als,
    equilibrate,
    fix_signs,
    khatri_rao,
    kruskal_reconstruct,
    reweight,
    tt_reconstruct,
    tt_svd,
    tt_to_cp,
    tucker_reconstruct,
    tucker_to_cp,
    weighted_hosvd,
)
from stmkernels.tensor import frobenius_norm, mode_product

from oracles import rank_one_sum, sequential_truncation, tt_chain_truncation


def random_tucker_tensor(rng, shape, ranks):
    """Dense tensor with exact multilinear rank `ranks`."""
    core = rng.standard_normal(ranks)
    t = core
    for m, (i, r) in enumerate(zip(shape, ranks)):
        q, _ = np.linalg.qr(rng.standard_normal((i, r)))
        t = mode_product(t, q, m + 1)
    return t


class TestWeightedHosvd:
    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(0)
        t = random_tucker_tensor(rng, (6, 6, 6), (3, 3, 3))
        tt = weighted_hosvd(t, (3, 3, 3), p=1 / 3)
        rec = tucker_reconstruct(tt)
        assert frobenius_norm(rec - t) <= 1e-10 * frobenius_norm(t)

    def test_rank_one_analytic(self):
        rng = np.random.default_rng(1)
        u, v, w = (rng.standard_normal(5) for _ in range(3))
        u, v, w = u / np.linalg.norm(u), v / np.linalg.norm(v), w / np.linalg.norm(w)
        t = np.multiply.outer(np.multiply.outer(u, v), w)
        tt = weighted_hosvd(t, (1, 1, 1), p=1 / 3)
        for m in range(3):
            assert np.isclose(tt.sigmas[m][0], 1.0, rtol=1e-12)
            assert np.isclose(np.linalg.norm(tt.factors[m][:, 0]), 1.0, rtol=1e-12)

    def test_truncation_error_identity_and_oracle(self):
        # error must equal the accumulated discarded sigma^2 of the
        # sequential truncation, and the reconstruction must match the
        # independent full-SVD truncation oracle
        rng = np.random.default_rng(2)
        t = rng.standard_normal((6, 6, 6))
        ranks = (2, 2, 2)
        tt = weighted_hosvd(t, ranks, p=1 / 3)
        rec = tucker_reconstruct(tt)

        oracle_rec, discarded = sequential_truncation(t, ranks)
        assert frobenius_norm(rec - oracle_rec) <= 1e-10 * frobenius_norm(t)

        err = frobenius_norm(rec - t)
        expected = np.sqrt(sum(np.sum(d ** 2) for d in discarded))
        assert np.isclose(err, expected, rtol=1e-10)

    def test_full_rank_identity(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((4, 5, 3))
        tt = weighted_hosvd(t, (4, 5, 3))
        assert frobenius_norm(tucker_reconstruct(tt) - t) <= 1e-10 * frobenius_norm(t)

    def test_p_only_changes_scaling(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((5, 5, 5))
        t1 = weighted_hosvd(t, (3, 3, 3), p=0.2)
        t2 = weighted_hosvd(t, (3, 3, 3), p=0.9)
        for a, b in zip(t1.unweighted_factors(), t2.unweighted_factors()):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_sign_fix_bitwise_deterministic(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((4, 4, 4))
        a = weighted_hosvd(t, (2, 2, 2))
        b = weighted_hosvd(t.copy(), (2, 2, 2))
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb)
        assert np.array_equal(a.core, b.core)

    def test_sign_convention(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((5, 5, 5))
        tt = weighted_hosvd(t, (3, 3, 3))
        for u in tt.unweighted_factors():
            pivots = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
            assert np.all(pivots > 0)

    def test_weighted_factor_norms(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((5, 5, 5))
        p = 0.4
        tt = weighted_hosvd(t, (2, 2, 2), p=p)
        for f, s in zip(tt.factors, tt.sigmas):
            assert np.allclose(np.linalg.norm(f, axis=0), s ** p, rtol=1e-10)

    def test_errors(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((3, 3, 3))
        with pytest.raises(ValueError, match="rank 4"):
            weighted_hosvd(t, (4, 3, 3))
        with pytest.raises(ValueError, match="all-zero"):
            weighted_hosvd(np.zeros((3, 3, 3)), (1, 1, 1))
        with pytest.raises(ValueError, match="rank 0"):
            weighted_hosvd(t, (0, 1, 1))

    def test_order_zero_sample_refused(self, monkeypatch):
        # a scalar, with or without ranks, and a 1-D batch are samples of
        # order 0, refused before any SVD runs
        from stmkernels import decomp

        def no_svd(*args, **kwargs):
            raise AssertionError("an SVD ran")

        monkeypatch.setattr(decomp, "_left_svds", no_svd)
        for call in (lambda: weighted_hosvd(np.float64(2.0), ()),
                     lambda: weighted_hosvd(2.0, (1,)),
                     lambda: weighted_hosvd(np.ones(4), (1,), batch=True)):
            with pytest.raises(ValueError, match="order 0"):
                call()

    def test_tiny_tensor_is_not_all_zero(self):
        # a plain sum of squares underflows to 0 here, yet the SVD is fine;
        # only a tensor of exact zeros is rejected
        rng = np.random.default_rng(9)
        t = 1e-170 * rng.standard_normal((4, 4, 4))
        assert np.sum(t * t) == 0.0
        tk = weighted_hosvd(t, (4, 4, 4))
        assert tk.sigmas[0][0] > 0
        err = np.abs(tucker_reconstruct(tk) - t).max() / np.abs(t).max()
        assert err < 1e-12
        with pytest.raises(ValueError, match="all-zero"):
            weighted_hosvd(-np.zeros((4, 4, 4)), (1, 1, 1))

    def test_numerically_zero_sigmas_are_inert(self):
        # rank 4 exceeds the data's Tucker rank of 2: each extra column has
        # sigma/sigma_1 below SIGMA_FLOOR, keeps weight 1 (the 0**0 = 1
        # convention, so it is a unit-norm column) and carries an exactly
        # zero core slice, for any p and after reweighting
        rng = np.random.default_rng(11)
        t = random_tucker_tensor(rng, (6, 6, 6), (2, 2, 2))
        low = tucker_reconstruct(weighted_hosvd(t, (2, 2, 2), p=0.7))
        unit = weighted_hosvd(t, (4, 4, 4), p=0.0)
        tk = weighted_hosvd(t, (4, 4, 4), p=0.7)
        for tt in (tk, reweight(tk, 0.0)):
            for m in range(3):
                s, f = tt.sigmas[m], tt.factors[m]
                assert np.all(s[2:] / s[0] < SIGMA_FLOOR)
                assert np.array_equal(f[:, 2:], unit.factors[m][:, 2:])
                assert np.allclose(np.linalg.norm(f[:, 2:], axis=0), 1.0,
                                   rtol=0, atol=1e-14)
                assert not np.any(np.take(tt.core, [2, 3], axis=m))
            err = np.abs(tucker_reconstruct(tt) - low).max()
            assert err <= 1e-12 * np.abs(low).max()

    def test_rank_grid_bitwise_equals_separate_calls(self):
        # rank 4 exceeds the data's Tucker rank of 2 (numerically zero
        # sigmas); on shape (2, 3, 10) the mode-3 rank is capped by the
        # column count of its unfolding
        rng = np.random.default_rng(10)
        capped = rng.standard_normal((2, 3, 10))
        cases = [
            (random_tucker_tensor(rng, (6, 6, 6), (2, 2, 2)),
             [(1, 1, 1), (2, 2, 2), (4, 4, 4), (2, 3, 1)]),
            (capped, [(2, 3, 10), (1, 1, 5), (2, 2, 2)]),
        ]
        for t, grid in cases:
            for p in (None, 0.0, 0.7):
                many = weighted_hosvd(t, grid, p)
                assert isinstance(many, list) and len(many) == len(grid)
                for ranks, a in zip(grid, many):
                    b = weighted_hosvd(t, ranks, p)
                    assert a.p == b.p
                    assert np.array_equal(a.core, b.core)
                    for x, y in zip(a.factors + a.sigmas, b.factors + b.sigmas):
                        assert x.shape == y.shape
                        assert np.array_equal(x, y)
        assert weighted_hosvd(capped, [(2, 3, 10)])[0].ranks == (2, 3, 6)

    def test_every_p_is_the_reweighted_p0_decomposition(self):
        # weighted_hosvd at p is reweight of its p = 0 result, bit for bit,
        # so one decomposition serves every p; the rank-2 Tucker tensor
        # taken at rank 4 carries numerically zero sigmas
        rng = np.random.default_rng(14)
        exact = random_tucker_tensor(rng, (6, 6, 6), (2, 2, 2))
        cases = [
            (rng.standard_normal((6, 6, 6)), [(2, 2, 2), (3, 4, 5)]),
            (rng.standard_normal((5, 7, 4)), [(2, 3, 2), (5, 7, 4)]),
            (rng.standard_normal((4, 4, 4, 4)), [(2, 2, 2, 2), (3, 1, 4, 2)]),
            (exact, [(4, 4, 4), (2, 2, 2)]),
        ]
        for s in weighted_hosvd(exact, (4, 4, 4), 0.0).sigmas:
            assert np.all(s[2:] / s[0] < SIGMA_FLOOR)
        for t, grid in cases:
            for p in (0.0, 1 / 3, 0.7, 2.0, None):
                target = 1.0 / t.ndim if p is None else p
                base = weighted_hosvd(t, grid, 0.0)
                pairs = list(zip(weighted_hosvd(t, grid, p), base))
                pairs += [(weighted_hosvd(t, r, p), weighted_hosvd(t, r, 0.0))
                          for r in grid]
                for a, b0 in pairs:
                    b = reweight(b0, target)
                    assert a.p == b.p
                    assert np.array_equal(a.core, b.core)
                    assert len(a.factors) == len(b.factors) == t.ndim
                    for x, y in zip(a.factors + a.sigmas, b.factors + b.sigmas):
                        assert np.array_equal(x, y)

    def test_unweighted_factors_are_the_reweighted_p0_factors(self):
        # reweight is the one place sigma**p is removed: the unweighted
        # factors are those of reweight(t, 0.0), bit for bit
        rng = np.random.default_rng(14)
        exact = random_tucker_tensor(rng, (6, 6, 6), (2, 2, 2))
        cases = [
            (rng.standard_normal((6, 6, 6)), [(2, 2, 2), (3, 4, 5)]),
            (rng.standard_normal((5, 7, 4)), [(2, 3, 2), (5, 7, 4)]),
            (rng.standard_normal((4, 4, 4, 4)), [(2, 2, 2, 2), (3, 1, 4, 2)]),
            (exact, [(4, 4, 4), (2, 2, 2)]),
        ]
        for t, grid in cases:
            for p in (0.0, 1 / 3, 0.7, 2.0, None):
                tks = weighted_hosvd(t, grid, p)
                tks += [weighted_hosvd(t, r, p) for r in grid]
                for tk in tks:
                    u = tk.unweighted_factors()
                    assert isinstance(u, list) and u is not tk.factors
                    assert len(u) == t.ndim
                    for x, y in zip(u, reweight(tk, 0.0).factors):
                        assert np.array_equal(x, y)

    @pytest.mark.parametrize("scale, p", [
        (1e-170, 1.0), (1e-170, 2.0), (1e-170, 5.0), (1e150, -1.0),
        (1e150, 2.0), (1e100, 2.0), (1e100, 3.0),
    ])
    def test_unrepresentable_weighting_rejected(self, scale, p):
        # sigma**p or its inverse leaves float64 (non-finite core, or a core
        # flushed to zero); no RuntimeWarning escapes
        t = scale * np.random.default_rng(15).standard_normal((4, 4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"weighting power p = {p} "):
                weighted_hosvd(t, (4, 4, 4), p)

    @pytest.mark.parametrize("scale, p", [
        (1e-170, 1 / 3), (1e-170, 0.5), (1e-170, 0.9), (1e150, 1 / 3),
        (1e150, 1.0), (1.0, -3.0), (1.0, -1.0), (1.0, 1 / 3), (1.0, 1.0),
        (1.0, 2.0), (1.0, 5.0),
    ])
    def test_representable_weighting_reconstructs(self, scale, p):
        t = scale * np.random.default_rng(15).standard_normal((4, 4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tk = weighted_hosvd(t, (4, 4, 4), p)
            err = frobenius_norm(tucker_reconstruct(tk) - t) / frobenius_norm(t)
        assert err <= 2e-15

    def test_non_integral_rank_rejected(self):
        t = np.random.default_rng(16).standard_normal((4, 4, 4))
        for ranks, message in (((2.5, 2, 2), "rank 2.5 invalid for mode 1"),
                               ((2, 2.0, 2), "rank 2.0 invalid for mode 2")):
            with pytest.raises(ValueError, match=message):
                weighted_hosvd(t, ranks)
        one = weighted_hosvd(t, (2, 2, 2))
        tk = weighted_hosvd(t, (np.int64(2), np.int32(2), 2))
        assert np.array_equal(tk.core, one.core)

    def test_rank_grid_shares_the_mode1_svd(self, monkeypatch):
        import stmkernels.decomp as decomp
        modes = []
        real = decomp._left_svd

        def counting(g, m, *build):
            modes.append(m)
            return real(g, m, *build)

        monkeypatch.setattr(decomp, "_left_svd", counting)
        t = np.random.default_rng(11).standard_normal((5, 4, 3))
        weighted_hosvd(t, [(1, 1, 1), (2, 2, 2), (3, 3, 3)])
        assert modes.count(0) == 1
        assert len(modes) == 1 + 2 * 3

    def test_rank_grid_projects_one_f_ordered_tensor(self, monkeypatch):
        # every rank's mode-1 projection reads the same batch of one
        # F-ordered tensor: an F-ordered tensor, a Tucker reconstruction
        # among them, is read in place, and a C-ordered one through one
        # copy per grid, not one per rank
        rng = np.random.default_rng(17)
        tucker = tucker_reconstruct(
            weighted_hosvd(rng.standard_normal((8, 7, 6)), (3, 3, 3)))
        f_ordered = np.asfortranarray(rng.standard_normal((8, 7, 6)))
        c_ordered = rng.standard_normal((8, 7, 6))
        real = decomp._project
        seen = []

        def recording(g, u, s, r, m):
            if m == 0:
                seen.append(g)
            return real(g, u, s, r, m)

        monkeypatch.setattr(decomp, "_project", recording)
        for t in (tucker, f_ordered, c_ordered):
            seen.clear()
            weighted_hosvd(t, [(1, 1, 1), (2, 2, 2), (3, 3, 3)])
            assert len(seen) == 3
            assert all(s is seen[0] for s in seen)
            assert seen[0].shape == (1,) + t.shape
            sample = seen[0][0]
            assert sample.flags.f_contiguous
            assert np.array_equal(sample, t)
            assert np.shares_memory(sample, t) == (t is not c_ordered)

    def test_working_copy_dropped_before_the_later_modes(self, monkeypatch):
        # dgelqf's private copy of an F-ordered tensor is dropped when the
        # mode-1 SVD returns, and the mode-1 projections read the tensor
        # itself, so no mode >= 2 of any rank runs beside a copy of it
        import tracemalloc

        t = np.asfortranarray(np.random.default_rng(18).standard_normal((64, 64, 64)))
        decomp._left_svd(t[:4, :4, :4], 0)  # bind dgelqf outside the trace
        real = decomp._left_svd
        seen = []

        def recording(g, m, *build):
            if m >= 1 and not seen:
                seen.append(tracemalloc.get_traced_memory()[0])
            return real(g, m, *build)

        monkeypatch.setattr(decomp, "_left_svd", recording)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            weighted_hosvd(t, [(2, 2, 2), (4, 4, 4)])
        finally:
            tracemalloc.stop()
        assert seen[0] - before < 0.5 * t.nbytes

    def test_rank_tuple_forms(self):
        t = np.random.default_rng(12).standard_normal((4, 4, 4))
        one = weighted_hosvd(t, (2, 2, 2))
        for ranks in ([2, 2, 2], np.array([2, 2, 2])):
            tk = weighted_hosvd(t, ranks)
            assert not isinstance(tk, list)
            assert np.array_equal(tk.core, one.core)
        for grid in ([(2, 2, 2)], ((2, 2, 2),), np.array([[2, 2, 2]])):
            out = weighted_hosvd(t, grid)
            assert isinstance(out, list) and len(out) == 1
            assert np.array_equal(out[0].core, one.core)

    def test_rank_grid_validated_before_any_svd(self, monkeypatch):
        import stmkernels.decomp as decomp

        def no_svd(g, m):
            raise AssertionError("SVD before all ranks were validated")

        monkeypatch.setattr(decomp, "_left_svd", no_svd)
        t = np.random.default_rng(13).standard_normal((3, 3, 3))
        with pytest.raises(ValueError, match="rank 4"):
            weighted_hosvd(t, [(2, 2, 2), (4, 3, 3)])
        with pytest.raises(ValueError, match="expected 3 ranks, got 2"):
            weighted_hosvd(t, [(2, 2, 2), (1, 1)])
        with pytest.raises(ValueError, match="expected 3 ranks, got 0"):
            weighted_hosvd(t, [])

    def test_reweight_preserves_tensor(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((5, 4, 3))
        a = weighted_hosvd(t, (2, 2, 2), p=1 / 3)
        b = reweight(a, 0.0)
        assert b.p == 0.0
        assert np.allclose(tucker_reconstruct(a), tucker_reconstruct(b),
                           rtol=1e-12, atol=1e-12)
        for u in b.factors:
            assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)


class TestBatch:
    """weighted_hosvd(batch=True): result k is the call on tensor k
    alone, bit for bit, and a refusal names the first refused sample."""

    @staticmethod
    def _assert_same(a, b):
        assert a.p == b.p
        assert a.core.shape == b.core.shape and np.array_equal(a.core, b.core)
        for x, y in zip(a.factors + a.sigmas, b.factors + b.sigmas,
                        strict=True):
            assert x.shape == y.shape and np.array_equal(x, y)

    # (tensor shape, exact Tucker rank or None, grid). Rank 1 leaves the
    # unfoldings after mode 1 tall; (6, 6, 6) at Tucker rank 2 has tiny
    # sigmas at rank 4; (8, 2, 2)'s mode-1 unfolding is tall; grids name
    # ranks above an unfolding's column count, which are capped
    CASES = [
        ((6, 5), None, [(1, 1), (2, 3), (6, 5), (4, 2)]),
        ((1, 1, 1), None, [(1, 1, 1)]),
        ((3, 3, 3), None, [(1, 1, 1), (2, 3, 1), (3, 3, 3)]),
        ((6, 6, 6), (2, 2, 2), [(1, 1, 1), (2, 2, 2), (4, 4, 4)]),
        ((8, 2, 2), None, [(1, 1, 1), (8, 2, 2), (3, 2, 1)]),
        ((2, 3, 10), None, [(2, 3, 10), (1, 1, 5), (2, 2, 2)]),
        ((3, 4, 2, 5), None, [(1, 1, 1, 1), (3, 4, 2, 5), (2, 3, 1, 4)]),
    ]

    @pytest.mark.parametrize("p", [None, 0.0, 1 / 3, 2.0])
    @pytest.mark.parametrize("shape, exact, grid", CASES)
    def test_each_result_is_the_single_call(self, shape, exact, grid, p):
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        if exact is None:
            tensors = rng.standard_normal((5,) + shape)
        else:
            tensors = np.stack([random_tucker_tensor(rng, shape, exact)
                                for _ in range(5)])
        many = weighted_hosvd(tensors, grid, p, batch=True)
        one = weighted_hosvd(tensors, grid[-1], p, batch=True)
        assert len(many) == len(one) == 5
        for k, t in enumerate(tensors):
            alone = weighted_hosvd(t, grid, p)
            assert len(many[k]) == len(grid)
            for a, b in zip(many[k], alone, strict=True):
                self._assert_same(a, b)
            self._assert_same(one[k], alone[-1])
        # C- and F-ordered batches, and one of a single sample, alike
        for same in (np.asfortranarray(tensors), tensors[2:3]):
            got = weighted_hosvd(same, grid, p, batch=True)
            for a, b in zip(got[-1], many[-1 if len(same) == 5 else 2]):
                self._assert_same(a, b)

    def test_first_refused_sample_named(self):
        # sample 3 is all-zero; at p = 5, sample 1's sigma**5 underflows
        rng = np.random.default_rng(71)
        tensors = rng.standard_normal((5, 4, 4, 4))
        tensors[3] = 0.0
        with pytest.raises(ValueError, match=(
                "^sample 3: cannot decompose an all-zero tensor$")) as err:
            weighted_hosvd(tensors, [(2, 2, 2), (4, 4, 4)], batch=True)
        assert err.value.index == 3
        assert str(err.value.reason) == "cannot decompose an all-zero tensor"
        tensors[1] *= 1e-170
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                    "^sample 1: weighting power p = 5.0 over- or "
                    "underflows")) as err:
                weighted_hosvd(tensors, (4, 4, 4), 5.0, batch=True)
        assert err.value.index == 1
        with pytest.raises(ValueError, match="^sample 0: cannot decompose"):
            weighted_hosvd(np.zeros((2, 3, 3, 3)), (1, 1, 1), batch=True)

    def test_without_batch_a_stack_is_one_tensor(self):
        # the leading axis is a mode of one tensor unless batch is set
        tensors = np.random.default_rng(72).standard_normal((3, 4, 5))
        listed = weighted_hosvd(list(tensors), (2, 2, 2))
        self._assert_same(listed, weighted_hosvd(tensors, (2, 2, 2)))
        assert listed.core.shape == (2, 2, 2)
        assert weighted_hosvd(tensors, (2, 2), batch=True)[0].core.shape == (
            2, 2)


def _plain_contraction(tt):
    """Core and factors contracted by one `mode_product` per mode."""
    out = tt.core
    for m, f in enumerate(tt.factors):
        out = mode_product(out, f, m + 1)
    return out


def _tucker_source(tt, log=None):
    """A source of `tt`'s dense builds for weighted_hosvd, recording each
    build in `log`."""
    def build():
        g = tucker_reconstruct(tt)
        if log is not None:
            log.append(g.flags.f_contiguous)
        return g
    return build


class TestTuckerReconstruct:
    @pytest.mark.parametrize("shape, ranks", [
        ((7, 5), (1, 1)), ((7, 5), (7, 5)), ((7, 5), (3, 2)),
        ((6, 4, 5), (1, 1, 1)), ((6, 4, 5), (6, 4, 5)), ((9, 7, 8), (2, 3, 4)),
        ((3, 5, 2, 4), (1, 1, 1, 1)), ((3, 5, 2, 4), (3, 5, 2, 4)),
        ((4, 3, 6, 5), (2, 3, 1, 4)),
    ])
    def test_layouts_equal_the_mode_product_chain(self, shape, ranks):
        rng = np.random.default_rng(60)
        tt = TuckerTensor(core=rng.standard_normal(ranks),
                          factors=[rng.standard_normal((i, r))
                                   for i, r in zip(shape, ranks)])
        ref = _plain_contraction(tt)
        f = tucker_reconstruct(tt)
        assert f.shape == shape
        assert f.flags.f_contiguous
        assert np.array_equal(f, ref)

    @pytest.mark.parametrize("scenario", ["leaf", "core"])
    def test_generated_samples_at_the_benchmark_modes(self, scenario):
        from stmkernels import synth
        with decomp._blas_threads(1):
            for mode in (50, 64, 100):
                cfg = synth.SynthConfig(scenario, mode_size=mode, r_approx=3,
                                        samples_per_class=1, seed=mode)
                for sample in synth.generate(cfg):
                    tt = sample.tensor
                    assert np.array_equal(tucker_reconstruct(tt),
                                          _plain_contraction(tt))

    def test_layouts_agree_to_rounding_where_blas_tiles_differ(self):
        # at mode 70 (rank 3) numpy's OpenBLAS rounds some entries of the
        # F-ordered matrix product differently from the C-ordered chain, in
        # the last bit; the values are the same dot products either way
        from stmkernels import synth
        cfg = synth.SynthConfig("leaf", mode_size=70, r_approx=3,
                                samples_per_class=1, seed=70)
        tt = synth.generate(cfg)[0].tensor
        ref = _plain_contraction(tt)
        tol = 4 * np.finfo(np.float64).eps * np.abs(ref).max()
        assert np.abs(tucker_reconstruct(tt) - ref).max() <= tol


class TestSource:
    """weighted_hosvd of a source: one dense build at a time, the bits of
    the array path."""

    @staticmethod
    def _assert_same(a_list, b_list):
        for a, b in zip(a_list, b_list, strict=True):
            assert a.p == b.p and np.array_equal(a.core, b.core)
            for x, y in zip(a.factors + a.sigmas, b.factors + b.sigmas):
                assert np.array_equal(x, y)

    GRID = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 2, 3)]

    def test_bitwise_equals_the_array_path(self):
        # a wide mode-1 unfolding is built twice per call, as dgelqf
        # overwrites the first build; the tall (40, 5, 6) one is built once
        rng = np.random.default_rng(61)
        for shape, ranks, builds in (((10, 12, 9), (3, 4, 2), 2),
                                     ((6, 30, 20), (3, 3, 3), 2),
                                     ((40, 5, 6), (4, 3, 3), 1)):
            tt = TuckerTensor(core=rng.standard_normal(ranks),
                              factors=[rng.standard_normal((i, r))
                                       for i, r in zip(shape, ranks)])
            log = []
            for p in (None, 0.0, 0.7):
                many = weighted_hosvd(_tucker_source(tt, log), self.GRID, p)
                self._assert_same(
                    many, weighted_hosvd(tucker_reconstruct(tt), self.GRID, p))
                one = weighted_hosvd(_tucker_source(tt), self.GRID[2], p)
                self._assert_same([one], [many[2]])
            assert log == [True] * (builds * 3)

    @pytest.mark.parametrize("fallback", ["x-scaled", "l-scaled", "no-dgelqf"])
    def test_fallbacks_rebuild_what_dgelqf_consumed(self, monkeypatch, fallback):
        # the plain SVD after a refusal reads the tensor dgelqf did not
        # overwrite: the source is built again once it did
        rng = np.random.default_rng(62)
        tt = TuckerTensor(core=rng.standard_normal((3, 3, 3)),
                          factors=[rng.standard_normal((i, 3))
                                   for i in (5, 20, 20)])
        scale = {"x-scaled": 2.0 ** -600, "l-scaled": 0.5 / _SMLNUM,
                 "no-dgelqf": 1.0}[fallback]
        if fallback == "l-scaled":
            # every entry in range, the rows' norms (L's diagonal) not
            base = np.sign(rng.standard_normal((5, 20, 20)))
        else:
            base = tucker_reconstruct(tt)
        if fallback == "no-dgelqf":
            monkeypatch.setattr(decomp, "_dgelqf", lambda: None)
        log = []

        def build():
            log.append(True)
            return np.array(base * scale, order="F")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = weighted_hosvd(build, self.GRID)
            self._assert_same(got, weighted_hosvd(base * scale, self.GRID))
        rebuilt = fallback == "l-scaled"
        assert len(log) == (3 if rebuilt else 2)

    def test_source_holds_one_dense_tensor(self):
        # a mode-64 Tucker source peaks about one dense tensor above its
        # start; its reconstruction passed as an array, about two
        import tracemalloc

        from stmkernels import synth
        tt = synth.generate(synth.SynthConfig(
            "leaf", mode_size=64, r_approx=3, samples_per_class=1,
            seed=63))[0].tensor
        nbytes = 64 ** 3 * 8
        weighted_hosvd(_tucker_source(tt), (2, 2, 2))  # bind dgelqf first
        peaks = []
        for arg in (lambda: _tucker_source(tt), lambda: tucker_reconstruct(tt)):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                weighted_hosvd(arg(), [(2, 2, 2), (4, 4, 4)])
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.25 * nbytes
        assert peaks[1] >= 1.75 * nbytes


class TestFixSigns:
    def test_idempotent(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal((6, 3))
        once = fix_signs(u)
        assert np.array_equal(fix_signs(once), once)

    def test_tie_takes_smallest_row(self):
        u = np.array([[-0.5], [0.5]])
        # both rows tie in magnitude; row 0 wins, so the column flips
        assert np.array_equal(fix_signs(u), np.array([[0.5], [-0.5]]))


    def test_empty_matrix_returns_a_new_empty_array(self):
        u = np.zeros((3, 0))
        out = fix_signs(u)
        assert out.shape == (3, 0) and out is not u


class TestKhatriRao:
    def test_first_listed_matrix_varies_fastest(self):
        rng = np.random.default_rng(30)
        a, b, c = (rng.standard_normal((n, 4)) for n in (2, 3, 5))
        out = khatri_rao([a, b, c])
        assert out.shape == (30, 4)
        for r in range(4):
            expect = np.kron(c[:, r], np.kron(b[:, r], a[:, r]))
            assert np.array_equal(out[:, r], expect)

    def test_one_matrix_is_itself(self):
        a = np.random.default_rng(31).standard_normal((4, 3))
        assert np.array_equal(khatri_rao([a]), a)


class TestEquilibrate:
    def test_bits_do_not_follow_the_factor_layout(self):
        # cp_als and tt_to_cp pass F-ordered factors; the column norms are
        # summed in the order of a C-ordered copy whatever the layout
        rng = np.random.default_rng(32)
        factors = [rng.standard_normal((n, 6)) for n in (50, 40, 30)]
        weights = rng.random(6)
        c = equilibrate(KruskalTensor(factors, weights), fix_column_signs=True)
        f = equilibrate(KruskalTensor([np.asfortranarray(a) for a in factors],
                                      weights), fix_column_signs=True)
        for x, y in zip(c.factors, f.factors):
            assert np.array_equal(x, y)


class TestCpAls:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(11)
        t = rank_one_sum([rng.standard_normal((5, 1)) for _ in range(3)])
        kt, info = cp_als(t, 1, max_iters=100, tol=1e-14)
        err = frobenius_norm(kruskal_reconstruct(kt) - t) / frobenius_norm(t)
        assert err <= 1e-8

    def test_two_separated_terms(self):
        rng = np.random.default_rng(12)
        factors = []
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((8, 2)))
            factors.append(q * np.array([3.0, 1.0]))
        t = rank_one_sum(factors)
        kt, info = cp_als(t, 2, max_iters=200, tol=1e-14)
        err = frobenius_norm(kruskal_reconstruct(kt) - t) / frobenius_norm(t)
        assert err <= 1e-6

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            cp_als(np.ones((2, 2, 2)), 0)

    def test_rank_above_the_unfoldings_is_padded(self):
        # each unfolding gives 2 singular vectors; the third column is drawn
        rng = np.random.default_rng(13)
        kt, _ = cp_als(rng.standard_normal((2, 2, 2)), 3)
        assert kt.rank == 3
        assert [f.shape for f in kt.factors] == [(2, 3)] * 3

    def test_rank_deficient_sweep_returns_the_initial_iterate(self):
        rng = np.random.default_rng(14)
        t = rank_one_sum([rng.standard_normal((i, 1)) for i in (6, 5, 4)])
        with pytest.warns(UserWarning,
                          match="rank-deficient least-squares system"):
            kt, info = cp_als(t, 3)
        assert info["degenerate"] is True
        assert info["iterations"] == 0
        assert kt.rank == 3

    def test_tiny_scale_runs_the_unit_scale_sweeps(self):
        # at 2**-600 the factor Grams of an unscaled sweep underflow and
        # the first solve is flagged rank-deficient
        rng = np.random.default_rng(15)
        t = rank_one_sum([rng.standard_normal((4, 2)) for _ in range(3)])
        t += 0.01 * rng.standard_normal(t.shape)
        kt, info = cp_als(t, 2)
        tiny_kt, tiny = cp_als(2.0 ** -600 * t, 2)
        assert not tiny["degenerate"] and tiny["converged"]
        assert tiny["error_history"] == info["error_history"]
        rec = 2.0 ** 600 * kruskal_reconstruct(tiny_kt)
        assert np.abs(rec - kruskal_reconstruct(kt)).max() <= 1e-13 * np.abs(t).max()
        # largest entry in [2**1023, 2**1024): 2**e itself overflows
        shift = 1024 - np.frexp(np.abs(t).max())[1]
        huge_kt, huge = cp_als(np.ldexp(t, shift), 2)
        assert 2.0 ** 1023 <= np.abs(np.ldexp(t, shift)).max()
        assert all(np.isfinite(f).all() for f in huge_kt.factors)
        assert not huge["degenerate"] and huge["converged"]
        assert huge["error_history"] == info["error_history"]
        huge_kt.factors[0] = np.ldexp(huge_kt.factors[0], -shift)
        rec = kruskal_reconstruct(huge_kt)
        assert np.abs(rec - kruskal_reconstruct(kt)).max() <= 1e-13 * np.abs(t).max()

    def test_error_monotone(self):
        rng = np.random.default_rng(13)
        t = rng.standard_normal((5, 5, 5))
        _, info = cp_als(t, 3, max_iters=60, tol=0.0)
        hist = info["error_history"]
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_result_equilibrated_and_unit_weights(self):
        rng = np.random.default_rng(14)
        t = rng.standard_normal((4, 4, 4))
        kt, _ = cp_als(t, 2, max_iters=50)
        assert np.all(kt.weights == 1.0)
        norms = np.array([np.linalg.norm(f, axis=0) for f in kt.factors])
        spread = (norms.max(axis=0) - norms.min(axis=0)) / norms.max(axis=0)
        assert np.all(spread <= 1e-10)


class TestTtSvd:
    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(15)
        cores = [rng.standard_normal((1, 5, 2)),
                 rng.standard_normal((2, 5, 2)),
                 rng.standard_normal((2, 5, 1))]
        t = tt_reconstruct(type("T", (), {"cores": cores, "shape": (5, 5, 5)})())
        tt = tt_svd(t, (2, 2))
        assert frobenius_norm(tt_reconstruct(tt) - t) <= 1e-10 * frobenius_norm(t)

    def test_matches_sequential_svd_oracle(self):
        rng = np.random.default_rng(16)
        t = rng.standard_normal((4, 4, 4))
        tt = tt_svd(t, (1, 1))
        assert np.allclose(tt_reconstruct(tt), tt_chain_truncation(t, (1, 1)),
                           atol=1e-12)

    def test_rank_clipping_with_notice(self):
        rng = np.random.default_rng(17)
        t = rng.standard_normal((4, 4, 4))
        with pytest.warns(UserWarning, match="clipped"):
            tt = tt_svd(t, (100, 100))
        assert frobenius_norm(tt_reconstruct(tt) - t) <= 1e-10 * frobenius_norm(t)
        assert tt.ranks == (4, 4)

    def test_left_orthogonal_cores(self):
        rng = np.random.default_rng(18)
        t = rng.standard_normal((4, 5, 6))
        tt = tt_svd(t, (3, 3))
        for c in tt.cores[:-1]:
            mat = c.reshape(-1, c.shape[2], order="F")
            assert np.allclose(mat.T @ mat, np.eye(c.shape[2]), atol=1e-12)

    def test_infeasible_rank(self):
        with pytest.raises(ValueError, match="positive"):
            tt_svd(np.ones((3, 3, 3)), (0, 2))


class TestTuckerToCp:
    def test_diagonal_core_recovers_kruskal(self):
        rng = np.random.default_rng(19)
        lam = np.array([2.0, -1.5])
        fs = [np.linalg.qr(rng.standard_normal((5, 2)))[0] for _ in range(3)]
        core = np.zeros((2, 2, 2))
        core[0, 0, 0] = lam[0]
        core[1, 1, 1] = lam[1]
        from stmkernels.decomp import TuckerTensor
        kt = tucker_to_cp(TuckerTensor(core=core, factors=fs))
        dense = kruskal_reconstruct(kt)
        expected = rank_one_sum(fs, lam)
        assert np.allclose(dense, expected, atol=1e-12)
        # 8 columns, 6 of them zero
        norms = np.prod([np.linalg.norm(f, axis=0) for f in kt.factors], axis=0)
        assert np.sum(norms > 1e-14) == 2

    def test_contraction_matches_reconstruct(self):
        rng = np.random.default_rng(20)
        t = rng.standard_normal((5, 5, 5))
        tk = weighted_hosvd(t, (2, 2, 2), p=1 / 3)
        kt = tucker_to_cp(tk)
        rec = tucker_reconstruct(tk)
        assert frobenius_norm(kruskal_reconstruct(kt) - rec) <= 1e-10 * frobenius_norm(rec)
        assert kt.rank == 8

    def test_sign_on_first_mode_only(self):
        from stmkernels.decomp import TuckerTensor
        fs = [np.eye(2) for _ in range(3)]
        core = np.zeros((2, 2, 2))
        core[0, 0, 0] = -8.0
        kt = tucker_to_cp(TuckerTensor(core=core, factors=fs))
        col = np.argmax(np.abs(kt.factors[0]).sum(axis=0))
        assert kt.factors[0][0, col] == -2.0       # |g|^(1/3) with the sign
        assert kt.factors[1][0, col] == 2.0
        assert kt.factors[2][0, col] == 2.0
        dense = kruskal_reconstruct(kt)
        assert np.isclose(dense[0, 0, 0], -8.0)


class TestTtToCp:
    def test_all_ranks_one(self):
        rng = np.random.default_rng(21)
        cores = [rng.standard_normal((1, 4, 1)) for _ in range(3)]
        from stmkernels.decomp import TTTensor
        tt = TTTensor(cores)
        kt = tt_to_cp(tt)
        assert kt.rank == 1
        assert np.allclose(kruskal_reconstruct(kt), tt_reconstruct(tt), atol=1e-12)

    def test_contraction_oracle(self):
        rng = np.random.default_rng(22)
        t = rng.standard_normal((4, 4, 4))
        tt = tt_svd(t, (2, 2))
        kt = tt_to_cp(tt)
        assert kt.rank == 4
        rec = tt_reconstruct(tt)
        assert frobenius_norm(kruskal_reconstruct(kt) - rec) <= 1e-10 * frobenius_norm(rec)

    def test_equilibration_idempotent(self):
        rng = np.random.default_rng(23)
        t = rng.standard_normal((4, 4, 4))
        kt = tt_to_cp(tt_svd(t, (2, 2)))
        again = equilibrate(kt)
        for a, b in zip(kt.factors, again.factors):
            assert np.max(np.abs(a - b)) <= 1e-14


class TestKruskalValidation:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            KruskalTensor([np.zeros((3, 2)), np.zeros((3, 3))])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            KruskalTensor([np.zeros((3, 2)), np.zeros((3, 2))],
                          weights=np.array([1.0, -1.0]))


@pytest.mark.parametrize("build, message", [
    (lambda: TuckerTensor(np.zeros((2, 2)), [np.eye(2)]),
     "one factor matrix per core mode is required"),
    (lambda: TuckerTensor(np.zeros((2, 2)), [np.eye(2), np.eye(3)]),
     "factor 2 has (3, 3) but core mode 2 has size 2"),
    (lambda: TuckerTensor(np.zeros((2, 2)), [np.eye(2)] * 2,
                          sigmas=[[2.0, 1.0], [1.0]]),
     "sigma vector 2 length mismatch"),
    (lambda: TuckerTensor(np.zeros((2, 2)), [np.eye(2)] * 2,
                          sigmas=[[1.0, 2.0], [2.0, 1.0]]),
     "sigmas of mode 1 are not nonincreasing"),
    (lambda: TuckerTensor(np.zeros((2, 2)), [np.eye(2)] * 2, p=0.5),
     "nonzero weighting power requires sigma vectors"),
    (lambda: KruskalTensor([np.zeros((3, 2))] * 2, weights=np.ones(3)),
     "weights length must equal the rank"),
    (lambda: TTTensor([]), "at least one core is required"),
    (lambda: TTTensor([np.zeros((2, 3, 1))]), "boundary ranks must equal 1"),
    (lambda: TTTensor([np.zeros((1, 3, 2)), np.zeros((3, 3, 1))]),
     "rank mismatch between cores 1 and 2"),
    (lambda: reweight(TuckerTensor(np.ones((1, 1)), [np.ones((2, 1))] * 2),
                      0.5),
     "cannot reweight without sigma vectors"),
    (lambda: tt_svd(np.ones((3, 3, 3)), (2,)),
     "expected 2 interior ranks, got 1"),
])
def test_malformed_representations_rejected(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


class TestNumpySymbol:
    def test_none_when_the_extension_cannot_be_opened(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", refuse)
        assert decomp._numpy_symbol(("dgelqf_64_",), [], None) is None

    def test_none_when_no_name_resolves(self):
        assert decomp._numpy_symbol(("no_such_function_", "nor_this_"),
                                    [], None) is None


def test_no_spurious_warnings_in_normal_paths():
    rng = np.random.default_rng(24)
    t = rng.standard_normal((4, 4, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weighted_hosvd(t, (2, 2, 2))
        tt_svd(t, (2, 2))


def _peaked(rng, rows, cols):
    """rows x cols with one entry of magnitude 1 and every row norm <= 1,
    so the LQ factor L has no entry above 1 either."""
    rest = rng.standard_normal((rows - 1, cols))
    rest *= 0.5 / np.linalg.norm(rest, axis=1, keepdims=True)
    return np.vstack([np.eye(1, cols), rest])


def _unit_max(rng, rows, cols):
    x = rng.standard_normal((rows, cols))
    return x / np.max(np.abs(x))


_SMLNUM = 2.0 ** -459  # dgesdd rescales outside [_SMLNUM, 1 / _SMLNUM]

# name: (matrix builder, whether the LQ route serves it)
_LEFT_SVD_CASES = {
    "100x183 at the crossover": (
        lambda rng: rng.standard_normal((100, 183)), True),
    "100x182 below the crossover": (
        lambda rng: rng.standard_normal((100, 182)), False),
    "150x3000 blocked dgelqf": (
        lambda rng: rng.standard_normal((150, 3000)), True),
    "tall 300x20": (lambda rng: rng.standard_normal((300, 20)), False),
    "max|X| = SMLNUM": (lambda rng: _unit_max(rng, 20, 60) * _SMLNUM, True),
    "max|X| below SMLNUM": (
        lambda rng: _unit_max(rng, 20, 60) * np.nextafter(_SMLNUM, 0), False),
    "max|X| = 1/SMLNUM": (lambda rng: _peaked(rng, 20, 60) / _SMLNUM, True),
    "max|X| above 1/SMLNUM": (
        lambda rng: _peaked(rng, 20, 60) * np.nextafter(1 / _SMLNUM, np.inf),
        False),
    # every entry in range, but the rows' norms (so L's diagonal) are not
    "max|L| above 1/SMLNUM": (
        lambda rng: np.sign(rng.standard_normal((3, 400))) * (0.5 / _SMLNUM),
        False),
}


class TestLeftSvd:
    """`_left_svd` returns the U and sigma of `np.linalg.svd` bit for bit,
    whichever route it takes."""

    @staticmethod
    def _svd_inputs(monkeypatch):
        import stmkernels.decomp as decomp
        shapes = []
        real = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(decomp.np.linalg, "svd", recording)
        return shapes

    @pytest.mark.parametrize("bound", [True, False],
                             ids=["dgelqf", "no-dgelqf"])
    @pytest.mark.parametrize("name", list(_LEFT_SVD_CASES))
    def test_bitwise_equals_numpy_svd(self, monkeypatch, name, bound):
        import stmkernels.decomp as decomp
        build, lq = _LEFT_SVD_CASES[name]
        x = build(np.random.default_rng(40))
        u_ref, s_ref, _ = np.linalg.svd(x, full_matrices=False)
        if not bound:
            monkeypatch.setattr(decomp, "_dgelqf", lambda: None)
        shapes = self._svd_inputs(monkeypatch)
        u, s = decomp._left_svd(x, 0)
        assert np.array_equal(u, u_ref) and np.array_equal(s, s_ref)
        rows = x.shape[0]
        assert shapes == [(rows, rows) if lq and bound else x.shape]

    @pytest.mark.parametrize("mode", [50, 64])
    def test_lq_bits_do_not_follow_the_buffer_address(self, mode):
        # a data_dir sample is factored in place in a buffer that malloc
        # placed: dgelqf gives the same L at offsets of 0-7 doubles, which
        # covers every 64-byte alignment
        import stmkernels.decomp as decomp
        if decomp._dgelqf() is None:
            pytest.skip("numpy exports no ILP64 dgelqf")
        x = np.random.default_rng(mode).standard_normal((mode, mode * mode))
        lows = []
        with decomp._blas_threads(1):
            for offset in range(8):
                a = np.empty(x.size + 8)[offset:offset + x.size].reshape(
                    x.shape, order="F")
                a[...] = x
                lows.append(decomp._lq_lower(a))
        assert lows[0] is not None
        for low in lows[1:]:
            assert np.array_equal(low, lows[0])

    def test_fortran_ordered_tensor_left_unchanged(self):
        import stmkernels.decomp as decomp
        t = np.asfortranarray(
            np.random.default_rng(41).standard_normal((10, 40, 30)))
        before = t.copy()
        u, s = decomp._left_svd(t, 0)
        tk = weighted_hosvd(t, (3, 3, 3))
        assert np.array_equal(t, before)
        u_ref, s_ref = decomp._left_svd(before, 0)
        assert np.array_equal(u, u_ref) and np.array_equal(s, s_ref)
        ref = weighted_hosvd(before, (3, 3, 3))
        assert np.array_equal(tk.core, ref.core)
        for f, f_ref in zip(tk.factors, ref.factors):
            assert np.array_equal(f, f_ref)

    def test_wide_unfolding_never_holds_its_right_vectors(self):
        # tracemalloc sees numpy arrays (the unfolding's copy, V^T), not
        # the buffers LAPACK's wrappers allocate
        import tracemalloc

        import stmkernels.decomp as decomp
        t = np.random.default_rng(42).standard_normal((100, 100, 100))
        decomp._left_svd(t[:4, :4, :4], 0)  # bind dgelqf outside the trace
        tracemalloc.start()
        try:
            decomp._left_svd(t, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * t.nbytes

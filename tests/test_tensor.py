"""Dense tensor primitives: unfolding, folding, mode products, norms,
and the binary container."""

import struct
import tracemalloc
import types

import numpy as np
import pytest

from stmkernels.tensor import (
    fold,
    frobenius_norm,
    inner,
    load_tensor,
    matricize,
    mode_product,
    save_tensor,
)

from oracles import flat_inner, matricize_by_enumeration


class TestMatricize:
    def test_matrix_mode1_is_identity_operation(self):
        eye = np.eye(2)
        assert np.array_equal(matricize(eye, 1), eye)

    def test_order3_mode2_frozen_table(self):
        # values 1..8 in column-major multi-index order; expected table
        # computed by the index-enumeration oracle
        t = np.arange(1, 9, dtype=float).reshape((2, 2, 2), order="F")
        expected = np.array([[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]])
        assert np.array_equal(matricize(t, 2), expected)

    @pytest.mark.parametrize("mode", [1, 2, 3, 4])
    def test_matches_enumeration_oracle(self, mode):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((3, 4, 2, 5))
        assert np.array_equal(matricize(t, mode),
                              matricize_by_enumeration(t, mode))

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((4, 3, 5))
        for mode in (1, 2, 3):
            assert np.array_equal(fold(matricize(t, mode), mode, t.shape), t)

    def test_mode_out_of_range(self):
        t = np.zeros((2, 2))
        with pytest.raises(ValueError, match="mode 3 out of range"):
            matricize(t, 3)
        with pytest.raises(ValueError, match="out of range"):
            matricize(t, 0)


class TestFold:
    def test_frozen_order3_example(self):
        # computed with the index oracle before the implementation
        mat = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])
        t = fold(mat, 1, (2, 2, 2))
        assert np.array_equal(t.ravel(order="F"), np.arange(1.0, 9.0))

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match=r"^mode 3 out of range 1\.\.2$"):
            fold(np.zeros((2, 2)), 3, (2, 2))

    def test_wrong_element_count(self):
        with pytest.raises(ValueError, match="cannot fold"):
            fold(np.zeros((2, 3)), 1, (2, 2, 2))

    def test_fold_unfold_all_modes(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((2, 6, 3, 2))
        for mode in range(1, 5):
            assert np.array_equal(fold(matricize(t, mode), mode, t.shape), t)


class TestModeProduct:
    def test_identity_leaves_tensor(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((3, 4, 2))
        for mode in (1, 2, 3):
            out = mode_product(t, np.eye(t.shape[mode - 1]), mode)
            assert np.allclose(out, t, atol=1e-15)

    def test_definition_as_oracle(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((3, 3, 3))
        a = rng.standard_normal((2, 3))
        out = mode_product(t, a, 2)
        expected = fold(a @ matricize(t, 2), 2, (3, 2, 3))
        assert np.allclose(out, expected, atol=1e-13)

    def test_distinct_modes_commute(self):
        rng = np.random.default_rng(13)
        t = rng.standard_normal((4, 5, 3))
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((6, 5))
        lhs = mode_product(mode_product(t, a, 1), b, 2)
        rhs = mode_product(mode_product(t, b, 2), a, 1)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mode 1"):
            mode_product(np.zeros((3, 3)), np.zeros((2, 4)), 1)

    def test_orthonormal_preserves_norm(self):
        rng = np.random.default_rng(17)
        t = rng.standard_normal((5, 4, 3))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        assert np.isclose(frobenius_norm(mode_product(t, q, 1)),
                          frobenius_norm(t), rtol=1e-12)


class TestInnerAndNorm:
    def test_inner_with_zero(self):
        t = np.random.default_rng(1).standard_normal((2, 3))
        assert inner(t, np.zeros_like(t)) == 0.0

    def test_inner_consistent_with_norm(self):
        t = np.random.default_rng(2).standard_normal((2, 2, 3))
        assert np.isclose(inner(t, t), frobenius_norm(t) ** 2, rtol=1e-12)

    def test_inner_matches_flat_oracle(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((2, 2, 2))
        b = rng.standard_normal((2, 2, 2))
        assert np.isclose(inner(a, b), flat_inner(a, b), rtol=1e-13)

    def test_inner_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            inner(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_norm_zero_tensor(self):
        assert frobenius_norm(np.zeros((2, 3, 4))) == 0.0

    def test_norm_all_ones(self):
        assert np.isclose(frobenius_norm(np.ones((2, 3, 4))), np.sqrt(24.0),
                          rtol=1e-14)

    def test_norm_scales_exactly_by_powers_of_two(self):
        # a plain sum of squares underflows at 2**-600 and overflows at
        # 2**600; power-of-two scaling keeps every bit
        t = np.random.default_rng(24).standard_normal((3, 4, 5))
        for k in (-600, 600):
            assert frobenius_norm(2.0 ** k * t) == 2.0 ** k * frobenius_norm(t)

    def test_norm_matches_flat_oracle(self):
        rng = np.random.default_rng(23)
        t = rng.standard_normal((3, 2, 4))
        assert np.isclose(frobenius_norm(t), np.sqrt(flat_inner(t, t)),
                          rtol=1e-14)

    def test_inner_symmetric_bilinear(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = rng.standard_normal((2, 3, 2))
            b = rng.standard_normal((2, 3, 2))
            c = rng.standard_normal((2, 3, 2))
            x, y = rng.standard_normal(2)
            assert np.isclose(inner(a, b), inner(b, a), rtol=1e-12)
            assert np.isclose(inner(x * a + y * b, c),
                              x * inner(a, c) + y * inner(b, c), rtol=1e-12,
                              atol=1e-12)


class TestScalarInput:
    def test_zero_d_input_is_an_order_1_tensor_of_length_1(self, tmp_path):
        assert np.array_equal(matricize(np.float64(2.0), 1), [[2.0]])
        assert np.array_equal(mode_product(2.0, [[3.0]], 1), [6.0])
        assert inner(2.0, 3.0) == 6.0
        assert frobenius_norm(-3.0) == 3.0
        save_tensor(tmp_path / "scalar.tnsr", np.float64(4.0))
        back = load_tensor(tmp_path / "scalar.tnsr")
        assert back.shape == (1,) and back[0] == 4.0


class TestContainer:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(31)
        t = rng.standard_normal((3, 5, 2))
        path = tmp_path / "t.tnsr"
        save_tensor(path, t)
        assert np.array_equal(load_tensor(path), t)

    def test_reads_into_out_that_fits(self, tmp_path):
        rng = np.random.default_rng(33)
        t, s = rng.standard_normal((2, 3, 5, 4))
        for name, x in (("t", t), ("s", s)):
            save_tensor(tmp_path / f"{name}.tnsr", x)
        buf = np.empty((3, 5, 4), order="F")
        assert load_tensor(tmp_path / "t.tnsr", out=buf) is buf
        assert np.array_equal(buf, t)
        assert load_tensor(tmp_path / "s.tnsr", out=buf) is buf
        assert np.array_equal(buf, s)

    @pytest.mark.parametrize("misfit", [
        "shape", "same size", "C order", "read-only", "float32", "big-endian"])
    def test_out_that_does_not_fit_is_left_alone(self, tmp_path, misfit):
        # the values go to a new F-ordered array, and `out` keeps its own
        t = np.random.default_rng(34).standard_normal((3, 5, 4))
        path = tmp_path / "t.tnsr"
        save_tensor(path, t)
        shape, order, dtype = (3, 5, 4), "F", np.float64
        if misfit == "shape":
            shape = (3, 5, 3)
        elif misfit == "same size":
            shape = (5, 3, 4)
        elif misfit == "C order":
            order = "C"
        elif misfit in ("float32", "big-endian"):
            dtype = np.float32 if misfit == "float32" else ">f8"
        out = np.full(shape, 7.0, dtype=dtype, order=order)
        out.flags.writeable = misfit != "read-only"
        got = load_tensor(path, out=out)
        assert got is not out and not np.shares_memory(got, out)
        assert got.flags.f_contiguous and np.array_equal(got, t)
        assert (out == 7.0).all()

    @pytest.mark.parametrize("order, copies", [("C", 1), ("F", 0)])
    def test_write_holds_at_most_one_copy(self, tmp_path, order, copies):
        # a C-ordered tensor is written from the one copy its column-major
        # ravel makes, an F-ordered one from its own memory
        t = np.asarray(np.random.default_rng(32).standard_normal((64,) * 3),
                       order=order)
        path = tmp_path / "t.tnsr"
        tracemalloc.start()
        try:
            save_tensor(path, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (copies + 0.25) * t.nbytes
        header = b"TNSR" + struct.pack("<I3Q", 3, 64, 64, 64)
        values = np.ascontiguousarray(t.ravel(order="F"), dtype="<f8")
        assert path.read_bytes() == header + values.tobytes()

    def test_truncated_file_reports_expected_bytes(self, tmp_path):
        t = np.ones((2, 2, 2))
        path = tmp_path / "t.tnsr"
        save_tensor(path, t)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match=r"expected \d+ bytes"):
            load_tensor(path)

    def test_file_cut_short_during_the_read_is_refused(self, tmp_path,
                                                        monkeypatch):
        # the size taken first promises all 8 values; the read finds 7
        from stmkernels import tensor
        path = tmp_path / "t.tnsr"
        save_tensor(path, np.ones((2, 2, 2)))
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(tensor, "os", types.SimpleNamespace(
            fstat=lambda fd: types.SimpleNamespace(st_size=full)))
        with pytest.raises(ValueError) as err:
            load_tensor(path)
        assert str(err.value) == (
            f"{path}: expected 96 bytes for shape (2, 2, 2), got 88")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.tnsr"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_tensor(path)

    def test_rejects_high_order(self, tmp_path):
        path = tmp_path / "t.tnsr"
        payload = b"TNSR" + struct.pack("<I", 9) + struct.pack("<Q", 1) * 9 + b"\x00" * 8
        path.write_bytes(payload)
        with pytest.raises(ValueError, match="order 9"):
            load_tensor(path)

    def test_high_order_not_written(self, tmp_path):
        path = tmp_path / "t.tnsr"
        with pytest.raises(ValueError) as err:
            save_tensor(path, np.zeros((1,) * 9))
        assert str(err.value) == "tensor order 9 exceeds maximum 8"
        assert not path.exists()

    @pytest.mark.parametrize("payload, message", [
        (b"TNSR\x02", "truncated header, expected at least 8 bytes"),
        (b"TNSR" + struct.pack("<IQ", 2, 3),
         "truncated dims, expected at least 24 bytes"),
        (b"TNSR" + struct.pack("<IQQ", 2, 3, 0),
         "nonpositive mode size in (3, 0)"),
    ])
    def test_malformed_header_rejected(self, tmp_path, payload, message):
        path = tmp_path / "t.tnsr"
        path.write_bytes(payload)
        with pytest.raises(ValueError) as err:
            load_tensor(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0, 4)])
    def test_zero_size_mode_not_written(self, tmp_path, shape):
        # load_tensor rejects such a container, so save_tensor must not
        # write one
        path = tmp_path / "t.tnsr"
        with pytest.raises(ValueError) as err:
            save_tensor(path, np.zeros(shape))
        assert str(err.value) == f"{path}: nonpositive mode size in {shape}"
        assert not path.exists()

    def test_layout_is_column_major(self, tmp_path):
        t = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
        path = tmp_path / "t.tnsr"
        save_tensor(path, t)
        raw = np.frombuffer(path.read_bytes()[8 + 8 * 3:], dtype="<f8")
        assert np.array_equal(raw, np.arange(1.0, 9.0))

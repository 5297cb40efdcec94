"""Dense tensor primitives shared by every other module.

Tensors are plain numpy float64 arrays of order 1..8. The flat layout
convention, used for matricization columns and the binary container, is
column-major over the mode indices: entry (i_1, ..., i_M) sits at flat
position (i_1-1) + I_1*(i_2-1) + I_1*I_2*(i_3-1) + ... for 1-based
indices, i.e. mode 1 varies fastest.

Mode arguments are 1-based throughout, and error messages report 1-based
modes. All functions are pure, and no input is mutated, but for the
buffer `out` that `load_tensor` may read into.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAX_ORDER = 8

_MAGIC = b"TNSR"
_HEADER = struct.Struct("<I")
_DIM = struct.Struct("<Q")


def _as_tensor(t):
    t = np.asarray(t, dtype=np.float64)
    if t.ndim < 1:
        t = t.reshape(1)
    return t


def _check_mode(t, m):
    if not 1 <= m <= t.ndim:
        raise ValueError(f"mode {m} out of range 1..{t.ndim}")


def matricize(t, m):
    """Unfold tensor `t` along mode `m` (1-based).

    The result has I_m rows; column j enumerates the remaining modes in
    ascending mode order with the lowest remaining mode varying fastest.
    """
    t = _as_tensor(t)
    _check_mode(t, m)
    ax = m - 1
    return np.moveaxis(t, ax, 0).reshape(t.shape[ax], -1, order="F")


def fold(mat, m, shape):
    """Inverse of :func:`matricize`: rebuild a tensor of `shape` from its
    mode-`m` unfolding."""
    mat = np.asarray(mat, dtype=np.float64)
    shape = tuple(int(s) for s in shape)
    if not 1 <= m <= len(shape):
        raise ValueError(f"mode {m} out of range 1..{len(shape)}")
    ax = m - 1
    rest = shape[:ax] + shape[ax + 1:]
    ncols = int(np.prod(rest)) if rest else 1
    if mat.ndim != 2 or mat.shape != (shape[ax], ncols):
        raise ValueError(
            f"matrix of shape {mat.shape} cannot fold into {shape} along "
            f"mode {m}; expected ({shape[ax]}, {ncols})")
    full = mat.reshape((shape[ax],) + rest, order="F")
    return np.moveaxis(full, 0, ax)


def mode_product(t, a, m):
    """Multiply matrix `a` into tensor `t` along mode `m` (1-based).

    Defined by matricize(result, m) = a @ matricize(t, m); mode m's size
    I_m is replaced by the row count of `a`.
    """
    t = _as_tensor(t)
    a = np.asarray(a, dtype=np.float64)
    _check_mode(t, m)
    ax = m - 1
    if a.ndim != 2 or a.shape[1] != t.shape[ax]:
        raise ValueError(
            f"matrix with {a.shape[1] if a.ndim == 2 else '?'} columns does "
            f"not match size {t.shape[ax]} of mode {m}")
    out = np.tensordot(a, t, axes=(1, ax))
    return np.moveaxis(out, 0, ax)


def inner(t, s):
    """Sum of elementwise products of two same-shape tensors."""
    t = _as_tensor(t)
    s = _as_tensor(s)
    if t.shape != s.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {s.shape}")
    return float(np.dot(t.ravel(), s.ravel()))


def frobenius_norm(t):
    """Square root of inner(t, t), taken on `t` scaled by an exact power
    of two so that tiny or huge entries cannot underflow or overflow."""
    flat = _as_tensor(t).ravel()
    e = int(np.frexp(np.max(np.abs(flat), initial=0.0))[1])
    return float(np.ldexp(np.linalg.norm(np.ldexp(flat, -e)), e))


# ---------------------------------------------------------------------------
# binary container
# ---------------------------------------------------------------------------
# Layout: magic "TNSR", uint32 LE order M, M uint64 LE mode sizes, then
# prod(I_m) float64 LE values in the column-major multi-index order.


def save_tensor(path, t):
    """Write `t` to the binary tensor container at `path`, its values from
    `t`'s own memory when F-ordered, else from the one copy ravel makes."""
    t = _as_tensor(t)
    if t.ndim > MAX_ORDER:
        raise ValueError(f"tensor order {t.ndim} exceeds maximum {MAX_ORDER}")
    if t.size == 0:
        raise ValueError(f"{path}: nonpositive mode size in {t.shape}")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(t.ndim))
        for dim in t.shape:
            fh.write(_DIM.pack(dim))
        fh.write(np.asarray(t.ravel(order="F"), dtype="<f8").data)


def load_tensor(path, out=None):
    """Read a tensor from the binary container at `path`.

    Raises ValueError naming the file and the expected byte count when the
    container is malformed or truncated. The file's size is checked before
    the values are read, straight into the returned array's memory, so a
    load holds one copy of the values. That array is `out` when `out` is a
    writable F-contiguous little-endian float64 array of the container's
    shape, so a caller can read container after container into one
    buffer; otherwise, and when `out` is None, it is a new F-ordered
    array. A file cut short after its size was read may leave `out` with
    part of its values.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(8 + 8 * MAX_ORDER)  # the longest header
        if raw[:4] != _MAGIC:
            raise ValueError(f"{path}: not a tensor container (bad magic bytes)")
        if len(raw) < 8:
            raise ValueError(f"{path}: truncated header, expected at least 8 bytes")
        (order,) = _HEADER.unpack_from(raw, 4)
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"{path}: tensor order {order} outside 1..{MAX_ORDER}")
        head = 8 + 8 * order
        if len(raw) < head:
            raise ValueError(f"{path}: truncated dims, expected at least {head} bytes")
        shape = tuple(_DIM.unpack_from(raw, 8 + 8 * k)[0] for k in range(order))
        if any(d < 1 for d in shape):
            raise ValueError(f"{path}: nonpositive mode size in {shape}")
        count = 1
        for d in shape:
            count *= d
        expected = head + 8 * count
        into = (out is not None and out.shape == shape and out.dtype == "<f8"
                and out.flags.f_contiguous and out.flags.writeable)
        if size == expected:
            # a view of `out`: reshaping an F-contiguous array in F order
            values = out.reshape(-1, order="F") if into else np.empty(
                count, dtype="<f8")
            fh.seek(head)
            # a file cut short after its size was read ends the read early
            size = head + fh.readinto(values)
    if size != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes for shape {shape}, got {size}")
    if into:
        return out
    return values.astype(np.float64, copy=False).reshape(shape, order="F")


__all__ = [
    "MAX_ORDER",
    "matricize",
    "fold",
    "mode_product",
    "inner",
    "frobenius_norm",
    "save_tensor",
    "load_tensor",
]

"""Low-rank tensor decompositions and conversions between them.

Provides the singular-value-weighted HOSVD (factors rescaled by sigma**p,
core rescaled inversely), CP via alternating least squares, TT via
sequential SVDs, and the uniqueness-enforced conversions of Tucker and TT
representations into CP form.

Sign convention: every retained left singular vector is flipped so that
its entry of maximum absolute value is positive (ties broken by the
smallest row index). This makes repeated decompositions of the same input
bitwise identical.

Left singular vectors of a lone wide unfolding (at least int(11 M / 6)
columns for M rows) come from its LQ factor: LAPACK's dgelqf on a
source's buffer in place or on a private copy, then the SVD of the M x M
triangle L. That is the first half of what `np.linalg.svd` runs on such
a matrix (dgesdd's LQ path), so U and sigma are bitwise the same; only
the right singular vectors, which nothing here reads, are never formed.
Tall, square and narrower unfoldings, a numpy without an ILP64 dgelqf,
and magnitudes that dgesdd would rescale take the plain `np.linalg.svd`
call. One function, `_left_svds`, holds both routes and the ST-HOSVD's
one np.linalg.svd call.

The decomposition reads one layout, F order (mode 1 varies fastest, as
in `matricize` and the tensor container). Its input is a tensor or a
source, a function that gives the tensor anew, F-ordered, such as a
re-read of a container into one buffer or a new `tucker_reconstruct`
build at each call. A tensor is held beside a copy of itself only while
the mode-1 SVD runs: the private copy dgelqf overwrites. A source is
called once for that SVD, which dgelqf runs in place, and once more for
every rank's mode-1 projections only after dgelqf has overwritten it,
one array at a time; np.linalg.svd leaves its input as it was, so
otherwise the projections read the first array. The projections read
an F-ordered tensor in place, any other through one F-ordered copy, and
that tensor is dropped before any rank's modes 2...M run.

The ST-HOSVD has one path, on a batch: tensors of one shape stacked on
a leading sample axis, each step on all samples at once. A lone tensor
or source is the batch of one. A batch of one may take the LQ route,
dgelqf in place on a source's buffer among them; a larger batch takes
one stacked np.linalg.svd per mode, whose U and sigma are the bits of
those routes. After the mode-1 SVD every sample is laid out F-ordered
once, in place when it already is, and each later step lays out each
sample's matrices as a decomposition of that tensor alone lays them out,
so stacked matrix products run BLAS on each sample as a lone call does
and every sample gets the bits of its own call.

This is the one module that reaches numpy's native libraries, all
through `_numpy_symbol`, a lookup in numpy's linalg extension that finds
the LAPACK and BLAS `np.linalg` calls, on any OS: it binds dgelqf, and
`_blas_threads` sets numpy's OpenBLAS thread count for a call's length.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .tensor import frobenius_norm, matricize, mode_product

# Singular values below SIGMA_FLOOR * sigma_max count as numerically zero.
# weighted_hosvd zeroes the core along their directions once, at
# decomposition time; every weighting power then gives them weight 1 (the
# 0**0 = 1 convention), so reweighting leaves those core slices zero.
SIGMA_FLOOR = 1e-12

# LAPACK dgesdd rescales a matrix whose largest magnitude lies outside
# [_SMLNUM, 1 / _SMLNUM] before it factors it (dlamch('S') ** 0.5 /
# dlamch('P'), exactly 2**-459).
_SMLNUM = np.sqrt(np.finfo(np.float64).tiny) / np.finfo(np.float64).eps


@dataclass(eq=False)
class TuckerTensor:
    """Core tensor plus per-mode weighted factor matrices.

    ``factors[m]`` holds U_hat^(m) * diag(sigma^(m))**p, a weighting that
    only `reweight` applies and removes. ``sigmas`` may be None for
    externally constructed Tucker representations that never went through
    an SVD (then p must be 0 and the factors are taken as orthonormal).
    """

    core: np.ndarray
    factors: list
    sigmas: list | None = None
    p: float = 0.0

    def __post_init__(self):
        self.core = np.asarray(self.core, dtype=np.float64)
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
        if self.core.ndim != len(self.factors):
            raise ValueError("one factor matrix per core mode is required")
        for m, f in enumerate(self.factors):
            if f.ndim != 2 or f.shape[1] != self.core.shape[m]:
                raise ValueError(
                    f"factor {m + 1} has {f.shape} but core mode {m + 1} "
                    f"has size {self.core.shape[m]}")
        if self.sigmas is not None:
            self.sigmas = [np.asarray(s, dtype=np.float64) for s in self.sigmas]
            for m, s in enumerate(self.sigmas):
                if len(s) != self.core.shape[m]:
                    raise ValueError(f"sigma vector {m + 1} length mismatch")
                if np.any(np.diff(s) > 0):
                    raise ValueError(f"sigmas of mode {m + 1} are not nonincreasing")
        elif self.p != 0.0:
            raise ValueError("nonzero weighting power requires sigma vectors")

    @property
    def order(self):
        return self.core.ndim

    @property
    def shape(self):
        return tuple(f.shape[0] for f in self.factors)

    @property
    def ranks(self):
        return self.core.shape

    def unweighted_factors(self):
        """Orthonormal factors: those of `reweight(self, 0.0)`, the only
        code that applies and removes sigma**p, exactly at both ends."""
        return reweight(self, 0.0).factors


@dataclass(eq=False)
class KruskalTensor:
    """CP representation: per-mode factors sharing one rank dimension."""

    factors: list
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
        if not self.factors:
            raise ValueError("at least one factor is required")
        for m, f in enumerate(self.factors):
            if f.ndim != 2:
                raise ValueError(f"factor {m + 1} is not a matrix")
            if f.shape[1] != self.rank:
                raise ValueError(
                    f"factor {m + 1} does not have rank {self.rank}")
        rank = self.rank
        if self.weights is None:
            self.weights = np.ones(rank)
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != (rank,):
                raise ValueError("weights length must equal the rank")
            if np.any(self.weights < 0):
                raise ValueError("weights must be nonnegative")

    @property
    def order(self):
        return len(self.factors)

    @property
    def shape(self):
        return tuple(f.shape[0] for f in self.factors)

    @property
    def rank(self):
        return self.factors[0].shape[1]


@dataclass(eq=False)
class TTTensor:
    """Tensor-train representation: a chain of order-3 cores."""

    cores: list = field(default_factory=list)

    def __post_init__(self):
        self.cores = [np.asarray(c, dtype=np.float64) for c in self.cores]
        if not self.cores:
            raise ValueError("at least one core is required")
        for k, c in enumerate(self.cores):
            if c.ndim != 3:
                raise ValueError(f"core {k + 1} is not of order 3")
            if k and self.cores[k - 1].shape[2] != c.shape[0]:
                raise ValueError(f"rank mismatch between cores {k} and {k + 1}")
        if self.cores[0].shape[0] != 1 or self.cores[-1].shape[2] != 1:
            raise ValueError("boundary ranks must equal 1")

    @property
    def order(self):
        return len(self.cores)

    @property
    def shape(self):
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self):
        return tuple(c.shape[2] for c in self.cores[:-1])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _column_signs(u):
    """Per column of `u` (of each matrix of a stack), -1 where its
    max-magnitude entry, the first of ties, is negative, else +1."""
    pivot_rows = np.argmax(np.abs(u), axis=-2)
    pivots = np.take_along_axis(u, pivot_rows[..., None, :], axis=-2)
    return np.where(pivots[..., 0, :] < 0, -1.0, 1.0)


def fix_signs(u):
    """Flip each column of `u` so its max-magnitude entry is positive.

    Ties take the smallest row index; an exactly zero pivot leaves the
    column unchanged. Idempotent and deterministic. A stack of matrices
    (leading axes before the last two) is fixed matrix by matrix.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.size == 0:
        return u.copy()
    return u * _column_signs(u)[..., None, :]


def _tiny_mask(sigmas):
    """Along the last axis, the singular values below SIGMA_FLOOR times
    the first (the largest)."""
    return sigmas < SIGMA_FLOOR * sigmas[..., :1]


def _sigma_weights(sigmas, p):
    """sigma**p with numerically zero singular values mapped to weight 1."""
    w = np.ones_like(sigmas)
    keep = ~_tiny_mask(sigmas)
    w[keep] = sigmas[keep] ** p
    return w


def _along(w, m, order):
    """`w`, one entry per index of mode m+1 on its last axis (after any
    sample axis), shaped to scale that mode of an order-`order` tensor."""
    return w.reshape(w.shape[:-1] + (1,) * m + (w.shape[-1],)
                     + (1,) * (order - m - 1))


def khatri_rao(mats):
    """Columnwise Kronecker product; the first listed matrix varies fastest."""
    out = mats[0]
    for a in mats[1:]:
        out = (a[:, None, :] * out[None, :, :]).reshape(-1, out.shape[1])
    return out


# ---------------------------------------------------------------------------
# weighted HOSVD
# ---------------------------------------------------------------------------

def _checked_ranks(shape, ranks):
    ranks = tuple(ranks)
    if len(ranks) != len(shape):
        raise ValueError(f"expected {len(shape)} ranks, got {len(ranks)}")
    for m, r in enumerate(ranks):
        if not isinstance(r, (int, np.integer)) or r < 1 or r > shape[m]:
            raise ValueError(
                f"rank {r} invalid for mode {m + 1} of size {shape[m]}")
    return tuple(int(r) for r in ranks)


def _numpy_symbol(names, argtypes, restype):
    """The first of `names` that numpy's linalg extension resolves, as a
    ctypes function with `argtypes` and `restype`; None if none does.

    The lookup goes through that extension's handle, so it finds the
    LAPACK and BLAS that `np.linalg` itself calls, on any OS.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, restype
            return fn
    return None


# (get, set) thread-count functions, by the names OpenBLAS builds export
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@contextlib.contextmanager
def _blas_threads(n):
    """Run the body with numpy's BLAS on `n` threads; restore the caller's
    thread count on return or raise. Does nothing when numpy's BLAS is not
    an OpenBLAS."""
    for get_name, set_name in _OPENBLAS_THREAD_CALLS:
        get = _numpy_symbol((get_name,), [], ctypes.c_int)
        put = _numpy_symbol((set_name,), [ctypes.c_int], None)
        if get is not None and put is not None:
            break
    else:  # numpy's BLAS is not an OpenBLAS
        yield
        return
    before = get()
    put(n)
    try:
        yield
    finally:
        put(before)


@functools.lru_cache(maxsize=None)
def _dgelqf():
    """numpy's own ILP64 LAPACK dgelqf, or None. Bound on first use."""
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    return _numpy_symbol(("scipy_dgelqf_64_", "dgelqf_64_"),
                         [i64, i64, ptr, i64, ptr, ptr, i64, i64], None)


def _lq_lower(a):
    """Factor the F-ordered `a` = L Q in place by dgelqf; L with its upper
    triangle zeroed, or None when dgelqf reports an error."""
    rows, cols = a.shape
    i64 = ctypes.c_int64
    tau = np.empty(rows)
    work = np.empty(1)
    info = i64(0)

    def call(lwork):
        _dgelqf()(ctypes.byref(i64(rows)), ctypes.byref(i64(cols)),
                  a.ctypes.data, ctypes.byref(i64(rows)), tau.ctypes.data,
                  work.ctypes.data, ctypes.byref(i64(lwork)),
                  ctypes.byref(info))

    call(-1)  # workspace query: the optimal size, as dgesdd allocates it
    work = np.empty(max(int(work[0]), 1))
    call(work.size)
    return np.tril(a[:, :rows]) if info.value == 0 else None


def _unscaled(x):
    """True when dgesdd takes `x` as it is: its largest magnitude lies in
    [_SMLNUM, 1 / _SMLNUM] (False for NaN). No full-size temporary."""
    amax = np.maximum(np.max(x), -np.min(x))
    return bool(_SMLNUM <= amax <= 1.0 / _SMLNUM)


def _wide(rows, cols):
    """True when dgesdd LQ-factors a rows x cols matrix first."""
    return rows < cols and cols >= int(rows * 11.0 / 6.0)


class _Refused(ValueError):
    """A batch's refusal of one sample: `index` names the sample, and
    `reason` is the ValueError a call on that sample alone raises."""

    def __init__(self, index, reason):
        super().__init__(f"sample {index}: {reason}")
        self.index = index
        self.reason = reason


def weighted_hosvd(t, ranks, p=None, *, batch=False):
    """Sequentially truncated HOSVD with sigma**p weighted factors.

    Mode by mode, the leading `ranks[m]` left singular vectors of the
    partially projected tensor are extracted, sign-fixed, and recorded
    together with their singular values; the tensor is then projected onto
    that subspace. This p = 0 ST-HOSVD has its core zeroed along the
    numerically zero directions (sigma < SIGMA_FLOOR * sigma_1) and is
    then moved to power p by `reweight`'s arithmetic: each factor is
    scaled by diag(sigma**p) and the core inversely, so the contraction
    of core and factors equals the rank-(R_1,...,R_M) sequential
    truncation of `t` (without the dropped directions) for every p. The
    retained subspaces do not depend on p, and `reweight(weighted_hosvd(t,
    r, 0.0), p)` is bitwise equal to `weighted_hosvd(t, r, p)`. Default p
    is 1/M.

    `t` is a tensor or a source: a function `t()` that returns the tensor
    in an F-ordered array nobody reads until its next call, as dgelqf
    overwrites it. That array may be one buffer filled anew (a `data_dir`
    sample's container, read again) or new on each call (a
    `tucker_reconstruct` build). A source is called once for the mode-1
    SVD. Only when dgelqf has factored that array in place (see
    `_left_svds`) is it called once more for the mode-1 projections,
    after the first array is dropped; otherwise the projections read the
    first array, which np.linalg.svd left as it was. Either way the
    tensor is held dense once at a time. A tensor is held beside the
    private copy that dgelqf overwrites while the mode-1 SVD runs, and
    the projections read it in place when F-ordered, else through one
    F-ordered copy. Either way it is decomposed as the batch of one,
    `t[None]`, and the result is that sample's.

    `ranks` is either one per-mode rank tuple, which returns one
    TuckerTensor, or a sequence of such tuples, which returns a list with
    one TuckerTensor per entry. All entries are validated before any SVD.
    The mode-1 unfolding is the full `t` whatever the ranks, so its SVD is
    computed once and shared by every entry. Every entry's mode-1
    projection is taken first, from the one F-ordered tensor, which is
    dropped before modes 2...M run; each entry is bitwise equal to a
    separate call with that tuple.

    With `batch=True`, `t` is an array (never a source) whose leading
    axis indexes samples of one shape, and the result is a list with
    what `weighted_hosvd(t[k], ranks, p)` returns for each sample k, bit
    for bit: the samples are decomposed together, each step on all of
    them at once (one stacked np.linalg.svd per mode and entry, whose U
    and sigma are the bits of a batch of one's routes by construction,
    see `_left_svds`), and laid out F-ordered once, after the mode-1
    SVD, each sample as a lone tensor is projected. `p` defaults to 1/M
    with M the samples' order. Every sample is decomposed; then the
    first sample in order that a call of its own would refuse, all-zero
    or with sigma**p that float64 cannot hold, is refused by a
    ValueError whose `index` names it and whose `reason` is that call's
    error. Without `batch`, no input changes meaning: a nested sequence
    is still one tensor.

    A sample of order 0 (a scalar, or a 1-D array with `batch`) is
    refused by a ValueError before any SVD, and so is an array's first
    sample with a NaN or inf entry (named by `index` with `batch`). A
    source is not scanned: the harness's container reader refuses such a
    tensor.

    Requested ranks are additionally capped by the column count of each
    unfolding (directions beyond it carry zero singular values). The SVDs
    run on the caller's BLAS threads, and a multi-threaded SVD rounds
    differently, so the bits can follow the host's core count (they did
    at mode 100, not at 64) unless the caller pins one thread, as
    `run_experiment` does with `_blas_threads(1)`.
    """
    build = t if callable(t) and not batch else None
    g = build() if build else np.asarray(t, dtype=np.float64)
    if not batch:
        g = g[None]  # a lone tensor is a batch of one
    shape = g.shape[1:]
    if not shape:
        raise ValueError("a sample of order 0 has no mode to decompose")
    ranks = list(ranks)
    single = len(ranks) == 0 or np.ndim(ranks[0]) == 0
    grid = [_checked_ranks(shape, r) for r in ([ranks] if single else ranks)]
    if p is None:
        p = 1.0 / len(shape)

    def refused(k, reason):  # the error refusing sample k
        return _Refused(k, reason) if batch else reason

    axes = tuple(range(1, g.ndim))
    if build is None:  # the harness's container reader refuses NaN and inf
        # NaN propagates through np.max and np.min, which need no
        # temporary as large as the batch
        finite = np.isfinite([np.max(g, axis=axes), np.min(g, axis=axes)])
        if not finite.all():
            raise refused(int(np.argmin(finite.all(axis=0))), ValueError(
                "cannot decompose a tensor holding NaN or inf values"))
    nonzero = np.any(g, axis=axes)
    u, s, g = _left_svds(g, 0, build)
    if g is None:  # dgelqf has overwritten the source's buffer
        g = build()[None]
    # each sample F-ordered, as the projections read it: no copy of one
    # that already is
    g = np.moveaxis(np.asfortranarray(np.moveaxis(g, 0, -1)), -1, 0)
    heads = [_project(g, u, s, r[0], 0) for r in grid]
    del g  # only the mode-1 projections read it
    stages = [_truncate(*head, r, p) for head, r in zip(heads, grid)]

    out = []
    for k in range(len(nonzero)):
        if not nonzero[k]:
            raise refused(k, ValueError("cannot decompose an all-zero tensor"))
        if not all(held[k] for *_, held in stages):
            raise refused(k, _unrepresentable(p))
        tuckers = [TuckerTensor(core=core[k], factors=[f[k] for f in factors],
                                sigmas=[s[k] for s in sigmas], p=float(p))
                   for core, factors, sigmas, _ in stages]
        out.append(tuckers[0] if single else tuckers)
    return out if batch else out[0]


def _unfold(g, m):
    """matricize(g[k], m + 1) of each tensor of the batch `g` (a leading
    sample axis) as one (samples, I_m, N) stack whose matrices are laid
    out as matricize lays out each one's: a view of each F-ordered sample
    at m = 0, else an F-ordered copy."""
    # the samples as the last, slowest-varying, columns of one unfolding
    x = matricize(np.moveaxis(g, 0, -1), m + 1)
    shape = (len(x), np.prod(g.shape[1:]) // len(x), len(g))
    return np.moveaxis(x.reshape(shape, order="F"), -1, 0)


def _fold(y, m, shape):
    """Inverse of `_unfold`: the batch of tensors of `shape` from their
    stacked mode-(m+1) unfoldings `y`; a view of `y`, laid out for each
    sample as `fold` lays out one tensor."""
    x = np.moveaxis(y, 0, -1).reshape(
        (shape[m],) + shape[:m] + shape[m + 1:] + (len(y),), order="F")
    return np.moveaxis(x, (0, -1), (m + 1, 0))


def _left_svds(g, m, build=None):
    """(u, s, g): the left singular vectors and values of the
    mode-(m+1) unfolding of each tensor of the batch `g`, stacked on a
    leading axis, and the batch the projections must read, `g` itself, or
    None when dgelqf overwrote the buffer of the source `build` (see
    `weighted_hosvd`), which must then be built again.

    U and sigma are bitwise those of `np.linalg.svd(X,
    full_matrices=False)` on each unfolding X, all taken by one stacked
    call, except in one case. For a batch of one whose X is wide (M x N
    with N at least LAPACK's crossover int(11 M / 6)), that call's dgesdd
    LQ-factors X = L Q by dgelqf, takes the SVD of the M x M triangle L,
    then forms Q only to build the right singular vectors. Here dgelqf
    runs on the source's buffer in place when X is a view of it, and
    otherwise on a private F-ordered copy of X (never the caller's
    tensor), and the SVD of L comes from `np.linalg.svd`: the same LAPACK
    calls on the same bits, without Q, V^T or their N-column buffers. The
    plain call runs instead without an ILP64 dgelqf, or when X or L would
    be rescaled by dgesdd (see `_unscaled`). A source is built again only
    after dgelqf overwrote its buffer: here, when L is refused, for the
    plain call, whose batch is returned for the projections; else by the
    caller, on None.
    """
    x = _unfold(g, m)
    if (len(g) == 1 and _wide(*x.shape[1:]) and _unscaled(x)
            and _dgelqf() is not None):
        a = x[0]
        if not a.flags.f_contiguous or (
                build is None and np.may_share_memory(a, g)):
            a = a.copy(order="F")
        low = _lq_lower(a)
        lq = low is not None and _unscaled(low)
        if np.may_share_memory(a, g):  # dgelqf has overwritten the buffer
            g = None if lq else build()[None]
        x = low[None] if lq else _unfold(g, m)
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    return u, s, g


def _project(g, u, s, r, m):
    """One ST-HOSVD step on the batch `g` (a leading sample axis): the
    leading `r` (capped) sign-fixed columns of each sample's mode-(m+1)
    SVD, stacked in (u, s), their sigmas, and each sample projected onto
    them, on its unfolding: a view of an F-ordered sample at m = 0, which
    `mode_product` would copy to C order. Each sample's step is the one
    its tensor alone would take."""
    u = fix_signs(u[..., :min(r, u.shape[-1])])
    shape = g.shape[1:m + 1] + (u.shape[-1],) + g.shape[m + 2:]
    y = np.swapaxes(u, -1, -2) @ _unfold(g, m)
    return u, s[..., :u.shape[-1]], _fold(y, m, shape)


def _truncate(u, s, g, ranks, p):
    """ST-HOSVD at `ranks` of each sample of the batch `g` from its
    mode-1 step (u, s, g), modes 2...M, its core zeroed along the tiny
    sigmas and reweighted from p = 0 to `p`: (core, factors, sigmas,
    held), each on a leading sample axis, `held` telling for each sample
    whether float64 holds its weighting (see `_rescaled`)."""
    basis = [u]
    sigmas = [s]
    for m in range(1, len(ranks)):
        u, s, g = _project(g, *_left_svds(g, m)[:2], ranks[m], m)
        basis.append(u)
        sigmas.append(s)
    for m, s in enumerate(sigmas):
        g = g * _along(~_tiny_mask(s), m, len(ranks))
    core, factors, held = _rescaled(g, basis, sigmas, 0.0, p)
    return core, factors, sigmas, held


def _lift(tts, bases):
    """The decompositions `tts` of a batch's samples, sample k's factor m
    lifted to bases[m][k] @ factors[m] and sign-fixed by `fix_signs`'s
    rule, each flipped column's core slice flipped with it; sigmas and p
    are kept. `bases[m]` stacks the samples' bases on a leading axis.
    When the columns of each basis are orthonormal and tts[k] decomposes
    the tensor Y, the result decomposes Y x_1 bases[0][k] ... x_M
    bases[M-1][k]: it is that tensor's `weighted_hosvd` at the same ranks
    and p, to rounding. Each array is computed, and laid out, as a lift
    of that sample alone would make it."""
    order = len(bases)
    # each sample's core F-ordered, as its decomposition made it
    core = np.stack([t.core.T for t in tts]).transpose(0, *range(order, 0, -1))
    factors = []
    for m, q in enumerate(bases):
        f = q @ np.stack([t.factors[m] for t in tts])
        signs = _column_signs(f)
        factors.append(f * signs[:, None, :])
        core = core * _along(signs, m, order)
    return [TuckerTensor(core=core[k], factors=[f[k] for f in factors],
                         sigmas=t.sigmas, p=t.p) for k, t in enumerate(tts)]


def tucker_reconstruct(tt):
    """Contract core and factors back into a new F-ordered dense tensor.

    Modes 1...M-1 are multiplied in by `mode_product`. The last mode's
    product is one matrix product that BLAS writes straight in F order,
    so the result is not a copy of another layout. Each entry is the
    same length-R_M dot product as in a plain `mode_product` chain, whose
    result is C-ordered, and with numpy's OpenBLAS the two are equal bit
    for bit at the benchmark's sizes (modes 50, 64 and 100, rank 3) and
    at every shape checked with modes up to 12. The kernel's edge tiles
    fall on other entries in the chain's layout, and at some larger
    shapes those round differently in the last bit: at cubic modes 70,
    74, 78, ... (2 mod 4) for rank 3, for one.
    """
    out = tt.core
    for m, f in enumerate(tt.factors[:-1]):
        out = mode_product(out, f, m + 1)
    f = tt.factors[-1]
    # columns: the earlier modes' indices, F-flattened
    cols = np.ascontiguousarray(out.reshape(-1, f.shape[1], order="F").T)
    return (f @ cols).T.reshape(tt.shape, order="F")


def reweight(tt, p):
    """Move a Tucker representation to a different weighting power.

    Pure rescaling of factors and core; the represented tensor and the
    underlying subspaces are unchanged. Requires sigma vectors, which the
    result shares with `tt`. The only code that applies and removes
    sigma**p (`_rescaled`, which `weighted_hosvd` runs too), exactly at
    both ends: factor columns are divided by the old weight, then
    multiplied by the new.

    Raises ValueError, naming p, when float64 cannot hold the result: the
    core or a factor gets a non-finite entry, or one that had a nonzero
    entry has its largest magnitude fall below the smallest normal float.
    """
    if tt.sigmas is None:
        if p == tt.p:
            return tt
        raise ValueError("cannot reweight without sigma vectors")
    core, factors, held = _rescaled(tt.core, tt.factors, tt.sigmas, tt.p, p)
    if not held:
        raise _unrepresentable(p)
    return TuckerTensor(core=core, factors=factors, sigmas=tt.sigmas,
                        p=float(p))


def _rescaled(core, factors, sigmas, p_old, p_new):
    """(core, factors, held): the Tucker arrays moved from weighting
    power `p_old` to `p_new`, and whether float64 holds them, on a
    leading sample axis when the arrays have one (`held` then per
    sample). It does not: a non-finite entry, or an array that had a
    nonzero entry whose largest magnitude falls below the smallest
    normal float."""
    order = len(factors)
    lead = core.ndim - order
    scaled = core
    out = []
    with np.errstate(all="ignore"):
        for m, (f, s) in enumerate(zip(factors, sigmas)):
            w_old = _sigma_weights(s, p_old)
            w_new = _sigma_weights(s, p_new)
            out.append(f / w_old[..., None, :] * w_new[..., None, :])
            scaled = scaled * _along(w_old / w_new, m, order)
    tiny = np.finfo(np.float64).tiny
    held = True
    for old, new in zip([core] + list(factors), [scaled] + out):
        axes = tuple(range(lead, new.ndim))
        kept = np.max(np.abs(new), axis=axes, initial=0.0) >= tiny
        held = held & np.isfinite(new).all(axis=axes) & (
            kept | ~old.any(axis=axes))
    return scaled, out, held


def _unrepresentable(p):
    return ValueError(f"weighting power p = {p} over- or underflows the "
                      "core or a factor of this tensor")


# ---------------------------------------------------------------------------
# CP via alternating least squares
# ---------------------------------------------------------------------------

def cp_als(t, rank, max_iters=200, tol=1e-8):
    """CP decomposition by alternating least squares.

    Factors are initialized from the leading left singular vectors of each
    unfolding, padded with draws from a fixed generator when the requested
    rank exceeds what an unfolding provides. Sweeps stop when the relative
    reconstruction error changes by less than `tol` or after `max_iters`.
    The returned representation is sign-fixed and norm-equilibrated.

    Returns (KruskalTensor, info) where info records the iteration count,
    final relative error, error history, convergence flag, and a
    `degenerate` flag set when a rank-deficient least-squares system was
    met (the last healthy iterate is returned in that case).
    """
    t = np.asarray(t, dtype=np.float64)
    if rank < 1:
        raise ValueError("rank must be a positive integer")
    order = t.ndim
    # sweep on t / 2**e, whose largest entry is in [1/2, 1), so the factor
    # Grams cannot underflow; the exact scale returns through the weights
    e = int(np.frexp(np.max(np.abs(t), initial=0.0))[1])
    t = np.ldexp(t, -e)
    norm_t = frobenius_norm(t)

    pad_rng = np.random.default_rng(8191)
    factors = []
    for m in range(order):
        u = _left_svds(t[None], m)[0][0]
        have = min(rank, u.shape[1])
        f = u[:, :have]
        if have < rank:
            f = np.hstack([f, pad_rng.standard_normal((t.shape[m], rank - have))])
        factors.append(f)

    grams = [f.T @ f for f in factors]
    history = []
    degenerate = False
    converged = False
    prev_err = None
    iterations = 0

    for _ in range(max_iters):
        snapshot = list(factors)
        for m in range(order):
            others = [k for k in range(order) if k != m]
            v = np.ones((rank, rank))
            for k in others:
                v = v * grams[k]
            kr = khatri_rao([factors[k] for k in others])
            b = matricize(t, m + 1) @ kr
            if np.linalg.cond(v) > 1e12:
                degenerate = True
                break
            factors[m] = np.linalg.solve(v, b.T).T
            grams[m] = factors[m].T @ factors[m]
        if degenerate:
            factors = snapshot
            warnings.warn("rank-deficient least-squares system in CP sweep; "
                          "returning the last healthy iterate")
            break
        iterations += 1
        inner_tb = float(np.sum(factors[-1] * b))
        norm_m2 = float(np.sum(np.prod([g for g in grams], axis=0)))
        resid2 = max(norm_t ** 2 + norm_m2 - 2.0 * inner_tb, 0.0)
        err = np.sqrt(resid2) / norm_t if norm_t > 0 else np.sqrt(resid2)
        history.append(err)
        if prev_err is not None and abs(prev_err - err) < tol:
            converged = True
            break
        prev_err = err

    # 2**e returns through equilibrate's weights, except a multiple of the
    # order beyond 2**(+-512), which goes to every mode afterwards as an exact
    # power of two (none at unit scale), so no intermediate overflows
    k = int((e - min(max(e, -512), 512)) / order)
    kt = equilibrate(
        KruskalTensor(factors, np.ldexp(np.ones(rank), e - order * k)),
        fix_column_signs=True)
    kt.factors = [np.ldexp(f, k) for f in kt.factors]
    info = {
        "iterations": iterations,
        "rel_error": history[-1] if history else np.nan,
        "error_history": history,
        "converged": converged,
        "degenerate": degenerate,
    }
    return kt, info


def kruskal_reconstruct(kt):
    """Dense tensor represented by a Kruskal form (sum of outer products)."""
    out = np.zeros(kt.shape)
    for r in range(kt.rank):
        term = kt.factors[0][:, r]
        for f in kt.factors[1:]:
            term = np.multiply.outer(term, f[:, r])
        out += kt.weights[r] * term
    return out


def equilibrate(kt, fix_column_signs=False):
    """Redistribute magnitudes so all modes carry equal column norms.

    Each rank-one term's total scalar (its weight times the product of the
    per-mode column norms) is split as the M-th root over all modes; a
    negative total sign lands on the mode-1 column. Terms with any zero
    column become all-zero columns and are retained. Weights come back as
    ones. Applying the operation twice is a fixed point.
    """
    order = kt.order
    # C order fixes the summation order, hence the bits, of the column norms
    factors = [np.ascontiguousarray(f) for f in kt.factors]
    signs_total = np.ones(kt.rank)
    if fix_column_signs:
        for m in range(order):
            signs = _column_signs(factors[m])
            signs_total *= signs
            factors[m] = factors[m] * signs[None, :]
    norms = np.array([np.linalg.norm(f, axis=0) for f in factors])
    total = kt.weights * np.prod(norms, axis=0) * signs_total
    target = np.abs(total) ** (1.0 / order)
    for m in range(order):
        safe = np.where(norms[m] > 0, norms[m], 1.0)
        scale = np.where(total != 0, target / safe, 0.0)
        factors[m] = factors[m] * scale[None, :]
    factors[0] = factors[0] * np.where(total < 0, -1.0, 1.0)[None, :]
    return KruskalTensor(factors, np.ones(kt.rank))


# ---------------------------------------------------------------------------
# tensor train
# ---------------------------------------------------------------------------

def tt_svd(t, ranks):
    """TT decomposition by sequential SVDs with sign-fixed cores.

    `ranks` lists the M-1 interior ranks. Ranks larger than an unfolding
    allows are clipped to the feasible maximum (with a warning); the
    resulting cores are left-orthogonal and the full contraction equals
    the sequential-SVD truncation of `t`.
    """
    t = np.asarray(t, dtype=np.float64)
    order = t.ndim
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != order - 1:
        raise ValueError(f"expected {order - 1} interior ranks, got {len(ranks)}")
    if any(r < 1 for r in ranks):
        raise ValueError("interior ranks must be positive")

    cores = []
    r_prev = 1
    w = t.reshape(t.shape[0], -1, order="F")
    for m in range(order - 1):
        w = w.reshape(r_prev * t.shape[m], -1, order="F")
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        r = min(ranks[m], u.shape[1])
        if r < ranks[m]:
            warnings.warn(
                f"interior rank {ranks[m]} clipped to {r} at position {m + 1}")
        u = u[:, :r]
        signs = _column_signs(u)
        u = u * signs[None, :]
        cores.append(u.reshape(r_prev, t.shape[m], r, order="F"))
        w = (s[:r, None] * vt[:r]) * signs[:, None]
        r_prev = r
    cores.append(w.reshape(r_prev, t.shape[-1], 1, order="F"))
    return TTTensor(cores)


def tt_reconstruct(tt):
    """Contract a TT representation back into a dense tensor."""
    acc = tt.cores[0][0]
    for c in tt.cores[1:]:
        acc = np.einsum("pa,aiq->piq", acc, c)
        acc = acc.reshape(-1, c.shape[2], order="F")
    return acc.reshape(tt.shape, order="F")


# ---------------------------------------------------------------------------
# conversions to CP
# ---------------------------------------------------------------------------

def tucker_to_cp(tt):
    """Expand a Tucker representation into CP with prod(R_m) rank-one terms.

    Term (r_1,...,r_M) pairs the corresponding factor columns; the core
    entry is distributed as |g|**(1/M) over every mode with its sign on
    the mode-1 column. Zero core entries yield zero columns, which are
    retained. The contraction equals tucker_reconstruct(tt).
    """
    order = tt.order
    core_shape = tt.core.shape
    rank = int(np.prod(core_shape))
    g = tt.core.reshape(-1, order="F")
    idx = np.unravel_index(np.arange(rank), core_shape, order="F")
    scale = np.abs(g) ** (1.0 / order)
    sign = np.where(g < 0, -1.0, 1.0)
    factors = [f[:, i] * scale for f, i in zip(tt.factors, idx)]
    factors[0] = factors[0] * sign
    return KruskalTensor(factors, np.ones(rank))


def tt_to_cp(tt):
    """Expand a TT representation into CP with prod(interior ranks) terms.

    Columns are slices of the cores along their rank links, then the
    column norms are equilibrated across modes (the represented tensor is
    unchanged).
    """
    interior = tt.ranks
    rank = int(np.prod(interior)) if interior else 1
    idx = np.unravel_index(np.arange(rank), interior, order="F") if interior else ()
    factors = [tt.cores[0][0][:, idx[0]] if interior else tt.cores[0][0]]
    for m in range(1, tt.order - 1):
        factors.append(tt.cores[m][idx[m - 1], :, idx[m]].T)
    if tt.order > 1:  # then `interior` is nonempty
        factors.append(tt.cores[-1][idx[-1], :, 0].T)
    return equilibrate(KruskalTensor(factors, np.ones(rank)))


__all__ = [
    "SIGMA_FLOOR",
    "TuckerTensor",
    "KruskalTensor",
    "TTTensor",
    "fix_signs",
    "khatri_rao",
    "weighted_hosvd",
    "tucker_reconstruct",
    "reweight",
    "cp_als",
    "kruskal_reconstruct",
    "equilibrate",
    "tt_svd",
    "tt_reconstruct",
    "tucker_to_cp",
    "tt_to_cp",
]

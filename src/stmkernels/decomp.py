"""Low-rank tensor decompositions and conversions between them.

Provides the singular-value-weighted HOSVD (factors rescaled by sigma**p,
core rescaled inversely), CP via alternating least squares, TT via
sequential SVDs, and the uniqueness-enforced conversions of Tucker and TT
representations into CP form.

Sign convention: every retained left singular vector is flipped so that
its entry of maximum absolute value is positive (ties broken by the
smallest row index). This makes repeated decompositions of the same input
bitwise identical.

Left singular vectors of a wide unfolding (at least int(11 M / 6) columns
for M rows) come from its LQ factor: LAPACK's dgelqf on a private copy,
then the SVD of the M x M triangle L. That is the first half of what
`np.linalg.svd` runs on such a matrix (dgesdd's LQ path), so U and sigma
are bitwise the same; only the right singular vectors, which nothing
here reads, are never formed. Tall, square and narrower unfoldings, a
numpy without an ILP64 dgelqf, and magnitudes that dgesdd would rescale
take the plain `np.linalg.svd` call.

A decomposition holds one dense tensor beside its input at a time, and
none beside it when its input is a source (a function that builds the
tensor in a requested layout, such as a Tucker sample's
`tucker_reconstruct`): first the F-ordered tensor whose mode-1
unfolding dgelqf overwrites, then the C-ordered tensor (the input itself
when C-ordered) that every rank's mode-1 projection reads. That one is
dropped before any rank's modes 2...M run. `tucker_reconstruct` builds
either layout directly, so a generated sample is never copied.

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
        return list(reweight(self, 0.0).factors)


@dataclass(eq=False)
class KruskalTensor:
    """CP representation: per-mode factors sharing one rank dimension."""

    factors: list
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
        rank = self.factors[0].shape[1]
        for m, f in enumerate(self.factors):
            if f.ndim != 2 or f.shape[1] != rank:
                raise ValueError(f"factor {m + 1} does not have rank {rank}")
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
        if self.cores[0].shape[0] != 1 or self.cores[-1].shape[2] != 1:
            raise ValueError("boundary ranks must equal 1")
        for k in range(len(self.cores) - 1):
            if self.cores[k].shape[2] != self.cores[k + 1].shape[0]:
                raise ValueError(
                    f"rank mismatch between cores {k + 1} and {k + 2}")

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
    pivot_rows = np.argmax(np.abs(u), axis=0)
    pivots = u[pivot_rows, np.arange(u.shape[1])]
    return np.where(pivots < 0, -1.0, 1.0)


def fix_signs(u):
    """Flip each column of `u` so its max-magnitude entry is positive.

    Ties take the smallest row index; an exactly zero pivot leaves the
    column unchanged. Idempotent and deterministic.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.size == 0:
        return u.copy()
    return u * _column_signs(u)[None, :]


def _tiny_mask(sigmas):
    if sigmas.size == 0:
        return np.zeros(0, dtype=bool)
    return sigmas < SIGMA_FLOOR * sigmas[0]


def _sigma_weights(sigmas, p):
    """sigma**p with numerically zero singular values mapped to weight 1."""
    w = np.ones_like(sigmas)
    keep = ~_tiny_mask(sigmas)
    w[keep] = sigmas[keep] ** p
    return w


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


def _left_svd(g, m, build=None):
    """Left singular vectors and values of the mode-(m+1) unfolding.

    Bitwise equal to the U and sigma of `np.linalg.svd(X,
    full_matrices=False)`. For a wide unfolding X (M x N with N at least
    LAPACK's crossover int(11 M / 6)), that call's dgesdd LQ-factors X =
    L Q by dgelqf, takes the SVD of the M x M triangle L, then forms Q
    only to build the right singular vectors. Here dgelqf runs on a
    private F-ordered copy of X (never the caller's tensor) and the SVD
    of L comes from `np.linalg.svd`: the same LAPACK calls on the same
    bits, without Q, V^T or their N-column buffers. Given `build`, the
    source `g` was built by (see `weighted_hosvd`), dgelqf runs on `g`
    itself when its unfolding is F-contiguous, and the plain call, should
    it be needed afterwards, reads a new `build("F")`. The plain call runs
    instead for a tall, square or narrower unfolding, without an ILP64
    dgelqf, or when X or L would be rescaled by dgesdd (see `_unscaled`).
    """
    x = matricize(g, m + 1)
    rows, cols = x.shape
    if (rows < cols and cols >= int(rows * 11.0 / 6.0) and _unscaled(x)
            and _dgelqf() is not None):
        # matricize copies unless `g` is F-ordered; a view of `g` must be
        # copied unless `g` is the caller's to overwrite
        if not x.flags.f_contiguous or (
                build is None and np.may_share_memory(x, g)):
            x = x.copy(order="F")
        low = _lq_lower(x)
        if low is not None and _unscaled(low):
            u, s, _ = np.linalg.svd(low, full_matrices=False)
            return u, s
        # dgelqf has overwritten x
        x = matricize(g if build is None else build("F"), m + 1)
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    return u, s


def _copies(t):
    """The source (see `weighted_hosvd`) of the array `t`: a new F-ordered
    copy, and `t` itself when C-ordered, else a C-ordered copy."""
    t = np.asarray(t, dtype=np.float64)
    return lambda order: (np.array(t, order="F") if order == "F"
                          else np.ascontiguousarray(t))


def weighted_hosvd(t, ranks, p=None):
    """Sequentially truncated HOSVD with sigma**p weighted factors.

    Mode by mode, the leading `ranks[m]` left singular vectors of the
    partially projected tensor are extracted, sign-fixed, and recorded
    together with their singular values; the tensor is then projected onto
    that subspace. This p = 0 ST-HOSVD has its core zeroed along the
    numerically zero directions (sigma < SIGMA_FLOOR * sigma_1) and is
    then moved to power p by `reweight`: each factor is scaled by
    diag(sigma**p) and the core inversely, so the contraction of core and
    factors equals the rank-(R_1,...,R_M) sequential truncation of `t`
    (without the dropped directions) for every p. The retained subspaces do
    not depend on p, and `reweight(weighted_hosvd(t, r, 0.0), p)` is
    bitwise equal to `weighted_hosvd(t, r, p)`. Default p is 1/M.

    `t` is a tensor or a source: a function `t(order)` that returns the
    tensor as an array laid out in `order`, "F" or "C", and must return a
    new array for "F", as dgelqf overwrites it. The F-ordered build gives
    the mode-1 SVD and is dropped before the C-ordered one is made, so a
    source is held dense once at a time. A tensor is its own source
    (`_copies`): an F-ordered copy, then itself or a C-ordered copy, so
    it is held beside one copy of itself at a time.

    `ranks` is either one per-mode rank tuple, which returns one
    TuckerTensor, or a sequence of such tuples, which returns a list with
    one TuckerTensor per entry. All entries are validated before any SVD.
    The mode-1 unfolding is the full `t` whatever the ranks, so its SVD is
    computed once and shared by every entry. Every entry's mode-1
    projection is taken first, from the one C-ordered build, which is
    dropped before modes 2...M run; each entry is bitwise equal to a
    separate call with that tuple.

    Requested ranks are additionally capped by the column count of each
    unfolding (directions beyond it carry zero singular values). The SVDs
    run on the caller's BLAS threads, and a multi-threaded SVD rounds
    differently, so the bits can follow the host's core count (they did
    at mode 100, not at 64) unless the caller pins one thread, as
    `run_experiment` does with `_blas_threads(1)`.
    """
    build = t if callable(t) else _copies(t)
    g = build("F")
    ranks = list(ranks)
    single = len(ranks) == 0 or np.ndim(ranks[0]) == 0
    grid = [_checked_ranks(g.shape, r) for r in ([ranks] if single else ranks)]
    if p is None:
        p = 1.0 / g.ndim
    if not g.any():
        raise ValueError("cannot decompose an all-zero tensor")

    u, s = _left_svd(g, 0, build)
    del g  # dgelqf may have overwritten it
    g = build("C")
    heads = [_project(g, u, s, r[0], 0) for r in grid]
    del g  # only the mode-1 projections read it
    out = [_truncate(*head, r, p) for head, r in zip(heads, grid)]
    return out[0] if single else out


def _project(g, u, s, r, m):
    """One ST-HOSVD step: the leading `r` (capped) sign-fixed columns of
    the mode-(m+1) SVD (u, s), their sigmas, and `g` projected onto them."""
    u = fix_signs(u[:, :min(r, u.shape[1])])
    return u, s[:u.shape[1]], mode_product(g, u.T, m + 1)


def _truncate(u, s, g, ranks, p):
    """ST-HOSVD at `ranks` from its mode-1 step (u, s, g), modes 2...M,
    reweighted from p = 0 to `p`."""
    basis = [u]
    sigmas = [s]
    for m in range(1, g.ndim):
        u, s, g = _project(g, *_left_svd(g, m), ranks[m], m)
        basis.append(u)
        sigmas.append(s)
    for m, s in enumerate(sigmas):
        bshape = [1] * g.ndim
        bshape[m] = len(s)
        g = g * ~_tiny_mask(s).reshape(bshape)
    return reweight(TuckerTensor(core=g, factors=basis, sigmas=sigmas), p)


def tucker_reconstruct(tt, order="C"):
    """Contract core and factors back into a dense tensor laid out in
    `order`, "C" (the default) or "F".

    Modes 1...M-1 are multiplied in by `mode_product`. The last mode's
    product is one matrix product that BLAS writes straight in the
    requested layout, so neither layout is a copy of the other. Each
    entry is the same length-R_M dot product as in a plain
    `mode_product` chain, and with numpy's OpenBLAS both layouts equal
    that chain bit for bit at the benchmark's sizes (modes 50, 64 and
    100, rank 3) and at every shape checked with modes up to 12. The
    kernel's edge tiles fall on other entries in the other layout, and
    at some larger shapes those round differently in the last bit: at
    cubic modes 70, 74, 78, ... (2 mod 4) for rank 3, for one.
    """
    if order not in ("C", "F"):
        raise ValueError(f"order must be 'C' or 'F', got {order!r}")
    out = tt.core
    for m, f in enumerate(tt.factors[:-1]):
        out = mode_product(out, f, m + 1)
    f = tt.factors[-1]
    if order == "C":
        # rows: the earlier modes' indices, C-flattened
        return (out.reshape(-1, f.shape[1]) @ f.T).reshape(tt.shape)
    # columns: the earlier modes' indices, F-flattened
    cols = np.ascontiguousarray(out.reshape(-1, f.shape[1], order="F").T)
    return (f @ cols).T.reshape(tt.shape, order="F")


def reweight(tt, p):
    """Move a Tucker representation to a different weighting power.

    Pure rescaling of factors and core; the represented tensor and the
    underlying subspaces are unchanged. Requires sigma vectors. The only
    code that applies and removes sigma**p, exactly at both ends: factor
    columns are divided by the old weight, then multiplied by the new.

    Raises ValueError, naming p, when float64 cannot hold the result: the
    core or a factor gets a non-finite entry, or one that had a nonzero
    entry has its largest magnitude fall below the smallest normal float.
    """
    if tt.sigmas is None:
        if p == tt.p:
            return tt
        raise ValueError("cannot reweight without sigma vectors")
    core = tt.core
    factors = []
    with np.errstate(all="ignore"):
        for m, (f, s) in enumerate(zip(tt.factors, tt.sigmas)):
            w_old = _sigma_weights(s, tt.p)
            w_new = _sigma_weights(s, p)
            factors.append(f / w_old[None, :] * w_new[None, :])
            bshape = [1] * tt.order
            bshape[m] = len(s)
            core = core * (w_old / w_new).reshape(bshape)
    tiny = np.finfo(np.float64).tiny
    for old, new in zip([tt.core] + tt.factors, [core] + factors):
        lost = old.any() and not np.max(np.abs(new), initial=0.0) >= tiny
        if lost or not np.isfinite(new).all():
            raise ValueError(f"weighting power p = {p} over- or underflows "
                             "the core or a factor of this tensor")
    return TuckerTensor(core=core, factors=factors,
                        sigmas=[s.copy() for s in tt.sigmas], p=float(p))


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
        u = _left_svd(t, m)[0]
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
    factors = []
    for m in range(order):
        a = tt.factors[m][:, idx[m]] * scale[None, :]
        if m == 0:
            a = a * sign[None, :]
        factors.append(a)
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

"""Tensor kernels and Gram-matrix assembly.

Four kernel families over decomposed (or dense) tensors:

* ``gaussian``  - exp(-||X - Y||_F^2 / 2g^2), with the squared distance
  expanded as ||X||^2 + ||Y||^2 - 2<X,Y> and the inner products
  contracted format-natively for Tucker, Kruskal, and TT inputs. Tucker
  cores are contracted stacked, per run of consecutive samples of one
  core shape: one np.matmul per mode for the whole run, each product the
  one a per-pair np.tensordot chain makes, bit for bit.
* ``dusk``      - sum over CP column pairs of the product over modes of
  Gaussian scalar kernels on the factor columns.
* ``subspace``  - product over modes of Gaussian kernels on the chordal
  distance between the orthonormal factor column spaces.
* ``wsek``      - product over modes of summed pairwise Gaussian kernels
  on the sigma**p weighted factor columns.

Every kernel value comes from one row evaluator per kind, giving
K(x, y_j) for each y_j of a list and each length scale g of a grid. The
g-independent part of a row (squared distances, chordal exponents) is
computed once and exp(-d2 / 2g^2) is applied per g, so a Gram over a
whole g grid costs about one distance pass. For ``dusk`` a row takes
each run of consecutive pairs of one term count in blocks of pairs:
each block of x's columns gives one block of exact differences with
every column of the pairs' views, and one einsum turns it into
exponents; the pairs' R_x x R_y exponent grids then take their exps per
block of g, each exp block, (g's, pairs, terms), summed over its
contiguous last axis once. One cap bounds every difference, exponent and
exp block at `_DUSK_BLOCK` floats, and a block holds more only when one
row of differences, or one g's terms of one pair, is larger on its own:
so many small pairs (rank 1) share a block, and a high-rank pair's grid
is split by rows of differences and by g. Blocks hold whole pairs and
split g only for a pair of its own. Each term is a positive exp, so
nothing cancels; each exponent is the one einsum over the same
contiguous difference row, and each g's terms of a pair are summed as
one contiguous row, so no block moves a bit. `gram_matrix`
reads its samples once, in order, from any sized iterable,
checking each and making its view as it is read, so a sample made on
access need not outlive its view. It fills rows from the diagonal onward
and mirrors them; the single-pair functions are the one-g view and
average both argument orders, so swapping the inputs gives bitwise
identical values.
Expanded squared distances are clamped at 0 against cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomp import KruskalTensor, TTTensor, TuckerTensor


def _check_length_scale(g, name="length scale g"):
    """Raise ValueError, naming `name`, unless `g` is finite, positive and
    large enough that the kernels' denominator 2g^2 is not 0 (g below
    about 2**-537 underflows it)."""
    if not g > 0:
        raise ValueError(f"{name} must be positive, got {g}")
    if not math.isfinite(g):
        raise ValueError(f"{name} must be finite, got {g}")
    if not 2.0 * g * g > 0:
        raise ValueError(f"{name} must be large enough that 2g^2 is not 0, "
                         f"got {g}")


def _length_scales(g):
    """`g` (one length scale or a sequence of them) as a checked 1-D
    float64 array: nonempty, every entry usable (`_check_length_scale`)."""
    gs = np.atleast_1d(np.asarray(g, dtype=np.float64))
    if gs.ndim != 1 or gs.size == 0:
        raise ValueError("length scale grid g must be a nonempty sequence")
    for v in gs:
        _check_length_scale(v)
    return gs


def _one_length_scale(g, name):
    """`_length_scales(g)` for a function that takes no g grid."""
    if np.ndim(g) != 0:
        raise ValueError(f"{name} takes one length scale g, not a grid")
    return _length_scales(g)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family and its length scale g.

    `g` is either one length scale or a tuple of them (a g grid). With a
    grid, `gram_matrix` returns one Gram per entry, stacked; the
    single-pair functions take one length scale only.

    The `wsek` weighting power p is not part of the spec: it is fixed when
    the samples are decomposed (`weighted_hosvd`) and travels with each
    TuckerTensor.
    """

    kind: str
    g: float | tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if np.ndim(self.g) != 0:
            object.__setattr__(self, "g", tuple(self.g))
        _length_scales(self.g)


def scalar_kernel(a, b, g):
    """Gaussian kernel exp(-||a - b||^2 / 2g^2) on two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"vector length mismatch: {a.size} vs {b.size}")
    _one_length_scale(g, "scalar_kernel")
    d2 = float(np.sum((a - b) ** 2))
    return math.exp(-d2 / (2.0 * g * g))


# ---------------------------------------------------------------------------
# row evaluators: a view is computed once per sample; row(xv, yvs, g) gives
# K(x, y_j) for every view y_j and every entry of the 1-D float64 array g,
# shape (len(g), len(yvs)). Factor blocks of mixed widths (ranks) are
# concatenated and summed back per sample with np.add.reduceat.
# ---------------------------------------------------------------------------

def _exp_per_g(expo, g):
    """exp(-expo / 2g^2) for every g, stacked along a new leading axis,
    taken in place on the quotient: one stack is alive, not two.

    Each element goes through the same IEEE operations as the one-g
    expression, so every layer of the stack is bitwise equal to it.
    """
    q = -expo / (2.0 * g * g).reshape((-1,) + (1,) * np.ndim(expo))
    return np.exp(q, out=q)


def _stack(blocks):
    """Concatenate blocks along the last axis; return them and block starts."""
    starts = np.cumsum([0] + [b.shape[-1] for b in blocks[:-1]])
    return np.concatenate(blocks, axis=-1), starts


def _runs(keys):
    """(lo, hi) of each run of equal consecutive entries of `keys`."""
    cuts = [k for k in range(1, len(keys)) if keys[k] != keys[k - 1]]
    return list(zip([0] + cuts, cuts + [len(keys)]))


def _inner_row(x, ys):
    """<X, Y_j> for every y_j in `ys`, contracted format-natively."""
    if isinstance(x, np.ndarray):
        return np.array([np.vdot(x, y) for y in ys])
    if isinstance(x, TuckerTensor):
        # <X, Y> = <G_x, G_y x_m (U_x^(m)' U_y^(m))>. The cores of each run
        # of samples of one core shape are contracted together: per mode,
        # one np.matmul on the operands that each pair's np.tensordot(z,
        # w, axes=(0, 1)) builds (z's leading mode moved last and
        # flattened, times w's transpose), so every product is the
        # per-pair chain's, bit for bit
        crosses = []
        for m, fx in enumerate(x.factors):
            fy, starts = _stack([y.factors[m] for y in ys])
            crosses.append((fx.T @ fy, starts))
        out = np.empty(len(ys))
        for lo, hi in _runs([y.core.shape for y in ys]):
            z = np.stack([y.core for y in ys[lo:hi]])
            for cross, starts in crosses:
                n, r = z.shape[:2]
                wt = cross[:, starts[lo]:starts[lo] + n * r].reshape(
                    -1, n, r).transpose(1, 2, 0)
                z = np.matmul(np.moveaxis(z, 1, -1).reshape(n, -1, r),
                              wt).reshape(z.shape[:1] + z.shape[2:] + (-1,))
            for j in range(lo, hi):
                out[j] = np.vdot(x.core, z[j - lo])
        return out
    if isinstance(x, KruskalTensor):
        weights, starts = _stack([y.weights for y in ys])
        h = np.outer(x.weights, weights)
        for m, fx in enumerate(x.factors):
            h *= fx.T @ _stack([y.factors[m] for y in ys])[0]
        return np.add.reduceat(h.sum(axis=0), starts)
    if isinstance(x, TTTensor):
        out = np.empty(len(ys))
        for j, y in enumerate(ys):
            v = np.ones((1, 1))
            for cx, cy in zip(x.cores, y.cores):
                v = np.einsum("ab,aic,bid->cd", v, cx, cy)
            out[j] = v[0, 0]
        return out
    raise TypeError(f"unsupported tensor representation {type(x).__name__}")


def _gaussian_row(xv, yvs, g):
    x, xx = xv  # the sample and its squared norm
    yy = np.array([n for _, n in yvs])
    d2 = np.maximum((xx + yy) - 2.0 * _inner_row(x, [y for y, _ in yvs]), 0.0)
    return _exp_per_g(d2, g)


def _dusk_view(x):
    """CP columns as rows, with the weights absorbed evenly into every
    mode and the modes concatenated: (R, I_1 + ... + I_M)."""
    scale = x.weights ** (1.0 / x.order)
    return np.ascontiguousarray(
        np.vstack([f * scale[None, :] for f in x.factors]).T)


# float64 entries (0.8 MB, about a rank-3, mode-50 pair's differences) that
# cap every difference, exponent and exp block of a dusk row
_DUSK_BLOCK = 100_000


def _dusk_row(xv, yvs, g):
    # Exact column differences: no cancellation. A run of pairs of one
    # term count is taken in blocks of pairs. Each block of x's columns
    # gives one difference block with every column of the pairs' views,
    # (columns, pairs, R_y, width), whose einsum sums each difference row
    # as it does for one pair alone. The pairs' exponent grids, (pairs,
    # R_x R_y), take their exps per block of g, each exp block summed
    # over its contiguous last axis: each g's terms of a pair are one
    # contiguous row, so no blocking moves a bit.
    out = np.empty((len(g), len(yvs)))
    sizes = [len(yv) for yv in yvs]
    for lo, hi in _runs(sizes):
        row = yvs[lo].size  # floats of one x column's differences with a y
        terms = len(xv) * sizes[lo]
        # one cap for every block, outgrown only by one row of differences
        # or one g's terms of one pair on its own; a block of pairs takes
        # every g unless it is one pair
        cap = max(_DUSK_BLOCK, row, terms)
        pairs = max(1, min(cap // (terms * len(g)), cap // row))
        for plo in range(lo, hi, pairs):
            n = min(pairs, hi - plo)
            expo = np.empty((n, len(xv), sizes[lo]))
            ys = np.stack(yvs[plo:plo + n])
            cols = cap // ys.size  # at least 1: the pairs' rows fit in cap
            for r in range(0, len(xv), cols):
                diff = xv[r:r + cols, None, None, :] - ys
                expo[:, r:r + cols] = np.einsum(
                    "ipjk,ipjk->ipj", diff, diff).transpose(1, 0, 2)
                del diff  # before the next block is built
            del ys  # before the exp blocks are built
            expo = expo.reshape(n, terms)
            per_block = cap // expo.size
            for glo in range(0, len(g), per_block):
                out[glo:glo + per_block, plo:plo + n] = _exp_per_g(
                    expo, g[glo:glo + per_block]).sum(axis=-1)
    return out


def _subspace_row(xv, yvs, g):
    # ||P_x - P_y||_F^2 = R_x + R_y - 2 ||U_x' U_y||_F^2 per mode
    expo = 0.0
    for m, ux in enumerate(xv):
        uy, starts = _stack([yv[m] for yv in yvs])
        cross = ux.T @ uy
        overlap = np.add.reduceat((cross * cross).sum(axis=0), starts)
        ranks = np.array([yv[m].shape[1] for yv in yvs])
        expo += np.maximum(ux.shape[1] + ranks - 2.0 * overlap, 0.0)
    return _exp_per_g(expo, g)


def _wsek_row(xv, yvs, g):
    value = 1.0
    for m, a in enumerate(xv):
        b, starts = _stack([yv[m] for yv in yvs])
        aa, bb = np.einsum("ij,ij->j", a, a), np.einsum("ij,ij->j", b, b)
        d2 = np.maximum(aa[:, None] + bb[None, :] - 2.0 * (a.T @ b), 0.0)
        value *= np.add.reduceat(
            _exp_per_g(d2, g).sum(axis=1), starts, axis=1)
    return value


# kind -> (required input type, per-sample view, row evaluator,
#          whether K(x, x) is exactly 1)
_EVALUATORS = {
    "gaussian": (object, lambda x: (x, _inner_row(x, [x])[0]), _gaussian_row,
                 True),
    "dusk": (KruskalTensor, _dusk_view, _dusk_row, False),
    "subspace": (TuckerTensor, TuckerTensor.unweighted_factors, _subspace_row,
                 True),
    "wsek": (TuckerTensor, lambda x: x.factors, _wsek_row, False),
}

KINDS = tuple(_EVALUATORS)


def _check_samples(kind, samples):
    """Yield each of `samples` in order once it passes the checks against
    the first: the kind's input type, one representation, one shape and,
    for `wsek`, one weighting power. Only the first sample's type, shape
    and p are kept, and no sample is held while the next one is taken."""
    required = _EVALUATORS[kind][0]
    first = None  # the first sample's (type, shape, weighting power)
    for s in samples:
        if not isinstance(s, required):
            raise TypeError(f"{kind} kernel requires {required.__name__} inputs")
        # ndarray and every decomposition type expose mode sizes as .shape
        rep, shape, p = type(s), tuple(s.shape), getattr(s, "p", None)
        if first is None:
            first = rep, shape, p
        if rep is not first[0]:
            raise ValueError(f"mixed representations: {first[0].__name__} "
                             f"vs {rep.__name__}")
        if shape != first[1]:
            raise ValueError(f"shape mismatch: {first[1]} vs {shape}")
        if kind == "wsek" and p != first[2]:
            raise ValueError(f"weighting powers differ: {first[2]} vs {p}")
        yield s
        del s  # a sample made on access is freed before the next is made


def _check_finite(values, what):
    """Refuse the distances float64 cannot hold. The evaluators run under
    np.errstate(over="ignore", invalid="ignore"), so such distances give
    a ValueError naming `what` here, not RuntimeWarnings and NaN."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} holds non-finite entries: the samples' "
                         "distances overflow float64")


def _pair(kind, x, y, g):
    """The one-pair, one-g view of the row evaluator of `kind`."""
    gs = _one_length_scale(g, f"{kind} kernel")
    x, y = _check_samples(kind, (x, y))
    _, view, row, unit_diagonal = _EVALUATORS[kind]
    if x is y and unit_diagonal:
        return 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        xv, yv = view(x), view(y)
        # float addition commutes, so both argument orders give the same bits
        value = 0.5 * (row(xv, [yv], gs)[0, 0] + row(yv, [xv], gs)[0, 0])
    _check_finite(value, f"{kind} kernel value")
    return float(value)


def gaussian_kernel(x, y, g):
    """exp(-||X - Y||_F^2 / 2g^2) for dense or decomposed inputs."""
    return _pair("gaussian", x, y, g)


def dusk_kernel(x, y, g):
    """Sum over CP column pairs of per-mode Gaussian kernel products."""
    return _pair("dusk", x, y, g)


def subspace_kernel(x, y, g):
    """Product over modes of exp(-||P_x - P_y||_F^2 / 2g^2) on the
    orthonormal factor column-space projectors.

    The projector distance is computed as R_x + R_y - 2 ||U_x' U_y||_F^2
    without forming any I_m x I_m projector. Invariant to rotation and
    reflection of the factor columns and to their sigma weighting.
    """
    return _pair("subspace", x, y, g)


def wsek_kernel(x, y, g):
    """Product over modes of summed pairwise Gaussian kernels on the
    weighted factor columns (columns scaled by sigma**p)."""
    return _pair("wsek", x, y, g)


def kernel_value(spec, x, y):
    """Evaluate the kernel named by `spec` on one pair of samples.

    Raises ValueError if `spec.g` is a grid, and, as `gram_matrix` does,
    when float64 cannot hold the value."""
    return _pair(spec.kind, x, y, spec.g)


def gram_matrix(samples, spec):
    """Symmetric kernel matrix over a homogeneous, sized iterable of
    samples.

    `samples` is read once, in order, and each sample is checked and
    turned into its kernel view as it is read, so a sequence that makes
    its samples on access (the harness's `dusk` CP expansions) has one of
    them alive beside the views. The stack is sized from `len(samples)`,
    and a ValueError names both counts when the samples read disagree.

    With one length scale `spec.g` the result is the (n, n) Gram; with a
    tuple of them it is a (len(g), n, n) stack, one Gram per entry, each
    bitwise equal to the Gram built with that entry alone. Every
    g-independent distance is computed once for the whole stack.

    Row i is evaluated for entries j >= i in list order and mirrored,
    which keeps repeated runs bitwise reproducible. For `gaussian` and
    `subspace` the diagonal is exactly 1. Raises ValueError when an entry
    is not finite, as when sigma**p weighted factors are too large for
    their squared distances to fit in float64.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("empty sample list")
    _, view, row, unit_diagonal = _EVALUATORS[spec.kind]
    gs = _length_scales(spec.g)
    k = np.empty((len(gs), n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        # map holds no sample between calls, so each is freed once viewed
        views = list(map(view, _check_samples(spec.kind, samples)))
        if len(views) != n:
            raise ValueError(f"samples has length {n} but yields "
                             f"{len(views)} samples")
        for i in range(n):
            k[:, i, i:] = k[:, i:, i] = row(views[i], views[i:], gs)
    if unit_diagonal:
        k[:, range(n), range(n)] = 1.0
    _check_finite(k, f"{spec.kind} Gram")
    return k if isinstance(spec.g, tuple) else k[0]


__all__ = [
    "KINDS",
    "KernelSpec",
    "scalar_kernel",
    "gaussian_kernel",
    "dusk_kernel",
    "subspace_kernel",
    "wsek_kernel",
    "kernel_value",
    "gram_matrix",
]

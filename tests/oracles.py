"""Independent reference implementations used to generate and check expected
values in the test suite.

Everything in here is deliberately written the slow, obvious way (index
loops, explicit projectors, exhaustive enumeration) and shares no code with
the package under test.
"""

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# index arithmetic / dense tensor oracles
# ---------------------------------------------------------------------------

def flat_index(idx, shape):
    """Column-major linear position of a 0-based multi-index."""
    pos = 0
    stride = 1
    for i, n in zip(idx, shape):
        pos += i * stride
        stride *= n
    return pos


def matricize_by_enumeration(t, mode):
    """Mode-`mode` (1-based) unfolding built entry by entry from the
    multi-index formula."""
    t = np.asarray(t)
    shape = t.shape
    ax = mode - 1
    rest = [shape[k] for k in range(t.ndim) if k != ax]
    out = np.zeros((shape[ax], int(np.prod(rest)) if rest else 1))
    for idx in itertools.product(*(range(n) for n in shape)):
        col_idx = tuple(idx[k] for k in range(t.ndim) if k != ax)
        out[idx[ax], flat_index(col_idx, rest)] = t[idx]
    return out


def flat_inner(a, b):
    total = 0.0
    for x, y in zip(np.asarray(a).ravel(), np.asarray(b).ravel()):
        total += x * y
    return total


# ---------------------------------------------------------------------------
# decomposition oracles
# ---------------------------------------------------------------------------

def _unfold(t, ax):
    return np.moveaxis(t, ax, 0).reshape(t.shape[ax], -1, order="F")


def sequential_truncation(t, ranks):
    """Rank-(R_1,...,R_M) sequential SVD truncation.

    Projects mode after mode onto the leading left singular subspace of the
    partially truncated tensor. Returns the truncated tensor and the list of
    per-mode discarded singular values.
    """
    g = np.asarray(t, dtype=float)
    discarded = []
    for m, r in enumerate(ranks):
        a = _unfold(g, m)
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        proj = u[:, :r] @ u[:, :r].T
        discarded.append(s[r:])
        g = np.moveaxis(
            np.tensordot(proj, g, axes=(1, m)), 0, m)
    return g, discarded


def tt_chain_truncation(t, ranks):
    """Plain TT-SVD by repeated reshape+SVD, contracted back to dense."""
    t = np.asarray(t, dtype=float)
    shape = t.shape
    w = t.reshape(shape[0], -1, order="F")
    pieces = []
    r_prev = 1
    for m in range(t.ndim - 1):
        w = w.reshape(r_prev * shape[m], -1, order="F")
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        r = min(ranks[m], len(s))
        pieces.append(u[:, :r].reshape(r_prev, shape[m], r, order="F"))
        w = s[:r, None] * vt[:r]
        r_prev = r
    pieces.append(w.reshape(r_prev, shape[-1], 1, order="F"))
    acc = pieces[0][0]
    for c in pieces[1:]:
        acc = np.einsum("pa,aiq->piq", acc, c)
        acc = acc.reshape(-1, c.shape[2], order="F")
    return acc.reshape(shape, order="F")


def rank_one_sum(factor_list, weights=None):
    """Dense tensor from a list of per-mode factor matrices (CP form)."""
    shape = tuple(a.shape[0] for a in factor_list)
    rank = factor_list[0].shape[1]
    if weights is None:
        weights = np.ones(rank)
    out = np.zeros(shape)
    for r in range(rank):
        term = factor_list[0][:, r]
        for a in factor_list[1:]:
            term = np.multiply.outer(term, a[:, r])
        out += weights[r] * term
    return out


def principal_angles(a, b):
    """Principal angles (radians) between the column spaces of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))


# ---------------------------------------------------------------------------
# kernel oracles (double loops, explicit projectors)
# ---------------------------------------------------------------------------

def gauss_scalar(a, b, g):
    d2 = 0.0
    for x, y in zip(a, b):
        d2 += (x - y) ** 2
    return math.exp(-d2 / (2.0 * g * g))


def dusk_double_loop(ax_factors, ay_factors, g):
    rx = ax_factors[0].shape[1]
    ry = ay_factors[0].shape[1]
    total = 0.0
    for i in range(rx):
        for j in range(ry):
            prod = 1.0
            for xm, ym in zip(ax_factors, ay_factors):
                prod *= gauss_scalar(xm[:, i], ym[:, j], g)
            total += prod
    return total


def wsek_pairwise_loop(ux_cols, uy_cols, g):
    """Product over modes of the summed pairwise Gaussian kernels of the
    (already weighted) factor columns."""
    value = 1.0
    for xm, ym in zip(ux_cols, uy_cols):
        s = 0.0
        for i in range(xm.shape[1]):
            for j in range(ym.shape[1]):
                s += gauss_scalar(xm[:, i], ym[:, j], g)
        value *= s
    return value


def subspace_projector_kernel(ux, uy, g):
    """Chordal-distance kernel evaluated with explicitly formed projectors."""
    value = 1.0
    for xm, ym in zip(ux, uy):
        px = xm @ xm.T
        py = ym @ ym.T
        d2 = np.sum((px - py) ** 2)
        value *= math.exp(-d2 / (2.0 * g * g))
    return value


# ---------------------------------------------------------------------------
# dense QP oracle for the soft-margin dual
# ---------------------------------------------------------------------------

def qp_reference(kmat, y, c):
    """Globally solve  max  sum(a) - 1/2 a'Qa  s.t. 0 <= a <= C, y'a = 0
    by enumerating every partition of the variables into
    {at 0, free, at C} and solving the equality-constrained subproblem.

    Returns (alpha, bias, dual_objective). Intended for n <= 8.
    """
    kmat = np.asarray(kmat, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    q = kmat * np.outer(y, y)
    eps = 1e-9 * max(c, 1.0)
    best = None
    for assign in itertools.product((0, 1, 2), repeat=n):
        free = [i for i in range(n) if assign[i] == 1]
        upper = [i for i in range(n) if assign[i] == 2]
        alpha = np.zeros(n)
        alpha[upper] = c
        if free:
            nf = len(free)
            kkt = np.zeros((nf + 1, nf + 1))
            kkt[:nf, :nf] = q[np.ix_(free, free)]
            kkt[:nf, nf] = y[free]
            kkt[nf, :nf] = y[free]
            rhs = np.zeros(nf + 1)
            rhs[:nf] = 1.0 - q[np.ix_(free, upper)] @ (c * np.ones(len(upper)))
            rhs[nf] = -c * np.sum(y[upper])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            if not np.all(np.isfinite(sol)):
                continue
            if np.linalg.norm(kkt @ sol - rhs) > 1e-7 * (1 + np.linalg.norm(rhs)):
                continue
            alpha[free] = sol[:nf]
        if np.any(alpha < -eps) or np.any(alpha > c + eps):
            continue
        alpha = np.clip(alpha, 0.0, c)
        if abs(np.dot(alpha, y)) > 1e-8 * max(1.0, c * n):
            continue
        obj = alpha.sum() - 0.5 * alpha @ q @ alpha
        if best is None or obj > best[0]:
            best = (obj, alpha.copy())
    obj, alpha = best
    f0 = (alpha * y) @ kmat
    interior = (alpha > eps) & (alpha < c - eps)
    if interior.any():
        bias = float(np.mean(y[interior] - f0[interior]))
    else:
        bias = -0.5 * (np.max(f0[y < 0]) + np.min(f0[y > 0]))
    return alpha, bias, obj


def qp_decision(kvec, alpha, y, bias):
    return float((alpha * y) @ kvec + bias)


# ---------------------------------------------------------------------------
# reference SMO: maximal violating pair selected over explicit index lists
# ---------------------------------------------------------------------------

def smo_index_selection(kmat, y, c, tol):
    """Soft-margin SMO choosing the maximal violating pair by indexing the
    `up` and `low` index sets, stopping when either set is empty.

    Same update and bias rules as `svm.train`; returns (alpha, bias,
    updates). Ties in the selection go to the smaller index.
    """
    kmat = np.asarray(kmat, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    q = kmat * np.outer(y, y)
    alpha = np.zeros(n)
    grad = -np.ones(n)
    updates = 0
    idx = np.arange(n)
    while True:
        yg = y * grad
        up = ((y > 0) & (alpha < c)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < c)) | ((y > 0) & (alpha > 0))
        if not up.any() or not low.any():
            break
        up_idx = idx[up]
        low_idx = idx[low]
        i = up_idx[np.argmax(-yg[up_idx])]
        j = low_idx[np.argmin(-yg[low_idx])]
        violation = (-yg[i]) - (-yg[j])
        if violation <= tol:
            break
        curv = max(kmat[i, i] + kmat[j, j] - 2.0 * kmat[i, j], 1e-12)
        step = violation / curv
        bound_i = (c - alpha[i]) if y[i] > 0 else alpha[i]
        bound_j = alpha[j] if y[j] > 0 else (c - alpha[j])
        step = min(step, bound_i, bound_j)
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        if step == bound_i:
            alpha[i] = c if y[i] > 0 else 0.0
        if step == bound_j:
            alpha[j] = 0.0 if y[j] > 0 else c
        grad += (y[i] * step) * q[:, i] - (y[j] * step) * q[:, j]
        updates += 1
    f0 = (alpha * y) @ kmat
    free = (alpha > 0) & (alpha < c)
    if free.any():
        bias = float(np.mean(y[free] - f0[free]))
    else:
        bias = float(-0.5 * (np.max(f0[y < 0]) + np.min(f0[y > 0])))
    return alpha, bias, updates

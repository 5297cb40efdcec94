"""Soft-margin kernel SVM trained by sequential minimal optimization.

The trainer works on a precomputed Gram matrix, which the caller builds
once and shares across the regularization grid, so the pair updates
here, not the kernel evaluations, take most of a grid search's time.
Working pairs are chosen as the maximal KKT-violating pair, read from one
class mask computed per call; the two-variable subproblem is solved
analytically and clipped to the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import kernel_value

MAX_UPDATES = 10_000_000


class ConvergenceError(RuntimeError):
    """Raised when SMO hits the pair-update cap before meeting tolerance."""


@dataclass(eq=False)
class TrainingSet:
    """Samples with labels in {-1, +1}. Samples are dense or decomposed
    tensors, or indices into a caller's list when the caller keeps the
    tensors; `train` reads only the labels."""

    samples: list
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if len(self.samples) != len(self.labels):
            raise ValueError("sample and label counts differ")
        bad = [v for v in np.unique(self.labels).tolist() if v not in (-1, 1)]
        if bad:
            raise ValueError(f"labels must be -1 or +1, found {bad}")


@dataclass(eq=False)
class SvmModel:
    """Trained dual classifier: weights, bias, and training references."""

    alphas: np.ndarray
    bias: float
    C: float
    labels: np.ndarray
    samples: list | None = None
    spec: object | None = None
    bias_fallback: bool = False
    dual_objective: float = 0.0
    updates: int = 0
    objective_history: list | None = None

    @property
    def support_indices(self):
        return np.where(self.alphas > 0)[0]


def dual_objective(alphas, labels, gram):
    """Value of the dual objective sum(a) - 1/2 a'Qa with Q = yy' * K."""
    return _objective(alphas, gram * np.outer(labels, labels))


def _objective(alphas, q):
    return float(alphas.sum() - 0.5 * alphas @ q @ alphas)


def train(ts, gram, C, tol=1e-3, spec=None, max_updates=MAX_UPDATES,
          record_objective=False):
    """Solve the soft-margin dual on a precomputed Gram matrix.

    Maximizes sum(a) - 1/2 sum_ij a_i a_j y_i y_j K_ij subject to
    0 <= a_i <= C and sum_i a_i y_i = 0, stopping when the largest KKT
    violation drops below `tol`. Raises ConvergenceError after
    `max_updates` pair updates; raises ValueError for C <= 0, a negative
    or NaN `tol`, a single-class training set, or a non-symmetric Gram
    matrix.
    """
    if not C > 0:
        raise ValueError("C must be positive")
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    y = ts.labels
    n = len(y)
    gram = np.asarray(gram, dtype=np.float64)
    if gram.shape != (n, n):
        raise ValueError(f"gram shape {gram.shape} does not match {n} samples")
    # a NaN entry makes the comparison false, so it is rejected too
    bound = 1e-12 * np.max(np.abs(gram), initial=1.0)
    if not np.max(np.abs(gram - gram.T), initial=0.0) <= bound:
        raise ValueError("gram matrix is not symmetric")
    pos = y > 0  # the class split; y is fixed for the whole call
    if pos.all() or not pos.any():
        raise ValueError("training set must contain both classes")

    q = gram * np.outer(y, y)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of 1/2 a'Qa - sum(a)
    history = [0.0] if record_objective else None
    updates = 0

    while True:
        # maximal violating pair; an empty side gives -inf and stops
        f = -(y * grad)
        below, above = alpha < C, alpha > 0
        fu = np.where(np.where(pos, below, above), f, -np.inf)
        fl = np.where(np.where(pos, above, below), f, np.inf)
        i, j = fu.argmax(), fl.argmin()
        violation = fu[i] - fl[j]
        if violation <= tol:
            break
        if updates >= max_updates:
            raise ConvergenceError(
                f"KKT violation {violation:.3e} > {tol} after {updates} updates")

        curv = max(gram[i, i] + gram[j, j] - 2.0 * gram[i, j], 1e-12)
        step = violation / curv
        bound_i = (C - alpha[i]) if pos[i] else alpha[i]
        bound_j = alpha[j] if pos[j] else (C - alpha[j])
        step = min(step, bound_i, bound_j)

        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        # land exactly on the box when a bound binds
        if step == bound_i:
            alpha[i] = C if pos[i] else 0.0
        if step == bound_j:
            alpha[j] = 0.0 if pos[j] else C
        grad += (y[i] * step) * q[:, i] - (y[j] * step) * q[:, j]
        updates += 1
        if record_objective:
            history.append(_objective(alpha, q))

    f0 = (alpha * y) @ gram
    free = (alpha > 0) & (alpha < C)
    if free.any():
        bias = float(np.mean(y[free] - f0[free]))
        fallback = False
    else:
        bias = float(-0.5 * (np.max(f0[~pos]) + np.min(f0[pos])))
        fallback = True

    return SvmModel(
        alphas=alpha,
        bias=bias,
        C=float(C),
        labels=y.copy(),
        samples=ts.samples,
        spec=spec,
        bias_fallback=fallback,
        dual_objective=_objective(alpha, q),
        updates=updates,
        objective_history=history,
    )


def decision_value(model, x):
    """sum_i a_i y_i K(X_i, x) + b for a single query sample."""
    if model.spec is None or model.samples is None:
        raise ValueError("model carries no kernel spec; use decision_from_gram")
    column = np.zeros(len(model.alphas))
    for i in model.support_indices:
        column[i] = kernel_value(model.spec, model.samples[i], x)
    return float(decision_from_gram(model, column))


def predict(model, x):
    """Predicted label in {-1, +1}; a decision value of exactly 0 maps to +1."""
    return 1 if decision_value(model, x) >= 0 else -1


def decision_from_gram(model, kvec):
    """Decision values from precomputed kernel columns.

    `kvec` holds K(X_i, x) for every training sample i, either as a vector
    (one query) or a matrix with one column per query.
    """
    kvec = np.asarray(kvec, dtype=np.float64)
    return (model.alphas * model.labels) @ kvec + model.bias


def predict_from_gram(model, kvec):
    """Labels in {-1, +1} from precomputed kernel columns."""
    dec = np.atleast_1d(decision_from_gram(model, kvec))
    return np.where(dec >= 0, 1, -1)


__all__ = [
    "MAX_UPDATES",
    "ConvergenceError",
    "TrainingSet",
    "SvmModel",
    "dual_objective",
    "train",
    "decision_value",
    "predict",
    "decision_from_gram",
    "predict_from_gram",
]

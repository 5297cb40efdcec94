"""Soft-margin kernel SVM trained by sequential minimal optimization.

The trainer works on a precomputed Gram matrix, which the caller builds
once and shares across the regularization grid, so the pair updates
here, not the kernel evaluations, take most of a grid search's time.
Working pairs are chosen as the maximal KKT-violating pair; the
two-variable subproblem is solved analytically and clipped to the box.
The update loop tracks f = -y * gradient, which rounds exactly as the
gradient would because y is +-1, and keeps only the two sides the pair
is drawn from: f on each side's members, and -inf or +inf elsewhere.
Each update adds one step to both sides and re-places the two samples
it moved, because an update moves only its two alphas.

A model records whether an alpha ever equalled C (`reached_c`). When
none did, training at any larger C takes the same path: every
`alpha < C` test, every step bound and the free set read the same, so
alphas, bias, update count and predictions are bitwise equal. The
cross-validation search therefore does not retrain a fold at larger C
once its model never reached C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import kernel_value

MAX_UPDATES = 10_000_000


class ConvergenceError(RuntimeError):
    """Raised when SMO hits the pair-update cap before meeting tolerance."""


def _check_labels(labels):
    """Refuse labels other than -1 and +1, naming them as plain numbers,
    sorted and each once, NaN last. Not `np.unique`: its first call
    imports `numpy.ma`, which nothing else reads and which costs every
    run about 1.7 MB."""
    bad = np.sort(labels[(labels != -1) & (labels != 1)])  # NaN sorts last
    if bad.size:
        # a value's first copy differs from the one before it; NaN differs
        # from itself, so only the first NaN may follow a non-NaN
        first = np.concatenate(([True], (bad[1:] != bad[:-1])
                                & (bad[:-1] == bad[:-1])))
        bad = bad[first].tolist()
        raise ValueError(f"labels must be -1 or +1, found {bad}")


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
        _check_labels(self.labels)


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
    # whether an alpha equalled C after some update; when none did, any
    # larger C repeats the run bit for bit (see `train`)
    reached_c: bool = False

    @property
    def support_indices(self):
        return np.where(self.alphas > 0)[0]


def dual_objective(alphas, labels, gram):
    """Value of the dual objective sum(a) - 1/2 a'Qa with Q = yy' * K,
    as sum(a) - 1/2 w'Kw with w = a * y, which allocates nothing the size
    of the Gram. Bitwise equal to the Q form on a contiguous Gram: y is
    +-1, and rounding is sign-symmetric."""
    w = alphas * labels
    return float(alphas.sum() - 0.5 * w @ (w @ gram))


def train(ts, gram, C, tol=1e-3, spec=None, max_updates=MAX_UPDATES,
          record_objective=False):
    """Solve the soft-margin dual on a precomputed Gram matrix.

    Maximizes sum(a) - 1/2 sum_ij a_i a_j y_i y_j K_ij subject to
    0 <= a_i <= C and sum_i a_i y_i = 0, stopping when the largest KKT
    violation drops below `tol`. Raises ConvergenceError after
    `max_updates` pair updates; raises ValueError for C <= 0, a negative
    or NaN `tol`, a single-class training set, or a non-symmetric Gram
    matrix. The Gram is read in place, through a view of its columns;
    the loop's state is the alphas and the two sides.
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
    # a finite Gram equal to its transpose passes with no temporary the
    # size of the Gram; otherwise one difference array holds the check
    if not ((gram == gram.T).all() and math.isfinite(gram.sum())):
        # a NaN or inf entry makes the comparison false, so it is rejected;
        # the bound scales with max(1, max|K|), read with no temporary
        bound = 1e-12 * max(np.max(gram, initial=1.0),
                            -np.min(gram, initial=-1.0))
        diff = gram - gram.T
        if not np.max(np.abs(diff, out=diff), initial=0.0) <= bound:
            raise ValueError("gram matrix is not symmetric")
    # the update reads Gram columns, which the check lets differ from rows
    # by 1e-12; on a Gram equal to its transpose they differ at most in
    # the sign of a zero, which no comparison, step or returned value reads
    cols = gram.T
    pos = y > 0  # the class split; y is fixed for the whole call
    if pos.all() or not pos.any():
        raise ValueError("training set must contain both classes")

    # f = -y * (gradient of 1/2 a'Qa - sum(a)), which is y at alpha = 0.
    # y is +-1 and rounding is sign-symmetric, so each update of f rounds
    # exactly as the gradient's update through Q = yy' * K would. The two
    # sides the pair is drawn from hold f on their members and -inf (up)
    # or inf (low) elsewhere; every sample is on at least one side
    f_up, f_low = np.where(pos, y, -np.inf), np.where(pos, np.inf, y)
    diag = gram.diagonal().tolist()
    on_pos = pos.tolist()
    alpha = [0.0] * n
    C = float(C)
    reached_c = False
    history = [0.0] if record_objective else None
    updates = 0

    while True:
        # maximal violating pair; an empty side gives -inf and stops
        i, j = int(f_up.argmax()), int(f_low.argmin())
        violation = f_up.item(i) - f_low.item(j)
        if violation <= tol:
            break
        if updates >= max_updates:
            raise ConvergenceError(
                f"KKT violation {violation:.3e} > {tol} after {updates} updates")

        pos_i, pos_j, a_i, a_j = on_pos[i], on_pos[j], alpha[i], alpha[j]
        curv = max(diag[i] + diag[j] - 2.0 * gram.item(i, j), 1e-12)
        bound_i = (C - a_i) if pos_i else a_i
        bound_j = a_j if pos_j else (C - a_j)
        step = min(violation / curv, bound_i, bound_j)

        a_i = a_i + step if pos_i else a_i - step
        a_j = a_j - step if pos_j else a_j + step
        # land exactly on the box when a bound binds
        if step == bound_i:
            a_i = C if pos_i else 0.0
        if step == bound_j:
            a_j = 0.0 if pos_j else C
        alpha[i], alpha[j] = a_i, a_j
        d = step * cols[j] - step * cols[i]
        f_up += d
        f_low += d
        # i was drawn from the up side and j from the low one, so each
        # side holds its sample's f; an infinite entry stays infinite
        for k, f_k, a, p in ((i, f_up.item(i), a_i, pos_i),
                             (j, f_low.item(j), a_j, pos_j)):
            below, above = a < C, a > 0
            # at a larger C every `a < C` test reads the same until one fails
            reached_c = reached_c or not below
            is_up, is_low = (below, above) if p else (above, below)
            f_up[k] = f_k if is_up else -np.inf
            f_low[k] = f_k if is_low else np.inf
        updates += 1
        if record_objective:
            history.append(dual_objective(np.array(alpha), y, gram))

    alpha = np.array(alpha)
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
        C=C,
        labels=y.copy(),
        samples=ts.samples,
        spec=spec,
        bias_fallback=fallback,
        dual_objective=dual_objective(alpha, y, gram),
        updates=updates,
        objective_history=history,
        reached_c=reached_c,
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

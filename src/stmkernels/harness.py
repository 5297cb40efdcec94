"""Experiment engine: dataset I/O, one decomposition of each sample per
noise level for all ranks, grid search over (C, g) with repeated
stratified k-fold cross-validation, and deterministic CSV/JSON reporting.

A run holds at most one dense sample at a time: a data directory's
manifest is read first (labels and their checks), and each container is
then read and checked into one buffer, and decomposed, before the next
is read. Only when dgelqf has factored that buffer in place, which it
does for a wide mode-1 unfolding when numpy exports an ILP64 dgelqf, is
the container read and checked once more for the mode-1 projections;
otherwise the projections read the buffer as first read. The buffer serves sample after sample and is dropped when the
noise level's decompositions end. Generated samples, exact Tucker
tensors, are never built dense: a noise level's samples are decomposed
together, as one batch, from their cores (`_decompose_cores`); a rank
above that core decomposes at the core's size, shares the core-size
decomposition with every other such rank, and its row keeps the
requested rank. Ranks that share decompositions share cells: each
kernel's cell is computed for the first of them, and each later rank's
row is a copy with its own rank.

Protocol per (kernel, rank, noise) cell: every sample is decomposed once
per noise level, by one call for all feasible ranks that shares the
mode-1 SVD (one call for all of a noise level's generated samples), and
each rank's decomposition is reused across the whole
(C, g) grid, at the configured `p` or, when none is set, at
`weighted_hosvd`'s default 1/order; a cell's errors name the `p` its
decompositions carry. The cell's Grams for every g come from one
`gram_matrix` call over the whole g grid, which computes each distance
once. A `dusk` cell's CP expansions are made as that call reads them
(`derive_kernel_inputs`), so the cell holds one expansion at a time
beside its kernel views, not all of them. A run has one label vector
(`generate` lists class -1 then +1 at every noise level, and a data
directory is one dataset), and for each repeat a stratified fold split
is drawn (shared by all cells of the run). One function,
`_cross_validate`, runs the whole (C, g) search: it cuts each fold's
training and validation blocks from the Gram stack once and fills
acc[repeat, i, j], the mean validation accuracy over folds at
c_grid[i] and g_grid[j], NaN if training failed on a fold. A cell's
`kernel_seconds` time its Gram stack and its `train_seconds` the whole
search, SMO and validation predictions alike; a copied cell built no
Gram and ran no search, so both are 0. Each repeat
selects the first maximum of its (C, g) plane, and the reported pair is
the one selected most often; both grids increase, so ties go to the
smaller C, then the smaller g. Reported numbers are the mean of the
selected accuracies over repeats, the sample standard deviation, and the
normal approximation 95% half-width 1.96 * std / sqrt(repeats).

A run computes on one BLAS thread (`decomp._blas_threads`), so that every
report is independent of the host's core count; at the mode sizes of the
benchmark's workloads (50 to 100) the small per-sample SVDs are also as
fast or faster on one thread. Every run computes in the calling thread
and starts no thread: `threads` is accepted, checked and echoed in the
report's config, and changes no other byte.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import decomp, svm, synth
from .decomp import (TuckerTensor, reweight, tucker_reconstruct, tucker_to_cp,
                     weighted_hosvd)
from .kernels import KINDS, KernelSpec, _check_length_scale, gram_matrix
from .svm import ConvergenceError, TrainingSet, predict_from_gram, train
from .tensor import load_tensor, save_tensor

MANIFEST_NAME = "manifest.txt"

DEFAULT_C_GRID = tuple(2.0 ** k for k in range(-8, 9))
DEFAULT_G_GRID = tuple(2.0 ** k for k in range(-4, 13))
DEFAULT_NOISE_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
DEFAULT_RANK_GRID = tuple(range(1, 11))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a data source plus the full search grid.

    Exactly one of `synth` / `data_dir` must be set. For synthetic
    sources, `noise_grid` (default `DEFAULT_NOISE_GRID`) overrides the
    noise variance of the base config, one generated dataset per value;
    class-defining draws are shared across noise levels by the
    generator's stream splitting. A data directory holds one dataset of
    no stated noise level, so `data_dir` takes no `noise_grid`. A
    synthetic config stores the resolved grid, so `dataclasses.replace(cfg,
    synth=None, data_dir=d)` needs `noise_grid=None` too; the field is not
    left None, as synthetic summaries would then echo `null` and change.
    `threads` is accepted and checked (an integer, at least 1), and
    changes no byte of the report but the config's echo of it: every run
    computes in the calling thread (see `run_experiment`).
    """

    synth: synth.SynthConfig | None = None
    data_dir: str | None = None
    noise_grid: tuple[float, ...] | None = None
    kernels: tuple[str, ...] = KINDS
    rank_grid: tuple[int, ...] = DEFAULT_RANK_GRID
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    g_grid: tuple[float, ...] = DEFAULT_G_GRID
    repeats: int = 20
    folds: int = 5
    seed: int = 0
    p: float | None = None
    threads: int | None = None
    measure_time: bool = True
    smo_tol: float = 1e-3
    output: str | None = None

    def __post_init__(self):
        synth._check_settings(self)
        if (self.synth is None) == (self.data_dir is None):
            raise ValueError("exactly one of synth/data_dir must be given")
        if self.data_dir is not None and self.noise_grid is not None:
            raise ValueError("data_dir excludes noise_grid")
        if self.synth is not None and self.noise_grid is None:
            object.__setattr__(self, "noise_grid", DEFAULT_NOISE_GRID)
        # noise_grid is read only for synthetic sources
        noise = ("noise_grid",) if self.synth is not None else ()
        positive = ("c_grid", "g_grid") + noise
        for name in ("kernels", "rank_grid") + positive:
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be nonempty")
        for k in self.kernels:
            if k not in KINDS:
                raise ValueError(f"unknown kernel kind {k!r}")
        if not self.smo_tol > 0:
            raise ValueError(f"smo_tol must be positive, got {self.smo_tol}")
        for name in ("p", "smo_tol"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("c_grid",) + noise:
            for v in getattr(self, name):
                if not v > 0:
                    raise ValueError(f"{name} entries must be positive, got {v}")
                if not math.isfinite(v):
                    raise ValueError(f"{name} entries must be finite, got {v}")
        # the length-scale rule lives with the kernels that divide by 2g^2
        for v in self.g_grid:
            _check_length_scale(v, "g_grid entries")
        for r in self.rank_grid:
            if r < 1:
                raise ValueError(f"rank_grid entries must be at least 1, got {r}")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        # selection breaks ties by grid position, which must follow value
        for name in ("c_grid", "g_grid"):
            grid = getattr(self, name)
            for lo, hi in zip(grid, grid[1:]):
                if not lo < hi:
                    raise ValueError(f"{name} must be strictly increasing, "
                                     f"got {hi} after {lo}")
        for name in ("kernels", "rank_grid") + noise:
            entries = getattr(self, name)
            for k, v in enumerate(entries):
                if v in entries[:k]:
                    raise ValueError(f"{name} lists {v!r} twice")


@dataclass
class CellResult:
    """Aggregated outcome of one (kernel, rank, noise) cell."""

    kernel: str
    rank: int
    noise: float
    mean_acc: float
    std: float
    ci95: float
    C: float
    g: float
    kernel_seconds: float
    train_seconds: float


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(CellResult))


@dataclass
class CVReport:
    rows: list
    config: dict


# ---------------------------------------------------------------------------
# dataset I/O
# ---------------------------------------------------------------------------

_LABEL_MAP = {"-1": -1, "0": -1, "1": 1, "+1": 1}


def save_dataset(samples, out_dir):
    """Export labeled samples as tensor containers plus a manifest.

    `samples` is a list of LabeledSample; Tucker samples are materialized
    by `tucker_reconstruct`, whose F-ordered tensors `save_tensor` writes
    from their own memory. The manifest has one `relative-path,label`
    line per sample. A label not equal to -1, 0 or +1, NaN among them, is
    refused, naming its sample, before any file is written.
    """
    for k, sample in enumerate(samples):
        if sample.label not in (-1, 0, 1):
            raise ValueError(f"sample {k}: label {sample.label!r} is not "
                             "-1, 0 or +1")
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for k, sample in enumerate(samples):
        t = sample.tensor
        if not isinstance(t, np.ndarray):
            t = tucker_reconstruct(t)
        name = f"sample_{k:04d}.tnsr"
        save_tensor(os.path.join(out_dir, name), t)
        lines.append(f"{name},{int(sample.label)}\n")
    with open(os.path.join(out_dir, MANIFEST_NAME), "w") as fh:
        fh.writelines(lines)
    return os.path.join(out_dir, MANIFEST_NAME)


def load_dataset(data_dir):
    """Read a manifest directory back into a TrainingSet of dense tensors.

    Labels 0/-1 map to -1 and 1/+1 to +1; anything else is rejected, as
    are missing files, malformed containers, NaN or inf entries, and mixed
    shapes. The whole manifest is checked before any tensor is read; the
    tensors are then read, and refused, in manifest order, by the readers
    a `data_dir` run calls (`_open_dataset`), each into a new array.
    """
    labels, readers = _open_dataset(data_dir)
    return TrainingSet([read() for read in readers], labels)


def _open_dataset(data_dir):
    """(labels, readers) of a manifest directory.

    The manifest is read and checked now: a missing or empty manifest, a
    malformed line (no comma, or an empty path) and an unknown label are
    refused before any tensor is read. `readers` holds one reader per
    manifest entry, in order (`_read_tensors`), which reads its dense
    tensor when called.
    """
    manifest = os.path.join(data_dir, MANIFEST_NAME)
    if not os.path.exists(manifest):
        raise ValueError(f"{data_dir}: no {MANIFEST_NAME} found")
    paths = []
    labels = []
    with open(manifest) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rel, _, label_txt = line.rpartition(",")
            if not rel.strip():  # no comma, or an empty path
                raise ValueError(
                    f"{manifest}:{lineno}: expected '<path>,<label>'")
            label_txt = label_txt.strip()
            if label_txt not in _LABEL_MAP:
                raise ValueError(
                    f"{manifest}:{lineno}: unknown label {label_txt!r}")
            paths.append(os.path.join(data_dir, rel.strip()))
            labels.append(_LABEL_MAP[label_txt])
    if not paths:
        raise ValueError(f"{manifest}: empty manifest")
    return np.array(labels, dtype=np.float64), _read_tensors(manifest, paths)


class _Unreadable(ValueError):
    """A container the reader refused, with `load_dataset`'s message."""


def _read_tensors(manifest, paths):
    """One reader per path: `read(out=None)` reads the dense tensor there
    by `load_tensor(path, out=out)` and returns it, refusing a malformed
    container, NaN or inf entries, and a shape other than the first one
    read, sample 0's when the samples are read in order. Its refusals are
    `_Unreadable`. A reader may be called again, to read its container
    anew; the readers share nothing but that first shape."""
    shape = None

    def read(k, path, out=None):
        nonlocal shape
        try:
            t = load_tensor(path, out=out)
        except ValueError as err:
            raise _Unreadable(str(err)) from err
        # NaN propagates through np.max and np.min, which need no
        # temporary as large as the tensor
        if not (math.isfinite(np.max(t)) and math.isfinite(np.min(t))):
            raise _Unreadable(f"{path}: tensor holds NaN or inf values")
        if shape is None:
            shape = t.shape
        if t.shape != shape:
            raise _Unreadable(
                f"{manifest}: sample {k} has shape {t.shape}, expected {shape}")
        return t

    return [functools.partial(read, k, path) for k, path in enumerate(paths)]


# ---------------------------------------------------------------------------
# cross-validation machinery
# ---------------------------------------------------------------------------

def stratified_folds(labels, n_folds, rng):
    """Index arrays of `n_folds` folds with per-class counts within one of
    perfect proportion (shuffle within class, deal round-robin).

    Raises ValueError for labels other than -1 and +1, which no fold
    would hold, and for `n_folds` below 1."""
    if not n_folds >= 1:
        raise ValueError(f"n_folds must be at least 1, got {n_folds}")
    labels = np.asarray(labels)
    svm._check_labels(labels)
    folds = [[] for _ in range(n_folds)]
    for cls in (-1, 1):
        idx = np.where(labels == cls)[0]
        idx = idx[rng.permutation(len(idx))]
        for k, sample in enumerate(idx):
            folds[k % n_folds].append(int(sample))
    return [np.array(sorted(f), dtype=int) for f in folds]


def _fold_splits(labels, cfg):
    """Per repeat: list of (train_idx, val_idx) pairs, seeded from the
    experiment seed (stream 1000+repeat, disjoint from generator streams)."""
    splits = []
    everyone = np.arange(len(labels))
    for rep in range(cfg.repeats):
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(1000, rep))
        folds = stratified_folds(labels, cfg.folds, np.random.default_rng(seq))
        splits.append([(np.delete(everyone, f), f) for f in folds])
    return splits


def _decompose_by_rank(raw_samples, ranks, p, noise):
    """{rank: one TuckerTensor per sample} for every rank in `ranks` that
    no mode size of the first sample is below (all samples share its
    shape).

    `raw_samples` is iterated once; its entries are the two kinds
    `_load_source` makes: Tucker samples, or a data directory's readers
    (`_read_tensors`). Tucker samples are decomposed together from their
    cores (`_decompose_cores`), and never built dense. A reader's
    container is decomposed dense (`_decompose_containers`). Both run in
    the calling thread.
    """
    samples = list(raw_samples)
    if samples and not callable(samples[0]):
        return _decompose_cores(samples, ranks, p, noise)
    return _decompose_containers(samples, ranks, p, noise)


def _decompose_containers(readers, ranks, p, noise):
    """`_decompose_by_rank` of a data directory's readers.

    The containers are taken in manifest order. Each one's reader reads
    it into one F-ordered buffer, which serves sample after sample and is
    dropped when the call returns, and it is decomposed by one
    weighted_hosvd call for all ranks (which computes its mode-1 SVD
    once), from the source `_source` makes of it, before the next is
    read. A refused decomposition is re-raised naming the sample (its
    index in manifest order) and the noise level; a sample the reader
    refuses, at either of its reads, is reported with `load_dataset`'s
    message. With no rank feasible every sample is still read, so a bad
    one is still refused.
    """
    out = {}
    s = None  # the buffer each container is read into
    for k, read in enumerate(readers):
        s = read(s)
        if k == 0:
            out = {rank: [] for rank in ranks if rank <= min(s.shape)}
        if not out:
            continue
        grid = [(rank,) * s.ndim for rank in out]
        try:
            decomposed = weighted_hosvd(_source(s, read), grid, p)
        except _Unreadable:
            raise  # the container changed after its first read
        except ValueError as err:
            raise ValueError(f"sample {k} at noise {noise}: {err}") from err
        for tuckers, tk in zip(out.values(), decomposed):
            tuckers.append(tk)
    return out


def _decompose_cores(samples, ranks, p, noise):
    """`_decompose_by_rank` of Tucker samples of one shape and core
    shape, as one batch, without a dense sample.

    With each factor QR-factored, F_m = Q_m R_m (one stacked
    np.linalg.qr per mode over all samples), sample k is the small tensor
    Y_k = core_k x_1 R_1 ... x_M R_M, which `tucker_reconstruct` builds at
    the core's size, multiplied by the orthonormal Q_m. One weighted_hosvd
    call decomposes every Y_k (`batch=True`) at each distinct rank tuple
    of the grid, each rank capped per mode at Y's size; each result lifted
    by its Q_m (`decomp._lift`) is weighted_hosvd(tucker_reconstruct(s),
    capped ranks, p) to rounding, and bit for bit what a decomposition of
    that sample alone from its core gives. Y holds all of a sample, so a
    rank above Y's size adds only directions of zero singular value: it
    gives the decomposition at Y's size, and every rank that caps to the
    same tuple gets the same TuckerTensor objects. Each Y_k is copied
    into the batch as it is built, so at most one is held apart from it.
    A refused sample is named by its index in generation order and the
    noise level.
    """
    feasible = [rank for rank in ranks if rank <= min(samples[0].shape)]
    if not feasible:
        return {}
    qs, rs = zip(*(np.linalg.qr(np.stack([s.factors[m] for s in samples]))
                   for m in range(samples[0].order)))
    cores = np.empty((len(samples),) + tuple(r.shape[1] for r in rs))
    for k, s in enumerate(samples):
        cores[k] = tucker_reconstruct(TuckerTensor(s.core, [r[k] for r in rs]))
    capped = {rank: tuple(min(rank, n) for n in cores.shape[1:])
              for rank in feasible}
    grid = list(dict.fromkeys(capped.values()))
    try:
        decomposed = weighted_hosvd(cores, grid, p, batch=True)
    except decomp._Refused as err:
        raise ValueError(f"sample {err.index} at noise {noise}: "
                         f"{err.reason}") from err.reason
    lifted = {ranks: decomp._lift([d[i] for d in decomposed], qs)
              for i, ranks in enumerate(grid)}
    return {rank: lifted[capped[rank]] for rank in feasible}


def _source(s, read):
    """The source weighted_hosvd decomposes for the container that `read`
    read into `s`: it returns `s` as read, then reads the container into
    `s` again at each later call, so dgelqf factors `s` in place;
    `weighted_hosvd` calls it again only after dgelqf has overwritten
    `s`."""
    unread = [s]  # the first call's tensor is read already
    return lambda: unread.pop() if unread else read(s)


class _CPExpansions:
    """The CP expansions of unweighted Tucker decompositions, made as
    they are read: a sized iterable whose pass yields, in order, a new
    `tucker_to_cp(reweight(t, 0.0))` for each decomposition t, called
    through this module's names. Nothing is cached, so a reader that
    drops each expansion once it is used holds one at a time."""

    def __init__(self, tuckers):
        self._tuckers = tuckers

    def __len__(self):
        return len(self._tuckers)

    def __iter__(self):
        for t in self._tuckers:
            yield tucker_to_cp(reweight(t, 0.0))


def derive_kernel_inputs(tuckers, kind):
    """Kernel-specific sample views of shared Tucker decompositions.

    For `dusk` they are the CP expansions of the unweighted
    decompositions, R = r**M terms each, made as they are read by a
    sized iterable (`_CPExpansions`) rather than held in a list:
    `gram_matrix` reads each once and drops it once its view exists. The
    other kinds read the decompositions themselves."""
    if kind == "dusk":
        return _CPExpansions(tuckers)
    return tuckers


def _nan_cell(kind, rank, noise, kernel_seconds=0.0, train_seconds=0.0):
    """Row of an infeasible rank, or of a repeat that failed at every pair."""
    return CellResult(kind, rank, noise, math.nan, math.nan, math.nan,
                      math.nan, math.nan, kernel_seconds, train_seconds)


def _cross_validate(stack, labels, splits, c_grid, tol):
    """acc[repeat, i, j]: mean validation accuracy over the folds of
    splits[repeat] at c_grid[i] on the Gram stack[j]; NaN if training failed
    on a fold, and that (C, g) then trains no later fold. Each fold cuts its
    blocks from the whole stack once, then walks each g up the C grid. At
    the first model that never had an alpha reach C, training at every
    larger C would repeat it bit for bit, so the walk copies its accuracy
    into the fold's larger-C entries for that g and stops."""
    fold_acc = np.zeros((len(splits), len(c_grid), len(stack), len(splits[0])))
    for rep, pairs in enumerate(splits):
        for f, (tr, val) in enumerate(pairs):
            # a fold's training samples are its indices into the cell
            ts = TrainingSet(tr, labels[tr])
            k_tr, k_tv = stack[:, tr[:, None], tr], stack[:, tr[:, None], val]
            for j in range(len(stack)):
                for i, c in enumerate(c_grid):
                    if math.isnan(fold_acc[rep, i, j, f]):
                        continue
                    try:
                        model = train(ts, k_tr[j], c, tol=tol)
                    except ConvergenceError:
                        fold_acc[rep, i, j] = math.nan
                        continue
                    pred = predict_from_gram(model, k_tv[j])
                    fold_acc[rep, i, j, f] = np.mean(pred == labels[val])
                    if not model.reached_c:
                        fold_acc[rep, i + 1:, j, f] = fold_acc[rep, i, j, f]
                        break
    return fold_acc.mean(axis=-1)


def _evaluate_cell(kind, rank, noise, decomposed, labels, cfg, splits, p):
    """Gram stack, `_cross_validate` search and selection of one cell;
    `p` is the weighting power of the decompositions, named in errors."""
    clock = time.perf_counter if cfg.measure_time else (lambda: 0.0)
    t0 = clock()
    try:
        stack = gram_matrix(decomposed, KernelSpec(kind, g=cfg.g_grid))
    except ValueError as err:
        raise ValueError(f"{kind} kernel at rank {rank}, noise {noise}, "
                         f"p = {p}: {err}") from err
    t1 = clock()
    acc = _cross_validate(stack, labels, splits, cfg.c_grid, cfg.smo_tol)
    kernel_seconds, train_seconds = t1 - t0, clock() - t1

    plane = acc.reshape(len(splits), -1)
    if np.isnan(plane).all(axis=1).any():
        return _nan_cell(kind, rank, noise, kernel_seconds, train_seconds)
    best = np.nanargmax(plane, axis=1)
    accs = plane[np.arange(len(splits)), best]
    std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
    i, j = np.unravel_index(np.bincount(best).argmax(), acc.shape[1:])
    return CellResult(kind, rank, noise, float(np.mean(accs)), std,
                      1.96 * std / math.sqrt(len(accs)), cfg.c_grid[i],
                      cfg.g_grid[j], kernel_seconds, train_seconds)


def _load_source(cfg):
    """(labels, [(noise_value, raw_samples), ...]) of the run. A data
    directory's manifest is read and checked here; its raw samples are
    `_open_dataset`'s readers, each of which reads its tensor when called.
    Generated raw samples are Tucker tensors, decomposed as one batch from
    their cores and never made dense (`_decompose_by_rank`)."""
    if cfg.data_dir is not None:
        labels, samples = _open_dataset(cfg.data_dir)
        return labels, [(math.nan, samples)]
    datasets = []
    for theta2 in map(float, cfg.noise_grid):
        generated = synth.generate(replace(cfg.synth, noise_variance=theta2))
        datasets.append((theta2, [s.tensor for s in generated]))
    labels = np.array([s.label for s in generated], dtype=np.float64)
    return labels, datasets


@decomp._blas_threads(1)
def run_experiment(cfg):
    """Execute the full grid and return a CVReport.

    Cells whose SVM never converges, or whose rank is infeasible for the
    data, are reported with NaN statistics instead of aborting the run.
    A cell is computed once per kernel and decomposition list: a rank
    whose decompositions are the same objects as an earlier rank's (a
    generated rank at or above the core's size, `_decompose_cores`) gets
    a copy of that rank's row with its own `rank`, and `kernel_seconds`
    and `train_seconds` of 0, as it builds no Gram and runs no search.
    The (noise, rank) groups run serially in a deterministic order, and
    the whole run computes with numpy's BLAS on one thread: a multi-
    threaded SVD rounds differently, so the report would follow the
    host's core count. The run starts no thread: a data directory's
    containers are decomposed one at a time, and a noise level's
    generated samples as one batch (`_decompose_by_rank`), in the calling
    thread, so the report is the same for any `threads`.
    Raises ValueError before any tensor is read or decomposed
    when a class is too small for `folds`: fewer than `folds` samples in
    the largest class leaves a fold empty, and a class of fewer than 2
    samples leaves a training fold without it. A weighting power `p`
    whose sigma**p float64 cannot hold for some sample raises ValueError
    naming the sample and its noise level. A `data_dir` sample is read
    only when its turn to be decomposed comes, and read again for its
    mode-1 projections when dgelqf factored it in place, so a bad one,
    or one that changed between its reads, is refused, with
    `load_dataset`'s message, after the samples before it have been
    decomposed.
    """
    labels, datasets = _load_source(cfg)
    counts = (int(np.sum(labels < 0)), int(np.sum(labels > 0)))
    sizes = f"class counts (-1: {counts[0]}, +1: {counts[1]})"
    if max(counts) < cfg.folds:
        raise ValueError(f"{sizes} leave a fold empty with folds = {cfg.folds}")
    if min(counts) < 2:
        raise ValueError(f"{sizes} leave a training fold without one class "
                         f"with folds = {cfg.folds}")
    splits = _fold_splits(labels, cfg)
    rows = []
    for noise, raw_samples in datasets:
        by_rank = _decompose_by_rank(raw_samples, cfg.rank_grid, cfg.p, noise)
        cells = {}  # (id of a rank's decompositions, kind) -> its row
        for rank in cfg.rank_grid:
            for kind in cfg.kernels:
                if rank not in by_rank:
                    rows.append(_nan_cell(kind, rank, noise))
                    continue
                key = id(by_rank[rank]), kind
                if key in cells:
                    # the same decompositions give the same Grams and search
                    rows.append(replace(cells[key], rank=rank,
                                        kernel_seconds=0.0, train_seconds=0.0))
                    continue
                decomposed = derive_kernel_inputs(by_rank[rank], kind)
                cells[key] = _evaluate_cell(
                    kind, rank, noise, decomposed, labels, cfg, splits,
                    by_rank[rank][0].p)
                rows.append(cells[key])
    rows.sort(key=_row_key)
    return CVReport(rows=rows, config=dataclasses.asdict(cfg))


def _row_key(row):
    nan = math.isnan(row.noise)
    return (row.kernel, row.rank, nan, 0.0 if nan else row.noise)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def render_csv(rows, path):
    """Write the per-cell results as CSV with a fixed column order and a
    deterministic, sorted row order."""
    ordered = sorted(rows, key=_row_key)
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in ordered:
            fh.write(",".join(_fmt(getattr(row, col)) for col in CSV_COLUMNS) + "\n")
    return path


def emit_report(report, out_dir):
    """Write report.csv and summary.json under `out_dir`.

    The summary holds the config echo plus every row; the CSV can be
    re-rendered from it byte-identically.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.csv")
    json_path = os.path.join(out_dir, "summary.json")
    payload = {
        "config": report.config,
        "rows": [dataclasses.asdict(r) for r in report.rows],
    }
    # built first, so a value json cannot write leaves no partial file
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)
    render_csv(report.rows, csv_path)
    with open(json_path, "w") as fh:
        fh.write(text + "\n")
    return csv_path, json_path


def load_report(json_path):
    """Rebuild a CVReport from a summary.json file."""
    with open(json_path) as fh:
        payload = json.load(fh)
    rows = [CellResult(**r) for r in payload["rows"]]
    return CVReport(rows=rows, config=payload.get("config", {}))


__all__ = [
    "MANIFEST_NAME",
    "CSV_COLUMNS",
    "DEFAULT_C_GRID",
    "DEFAULT_G_GRID",
    "DEFAULT_NOISE_GRID",
    "DEFAULT_RANK_GRID",
    "ExperimentConfig",
    "CellResult",
    "CVReport",
    "save_dataset",
    "load_dataset",
    "stratified_folds",
    "derive_kernel_inputs",
    "run_experiment",
    "render_csv",
    "emit_report",
    "load_report",
]

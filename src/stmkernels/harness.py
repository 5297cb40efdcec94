"""Experiment engine: dataset I/O, per-sample decomposition with caching,
grid search over (C, g) with repeated stratified k-fold cross-validation,
and deterministic CSV/JSON reporting.

Protocol per (kernel, rank, noise) cell: every sample is decomposed once
at that rank and reused across the whole (C, g) grid. For each repeat a
stratified fold split is drawn (shared by all cells of the run); the
(C, g) pair maximizing the mean validation accuracy over folds is
selected per repeat (ties go to the smaller C, then the smaller g), and
the selected pair's accuracy enters the aggregate. Reported numbers are
the mean over repeats, the sample standard deviation, and the normal
approximation 95% half-width 1.96 * std / sqrt(repeats).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import synth
from .decomp import reweight, tucker_reconstruct, tucker_to_cp, weighted_hosvd
from .kernels import KINDS, KernelSpec, gram_matrix
from .svm import ConvergenceError, TrainingSet, predict_from_gram, train
from .tensor import load_tensor, save_tensor

MANIFEST_NAME = "manifest.txt"

DEFAULT_C_GRID = tuple(2.0 ** k for k in range(-8, 9))
DEFAULT_G_GRID = tuple(2.0 ** k for k in range(-4, 13))
DEFAULT_NOISE_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
DEFAULT_RANK_GRID = tuple(range(1, 11))

CSV_COLUMNS = ("kernel", "rank", "noise", "mean_acc", "std", "ci95",
               "C", "g", "kernel_seconds", "train_seconds")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a data source plus the full search grid.

    Exactly one of `synth` / `data_dir` must be set. For synthetic
    sources, `noise_grid` overrides the noise variance of the base
    config, one generated dataset per value; class-defining draws are
    shared across noise levels by the generator's stream splitting.
    `threads` is echoed in the report's config and changes nothing.
    """

    synth: synth.SynthConfig | None = None
    data_dir: str | None = None
    noise_grid: tuple = DEFAULT_NOISE_GRID
    kernels: tuple = KINDS
    rank_grid: tuple = DEFAULT_RANK_GRID
    c_grid: tuple = DEFAULT_C_GRID
    g_grid: tuple = DEFAULT_G_GRID
    repeats: int = 20
    folds: int = 5
    seed: int = 0
    p: float | None = None
    threads: int | None = None
    measure_time: bool = True
    smo_tol: float = 1e-3
    output: str | None = None

    def __post_init__(self):
        if (self.synth is None) == (self.data_dir is None):
            raise ValueError("exactly one of synth/data_dir must be given")
        for name in ("kernels", "rank_grid", "c_grid", "g_grid"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be nonempty")
        for k in self.kernels:
            if k not in KINDS:
                raise ValueError(f"unknown kernel kind {k!r}")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")


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
    to dense tensors. The manifest has one `relative-path,label` line per
    sample.
    """
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
    are missing files, malformed containers, and mixed shapes.
    """
    manifest = os.path.join(data_dir, MANIFEST_NAME)
    if not os.path.exists(manifest):
        raise ValueError(f"{data_dir}: no {MANIFEST_NAME} found")
    samples = []
    labels = []
    with open(manifest) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rel, label_txt = line.rsplit(",", 1)
            except ValueError:
                raise ValueError(
                    f"{manifest}:{lineno}: expected '<path>,<label>'") from None
            label_txt = label_txt.strip()
            if label_txt not in _LABEL_MAP:
                raise ValueError(
                    f"{manifest}:{lineno}: unknown label {label_txt!r}")
            samples.append(load_tensor(os.path.join(data_dir, rel.strip())))
            labels.append(_LABEL_MAP[label_txt])
    if not samples:
        raise ValueError(f"{manifest}: empty manifest")
    shape = samples[0].shape
    for k, s in enumerate(samples):
        if s.shape != shape:
            raise ValueError(
                f"{manifest}: sample {k} has shape {s.shape}, expected {shape}")
    return TrainingSet(samples, np.array(labels, dtype=np.float64))


# ---------------------------------------------------------------------------
# cross-validation machinery
# ---------------------------------------------------------------------------

def stratified_folds(labels, n_folds, rng):
    """Index arrays of `n_folds` folds with per-class counts within one of
    perfect proportion (shuffle within class, deal round-robin)."""
    labels = np.asarray(labels)
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
    n = len(labels)
    for rep in range(cfg.repeats):
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(1000, rep))
        folds = stratified_folds(labels, cfg.folds, np.random.default_rng(seq))
        pairs = []
        for f in folds:
            mask = np.ones(n, dtype=bool)
            mask[f] = False
            pairs.append((np.where(mask)[0], f))
        splits.append(pairs)
    return splits


def _shared_tuckers(raw_samples, rank, p):
    out = []
    for s in raw_samples:
        dense = s if isinstance(s, np.ndarray) else tucker_reconstruct(s)
        out.append(weighted_hosvd(dense, (rank,) * dense.ndim, p))
    return out


def derive_kernel_inputs(tuckers, kind):
    """Kernel-specific sample views of shared Tucker decompositions."""
    if kind == "dusk":
        return [tucker_to_cp(reweight(t, 0.0)) for t in tuckers]
    return tuckers


def _evaluate_cell(kind, decomposed, labels, cfg, splits):
    """Grid search + repeated CV for one (kernel, rank, noise) cell."""
    clock = time.perf_counter if cfg.measure_time else (lambda: 0.0)

    kernel_seconds = 0.0
    grams = {}
    for g in cfg.g_grid:
        t0 = clock()
        grams[g] = gram_matrix(decomposed, KernelSpec(kind=kind, g=g))
        kernel_seconds += clock() - t0

    train_seconds = 0.0
    per_repeat_acc = []
    per_repeat_choice = []
    for pairs in splits:
        train_sets = [TrainingSet([decomposed[i] for i in tr], labels[tr])
                      for tr, _ in pairs]
        acc_table = {}
        for g in cfg.g_grid:
            k_full = grams[g]
            fold_slices = [
                (k_full[np.ix_(tr, tr)], k_full[np.ix_(tr, val)], ts, val)
                for (tr, val), ts in zip(pairs, train_sets)
            ]
            for c in cfg.c_grid:
                fold_accs = []
                for k_tr, k_tv, ts, val in fold_slices:
                    t0 = clock()
                    try:
                        model = train(ts, k_tr, c, tol=cfg.smo_tol)
                    except ConvergenceError:
                        fold_accs = None
                        train_seconds += clock() - t0
                        break
                    train_seconds += clock() - t0
                    pred = predict_from_gram(model, k_tv)
                    fold_accs.append(float(np.mean(pred == labels[val])))
                if fold_accs is not None:
                    acc_table[(c, g)] = float(np.mean(fold_accs))
        if not acc_table:
            per_repeat_acc.append(None)
            continue
        best = max(acc_table.items(), key=lambda kv: (kv[1], -kv[0][0], -kv[0][1]))
        per_repeat_choice.append(best[0])
        per_repeat_acc.append(best[1])

    if any(a is None for a in per_repeat_acc):
        return (math.nan, math.nan, math.nan, math.nan, math.nan,
                kernel_seconds, train_seconds)

    accs = np.array(per_repeat_acc)
    mean = float(np.mean(accs))
    std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
    ci95 = 1.96 * std / math.sqrt(len(accs))
    counts = {}
    for choice in per_repeat_choice:
        counts[choice] = counts.get(choice, 0) + 1
    top = max(counts.values())
    chosen = min(c for c, cnt in counts.items() if cnt == top)
    return mean, std, ci95, chosen[0], chosen[1], kernel_seconds, train_seconds


def _load_source(cfg):
    """List of (noise_value, raw_samples, labels) datasets for the run."""
    if cfg.data_dir is not None:
        ts = load_dataset(cfg.data_dir)
        return [(math.nan, ts.samples, ts.labels)]
    datasets = []
    for theta2 in cfg.noise_grid:
        scfg = replace(cfg.synth, noise_variance=float(theta2))
        generated = synth.generate(scfg)
        samples = [s.tensor for s in generated]
        labels = np.array([s.label for s in generated], dtype=np.float64)
        datasets.append((float(theta2), samples, labels))
    return datasets


def run_experiment(cfg):
    """Execute the full grid and return a CVReport.

    Cells whose SVM never converges, or whose rank is infeasible for the
    data, are reported with NaN statistics instead of aborting the run.
    The (noise, rank) groups run serially in a deterministic order;
    `threads` is echoed in the config but changes nothing. Raises
    ValueError before any decomposition when a class is too small for
    `folds`: fewer than `folds` samples in the largest class leaves a
    fold empty, and a class of fewer than 2 samples leaves a training
    fold without it.
    """
    datasets = _load_source(cfg)
    labels0 = datasets[0][2]
    for _, _, lab in datasets[1:]:
        if not np.array_equal(lab, labels0):
            raise ValueError("datasets disagree on labels")
    counts = (int(np.sum(labels0 < 0)), int(np.sum(labels0 > 0)))
    sizes = f"class counts (-1: {counts[0]}, +1: {counts[1]})"
    if max(counts) < cfg.folds:
        raise ValueError(f"{sizes} leave a fold empty with folds = {cfg.folds}")
    if min(counts) < 2:
        raise ValueError(f"{sizes} leave a training fold without one class "
                         f"with folds = {cfg.folds}")
    splits = _fold_splits(labels0, cfg)

    rows = []
    for noise, raw_samples, labels in datasets:
        for rank in cfg.rank_grid:
            if rank > min(raw_samples[0].shape):
                rows.extend(
                    CellResult(kind, rank, noise, math.nan, math.nan, math.nan,
                               math.nan, math.nan, 0.0, 0.0)
                    for kind in cfg.kernels)
                continue
            tuckers = _shared_tuckers(raw_samples, rank, cfg.p)
            for kind in cfg.kernels:
                decomposed = derive_kernel_inputs(tuckers, kind)
                mean, std, ci, c, g, kt, tt = _evaluate_cell(
                    kind, decomposed, labels, cfg, splits)
                rows.append(
                    CellResult(kind, rank, noise, mean, std, ci, c, g, kt, tt))
    rows.sort(key=_row_key)
    return CVReport(rows=rows, config=_config_dict(cfg))


def _row_key(row):
    nan = math.isnan(row.noise)
    return (row.kernel, row.rank, nan, 0.0 if nan else row.noise)


def _config_dict(cfg):
    d = dataclasses.asdict(cfg)
    for key, value in list(d.items()):
        if isinstance(value, tuple):
            d[key] = list(value)
    return d


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
    render_csv(report.rows, csv_path)
    payload = {
        "config": report.config,
        "rows": [dataclasses.asdict(r) for r in report.rows],
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
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

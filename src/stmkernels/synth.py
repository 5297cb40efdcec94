"""Seeded generator for the two synthetic classification scenarios.

Order-3 samples are built directly in Tucker form: a cubic core of
Gaussian noise whose leading block carries an added information tensor,
and per-mode factors of Gaussian noise whose leading columns carry added
cosine waves cos(pi * nu * v) on a uniform grid v over [-1, 1]. Factors
are orthonormalized by QR afterwards.

Where the class signal lives depends on the scenario:

* ``core``: the information tensor is shared within a class (fresh
  cosine frequencies per sample), so only the core separates classes.
* ``leaf``: the cosine frequencies are shared within a class (fresh
  information tensor per sample), so only the subspaces separate them.

Randomness is split into one independent stream per sample per role
(information, frequencies, core noise, factor noise) via spawn keys on a
single 64-bit seed, so changing the noise level never changes the
class-defining draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .decomp import TuckerTensor, tucker_reconstruct

ORDER = 3

SCENARIOS = ("core", "leaf")

_ROLE_INFO = 0
_ROLE_FREQ = 1
_ROLE_CORE_NOISE = 2
_ROLE_FACTOR_NOISE = 3


def _plain(v):
    """A numpy scalar as its Python value; anything else as it is."""
    return v.item() if isinstance(v, np.generic) else v


def _sequence(name, v):
    """The entries of setting `name` as a tuple of plain values; one value
    or a string is refused."""
    if (not isinstance(v, (tuple, list, range, np.ndarray))
            or getattr(v, "ndim", 1) != 1):
        raise ValueError(f"{name} must be a sequence, got {_plain(v)!r}")
    return tuple(_plain(e) for e in v)


def _check_settings(cfg, integers, flags, reals):
    """Refuse, naming the field, `integers` that are not integers, `flags`
    not bools and `reals` not numbers (bools are neither); a `_grid` name is
    a sequence whose entries are so held, and None passes where it is the
    default. Numpy values are stored as Python ones, which JSON can write."""
    optional = {f.name for f in fields(cfg) if f.default is None}
    rules = [(n, int, "an integer", "integers") for n in integers]
    rules += [(n, bool, "True or False", None) for n in flags]
    rules += [(n, (int, float), "a number", "numbers") for n in reals]
    for name, kind, one, many in rules:
        v = _plain(getattr(cfg, name))
        if v is None and name in optional:
            continue
        if name.endswith("_grid"):
            v = _sequence(name, v)
            for e in v:
                if isinstance(e, bool) or not isinstance(e, kind):
                    raise ValueError(f"{name} entries must be {many}, got {e}")
        elif isinstance(v, bool) != (kind is bool) or not isinstance(v, kind):
            got = repr(v) if kind is bool else v
            raise ValueError(f"{name} must be {one}, got {got}")
        object.__setattr__(cfg, name, v)


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of one synthetic dataset.

    `noise_variance` is the variance of both the core and the factor
    noise. `freq_uniform` switches the frequency distribution from
    standard normal to uniform on [-sqrt(3), sqrt(3)] (same mean and
    variance).
    """

    scenario: str
    mode_size: int = 100
    r_exact: int = 3
    r_approx: int = 3
    noise_variance: float = 0.01
    samples_per_class: int = 50
    seed: int = 0
    freq_uniform: bool = False

    def __post_init__(self):
        _check_settings(self, ("mode_size", "r_exact", "r_approx",
                               "samples_per_class", "seed"), ("freq_uniform",),
                        ("noise_variance",))
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if self.r_approx < 1 or self.r_approx > self.mode_size:
            raise ValueError("r_approx must lie in 1..mode_size")
        if self.r_exact < 1:
            raise ValueError("r_exact must be positive")
        if not self.noise_variance > 0:
            raise ValueError("noise variance must be positive")
        if not math.isfinite(self.noise_variance):
            raise ValueError(
                f"noise variance must be finite, got {self.noise_variance}")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def info_size(self):
        return min(self.r_approx, self.r_exact)


@dataclass(eq=False)
class LabeledSample:
    tensor: object  # TuckerTensor, or ndarray when materialized
    label: int


def _rng(cfg, role, *key):
    seq = np.random.SeedSequence(cfg.seed, spawn_key=(role,) + tuple(key))
    return np.random.default_rng(seq)


def information(cfg, class_idx, sample_idx):
    """Information tensor added to the leading core block of one sample.

    Shared within a class in the core scenario, freshly drawn per sample
    in the leaf scenario. Standard normal entries, independent of the
    noise level.
    """
    k = cfg.info_size
    if cfg.scenario == "core":
        gen = _rng(cfg, _ROLE_INFO, class_idx)
    else:
        gen = _rng(cfg, _ROLE_INFO, class_idx, sample_idx)
    return gen.standard_normal((k, k, k))


def frequencies(cfg, class_idx, sample_idx):
    """Cosine frequencies (one per mode per leading column) for one sample.

    Shared within a class in the leaf scenario, freshly drawn per sample
    in the core scenario. Zero mean and unit variance.
    """
    k = cfg.info_size
    if cfg.scenario == "leaf":
        gen = _rng(cfg, _ROLE_FREQ, class_idx)
    else:
        gen = _rng(cfg, _ROLE_FREQ, class_idx, sample_idx)
    if cfg.freq_uniform:
        half = math.sqrt(3.0)
        return gen.uniform(-half, half, size=(ORDER, k))
    return gen.standard_normal((ORDER, k))


def _build_sample(cfg, class_idx, sample_idx, grid):
    r = cfg.r_approx
    k = cfg.info_size
    theta = math.sqrt(cfg.noise_variance)

    core = theta * _rng(cfg, _ROLE_CORE_NOISE, class_idx, sample_idx
                        ).standard_normal((r, r, r))
    core[:k, :k, :k] += information(cfg, class_idx, sample_idx)

    freqs = frequencies(cfg, class_idx, sample_idx)
    noise = theta * _rng(cfg, _ROLE_FACTOR_NOISE, class_idx, sample_idx
                         ).standard_normal((ORDER, cfg.mode_size, r))
    factors = []
    for m in range(ORDER):
        f = noise[m].copy()
        f[:, :k] += np.cos(np.pi * freqs[m][None, :] * grid[:, None])
        q, _ = np.linalg.qr(f)
        factors.append(q)
    return TuckerTensor(core=core, factors=factors, sigmas=None, p=0.0)


def generate(cfg, dense=False):
    """All samples of both classes for one configuration.

    Returns 2 * samples_per_class LabeledSamples, class -1 first. With
    `dense=True` the Tucker forms are contracted to full arrays (for the
    Gaussian-kernel baseline and for dataset export). Deterministic given
    the config; samples may be generated in parallel because every stream
    is pre-split.
    """
    grid = np.linspace(-1.0, 1.0, cfg.mode_size)
    out = []
    for class_idx, label in ((0, -1), (1, 1)):
        for s in range(cfg.samples_per_class):
            t = _build_sample(cfg, class_idx, s, grid)
            if dense:
                out.append(LabeledSample(tucker_reconstruct(t), label))
            else:
                out.append(LabeledSample(t, label))
    return out


__all__ = [
    "ORDER",
    "SCENARIOS",
    "SynthConfig",
    "LabeledSample",
    "information",
    "frequencies",
    "generate",
]

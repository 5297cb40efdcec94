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

import functools
import math
import os
import typing
from dataclasses import dataclass

import numpy as np

from .decomp import TuckerTensor, tucker_reconstruct

ORDER = 3

SCENARIOS = ("core", "leaf")

_ROLE_INFO = 0
_ROLE_FREQ = 1
_ROLE_CORE_NOISE = 2
_ROLE_FACTOR_NOISE = 3


def _plain(v):
    """A numpy scalar as its Python value, a path as its string; anything
    else as it is."""
    if isinstance(v, np.generic):
        return v.item()
    return os.fspath(v) if isinstance(v, os.PathLike) else v


@functools.cache
def _settings(cls):
    """{field: (type, grid, optional)} of dataclass `cls`, read from its
    annotations: `X | None` is an optional X, `tuple[X, ...]` a grid of X."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        optional = type(None) in args
        if optional:
            hint, = (a for a in args if a is not type(None))
        grid = typing.get_origin(hint) is tuple
        out[name] = (typing.get_args(hint)[0] if grid else hint, grid, optional)
    return out


_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
          bool: ("True or False", None), str: ("a string", "strings")}


def _check_settings(cfg):
    """Hold every field of `cfg` to its annotation, naming the field it
    refuses: a float may be any number, bools are neither integers nor
    numbers, a grid is a sequence (not one value or a string) of entries so
    held, and an optional field may be None. Numpy values are stored as
    Python ones and paths as strings, which JSON can write."""
    for name, (kind, grid, optional) in _settings(type(cfg)).items():
        v = _plain(getattr(cfg, name))
        if v is None and optional:
            continue
        one, many = _NAMES.get(kind, (f"a {kind.__name__}", None))
        accepted = (int, float) if kind is float else kind
        if grid:
            if (not isinstance(v, (tuple, list, range, np.ndarray))
                    or getattr(v, "ndim", 1) != 1):
                raise ValueError(f"{name} must be a sequence, got {v!r}")
            v = tuple(map(_plain, v))
        for e in v if grid else (v,):
            if isinstance(e, bool) != (kind is bool) or not isinstance(e, accepted):
                raise ValueError(f"{name} entries must be {many}, got {e!r}"
                                 if grid else f"{name} must be {one}, got {e!r}")
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
        _check_settings(self)
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
        noise[m][:, :k] += np.cos(np.pi * freqs[m][None, :] * grid[:, None])
        q, _ = np.linalg.qr(noise[m])
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

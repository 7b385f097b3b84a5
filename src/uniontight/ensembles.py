"""Seedable Gaussian and Bernoulli sensing-matrix ensembles.

Matrices are generated from counter-based Philox4x64 streams keyed by
(base_seed, trial_index), so any trial can be regenerated in isolation and
results are independent of execution order and thread count.  Entries are
pre-scaled to magnitude-scale 1/sqrt(m): Gaussian entries have variance 1/m,
Bernoulli entries are exactly +-1/sqrt(m) (so Bernoulli columns have unit
Euclidean norm).  Gaussian columns are deliberately not renormalized; the
coherence kernel normalizes explicitly instead.

Gaussian sampling algorithm (fixed so golden outputs stay stable): the raw
64-bit Philox output for entry index i*n + j is mapped to the open-interval
uniform u = ((raw >> 11) + 0.5) * 2**-53 and transformed by the inverse
normal CDF (scipy.special.ndtri).  Bernoulli signs come from the top bit of
the same raw word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

FAMILIES = ("gaussian", "bernoulli")

_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class EnsembleSpec:
    """Distribution family, dimensions and seed policy of a random ensemble."""

    family: str
    m: int
    n: int
    base_seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"dimensions must be positive, got m={self.m}, n={self.n}")
        if not 0 <= self.base_seed <= _U64_MAX:
            raise ValueError("base_seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class MatrixSample:
    """One sampled m x n sensing matrix together with its provenance."""

    data: np.ndarray
    spec: EnsembleSpec
    trial_index: int


def entry_scale(m: int) -> float:
    """Magnitude scale 1/sqrt(m) of the entries of an m-row matrix.

    Bernoulli entries are exactly +-entry_scale(m); the kernels read a matrix
    whose entries all have this magnitude as an exact +-1/sqrt(m) lattice.
    """
    return 1.0 / math.sqrt(m)


def _raw_stream(base_seed, trial_index, size):
    """Raw uint64 Philox words for one (base_seed, trial_index) stream."""
    key = np.array([base_seed, trial_index], dtype=np.uint64)
    return Philox(key=key).random_raw(size)


def _gaussian_from_raw(raw):
    # 53-bit uniform strictly inside (0, 1), then inverse normal CDF
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def _signs_from_raw(raw):
    return 1.0 - 2.0 * (raw >> np.uint64(63)).astype(np.float64)


def sample_matrix(spec: EnsembleSpec, trial_index: int) -> MatrixSample:
    """Draw the m x n matrix for one trial, deterministic in (base_seed, trial_index)."""
    if not 0 <= trial_index <= _U64_MAX:
        raise ValueError("trial_index must fit in an unsigned 64-bit integer")
    raw = _raw_stream(spec.base_seed, trial_index, spec.m * spec.n)
    scale = entry_scale(spec.m)
    if spec.family == "gaussian":
        entries = _gaussian_from_raw(raw) * scale
    else:
        entries = _signs_from_raw(raw) * scale
    return MatrixSample(entries.reshape(spec.m, spec.n), spec, trial_index)


def sample_batch(spec: EnsembleSpec, start: int, stop: int) -> np.ndarray:
    """Stack of matrices for trial indices [start, stop); shape (stop-start, m, n).

    Equivalent to stacking sample_matrix results; batched so the inverse-CDF
    transform runs once per chunk.
    """
    if stop < start:
        raise ValueError("stop must be >= start")
    count = stop - start
    size = spec.m * spec.n
    raws = np.empty((count, size), dtype=np.uint64)
    for i in range(count):
        raws[i] = _raw_stream(spec.base_seed, start + i, size)
    scale = entry_scale(spec.m)
    if spec.family == "gaussian":
        entries = _gaussian_from_raw(raws) * scale
    else:
        entries = _signs_from_raw(raws) * scale
    return entries.reshape(count, spec.m, spec.n)


def row_outer_products(a_sub: np.ndarray, scale: float) -> np.ndarray:
    """Rank-one outer products of the rows of scale * a_sub.

    For an m x k input, returns the stack of m symmetric PSD matrices X_i
    with (X_i)[l, w] = scale**2 * a[i, l] * a[i, w].  Their sum equals
    scale**2 * a_sub.T @ a_sub.
    """
    a = np.asarray(a_sub, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("a_sub must be a 2-d matrix")
    if not scale > 0:
        raise ValueError("scale must be positive")
    rows = a * scale
    return rows[:, :, None] * rows[:, None, :]

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

Trial t's raw words are those of ``Philox(key=[base_seed, t]).random_raw(m*n)``,
bit for bit, but no generator is built per trial.  Up to
``_VECTOR_WORDS_MAX`` words per trial (m*n, measured crossover) the
Philox4x64-10 rounds run on uint64 arrays over (trials, 4-word blocks), the
first block at counter 1 because numpy advances the counter before it
generates; above it, one generator per ``sample_batch`` call is reseated to
each trial's key through its ``state`` setter.

``sample_batch(..., packed=True)`` returns a Bernoulli batch as its sign bits
instead: each column's m top bits packed into ceil(m/64) uint64 words, from
the same raw words, drawn and packed ``_WORD_TILE_BYTES`` (16 MiB) of words at
a time.  The Bernoulli coherence engine reads these with XOR and popcount
(``kernels.packed_mutual_coherence``) and builds no float matrix.
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
        for name in ("m", "n", "base_seed"):
            # a float would be truncated into another integer's seed or shape
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


# Philox4x64-10 (Salmon et al., SC'11, as in numpy.random.Philox)
_PHILOX_ROUNDS = 10
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT63 = np.uint64(63)  # a raw word's top bit is its Bernoulli sign
# Most words per trial for which the vectorized rounds beat reseating one
# generator.  Medians per 512-trial chunk on a 2-vCPU x86-64 host, vectorized
# vs reseated: 48 words 1.8 vs 2.4 ms, 64 words 2.2-2.5 vs 2.6 ms, 80 words
# 3.0-3.2 vs 2.7 ms, 160 words 4.9-5.5 vs 2.4-3.2 ms.
_VECTOR_WORDS_MAX = 64
# Raw words drawn at once by a packed call (16 MiB); a 512-trial chunk of
# 50 x 100 matrices takes 2 tiles, of 50 x 1000 matrices 13.
_WORD_TILE_BYTES = 1 << 24


def _mulhilo(mul, x):
    """High and low 64-bit words of the 128-bit product mul * x (x uint64)."""
    m_lo, m_hi = np.uint64(mul & 0xFFFFFFFF), np.uint64(mul >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lh, hl = x_lo * m_hi, x_hi * m_lo
    mid = ((x_lo * m_lo) >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    hi = x_hi * m_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, x * np.uint64(mul)


def _philox_words(base_seed, first, count, size):
    """Raw words of trials [first, first + count), computed on all trials at once.

    Trial t's stream is keyed (base_seed, t) and its j-th 4-word block is
    Philox4x64-10 of the counter (j + 1, 0, 0, 0): numpy advances the counter
    before it generates, so a fresh generator's first block is counter 1.
    """
    blocks = -(-size // 4)
    x0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (count, blocks))
    x1 = x2 = x3 = np.zeros((count, blocks), dtype=np.uint64)
    k0 = np.uint64(base_seed)
    k1 = (np.uint64(first) + np.arange(count, dtype=np.uint64))[:, None]
    with np.errstate(over="ignore"):
        for r in range(_PHILOX_ROUNDS):
            if r:
                k0 = k0 + np.uint64(_PHILOX_WEYL[0])
                k1 = k1 + np.uint64(_PHILOX_WEYL[1])
            hi0, lo0 = _mulhilo(_PHILOX_MUL[0], x0)
            hi1, lo1 = _mulhilo(_PHILOX_MUL[1], x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack((x0, x1, x2, x3), axis=2).reshape(count, 4 * blocks)[:, :size]


def _reseated_words(base_seed, first, count, size):
    """Raw words of trials [first, first + count) from one reseated generator."""
    key = np.array([base_seed, 0], dtype=np.uint64)
    bitgen = Philox(key=key)
    state = bitgen.state  # fresh: counter 0, buffer_pos 4; the setter copies key
    state["state"]["key"] = key
    raws = np.empty((count, size), dtype=np.uint64)
    for i in range(count):
        key[1] = first + i
        bitgen.state = state
        raws[i] = bitgen.random_raw(size)
    return raws


def _gaussian_from_raw(raw):
    # 53-bit uniform strictly inside (0, 1), then inverse normal CDF
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def _signs_from_raw(raw):
    return 1.0 - 2.0 * (raw >> _SHIFT63).astype(np.float64)


def sample_matrix(spec: EnsembleSpec, trial_index: int) -> MatrixSample:
    """Draw the m x n matrix for one trial, deterministic in (base_seed, trial_index)."""
    if not 0 <= trial_index <= _U64_MAX:
        raise ValueError("trial_index must fit in an unsigned 64-bit integer")
    return MatrixSample(sample_batch(spec, trial_index, trial_index + 1)[0], spec, trial_index)


def _raw_words(base_seed, first, count, size):
    """Raw words of trials [first, first + count), (count, size), by the faster path."""
    if count == 0:
        return np.empty((0, size), dtype=np.uint64)
    if size <= _VECTOR_WORDS_MAX:
        return _philox_words(base_seed, first, count, size)
    return _reseated_words(base_seed, first, count, size)


def _packed_signs(spec, start, count):
    """Top bits of the raw words of trials [start, start + count) as (count, n, W) words.

    Bit i % 64 of word i // 64 of column j is the top bit of entry (i, j), and
    the unused high bits of the last word are 0.  The raw words are drawn and
    packed _WORD_TILE_BYTES of them at a time, at least one trial per tile.
    """
    m, n = spec.m, spec.n
    words = np.zeros((count, n, -(-m // 64)), dtype=np.uint64)
    step = max(1, _WORD_TILE_BYTES // (m * n * 8))
    for first in range(0, count, step):
        tile = words[first : first + step]
        raws = _raw_words(spec.base_seed, start + first, len(tile), m * n).reshape(len(tile), m, n)
        for i in range(m):
            tile[:, :, i // 64] |= (raws[:, i] >> _SHIFT63) << np.uint64(i % 64)
        del raws  # so that the next tile's words are not drawn beside these
    return words


def sample_batch(spec: EnsembleSpec, start: int, stop: int, packed: bool = False) -> np.ndarray:
    """Stack of matrices for trial indices [start, stop); shape (stop-start, m, n).

    Trial t's entries come from the words of
    ``Philox(key=[base_seed, t]).random_raw(m * n)``, bit for bit, without
    building a generator per trial.  Up to ``_VECTOR_WORDS_MAX`` (64) words
    per trial the Philox4x64-10 rounds run on uint64 arrays over (trials,
    blocks), the first block at counter 1; above it one generator per call is
    reseated to each trial's key through its ``state`` setter.  Equivalent to
    stacking sample_matrix results.

    ``packed=True`` (Bernoulli only) returns the same trials' signs as packed
    bits instead, a (stop-start, n, ceil(m/64)) uint64 array: bit i % 64 of
    word i // 64 of column j is 1 exactly when entry (i, j) is -1/sqrt(m).
    At most ``_WORD_TILE_BYTES`` of raw words are held at once.
    """
    if not 0 <= start <= stop <= _U64_MAX + 1:
        raise ValueError("need 0 <= start <= stop <= 2**64")
    count = stop - start
    if packed:
        if spec.family != "bernoulli":
            raise ValueError(f"packed signs need a Bernoulli spec, got {spec.family!r}")
        return _packed_signs(spec, start, count)
    raws = _raw_words(spec.base_seed, start, count, spec.m * spec.n)
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

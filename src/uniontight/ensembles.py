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
Philox4x64-10 rounds run on uint64 arrays over (4-word blocks, trials), the
first block at counter 1 because numpy advances the counter before it
generates.  The rounds run in place (ufunc ``out=``) on nine such arrays, the
rows of one buffer, so no round allocates.  Above the crossover, one
generator per ``sample_batch`` call is reseated to each trial's key through
its ``state`` setter.  ``sample_batch(..., out=buffer)`` runs every step in a
caller's buffer, the uniform, ``ndtri`` and scale steps (or the sign steps)
over the raw words' own memory, and leaves the entries at its start with the
trial last, so a caller that reuses the buffer allocates nothing per call.

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
# generator.  Interleaved medians of two runs on a 2-vCPU x86-64 host,
# vectorized vs reseated, per 512- and 1,092-trial chunk: 48 words 1.6-1.8 vs
# 2.7-3.0 and 2.1-2.9 vs 3.2-5.8 ms, 64 words 2.0-2.1 vs 3.0 and 2.7-3.6 vs
# 3.4-6.0 ms, 80 words 1.7-2.5 vs 1.7-2.4 and 4.5-5.8 vs 4.1-6.7 ms, 128 words
# 3.1-4.3 vs 2.2-3.6 and 7.1-9.5 vs 4.4-7.8 ms.  At 128 trials a chunk the
# reseated generator is ahead from 48 words on (0.9 vs 0.75 ms), but only runs
# of that few trials get such chunks.
_VECTOR_WORDS_MAX = 64
# Raw words drawn at once by a packed call (16 MiB); a 512-trial chunk of
# 50 x 100 matrices takes 2 tiles, of 50 x 1000 matrices 13.
_WORD_TILE_BYTES = 1 << 24


def _mulhi(mul, x, hi, s0, s1, s2):
    """Write into ``hi`` the high 64-bit words of the 128-bit products mul * x.

    The 32-bit halves carry as t = xl*ml, u = xh*ml + (t >> 32),
    v = xl*mh + (u & L), hi = xh*mh + (u >> 32) + (v >> 32); no term
    overflows 64 bits.  ``hi`` holds xh until its last three steps, and
    ``s0``-``s2`` are scratch arrays of x's shape.
    """
    m_lo, m_hi = np.uint64(mul & 0xFFFFFFFF), np.uint64(mul >> 32)
    x_lo = np.bitwise_and(x, _LOW32, out=s0)
    x_hi = np.right_shift(x, _SHIFT32, out=hi)
    t = np.multiply(x_lo, m_lo, out=s1)
    t >>= _SHIFT32
    u = np.multiply(x_hi, m_lo, out=s2)
    u += t
    v = np.multiply(x_lo, m_hi, out=s0)
    v += np.bitwise_and(u, _LOW32, out=s1)
    u >>= _SHIFT32
    v >>= _SHIFT32
    hi *= m_hi
    hi += u
    hi += v


def _philox_words(base_seed, first, count, size, state=None):
    """Raw words of trials [first, first + count), computed on all trials at once: (count, size).

    Trial t's stream is keyed (base_seed, t) and its j-th 4-word block is
    Philox4x64-10 of the counter (j + 1, 0, 0, 0): numpy advances the counter
    before it generates, so a fresh generator's first block is counter 1.
    The rounds run in place on the nine (blocks, count) rows of ``state``, a
    uint64 buffer of at least 9 * blocks * count words (allocated when None),
    with the trial last: the two high words and three scratch arrays, then the
    four state words.  An even number of rounds leaves the state words in the
    last four rows, so the words are stacked trial-last into the first four,
    dead by then, and returned as the transposed view of those (size, count)
    words.
    """
    blocks = -(-size // 4)
    if state is None:
        state = np.empty(9 * blocks * count, dtype=np.uint64)
    hi0, hi1, *scratch, x1, x3, x0, x2 = state[: 9 * blocks * count].reshape(9, blocks, count)
    x0[...] = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    for word in (x1, x2, x3):
        word.fill(0)
    k0 = np.uint64(base_seed)
    k1 = np.uint64(first) + np.arange(count, dtype=np.uint64)
    mul0, mul1 = (np.uint64(mul) for mul in _PHILOX_MUL)
    with np.errstate(over="ignore"):
        for r in range(_PHILOX_ROUNDS):
            if r:
                k0 = k0 + np.uint64(_PHILOX_WEYL[0])
                k1 += np.uint64(_PHILOX_WEYL[1])
            _mulhi(_PHILOX_MUL[0], x0, hi0, *scratch)
            _mulhi(_PHILOX_MUL[1], x2, hi1, *scratch)
            hi1 ^= x1
            hi1 ^= k0
            hi0 ^= x3
            hi0 ^= k1
            np.multiply(x2, mul1, out=x1)
            np.multiply(x0, mul0, out=x3)
            # the new x0 and x2 are the high words; the old ones take their place
            x0, x2, hi0, hi1 = hi1, hi0, x0, x2
    words = state[: 4 * blocks * count].reshape(blocks, 4, count)
    np.stack((x0, x1, x2, x3), axis=1, out=words)
    return words.reshape(4 * blocks, count)[:size].T


def _reseated_words(base_seed, first, count, size, raws=None):
    """Raw words of trials [first, first + count) from one reseated generator, into ``raws`` (count, size) when given."""
    key = np.array([base_seed, 0], dtype=np.uint64)
    bitgen = Philox(key=key)
    state = bitgen.state  # fresh: counter 0, buffer_pos 4; the setter copies key
    state["state"]["key"] = key
    if raws is None:
        raws = np.empty((count, size), dtype=np.uint64)
    for i in range(count):
        key[1] = first + i
        bitgen.state = state
        raws[i] = bitgen.random_raw(size)
    return raws


def _gaussian_from_raw(raw, out=None):
    """ndtri of the 53-bit uniforms ((raw >> 11) + 0.5) 2^-53, strictly inside (0, 1).

    Without ``out`` each step makes a new array and raw is left as it is;
    with it, raw's own memory viewed as float64, every step is worked there.
    """
    if out is None:
        return ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
    np.right_shift(raw, np.uint64(11), out=raw)
    np.add(raw, 0.5, out=out)
    out *= 2.0**-53
    return ndtri(out, out=out)


def _signs_from_raw(raw, out=None):
    """1 - 2 (raw >> 63): each raw word's top bit as a sign, worked in ``out`` as ``_gaussian_from_raw`` is."""
    if out is None:
        return 1.0 - 2.0 * (raw >> _SHIFT63).astype(np.float64)
    np.right_shift(raw, _SHIFT63, out=raw)
    np.multiply(raw, 2.0, out=out)
    return np.subtract(1.0, out, out=out)


def sample_matrix(spec: EnsembleSpec, trial_index: int) -> MatrixSample:
    """Draw the m x n matrix for one trial, deterministic in (base_seed, trial_index)."""
    if not 0 <= trial_index <= _U64_MAX:
        raise ValueError("trial_index must fit in an unsigned 64-bit integer")
    return MatrixSample(sample_batch(spec, trial_index, trial_index + 1)[0], spec, trial_index)


def sample_words(spec: EnsembleSpec) -> int:
    """Words one trial takes in the ``out`` buffer of ``sample_batch``.

    Nine per 4-word Philox block up to ``_VECTOR_WORDS_MAX`` words a trial,
    the state of the vectorized rounds; above it, the trial's m * n words.
    """
    size = spec.m * spec.n
    return 9 * -(-size // 4) if size <= _VECTOR_WORDS_MAX else size


def _raw_words(base_seed, first, count, size, out=None):
    """Raw words of trials [first, first + count), (count, size), by the faster path.

    With ``out``, a uint64 buffer of at least count * ``sample_words`` words,
    every step runs in it and the words land trial-last at its start: the
    result is the transposed view of those (size, count) words.
    """
    if count == 0:
        return np.empty((0, size), dtype=np.uint64)
    if size <= _VECTOR_WORDS_MAX:
        return _philox_words(base_seed, first, count, size, out)
    raws = None if out is None else out[: size * count].reshape(size, count).T
    return _reseated_words(base_seed, first, count, size, raws)


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


def sample_batch(spec: EnsembleSpec, start: int, stop: int, packed: bool = False, out=None) -> np.ndarray:
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

    ``out``, a float64 buffer of at least (stop-start) * ``sample_words(spec)``
    words, takes every step of the draw, and the entries are a view of its
    start with the trial last: the (stop-start, m, n) result is the axis-0
    view of (m, n, stop-start) contiguous floats, which stay valid until the
    buffer is reused.  Without it the stack is a new contiguous array.
    """
    if not 0 <= start <= stop <= _U64_MAX + 1:
        raise ValueError("need 0 <= start <= stop <= 2**64")
    count = stop - start
    if packed:
        if spec.family != "bernoulli":
            raise ValueError(f"packed signs need a Bernoulli spec, got {spec.family!r}")
        return _packed_signs(spec, start, count)
    transform = _gaussian_from_raw if spec.family == "gaussian" else _signs_from_raw
    scale = entry_scale(spec.m)
    if out is None:
        entries = transform(_raw_words(spec.base_seed, start, count, spec.m * spec.n)) * scale
        return np.ascontiguousarray(entries.reshape(count, spec.m, spec.n))
    raws = _raw_words(spec.base_seed, start, count, spec.m * spec.n, out.view(np.uint64))
    entries = transform(raws, raws.view(np.float64))
    entries *= scale
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

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
generates.  The rounds run in place (ufunc ``out=``) on ten such arrays and a
table of every round's keys, all in one buffer, so no round allocates.  The
first two rounds are mostly per-block constants, worked in closed form; each
later round multiplies x0 and x2 as one two-lane array, so a round is 18
ufunc calls and a whole batch about 170, few enough that two threads
sampling at once seldom wait for each other's interpreter lock.  Above the
crossover, one
generator per ``sample_batch`` call is reseated to each trial's key through
its ``state`` setter.  ``sample_batch(..., out=buffer)`` runs every step in a
caller's buffer, the uniform, ``ndtri`` and scale steps (or the sign steps)
over the raw words' own memory, and leaves the entries at its start with the
trial last.

``sample_batch(..., packed=True)`` returns a Bernoulli batch as its sign bits
instead: each column's m top bits packed into ceil(m/64) uint64 words, from
the same raw words, drawn and packed ``_WORD_TILE_BYTES`` (16 MiB) of
sampler words at a time.  The Bernoulli engine reads these at k <= 2 with
XOR and popcount (``kernels.packed_pair_max``) and builds no float matrix.
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
_SIGN_BIT = np.uint64(1 << 63)  # a raw word's top bit is its Bernoulli sign
_ONE_BITS = np.float64(1.0).view(np.uint64)
# The multipliers of the two lanes of a round, whole and as 32-bit halves, in
# either lane order: [M0, M1] for lanes [x0, x2], [M1, M0] for [x2, x0].
_LANE_MUL = np.array([_PHILOX_MUL, _PHILOX_MUL[::-1]], dtype=np.uint64).reshape(2, 2, 1, 1)
_LANE_MUL_LO = _LANE_MUL & _LOW32
_LANE_MUL_HI = _LANE_MUL >> _SHIFT32
# round r's key bump (r W0, r W1) mod 2^64
_KEY_STEPS = np.array([[r * w % 2**64 for w in _PHILOX_WEYL] for r in range(_PHILOX_ROUNDS)], dtype=np.uint64)
# Most words per trial for which the vectorized rounds beat reseating one
# generator.  Medians of two interleaved runs on a 2-vCPU x86-64 host, one
# thread, per 512- and 1,092-trial chunk (ms, vectorized vs reseated):
#
#   words   512 trials              1,092 trials
#    48     0.69      vs 1.21-1.22  1.34-1.82 vs 3.53-4.73
#    64     0.77-1.11 vs 1.29-1.43  1.71-2.17 vs 2.61-3.67
#    80     0.91-0.95 vs 1.39-1.44  2.23-2.62 vs 2.74-3.94
#    96     1.43-1.70 vs 1.48-2.31  2.70-3.18 vs 2.86-4.16
#   112     1.23-1.25 vs 1.47-1.51  3.32-3.43 vs 2.93-3.01
#   128     1.61-1.63 vs 1.53-1.61  4.04-4.40 vs 3.06-3.83
#   200     3.33-3.52 vs 3.14-3.43  8.86-8.94 vs 6.58-6.73
#
# At 96 words the margin is inside the runs' spread, so the constant stops at
# 80.  At 128 trials a chunk the two tie at 48 words (0.32-0.34 vs 0.31 ms) and
# the reseated generator is ahead from 64 on (0.41-0.58 vs 0.32-0.52 ms, 200
# words 0.66-1.02 vs 0.45-0.78), but only runs of that few trials get such
# chunks.
_VECTOR_WORDS_MAX = 80
# Sampler words (``sample_words``) drawn at once by a packed call (16 MiB); a
# 512-trial chunk of 50 x 100 matrices takes 2 tiles, of 50 x 1000 matrices 13.
_WORD_TILE_BYTES = 1 << 24


def _mulhi(x, m_lo, m_hi, hi, a, b):
    """Write into ``hi`` the high 64-bit words of the 128-bit products x * (m_hi 2^32 + m_lo).

    The 32-bit halves carry as t = xl*ml >> 32, u = xh*ml + t,
    v = xl*mh + (u & L), hi = xh*mh + (u >> 32) + (v >> 32); no term
    overflows 64 bits.  ``a`` and ``b`` are scratch arrays of x's shape, and x
    is only read, so xh is taken from it twice rather than held in a third.
    The halves of m broadcast against x, so one call can multiply two lanes.
    """
    np.bitwise_and(x, _LOW32, out=a)
    np.multiply(a, m_lo, out=b)
    b >>= _SHIFT32
    a *= m_hi
    np.right_shift(x, _SHIFT32, out=hi)
    hi *= m_lo
    b += hi
    a += np.bitwise_and(b, _LOW32, out=hi)
    b >>= _SHIFT32
    a >>= _SHIFT32
    np.right_shift(x, _SHIFT32, out=hi)
    hi *= m_hi
    hi += b
    hi += a


def _philox_words(base_seed, first, count, size, state=None):
    """Raw words of trials [first, first + count), computed on all trials at once: (count, size).

    Trial t's stream is keyed (base_seed, t) and its j-th 4-word block is
    Philox4x64-10 of the counter (j + 1, 0, 0, 0): numpy advances the counter
    before it generates, so a fresh generator's first block is counter 1.
    ``state`` is a uint64 buffer of at least ``sample_words`` words a trial
    (allocated when None): ten (blocks, count) rows with the trial last, two
    scratch lane pairs and three state lane pairs, then every round's keys.

    Rounds 0 and 1 are worked in closed form.  The counter and the key word
    k0 are the same for every trial, so round 0 leaves x0 = k0, x1 = 0, a
    per-block x3 = lo(M0 (j+1)) and x2 = hi(M0 (j+1)) ^ k1, one broadcast
    XOR; round 1 multiplies x2 alone, and its x2 and x3 again take one
    broadcast XOR and one fill.  Rounds 2-9 multiply x0 by M0 and x2 by M1 as
    one (2, blocks, count) lane pair.  The new x0 and x2 come out in the
    opposite lane order to the old, so the multipliers and keys alternate
    with it, and the low products are read back reversed, as a view.  After
    the eighth two-lane round the lanes are in their first order again; the
    words are stacked trial-last into the scratch rows, dead by then, and
    returned as the transposed view of those (size, count) words.
    """
    blocks = -(-size // 4)
    rows = 10 * blocks * count
    if state is None:
        state = np.empty(rows + 2 * _PHILOX_ROUNDS * count, dtype=np.uint64)
    a, b, x, hi, y = state[:rows].reshape(5, 2, blocks, count)
    keys = state[rows : rows + 2 * _PHILOX_ROUNDS * count].reshape(_PHILOX_ROUNDS, 2, 1, count)
    # round r's key lanes are [k1, k0] for even r and [k0, k1] for odd r, as the
    # lane order of its x0 and x2
    first_keys = _KEY_STEPS + np.array([base_seed, first], dtype=np.uint64)  # (k0, k1 of trial first) a round
    pairs = keys.reshape(_PHILOX_ROUNDS // 2, 4, count)
    np.add(first_keys[:, 1].reshape(-1, 2, 1), np.arange(count, dtype=np.uint64), out=pairs[:, ::3])
    pairs[:, 1:3] = first_keys[:, 0].reshape(-1, 2, 1)
    # (hi, lo) of M0 (j + 1) per block, and of M0 k0
    counter = np.array([divmod(_PHILOX_MUL[0] * (j + 1), 2**64) for j in range(blocks)], dtype=np.uint64)
    seed_hi, seed_lo = divmod(_PHILOX_MUL[0] * int(base_seed), 2**64)
    # round 0: x2 = hi(M0 (j+1)) ^ k1; round 1 multiplies it by M1 in y[0]
    np.bitwise_xor(counter[:, :1], keys[0, 0], out=y[0])
    _mulhi(y[0], _LANE_MUL_LO[0, 1], _LANE_MUL_HI[0, 1], x[0], a[0], b[0])
    x[0] ^= first_keys[1, 0]
    np.bitwise_xor(counter[:, 1:] ^ np.uint64(seed_hi), keys[1, 1], out=x[1])
    y[0] *= _LANE_MUL[0, 1]
    y[1].fill(seed_lo)
    # x holds [x0, x2] and y [x1, x3]; each round flips both lane orders
    for r in range(2, _PHILOX_ROUNDS):
        order = r % 2
        _mulhi(x, _LANE_MUL_LO[order], _LANE_MUL_HI[order], hi, a, b)
        hi ^= y[::-1]
        hi ^= keys[r]
        x *= _LANE_MUL[order]
        x, hi, y = hi, y, x
    words = state[: 4 * blocks * count].reshape(blocks, 4, count)
    np.stack((x[0], y[0], x[1], y[1]), axis=1, out=words)
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
    with it, raw's own memory viewed as float64, every step is worked there,
    though numpy copies raw for the cast, since out overlaps it.
    """
    if out is None:
        return ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
    np.right_shift(raw, np.uint64(11), out=raw)
    np.add(raw, 0.5, out=out)
    out *= 2.0**-53
    return ndtri(out, out=out)


def _signs_from_raw(raw, out=None):
    """1 - 2 (raw >> 63), worked in ``out`` as ``_gaussian_from_raw`` is: the top bit as the sign bit of 1.0, no cast."""
    bits = np.bitwise_and(raw, _SIGN_BIT, out=None if out is None else raw)
    bits |= _ONE_BITS
    return bits.view(np.float64)


def sample_matrix(spec: EnsembleSpec, trial_index: int) -> MatrixSample:
    """Draw the m x n matrix for one trial, deterministic in (base_seed, trial_index)."""
    if not 0 <= trial_index <= _U64_MAX:
        raise ValueError("trial_index must fit in an unsigned 64-bit integer")
    return MatrixSample(sample_batch(spec, trial_index, trial_index + 1)[0], spec, trial_index)


def sample_words(spec: EnsembleSpec) -> int:
    """Words one trial takes in the ``out`` buffer of ``sample_batch``.

    Up to ``_VECTOR_WORDS_MAX`` words a trial, ten per 4-word Philox block
    and two per round, the state and keys of the vectorized rounds; above it,
    the trial's m * n words.
    """
    size = spec.m * spec.n
    return 10 * -(-size // 4) + 2 * _PHILOX_ROUNDS if size <= _VECTOR_WORDS_MAX else size


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
    packed a tile of trials at a time, at least one, whose ``sample_words``
    take at most _WORD_TILE_BYTES.
    """
    m, n = spec.m, spec.n
    words = np.zeros((count, n, -(-m // 64)), dtype=np.uint64)
    step = max(1, _WORD_TILE_BYTES // (sample_words(spec) * 8))
    for first in range(0, count, step):
        tile = words[first : first + step]
        raws = _raw_words(spec.base_seed, start + first, len(tile), m * n).reshape(len(tile), m, n)
        for i in range(m):
            tile[:, :, i // 64] |= (raws[:, i] & _SIGN_BIT) >> np.uint64(63 - i % 64)
        del raws  # so that the next tile's words are not drawn beside these
    return words


def sample_batch(spec: EnsembleSpec, start: int, stop: int, packed: bool = False, out=None) -> np.ndarray:
    """Stack of matrices for trial indices [start, stop); shape (stop-start, m, n).

    Trial t's entries come from the words of
    ``Philox(key=[base_seed, t]).random_raw(m * n)``, bit for bit, without
    building a generator per trial.  Up to ``_VECTOR_WORDS_MAX`` (80) words
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

"""Subset kernels, read from Gram matrices or, for Bernoulli pairs and columns, from sign bits.

A kernel is a column-permutation-invariant function of an m x k column
submatrix A_S.  Every kernel is evaluated from the Gram matrix G = A^T A
(Bernoulli kernels at k <= 2 in the Monte-Carlo engine from its integer
entries, see "Packed signs" below):
``gram_stack`` builds one n x n Gram per matrix, the eigen kernels take the
extreme eigenvalues of its k x k blocks G[S, S] (``gram_extremes``; at k = 2
the closed form ``pair_extremes``), and every column pair is read one way,
from G_ii, G_jj and G_ij alone (``_pair_kernel``): the coherence
|G_ij| / sqrt(G_ii G_jj) and the eigen kernels' closed form, worked in place.
``pair_values`` reads listed pairs of whole Grams, and ``gram_pair_max`` the
max over every pair (or, at k = 1, column) of a caller's whole Grams, from
index tiles.  The single-submatrix functions are thin wrappers over the same
primitives.  Every stack's Grams have one layout, an (n, n, B) table with
the trial last read through its (B, n, n) view, from ``gram_stack``, in a
new array or a worker's arena.  A non-lattice entry G_ij sums the row
products in row order, so its bits do not depend on the columns beside it.

Pairs without a Gram: the Monte-Carlo engine reads a Gaussian chunk's max at
k <= 2 with ``pair_max``, from its entries with the trial last, each entry
summed in the same row order: over the pair-only Gram table of a chunk of
many trials, or a trial and a tile of column blocks at a time in a chunk of
few, wide trials.

Four variants are supported:

- ``ric``:              max(sigma2_max - 1, 1 - sigma2_min), the restricted-
                        isometry kernel (its max over subsets is the RIC for
                        unit-norm columns)
- ``sigma_max_sq``:     largest squared singular value
- ``neg_sigma_min_sq``: negated smallest squared singular value, so that
                        exceedance {value > t} at t = -a is the event
                        {sigma2_min < a}
- ``coherence``:        normalized absolute inner product of two columns
                        (k = 2 only)

Indicators are strict: 1{value > a}, ties resolved as 0.

Exact lattice: a matrix whose entries all have magnitude
``ensembles.entry_scale(m)`` (the Bernoulli ensemble) is read as the exact
+-1/sqrt(m) matrix.  Its Gram is built from the signs S as (S^T S) / m; the
+-1 products and their sums are exact in float64, so every Gram entry is the
correctly rounded lattice value j/m, every diagonal entry is exactly 1, and
the coherence of a pair is exactly fl(|j|/m).  A threshold a = j/m is then a
true tie and resolves as 0.

Packed signs: the Monte-Carlo engine reads every Bernoulli kernel at k <= 2
without any Gram.  For columns packed as sign bits (``sample_batch(...,
packed=True)``) the inner product of two columns is J = m - 2 d, where d is
the Hamming distance (popcount of the XOR) of their bits, and their lattice
Gram is [[1, J/m], [J/m, 1]]: ``packed_pair_values`` and ``packed_pair_max``
give the same floats as the lattice Gram path.  Matrices passed in by
callers (``subset_values``, ``max_over_subsets``) keep that path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ensembles import entry_scale

VARIANTS = ("ric", "sigma_max_sq", "neg_sigma_min_sq", "coherence")


@dataclass(frozen=True)
class KernelId:
    """Which subset function is evaluated."""

    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}; expected one of {VARIANTS}")

    @property
    def needs_pair(self):
        return self.variant == "coherence"


RIC = KernelId("ric")
SIGMA_MAX_SQ = KernelId("sigma_max_sq")
NEG_SIGMA_MIN_SQ = KernelId("neg_sigma_min_sq")
COHERENCE = KernelId("coherence")

_FIRST_PAIR = np.array([[0, 1]])
_PAIR_TILE_BYTES = 1 << 18  # a tile of pair entries read at once from whole Grams or a wide trial


def _checked(a_sub):
    a = np.asarray(a_sub, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("submatrix must be a nonempty 2-d array")
    if not np.all(np.isfinite(a)):
        raise ValueError("submatrix contains non-finite entries")
    return a


def gram_stack(mats: np.ndarray, out=None) -> np.ndarray:
    """Gram matrices A^T A of a (B, m, c) stack of matrices -> (B, c, c), the axis-0 view of (c, c, B) memory.

    A stack whose entries all have magnitude entry_scale(m) gets the exact
    lattice Gram (S^T S) / m of its signs S, taken over the entries when
    ``out`` (at least B c (c + 1) words) is given; any other stack goes
    through ``trial_last_grams``.
    """
    count, m, c = mats.shape
    scale = entry_scale(m)
    entries = np.moveaxis(mats, 0, -1)
    # the scalar test rejects Gaussian stacks without a pass over the array,
    # and the counts hold one byte an entry at a time
    if abs(mats.flat[0]) != scale or np.count_nonzero(mats == scale) + np.count_nonzero(mats == -scale) != mats.size:
        return trial_last_grams(entries, out)
    # trial-last signs: the batched product is fast on whole trial rows, and its integer sums are exact
    signs = np.moveaxis(np.copysign(1.0, entries, out=None if out is None else entries, order="C"), -1, 0)
    grams = np.moveaxis(np.empty((c, c, count)) if out is None else out[: c * c * count].reshape(c, c, count), -1, 0)
    np.matmul(np.swapaxes(signs, -1, -2), signs, out=grams)
    return np.divide(grams, m, out=grams)


def trial_last_grams(entries: np.ndarray, out=None) -> np.ndarray:
    """Gram matrices of a trial-last stack (m, c, B) of non-lattice floats -> (B, c, c), the axis-0 view of (c, c, B) memory.

    Every entry sums the row products in row order 0..m-1, so a subset's
    Gram is its block of the full Gram, bit for bit.  Without ``out`` the
    sum takes a row of the matrices at a time, 2m calls over (c, c, B).
    ``out``, at least B c (c + 1) float64 words, takes the Grams and then a
    (c, B) scratch, and the sum takes a column at a time, c (2m - 1) calls.
    """
    _, c, count = entries.shape
    if out is None:
        # C order: on the axis-0 view of a (B, m, n) stack numpy would put the trials first
        grams = np.multiply(entries[0][:, None], entries[0][None, :], order="C")
        part = np.empty_like(grams)
        for row in entries[1:]:
            grams += np.multiply(row[:, None], row[None, :], out=part)
        return np.moveaxis(grams, -1, 0)
    grams = out[: c * c * count].reshape(c, c, count)
    part = out[c * c * count :][: c * count].reshape(c, count)
    for i, column in enumerate(grams):
        np.multiply(entries[0, i], entries[0], out=column)
        for row in entries[1:]:
            column += np.multiply(row[i], row, out=part)
    return np.moveaxis(grams, -1, 0)


def gram_extremes(grams: np.ndarray, rows=None):
    """(min, max) eigenvalues of a stack of symmetric PSD Gram matrices.

    Uses the closed-form 2x2 solution when k <= 2, symmetric eigendecomposition
    otherwise.  Round-off below zero is clamped at 0.  ``rows`` is the row
    count m of the matrices the k x k Grams come from: when k > m the minimum
    is exactly 0 by rank deficiency, whatever the round-off.
    """
    g = np.asarray(grams, dtype=np.float64)
    k = g.shape[-1]
    if k == 1:
        v = np.maximum(g[..., 0, 0], 0.0)
        return v, v
    if k == 2:  # copies: pair_extremes overwrites its arguments
        smin, smax = pair_extremes(g[..., 0, 0].copy(), g[..., 1, 1].copy(), g[..., 0, 1].copy())
    else:
        w = np.linalg.eigvalsh(g)
        smin, smax = np.maximum(w[..., 0], 0.0), np.maximum(w[..., -1], 0.0)
    if rows is not None and k > rows:
        smin = np.zeros_like(smin)
    return smin, smax


def pair_extremes(gii, gjj, gij):
    """(min, max) eigenvalues of the 2 x 2 Grams [[gii, gij], [gij, gjj]], clamped at 0.

    The closed form (gii + gjj)/2 -+ sqrt((gii - gjj)^2 + 4 gij^2)/2, worked
    in place: the three float64 arrays, distinct and of one shape, are
    overwritten, and only one more of their size is allocated.  Each rounding
    step is that of 0.5 * (gii + gjj) -+ 0.5 * sqrt((gii - gjj) ** 2 + 4.0 * gij ** 2).
    """
    half_disc = np.subtract(gii, gjj)
    np.square(half_disc, out=half_disc)
    np.square(gij, out=gij)
    gij *= 4.0
    half_disc += gij
    np.sqrt(half_disc, out=half_disc)
    half_disc *= 0.5
    half_tr = np.add(gii, gjj, out=gii)
    half_tr *= 0.5
    smin = np.subtract(half_tr, half_disc, out=gjj)
    smax = np.add(half_tr, half_disc, out=half_tr)
    return np.maximum(smin, 0.0, out=smin), np.maximum(smax, 0.0, out=smax)


def _pair_kernel(kernel: KernelId, gii, gjj, gij, rows=None):
    """Kernel values of column pairs from their Gram entries, worked in place.

    gii, gjj and gij: distinct float64 arrays of one shape, all overwritten;
    the values come back in one of them.  The coherence |G_ij| / sqrt(G_ii
    G_jj) is left unclipped.  The eigen kernels take ``pair_extremes`` and
    then the steps of ``spectral_value``; at a row count ``rows`` (m) below
    2, sigma2_min is exactly +0.0, as ``gram_extremes(rows=1)`` has it.
    """
    if kernel.needs_pair:
        values = np.abs(gij, out=gij)
        values /= np.sqrt(np.multiply(gii, gjj, out=gii), out=gii)
        return values
    smin, smax = pair_extremes(gii, gjj, gij)
    if rows is not None and rows < 2:
        smin[...] = 0.0
    if kernel.variant == "sigma_max_sq":
        return smax
    if kernel.variant == "neg_sigma_min_sq":
        return np.negative(smin, out=smin)
    np.subtract(smax, 1.0, out=smax)
    np.subtract(1.0, smin, out=smin)
    return np.maximum(smax, smin, out=smax)


def _check_pair_kernel(kernel: KernelId, k, diag):
    if kernel.needs_pair:
        if k != 2:
            raise ValueError("coherence kernel requires k = 2")
        if not diag.all():
            raise ValueError("degenerate input: coherence kernel needs nonzero columns")


def pair_values(grams: np.ndarray, kernel: KernelId, pairs: np.ndarray, rows=None) -> np.ndarray:
    """Kernel values of listed column pairs, read from G_ii, G_jj and G_ij of whole Grams.

    grams: (B, n, n) in any layout, such as the trial-last view gram_stack
    returns; pairs: (P, 2) int array -> (B, P).  Memory is O(B (n^2 + P));
    no 2 x 2 block is gathered.  The values are those of ``_pair_kernel``,
    the coherence clipped at 1.
    """
    diag = np.diagonal(grams, axis1=-2, axis2=-1)
    _check_pair_kernel(kernel, pairs.shape[1], diag)
    i, j = pairs[:, 0], pairs[:, 1]
    values = _pair_kernel(kernel, diag[:, i], diag[:, j], grams[:, i, j], rows)
    return np.minimum(values, 1.0, out=values) if kernel.needs_pair else values


def _upper(op, x, out):
    """out <- op(x[i], x[j]) for every pair i < j of the rows of x, in enumeration order; returns out."""
    at, n = 0, len(x)
    for i in range(n - 1):
        op(x[i], x[i + 1 :], out=out[at : at + n - 1 - i])
        at += n - 1 - i
    return out


def pair_words(m, n, k, table):
    """Words a trial takes in the ``out`` buffer of ``pair_max``, beyond its m n entries, which it also overwrites.

    The diagonal and a scratch row per column; with ``table`` (k = 2) the
    n(n-1)/2 pair rows as well, a scratch of as many rows, and a second
    one, which sits in the entries when they hold as many words.
    """
    if k == 1 or not table:
        return 2 * n
    pairs = n * (n - 1) // 2
    return n + pairs + max(pairs, n) + (pairs if pairs > m * n else 0)


def pair_max(entries: np.ndarray, kernel: KernelId, k, rows, out: np.ndarray, table: bool) -> np.ndarray:
    """Per-trial max kernel value over all column pairs (k = 2) or columns (k = 1) -> (B,), with no n x n Gram.

    entries: (m, n, B) contiguous floats, the trial last, overwritten; out:
    a float64 buffer of at least B * ``pair_words(m, n, k, table)`` words.
    Each Gram entry sums the row products in row order 0..m-1, as
    ``trial_last_grams`` does, so its bits are those of the full Gram's entry.

    The diagonal G_ii is an (n, B) table.  With ``table``, the pair-only
    Gram table holds every G_ij, i < j, as an (n(n-1)/2, B) row in
    enumeration order, built a row of the matrices at a time by one multiply
    per column i over the columns after it.  ``_pair_kernel`` then runs
    once over the whole table, G_ii and G_jj gathered beside it, and the max
    is taken over its rows: every call works on long contiguous trial rows,
    which pays when a chunk holds many trials.  Without it, each trial is
    read a tile of column blocks at a time (``_tiled_max``), which pays when
    a chunk holds few, wide trials.  The values are bit for bit those of
    ``pair_values`` over every pair (k = 2) or of ``gram_extremes`` over
    every column (k = 1).
    """
    m, n, count = entries.shape
    pairs = n * (n - 1) // 2 if k == 2 and table else 0
    diag = out[: n * count].reshape(n, count)
    gij = out[n * count :][: pairs * count].reshape(pairs, count)
    work = out[(n + pairs) * count :][: max(pairs, n) * count]
    gjj, part = work[: pairs * count].reshape(pairs, count), work[: n * count].reshape(n, count)
    if pairs:
        _upper(np.multiply, entries[0], gij)
        for row in entries[1:]:
            gij += _upper(np.multiply, row, gjj)
    np.multiply(entries[0], entries[0], out=diag)
    for row in entries[1:]:
        diag += np.multiply(row, row, out=part)
    _check_pair_kernel(kernel, k, diag)
    if k == 1:
        values = np.maximum(diag, 0.0, out=diag)  # gram_extremes at k = 1
        return spectral_value(kernel, values, values).max(axis=0)
    if not pairs:
        # a trial at a time: with the trial last, a tile's rows would be a few trials long
        buffers = np.empty((3, min(n, math.isqrt(_PAIR_TILE_BYTES // 8)) ** 2))
        top = np.array([_tiled_max(kernel, entries[:, :, t], diag[:, t], rows, buffers) for t in range(count)])
        return _clip_coherence(kernel, top)
    # the entries are dead once the table is built: the second scratch sits there when it fits
    spare = entries.reshape(-1) if entries.size >= gij.size else out[(n + pairs + max(pairs, n)) * count :]
    gii = spare[: gij.size].reshape(gij.shape)
    i, j = np.triu_indices(n, 1)
    # every index is in range by construction; take's default mode="raise"
    # would fill a temporary of the output's size and copy it into out
    np.take(diag, i, axis=0, out=gii, mode="clip")
    np.take(diag, j, axis=0, out=gjj, mode="clip")
    return _clip_coherence(kernel, _pair_kernel(kernel, gii, gjj, gij, rows).max(axis=0))


def _clip_coherence(kernel: KernelId, top):
    """The max clipped at 1 for the coherence, whose values are clipped at 1 one by one."""
    return np.minimum(top, 1.0, out=top) if kernel.needs_pair else top


def _tiled_max(kernel: KernelId, mats, diag, rows, buffers):
    """Max kernel value over all pairs i < j of one matrix (m, n), coherence unclipped, a tile of its Gram at a time.

    diag: (n,) its G_ii.  The tiles walk column-block pairs I <= J of up to
    _PAIR_TILE_BYTES each, in three flat buffers of that size; each tile sums
    the row products in row order, and its pairs j <= i, on a diagonal tile,
    are set to -inf before its max.
    """
    n, step = len(diag), math.isqrt(buffers.shape[1])
    top = -np.inf
    for lo in range(0, n - 1, step):
        rows_i = slice(lo, min(lo + step, n))
        for start in range(lo, n, step):
            cols_j = slice(start, min(start + step, n))
            shape = (rows_i.stop - lo, cols_j.stop - start)
            gij, gii, gjj = (buffer[: shape[0] * shape[1]].reshape(shape) for buffer in buffers)
            np.multiply(mats[0, rows_i, None], mats[0, None, cols_j], out=gij)
            for row in mats[1:]:
                gij += np.multiply(row[rows_i, None], row[None, cols_j], out=gii)
            np.copyto(gii, diag[rows_i, None])
            np.copyto(gjj, diag[None, cols_j])
            values = _pair_kernel(kernel, gii, gjj, gij, rows)
            if start == lo:
                np.copyto(values, -np.inf, where=np.tri(shape[0], dtype=bool))
            top = np.maximum(top, values.max())
    return top


def gram_pair_max(grams: np.ndarray, kernel: KernelId, k, rows=None) -> np.ndarray:
    """Per-matrix max kernel value over all column pairs (k = 2) or columns (k = 1) of whole Grams -> (B,).

    grams: (B, n, n) as for ``pair_values``, which reads the pairs
    in enumeration order, _PAIR_TILE_BYTES of each of its three gathered
    (matrices, pairs) arrays at a time, from index arrays, not from a
    subset stream.  Bit for bit the max of ``pair_values`` over every pair
    i < j, or of ``gram_extremes`` over every column.
    """
    count, n = grams.shape[0], grams.shape[-1]
    diag = np.diagonal(grams, axis1=-2, axis2=-1)
    _check_pair_kernel(kernel, k, diag)
    if k == 1:
        values = np.maximum(diag, 0.0)  # gram_extremes at k = 1
        return spectral_value(kernel, values, values).max(axis=1)
    pairs = np.column_stack(np.triu_indices(n, 1))
    step = max(1, _PAIR_TILE_BYTES // (8 * count))
    parts = (pair_values(grams, kernel, pairs[lo : lo + step], rows).max(axis=1) for lo in range(0, len(pairs), step))
    return functools.reduce(np.maximum, parts)


def _distances(diff):
    """Hamming distances of XORed packed sign words (..., W) -> (...)."""
    counts = np.bitwise_count(diff)
    # one word per column (m <= 64) needs no sum, and stays uint8
    return counts[..., 0] if counts.shape[-1] == 1 else counts.sum(axis=-1, dtype=np.int64)


def _lattice_pair_values(kernel: KernelId, inner, m):
    """Kernel values of lattice pairs from their integer inner products J: ``_pair_kernel`` at (1, 1, fl(|J|/m)).

    A pair's lattice Gram [[1, J/m], [J/m, 1]] is exact but for fl(J/m), no
    step of the kernel reads the sign of J, and no coherence exceeds 1.
    """
    gij = np.abs(inner) / m
    return _pair_kernel(kernel, np.ones_like(gij), np.ones_like(gij), gij, m)


def packed_pair_values(words: np.ndarray, kernel: KernelId, pairs: np.ndarray, m: int) -> np.ndarray:
    """Kernel values of listed column pairs (k = 2) or columns (k = 1) of packed signs -> (B, P).

    words: (B, n, W) from ``sample_batch(..., packed=True)``; pairs: (P, k).
    With d the Hamming distance of two columns' sign bits, m - 2 d is their
    integer inner product.  A lattice column's Gram is exactly 1, so at
    k = 1 every value is ``spectral_value`` at (1, 1).
    """
    k = pairs.shape[1]
    if kernel.needs_pair and k != 2:
        raise ValueError("coherence kernel requires k = 2")
    if k == 1:
        return np.full((len(words), len(pairs)), spectral_value(kernel, 1.0, 1.0))
    d = _distances(words[:, pairs[:, 0]] ^ words[:, pairs[:, 1]])
    return _lattice_pair_values(kernel, m - 2 * d.astype(np.int64), m)


def packed_pair_max(words: np.ndarray, kernel: KernelId, k, m: int) -> np.ndarray:
    """Per-trial max kernel value over all column pairs (k = 2) or columns (k = 1) of packed signs -> (B,).

    words: (B, n, W) from ``sample_batch(..., packed=True)``.  One loop over
    columns i XORs column i with the columns after it and keeps each trial's
    running min and max Hamming distance d; the max of |J| = |m - 2 d| over
    pairs is max(m - 2 min d, 2 max d - m).  Each step of
    ``_lattice_pair_values``, fl(|J|/m) and then those of ``pair_extremes``
    and the kernel, is correctly rounded and monotone in |J|, so the max
    over pairs is its value at the max |J|: bit for bit ``gram_pair_max`` of
    the lattice Grams.
    """
    count, n = words.shape[:2]
    if kernel.needs_pair and k != 2:
        raise ValueError("coherence kernel requires k = 2")
    if k == 1:
        return np.full(count, spectral_value(kernel, 1.0, 1.0))
    if n < 2:
        raise ValueError("a pair kernel needs at least two columns")
    # (n, B, W): each column's words for every trial in one contiguous block
    cols = np.ascontiguousarray(np.swapaxes(words, 0, 1))
    lo, hi = np.full(count, m, dtype=np.int64), np.zeros(count, dtype=np.int64)
    for i in range(n - 1):
        d = _distances(cols[i + 1 :] ^ cols[i])
        np.minimum(lo, d.min(axis=0), out=lo)
        np.maximum(hi, d.max(axis=0), out=hi)
    return _lattice_pair_values(kernel, np.maximum(m - 2 * lo, 2 * hi - m), m)


def spectral_value(kernel: KernelId, smin, smax):
    """Eigen-kernel value from the squared singular extremes of a subset."""
    if kernel.variant == "sigma_max_sq":
        return smax
    if kernel.variant == "neg_sigma_min_sq":
        return -smin
    return np.maximum(smax - 1.0, 1.0 - smin)


def squared_singular_extremes(a_sub) -> tuple[float, float]:
    """(sigma2_min, sigma2_max) of a submatrix; sigma2_min is 0 when k > m."""
    a = _checked(a_sub)
    smin, smax = gram_extremes(gram_stack(a[None]), rows=a.shape[0])
    return float(smin[0]), float(smax[0])


def ric_kernel(a_sub) -> float:
    """Restricted-isometry kernel max(sigma2_max - 1, 1 - sigma2_min); always >= 0."""
    return kernel_value(RIC, a_sub)


def coherence_kernel(a_sub) -> float:
    """|a1.a2| / (||a1|| ||a2||) for an m x 2 submatrix; in [0, 1] by Cauchy-Schwarz."""
    a = _checked(a_sub)
    if a.shape[1] != 2:
        raise ValueError("coherence kernel requires exactly 2 columns")
    return float(pair_values(gram_stack(a[None]), COHERENCE, _FIRST_PAIR)[0, 0])


def kernel_value(kernel: KernelId, a_sub) -> float:
    """Evaluate one kernel variant on one submatrix."""
    if kernel.needs_pair:
        return coherence_kernel(a_sub)
    return float(spectral_value(kernel, *squared_singular_extremes(a_sub)))


def indicator(kernel: KernelId, a_sub, a: float) -> int:
    """Strict exceedance indicator 1{kernel_value(a_sub) > a}.

    For ``neg_sigma_min_sq`` the kernel value is -sigma2_min, so passing the
    negated threshold a = -a0 tests the event {sigma2_min < a0}.
    """
    return int(kernel_value(kernel, a_sub) > a)

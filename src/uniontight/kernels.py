"""Subset kernels, read from Gram matrices or, for Bernoulli coherence, from sign bits.

A kernel is a column-permutation-invariant function of an m x k column
submatrix A_S.  Every kernel is evaluated from the Gram matrix G = A^T A
(Bernoulli coherence in the Monte-Carlo engine from its integer entries, see
"Packed signs" below):
``gram_stack`` builds one n x n Gram per matrix, the eigen kernels take the
extreme eigenvalues of its k x k blocks G[S, S] (``gram_extremes``), and the
coherence kernel reads |G_ij| / sqrt(G_ii G_jj) (``gram_coherence``).  The
max of the coherence over all pairs (``gram_mutual_coherence``) is read from
tiles of whole Grams, with no pair gathered.  The single-submatrix functions
are thin wrappers over the same primitives.

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

Packed signs: the Monte-Carlo engine reads Bernoulli coherence without any
Gram.  For columns packed as sign bits (``sample_batch(..., packed=True)``)
the inner product of two columns is m - 2 d, where d is the Hamming distance
(popcount of the XOR) of their bits, so ``packed_coherence`` and
``packed_mutual_coherence`` give fl(|m - 2 d| / m), the same floats as the
lattice Gram path.  The eigen kernels keep the float Gram: a popcount Gram
expanded to float was slower there.  Matrices passed in by callers
(``subset_values``, ``max_over_subsets``) keep the lattice Gram path.
"""

from __future__ import annotations

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
_GRAM_TILE_BYTES = 1 << 18  # Gaussian Grams are summed a cache-sized tile at a time


def _checked(a_sub):
    a = np.asarray(a_sub, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("submatrix must be a nonempty 2-d array")
    if not np.all(np.isfinite(a)):
        raise ValueError("submatrix contains non-finite entries")
    return a


def gram_stack(mats: np.ndarray) -> np.ndarray:
    """Gram matrices A^T A of a (B, m, n) stack of matrices; shape (B, n, n).

    A stack whose entries all have magnitude entry_scale(m) gets the exact
    lattice Gram (S^T S) / m built from its signs S (see the module notes).
    Any other stack sums the row outer products in row order 0..m-1, so an
    entry's rounding does not depend on which or how many columns the stack
    holds: a subset's Gram is the same bits as its block of the full Gram.
    """
    m = mats.shape[-2]
    scale = entry_scale(m)
    # the scalar test rejects Gaussian stacks without a pass over the array
    if abs(mats.flat[0]) == scale and np.all(np.abs(mats) == scale):
        signs = np.sign(mats)
        # the batched matmul runs faster on a contiguous left factor; the sums stay exact
        grams = np.matmul(np.ascontiguousarray(np.swapaxes(signs, -1, -2)), signs)
        grams /= m
        return grams
    # a tile of matrices at a time keeps the running sums in cache
    count, n = mats.shape[0], mats.shape[-1]
    grams = np.empty((count, n, n))
    step = max(1, _GRAM_TILE_BYTES // (n * n * 8))
    term = np.empty((min(step, count), n, n))
    for start in range(0, count, step):
        rows = np.swapaxes(mats[start : start + step], 0, 1)
        tile, part = grams[start : start + step], term[: rows.shape[1]]
        np.multiply(rows[0][:, :, None], rows[0][:, None, :], out=tile)
        for row in rows[1:]:
            tile += np.multiply(row[:, :, None], row[:, None, :], out=part)
    return grams


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
    if k == 2:
        gii, gjj, gij = g[..., 0, 0], g[..., 1, 1], g[..., 0, 1]
        half_tr = 0.5 * (gii + gjj)
        half_disc = 0.5 * np.sqrt((gii - gjj) ** 2 + 4.0 * gij**2)
        smin, smax = np.maximum(half_tr - half_disc, 0.0), np.maximum(half_tr + half_disc, 0.0)
    else:
        w = np.linalg.eigvalsh(g)
        smin, smax = np.maximum(w[..., 0], 0.0), np.maximum(w[..., -1], 0.0)
    if rows is not None and k > rows:
        smin = np.zeros_like(smin)
    return smin, smax


def gram_coherence(grams: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Coherence |G_ij| / sqrt(G_ii G_jj), clipped at 1, of listed column pairs.

    grams: (B, n, n) from gram_stack; pairs: (P, 2) int array -> (B, P).
    Memory is O(B (n^2 + P)); no column is gathered.
    """
    if pairs.shape[1] != 2:
        raise ValueError("coherence kernel requires k = 2")
    diag = np.diagonal(grams, axis1=-2, axis2=-1)
    if np.any(diag == 0.0):
        raise ValueError("degenerate input: coherence kernel needs nonzero columns")
    i, j = pairs[:, 0], pairs[:, 1]
    values = np.abs(grams[:, i, j])
    norms = diag[:, i] * diag[:, j]
    values /= np.sqrt(norms, out=norms)
    return np.minimum(values, 1.0, out=values)


def gram_mutual_coherence(grams: np.ndarray) -> np.ndarray:
    """Coherence max over all column pairs of each Gram, clipped at 1; shape (B,).

    Bit for bit gram_coherence(grams, pairs).max(axis=1) over all pairs i < j
    for the exactly symmetric Grams of gram_stack.  No pair is gathered: a
    tile of _GRAM_TILE_BYTES of Grams at a time is normalized whole, with the
    same floats as gram_coherence, its diagonal zeroed and its max taken.
    """
    count, n = grams.shape[0], grams.shape[-1]
    diag = np.diagonal(grams, axis1=-2, axis2=-1)
    if np.any(diag == 0.0):
        raise ValueError("degenerate input: coherence kernel needs nonzero columns")
    top = np.empty(count)
    step = max(1, _GRAM_TILE_BYTES // (n * n * 8))
    values, norms = np.empty((2, min(step, count), n, n))
    for start in range(0, count, step):
        tile, d = grams[start : start + step], diag[start : start + step]
        part = np.abs(tile, out=values[: len(tile)])
        norm = np.multiply(d[:, :, None], d[:, None, :], out=norms[: len(tile)])
        part /= np.sqrt(norm, out=norm)
        flat = part.reshape(len(tile), n * n)
        flat[:, :: n + 1] = 0.0
        flat.max(axis=1, out=top[start : start + step])
    return np.minimum(top, 1.0, out=top)


def _distances(diff):
    """Hamming distances of XORed packed sign words (..., W) -> (...)."""
    counts = np.bitwise_count(diff)
    # one word per column (m <= 64) needs no sum, and stays uint8
    return counts[..., 0] if counts.shape[-1] == 1 else counts.sum(axis=-1, dtype=np.int64)


def packed_coherence(words: np.ndarray, m: int, pairs: np.ndarray) -> np.ndarray:
    """Coherence |m - 2 d| / m, clipped at 1, of listed column pairs of packed signs.

    words: (B, n, W) from ``sample_batch(..., packed=True)``; pairs: (P, 2)
    int array -> (B, P).  d is the Hamming distance between the two columns'
    sign bits, so m - 2 d is their exact integer inner product and the value
    is bit for bit gram_coherence of the lattice Gram.
    """
    if pairs.shape[1] != 2:
        raise ValueError("coherence kernel requires k = 2")
    d = _distances(words[:, pairs[:, 0]] ^ words[:, pairs[:, 1]])
    values = np.abs(m - 2 * d.astype(np.int64)) / m
    return np.minimum(values, 1.0, out=values)


def packed_mutual_coherence(words: np.ndarray, m: int) -> np.ndarray:
    """Coherence max over all column pairs of packed signs, clipped at 1; shape (B,).

    words: (B, n, W) from ``sample_batch(..., packed=True)``.  One loop over
    columns i XORs column i with the columns after it and keeps each trial's
    running min and max Hamming distance d; the max of |m - 2 d| over pairs
    is max(m - 2 min d, 2 max d - m).  Divided by m once, it is bit for bit
    gram_mutual_coherence of the lattice Grams, with no Gram built.
    """
    count, n = words.shape[:2]
    if n < 2:
        raise ValueError("coherence kernel needs at least two columns")
    # (n, B, W): each column's words for every trial in one contiguous block
    cols = np.ascontiguousarray(np.swapaxes(words, 0, 1))
    lo, hi = np.full(count, m, dtype=np.int64), np.zeros(count, dtype=np.int64)
    for i in range(n - 1):
        d = _distances(cols[i + 1 :] ^ cols[i])
        np.minimum(lo, d.min(axis=0), out=lo)
        np.maximum(hi, d.max(axis=0), out=hi)
    top = np.maximum(m - 2 * lo, 2 * hi - m) / m
    return np.minimum(top, 1.0, out=top)


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
    return float(gram_coherence(gram_stack(a[None]), _FIRST_PAIR)[0, 0])


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

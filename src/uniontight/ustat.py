"""Exact U-statistics over size-k column subsets and the Monte-Carlo tail engine.

The U-statistic of a sampled matrix is the average of a strict exceedance
indicator over all C(n, k) column subsets; it is zero exactly when the
max-over-subsets statistic stays at or below the threshold.  Enumeration is
lexicographic and refused (never silently approximated) above a configurable
cap.

Kernels are evaluated Gram-first: each matrix gets one Gram
(``kernels.gram_stack``) over the columns the subsets use, all n of them when
every subset is enumerated, and every subset's value is read from it, as a
k x k block for the eigen kernels and as one entry plus two diagonal entries
for coherence.  For +-1/sqrt(m) matrices the Gram is the exact lattice one, so
values sit exactly on j/m and ties at a = j/m resolve as 0.

Monte-Carlo estimators share one kernel evaluation per trial across the whole
threshold grid, so estimated tail curves are monotone by construction, and
accumulate integer counts over fixed-size trial chunks, so results are
invariant to the degree of parallelism.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .ensembles import EnsembleSpec, sample_batch
from .kernels import KernelId, gram_coherence, gram_extremes, gram_stack, spectral_value

DEFAULT_SUBSET_CAP = 1_000_000

_TRIAL_CHUNK = 512      # fixed so results do not depend on thread count
_SUBSET_BLOCK = 1 << 15


class EnumerationInfeasibleError(RuntimeError):
    """Raised when C(n, k) exceeds the enumeration cap."""

    def __init__(self, n, k, count, cap):
        self.n, self.k, self.count, self.cap = n, k, count, cap
        super().__init__(
            f"enumeration infeasible: C({n},{k}) = {count} subsets exceeds cap {cap}"
        )


@dataclass(frozen=True)
class SubsetPair:
    """Two sorted size-k index sets overlapping in exactly `overlap` positions."""

    first: tuple
    second: tuple
    overlap: int

    def __post_init__(self):
        k = len(self.first)
        if len(self.second) != k:
            raise ValueError("subsets must have equal size")
        got = len(set(self.first) & set(self.second))
        if got != self.overlap:
            raise ValueError(f"stated overlap {self.overlap} but |S & R| = {got}")
        if not 1 <= self.overlap <= k - 1:
            raise ValueError("overlap must satisfy 1 <= overlap <= k-1")


def canonical_pair(k: int, overlap: int, n: int) -> SubsetPair:
    """The fixed pair S = {0..k-1}, R = {k-i..2k-i-1} used for joint estimation.

    Valid for any IID-column ensemble by exchangeability; needs 2k - overlap <= n.
    """
    if not 1 <= overlap <= k - 1:
        raise ValueError(f"overlap must be in [1, {k - 1}], got {overlap}")
    if 2 * k - overlap > n:
        raise ValueError(f"need 2k - overlap = {2 * k - overlap} <= n = {n} columns")
    first = tuple(range(k))
    second = tuple(range(k - overlap, 2 * k - overlap))
    return SubsetPair(first, second, overlap)


def subset_count(n, k):
    return comb(n, k)


def subsets(n: int, k: int, cap: int = DEFAULT_SUBSET_CAP):
    """Lexicographic stream of all sorted size-k subsets of range(n)."""
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    count = comb(n, k)
    if count > cap:
        raise EnumerationInfeasibleError(n, k, count, cap)
    return itertools.combinations(range(n), k)


def _subsets_array(n, k, cap):
    count = comb(n, k)
    flat = np.fromiter(
        itertools.chain.from_iterable(subsets(n, k, cap)), dtype=np.int64, count=count * k
    )
    return flat.reshape(count, k)


def lex_rank(subset, n: int) -> int:
    """Position of a sorted subset in the lexicographic enumeration of range(n)."""
    k = len(subset)
    rank = 0
    prev = -1
    for i, s in enumerate(subset):
        for j in range(prev + 1, s):
            rank += comb(n - 1 - j, k - 1 - i)
        prev = s
    return rank


def _batch_values(grams, kernel: KernelId, subs, rows):
    """Kernel values over an array of subsets, read from Gram matrices.

    grams: (B, c, c) from gram_stack; subs: (N, k) int array of indices into
    its c columns; rows: the row count m of the matrices -> (B, N) array.
    """
    if kernel.needs_pair:
        return gram_coherence(grams, subs)
    smin, smax = gram_extremes(grams[:, subs[:, :, None], subs[:, None, :]], rows=rows)
    return spectral_value(kernel, smin, smax)


def _chunk_values(spec, kernel: KernelId, subs, start, stop, cols=slice(None)):
    """Kernel values of the trials [start, stop) over an array of subsets.

    Only the Gram of the columns ``cols`` is built; ``subs`` indexes into them.
    """
    # one expression, so the sampled stack is freed once its Gram is built
    grams = gram_stack(sample_batch(spec, start, stop)[:, :, cols])
    return _batch_values(grams, kernel, subs, spec.m)


def _fixed_subsets(subsets_list):
    """(columns used, subsets renumbered into them) for a few fixed subsets."""
    subs = np.asarray(subsets_list, dtype=np.int64)
    cols = np.unique(subs)
    return cols, np.searchsorted(cols, subs)


def subset_values(phi, kernel: KernelId, k: int, cap: int = DEFAULT_SUBSET_CAP):
    """Kernel values of one matrix over all size-k subsets, enumeration order."""
    phi = np.asarray(phi, dtype=np.float64)
    if not np.all(np.isfinite(phi)):
        raise ValueError("matrix contains non-finite entries")
    m, n = phi.shape
    subs = _subsets_array(n, k, cap)
    grams = gram_stack(phi[None])
    out = np.empty(len(subs))
    for start in range(0, len(subs), _SUBSET_BLOCK):
        block = subs[start : start + _SUBSET_BLOCK]
        out[start : start + len(block)] = _batch_values(grams, kernel, block, m)[0]
    return out


def u_statistic(phi, kernel: KernelId, k: int, a: float, cap: int = DEFAULT_SUBSET_CAP) -> float:
    """Average strict exceedance indicator over all size-k subsets; in [0, 1]."""
    vals = subset_values(phi, kernel, k, cap)
    return float(np.count_nonzero(vals > a)) / len(vals)


def max_over_subsets(phi, kernel: KernelId, k: int, cap: int = DEFAULT_SUBSET_CAP) -> float:
    """Exact maximum kernel value over all size-k subsets.

    For the coherence kernel this is the mutual coherence of the matrix.
    """
    return float(subset_values(phi, kernel, k, cap).max())


@dataclass(frozen=True)
class TailEstimate:
    """Binomial Monte-Carlo estimate of one tail probability."""

    threshold: float
    point: float
    std_err: float
    trials: int


def _estimates(grid, counts, trials):
    out = []
    for a, c in zip(grid, counts):
        p = c / trials
        out.append(TailEstimate(float(a), p, sqrt(p * (1.0 - p) / trials), trials))
    return out


def _accumulate_counts(trials, threads, chunk_counts):
    """Sum integer count vectors over fixed-size trial chunks (order-independent)."""
    spans = [(s, min(s + _TRIAL_CHUNK, trials)) for s in range(0, trials, _TRIAL_CHUNK)]
    workers = min(threads, len(spans), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda span: chunk_counts(*span), spans))
    else:
        parts = [chunk_counts(*span) for span in spans]
    return np.sum(parts, axis=0)


def _check_mc_args(spec, kernel, k, trials):
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 < k <= spec.n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={spec.n}")
    if kernel.needs_pair and k != 2:
        raise ValueError("coherence kernel requires k = 2")


def mc_marginal_tail(
    spec: EnsembleSpec,
    kernel: KernelId,
    k: int,
    a_grid,
    trials: int,
    subset=None,
    threads: int = 1,
):
    """Estimate p(a) = Pr{kernel(A_S) > a} on one fixed subset, per grid point.

    The default subset is {0..k-1}; by column exchangeability any fixed subset
    gives the same distribution.
    """
    _check_mc_args(spec, kernel, k, trials)
    if subset is None:
        subset = tuple(range(k))
    if len(subset) != k or not all(0 <= i < spec.n for i in subset):
        raise ValueError("subset must hold k distinct column indices in range")
    grid = np.asarray(a_grid, dtype=np.float64)
    cols, subs = _fixed_subsets([subset])

    def chunk_counts(start, stop):
        vals = _chunk_values(spec, kernel, subs, start, stop, cols)[:, 0]
        return np.count_nonzero(vals[:, None] > grid[None, :], axis=0)

    counts = _accumulate_counts(trials, threads, chunk_counts)
    return _estimates(grid, counts, trials)


def mc_joint_tail(
    spec: EnsembleSpec,
    kernel: KernelId,
    k: int,
    overlap: int,
    a_grid,
    trials: int,
    threads: int = 1,
):
    """Estimate q_i(a) = Pr{kernel(A_S) > a and kernel(A_R) > a} for |S & R| = i."""
    _check_mc_args(spec, kernel, k, trials)
    pair = canonical_pair(k, overlap, spec.n)
    grid = np.asarray(a_grid, dtype=np.float64)
    cols, subs = _fixed_subsets([pair.first, pair.second])

    def chunk_counts(start, stop):
        vals = _chunk_values(spec, kernel, subs, start, stop, cols)
        both = (vals[:, 0, None] > grid[None, :]) & (vals[:, 1, None] > grid[None, :])
        return np.count_nonzero(both, axis=0)

    counts = _accumulate_counts(trials, threads, chunk_counts)
    return _estimates(grid, counts, trials)


def mc_extreme_tail(
    spec: EnsembleSpec,
    kernel: KernelId,
    k: int,
    a_grid,
    trials: int,
    cap: int = DEFAULT_SUBSET_CAP,
    threads: int = 1,
):
    """Estimate Pr{max over all size-k subsets of kernel(A_S) > a} per grid point."""
    _check_mc_args(spec, kernel, k, trials)
    grid = np.asarray(a_grid, dtype=np.float64)
    subs = _subsets_array(spec.n, k, cap)

    def chunk_counts(start, stop):
        vals = _chunk_values(spec, kernel, subs, start, stop).max(axis=1)
        return np.count_nonzero(vals[:, None] > grid[None, :], axis=0)

    counts = _accumulate_counts(trials, threads, chunk_counts)
    return _estimates(grid, counts, trials)


@dataclass(frozen=True)
class ExtremeRun:
    """Extreme, marginal and joint tail estimates from one shared trial stream."""

    grid: np.ndarray
    extreme: list
    marginal: list
    joint: dict  # overlap -> list[TailEstimate]


def extreme_experiment(
    spec: EnsembleSpec,
    kernel: KernelId,
    k: int,
    a_grid,
    trials: int,
    overlaps=None,
    cap: int = DEFAULT_SUBSET_CAP,
    threads: int = 1,
) -> ExtremeRun:
    """One pass computing the extreme, marginal and joint tails on shared trials.

    Evaluates the kernel once per (trial, subset); the marginal subset and
    the canonical joint pairs are picked out of the full enumeration by
    lexicographic rank.
    """
    _check_mc_args(spec, kernel, k, trials)
    if overlaps is None:
        overlaps = [i for i in range(1, k) if 2 * k - i <= spec.n]
    grid = np.asarray(a_grid, dtype=np.float64)
    subs = _subsets_array(spec.n, k, cap)
    base = lex_rank(tuple(range(k)), spec.n)
    pair_ranks = {
        i: lex_rank(canonical_pair(k, i, spec.n).second, spec.n) for i in overlaps
    }
    ranks = [base] + [pair_ranks[i] for i in overlaps]
    G = len(grid)

    def chunk_counts(start, stop):
        vals = _chunk_values(spec, kernel, subs, start, stop)
        exceed = vals[:, ranks, None] > grid[None, None, :]
        rows = [np.count_nonzero(vals.max(axis=1)[:, None] > grid[None, :], axis=0)]
        rows.append(np.count_nonzero(exceed[:, 0], axis=0))
        for pos in range(len(overlaps)):
            rows.append(np.count_nonzero(exceed[:, 0] & exceed[:, 1 + pos], axis=0))
        return np.stack(rows)

    counts = _accumulate_counts(trials, threads, chunk_counts)
    joint = {
        i: _estimates(grid, counts[2 + pos], trials) for pos, i in enumerate(overlaps)
    }
    return ExtremeRun(
        grid=grid,
        extreme=_estimates(grid, counts[0], trials),
        marginal=_estimates(grid, counts[1], trials),
        joint=joint,
    )

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
for the coherence of a fixed pair.  The coherence max over all pairs is read
from whole Grams (``kernels.gram_mutual_coherence``), and no pair list is
built for it.  For +-1/sqrt(m) matrices the Gram is the exact lattice one, so
values sit exactly on j/m and ties at a = j/m resolve as 0.  The engine reads
Bernoulli coherence with no Gram at all: one packed ``sample_batch`` call per
chunk gives each column's sign bits, and both the max over all pairs and the
fixed pairs come from XOR and popcount of those words
(``kernels.packed_mutual_coherence``, ``kernels.packed_coherence``), the same
floats as the lattice Gram.

The four Monte-Carlo estimators are selections of one count engine
(``_tail_counts``): per trial it evaluates a few fixed subsets and, when
asked, the max over all subsets.  Every output row is one per-trial
statistic, the max over all subsets or the min over an event's subsets (all
of them exceed a exactly when their min does), and every row is counted by
one rule: sort the chunk's statistic and ``searchsorted`` the grid into it,
so counting takes O(trials + grid) memory.  That count is exact for any
grid as long as no value is NaN, which the kernels never yield from sampled
(finite) matrices.  One kernel evaluation per trial serves
the whole threshold grid, so estimated tail curves are monotone by
construction, and integer counts accumulate over fixed-size trial chunks, so
results are invariant to the degree of parallelism.  Within a chunk every
enumeration of the subsets, exhaustive or pruned, walks them in one kind of
slice (``_slices``): 256 KiB (``_SLICE_BYTES``) of one 8-byte value or bound
per matrix and subset, so a slice's gathered k x k Grams take k^2 times that,
and ``_BLOCK_BYTES`` (256 MiB) caps them, which binds only at k > 32.  Both
are per worker, so threads multiply them.  Each slice is filled straight
from the lexicographic stream, so no array of every subset is built.  Neither
bounds the sampled stack or the n x n Grams (n^2 * 8 bytes per trial); the
packed Bernoulli coherence path needs no Gram.

The max over all subsets (``_max_values``, also behind ``max_over_subsets``)
is an exact branch and bound wherever the kernel needs ``eigvalsh``, that is
for the eigen kernels at k >= 3; at k <= 2 the closed form is cheaper than any
bound and every subset is evaluated.  Each subset's extreme eigenvalues are
bounded by bordering its lexicographic prefixes, from the 1 x 1 diagonal up to
k (``_bordered_bounds``; Horn & Johnson, *Matrix Analysis*, ch. 4), the lower
side only for the kernels that read it, and the subset gets the kernel's value
at those bounds.  Slice by slice of the enumeration, a subset is decomposed
only when its bound, widened by 1e-9 of |bound| + ub_smax for rounding,
reaches the running maximum of its matrix, so the maximum and every count are
exactly those of exhaustive evaluation.  On 10 x 20 Gaussian matrices (seed 7) 0.49%
of subsets are decomposed at k = 4 (128 trials) for ``ric`` and
``sigma_max_sq``, and for ``neg_sigma_min_sq`` 52%, or 13% at k = 3 (512
trials), where most lower bounds on sigma2_min still sit below the smallest
sigma2_min found.  At k > m every sigma2_min is exactly 0, and the
``neg_sigma_min_sq`` max is -0.0 with no ``eigvalsh`` at all.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb, inf, sqrt

import numpy as np

from .ensembles import EnsembleSpec, sample_batch
from .kernels import (
    KernelId,
    _checked,
    gram_coherence,
    gram_extremes,
    gram_mutual_coherence,
    gram_stack,
    packed_coherence,
    packed_mutual_coherence,
    spectral_value,
)

DEFAULT_SUBSET_CAP = 1_000_000

_TRIAL_CHUNK = 512      # fixed so results do not depend on thread count
_BLOCK_BYTES = 1 << 28  # cap on one slice's gathered k x k Grams, per worker; binds at k > 32
_BOUND_MARGIN = 1e-9    # relative slack of a subset bound, far above eigvalsh rounding
_SLICE_BYTES = 1 << 18  # per (matrices, subsets) value or bound array of one slice


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


def _checked_count(n, k, cap):
    """C(n, k), refused when k is out of range or the count exceeds cap."""
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    count = comb(n, k)
    if count > cap:
        raise EnumerationInfeasibleError(n, k, count, cap)
    return count


def subsets(n: int, k: int, cap: int = DEFAULT_SUBSET_CAP):
    """Lexicographic stream of all sorted size-k subsets of range(n)."""
    _checked_count(n, k, cap)
    return itertools.combinations(range(n), k)


def _check_k(n, k, kernel: KernelId, cap):
    """Refuse k out of range, C(n, k) above cap (None: no cap) and coherence at k != 2.

    Called before anything is sampled or any Gram is built.
    """
    _checked_count(n, k, inf if cap is None else cap)
    if kernel.needs_pair and k != 2:
        raise ValueError("coherence kernel requires k = 2")


def _batch_values(grams, kernel: KernelId, subs, rows):
    """Kernel values over an array of subsets, read from Gram matrices.

    grams: (B, c, c) from gram_stack; subs: (N, k) int array of indices into
    its c columns; rows: the row count m of the matrices -> (B, N) array.
    """
    if kernel.needs_pair:
        return gram_coherence(grams, subs)
    smin, smax = gram_extremes(grams[:, subs[:, :, None], subs[:, None, :]], rows=rows)
    return spectral_value(kernel, smin, smax)


def _slices(n, k, matrices):
    """All size-k subsets of range(n) as consecutive (size, k) int64 slices, in enumeration order.

    A slice holds _SLICE_BYTES of one 8-byte value or bound per (matrix,
    subset) over a stack of ``matrices`` Grams, fewer where its gathered
    k x k Grams could exceed _BLOCK_BYTES (only at k > 32), and never less
    than one subset.  Each slice is filled from the lexicographic stream, so
    only one slice of subsets exists at a time.
    """
    step = max(1, min(_SLICE_BYTES, _BLOCK_BYTES // (k * k)) // (matrices * 8))
    stream = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    count = comb(n, k)
    for start in range(0, count, step):
        size = min(step, count - start)
        yield np.fromiter(stream, dtype=np.int64, count=size * k).reshape(size, k)


def _bordered_bounds(flat, n, subs, rows):
    """(lb_smin, ub_smax), each (B, N): bounds on the extreme eigenvalues of subsets.

    flat: (B, n * n) Grams.  A subset S with lexicographic prefix T (its first
    k - 1 indices) and last index s has Gram [[G_T, b], [b^T, c]], c = G_ss,
    and for any U >= lambda_max(G_T) and L <= lambda_min(G_T)

        lambda_max(G_S) <= (U + c)/2 + sqrt(((U - c)/2)^2 + ||b||^2)
        lambda_min(G_S) >= (L + c)/2 - sqrt(((L - c)/2)^2 + ||b||^2),

    both monotone in U and L, so a prefix's bounds may stand in for its
    eigenvalues.  The bounds are built level by level from the 1 x 1
    diagonal.  Each level's table holds one row per prefix that occurs in
    subs, read at the rows where the prefix differs from the previous one;
    a cumulative sum over those rows gives each subset the rank of its
    prefix.  sigma2_min is bounded by 0 from below, and is exactly 0 when
    k > m; rows = 0 asks for that trivial lower bound alone.
    """
    k = subs.shape[1]
    fresh = np.zeros(len(subs), dtype=bool)
    fresh[0] = True
    for j in range(k):
        last = subs[:, j]
        fresh[1:] |= last[1:] != last[:-1]
        starts = np.flatnonzero(fresh)
        s = last[starts]
        c = flat[:, s * (n + 1)]
        if j == 0:
            lower, upper = c, c
        else:
            edge = flat[:, subs[starts, :j] * n + s[:, None]]
            b_sq = np.einsum("bpj,bpj->bp", edge, edge)
            parent = rank[starts]
            upper = upper[:, parent]
            half = 0.5 * (upper - c)
            upper -= half - np.sqrt(half * half + b_sq)
            if k <= rows:
                lower = lower[:, parent]
                half = 0.5 * (lower - c)
                lower -= half + np.sqrt(half * half + b_sq)
        rank = np.cumsum(fresh) - 1
    if k > rows:
        return np.zeros_like(upper), upper
    return np.maximum(lower, 0.0), upper


def _subset_reach(grams, kernel: KernelId, subs, rows):
    """(B, N) upper bounds on the kernel values of subs, widened for rounding.

    The bound is spectral_value at the bordered-prefix bounds (lb_smin,
    ub_smax) of ``_bordered_bounds``, plus _BOUND_MARGIN times
    |bound| + ub_smax, which covers rounding in the bound and in eigvalsh.
    sigma_max_sq reads no lower bound, so it is given the trivial one, 0,
    which holds for every PSD Gram: rows = 0 takes that branch.
    """
    n = grams.shape[-1]
    rows = 0 if kernel.variant == "sigma_max_sq" else rows
    lb_smin, ub_smax = _bordered_bounds(grams.reshape(len(grams), n * n), n, subs, rows)
    bound = spectral_value(kernel, lb_smin, ub_smax)
    return bound + _BOUND_MARGIN * (np.abs(bound) + ub_smax)


def _picked_values(grams, kernel: KernelId, picks, subs, rows):
    """Kernel values of subset subs[c] in matrix picks[c], one per pick -> (C,)."""
    blocks = grams[picks[:, None, None], subs[:, :, None], subs[:, None, :]]
    return spectral_value(kernel, *gram_extremes(blocks, rows=rows))


def _max_values(grams, kernel: KernelId, k, rows):
    """Per-matrix max kernel value over all size-k subsets -> (B,), equal to exhaustive evaluation.

    grams: (B, n, n) over all n columns.  The coherence max over all pairs is
    read from whole Grams by kernels.gram_mutual_coherence.  At k <= 2
    every subset is evaluated, slice by slice.  At k > m every sigma2_min is
    exactly 0, so the neg_sigma_min_sq max is -0.0 with no eigvalsh.
    Otherwise (k >= 3) this is an exact branch and bound over the same slices
    in enumeration order: each slice is bounded by ``_subset_reach``, the
    first slice seeds a running max with each matrix's best-bound subset, and
    only the subsets whose widened bound reaches the running max are
    decomposed.  A skipped subset cannot hold the maximum, and eigvalsh gives
    each k x k Gram the same floats whatever else is in its stack, so the
    maximum is bit for bit the exhaustive one.  Both branches take their
    slices from ``_slices``.
    """
    if kernel.needs_pair:
        return gram_mutual_coherence(grams)
    if kernel.variant == "neg_sigma_min_sq" and k > rows:
        return np.full(len(grams), -0.0)
    slices = _slices(grams.shape[-1], k, len(grams))
    if k < 3:
        return functools.reduce(np.maximum, (_batch_values(grams, kernel, part, rows).max(axis=1) for part in slices))
    top = None
    for part in slices:
        reach = _subset_reach(grams, kernel, part, rows)
        if top is None:
            top = _picked_values(grams, kernel, np.arange(len(grams)), part[reach.argmax(axis=1)], rows)
        picks, pos = np.nonzero(reach >= top[:, None])
        np.maximum.at(top, picks, _picked_values(grams, kernel, picks, part[pos], rows))
    return top


def subset_values(phi, kernel: KernelId, k: int, cap: int = DEFAULT_SUBSET_CAP):
    """Kernel values of one matrix over all size-k subsets, enumeration order."""
    phi = _checked(phi)
    m, n = phi.shape
    _checked_count(n, k, cap)
    grams = gram_stack(phi[None])
    return np.concatenate([_batch_values(grams, kernel, part, m)[0] for part in _slices(n, k, 1)])


def u_statistic(phi, kernel: KernelId, k: int, a: float, cap: int = DEFAULT_SUBSET_CAP) -> float:
    """Average strict exceedance indicator over all size-k subsets; in [0, 1]."""
    vals = subset_values(phi, kernel, k, cap)
    return float(np.count_nonzero(vals > a)) / len(vals)


def max_over_subsets(phi, kernel: KernelId, k: int, cap: int = DEFAULT_SUBSET_CAP) -> float:
    """Exact maximum kernel value over all size-k subsets.

    For the coherence kernel this is the mutual coherence of the matrix.
    """
    phi = _checked(phi)
    _check_k(phi.shape[1], k, kernel, cap)
    return float(_max_values(gram_stack(phi[None]), kernel, k, phi.shape[0])[0])


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


def _tail_counts(
    spec: EnsembleSpec, kernel: KernelId, k, a_grid, trials, threads, fixed=(), events=(), cap=None
):
    """(grid, integer count rows) of one pass over the trial stream.

    Every row counts the trials whose statistic exceeds a, by one rule: B
    minus the ``searchsorted(sort(v), grid, "right")`` of the chunk's B
    per-trial values v, so counting holds O(trials + grid) memory.  With
    ``cap`` set, the Grams span all n columns and the first row's statistic
    is the max over all size-k subsets (enumeration refused above ``cap``);
    otherwise they span only the columns of the ``fixed`` subsets.  Each
    event, a tuple of positions into ``fixed``, adds a row whose statistic
    is the min over the subsets it names: every one of them exceeds a
    exactly when their min does.  The rule equals ``1{value > a}`` at every
    grid point (ties, +-0.0, +-inf and NaN among them) as long as no value
    is NaN; the kernels yield none from sampled (finite) matrices.  Bernoulli
    coherence builds no Gram: its values are read from the chunk's packed
    sign words.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_k(spec.n, k, kernel, cap)
    for sub in fixed:
        # integers only: a float index would be truncated into a duplicate
        valid_indices = all(isinstance(i, (int, np.integer)) and 0 <= i < spec.n for i in sub)
        if len(sub) != k or len(set(sub)) != k or not valid_indices:
            raise ValueError("subset must hold k distinct integer column indices in range")
    grid = np.asarray(a_grid, dtype=np.float64)
    if grid.ndim != 1:
        raise ValueError(f"a_grid must be one-dimensional, got shape {grid.shape}")
    fixed = np.asarray(fixed, dtype=np.int64).reshape(len(fixed), k)
    packed = kernel.needs_pair and spec.family == "bernoulli"
    if cap is None:
        cols = np.unique(fixed)
        local = np.searchsorted(cols, fixed)
    else:
        cols, local = slice(None), fixed

    def chunk_counts(start, stop):
        if packed:
            words = sample_batch(spec, start, stop, packed=True)
            top = packed_mutual_coherence(words, spec.m) if cap is not None else None
            values = packed_coherence(words, spec.m, fixed) if events else None
        else:
            # one expression, so the sampled stack is freed once its Gram is built
            grams = gram_stack(sample_batch(spec, start, stop)[:, :, cols])
            top = _max_values(grams, kernel, k, spec.m) if cap is not None else None
            values = _batch_values(grams, kernel, local, spec.m) if events else None
        stats = [top] if cap is not None else []
        stats += [values[:, list(event)].min(axis=1) for event in events]
        return np.stack([len(v) - np.searchsorted(np.sort(v), grid, side="right") for v in stats])

    return grid, _accumulate_counts(trials, threads, chunk_counts)


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
    if subset is None:
        subset = tuple(range(k))
    grid, counts = _tail_counts(spec, kernel, k, a_grid, trials, threads, [subset], [(0,)])
    return _estimates(grid, counts[0], trials)


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
    pair = canonical_pair(k, overlap, spec.n)
    fixed = [pair.first, pair.second]
    grid, counts = _tail_counts(spec, kernel, k, a_grid, trials, threads, fixed, [(0, 1)])
    return _estimates(grid, counts[0], trials)


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
    grid, counts = _tail_counts(spec, kernel, k, a_grid, trials, threads, cap=cap)
    return _estimates(grid, counts[0], trials)


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

    The marginal subset {0..k-1} and the second subsets of the canonical
    joint pairs are read from the same Grams as the max over all subsets.
    """
    if overlaps is None:
        overlaps = [i for i in range(1, k) if 2 * k - i <= spec.n]
    fixed = [tuple(range(k))] + [canonical_pair(k, i, spec.n).second for i in overlaps]
    events = [(0,)] + [(0, 1 + pos) for pos in range(len(overlaps))]
    grid, counts = _tail_counts(spec, kernel, k, a_grid, trials, threads, fixed, events, cap)
    return ExtremeRun(
        grid=grid,
        extreme=_estimates(grid, counts[0], trials),
        marginal=_estimates(grid, counts[1], trials),
        joint={i: _estimates(grid, counts[2 + pos], trials) for pos, i in enumerate(overlaps)},
    )

"""Exact U-statistics over size-k column subsets and the Monte-Carlo tail engine.

The U-statistic of a sampled matrix is the average of a strict exceedance
indicator over all C(n, k) column subsets; it is zero exactly when the
max-over-subsets statistic stays at or below the threshold.  Enumeration is
lexicographic and refused (never silently approximated) above a configurable
cap.

Kernels are evaluated Gram-first: each matrix gets one Gram
(``kernels.gram_stack``) over the columns the subsets use, all n of them when
every subset is enumerated, and every subset's value is read from it: a
pair as G_ii, G_jj and G_ij (``kernels.pair_values``), for every kernel, and
a k x k block for the eigen kernels at k != 2 and for the engine's fixed
eigen subsets.  The max over every pair or column of whole Grams is read by
``kernels.gram_pair_max``, from index tiles rather than a subset stream.
For +-1/sqrt(m) matrices the Gram is the exact lattice one, so values sit
exactly on j/m and ties at a = j/m resolve as 0.  The engine reads
Bernoulli coherence with no Gram at all: one packed ``sample_batch`` call per
chunk gives each column's sign bits, and both the max over all pairs and the
fixed pairs come from XOR and popcount of those words
(``kernels.packed_mutual_coherence``, ``kernels.packed_coherence``), the same
floats as the lattice Gram.  Gaussian chunks at k <= 2 build no n x n Gram
either: each is drawn trial-last into its worker's arena, the fixed subsets
get a Gram over their own <= 2k columns (``kernels.trial_last_grams``,
bit-equal to the full Gram's entries), and the max over every pair or column is read from the diagonal and
a pair-only table (``kernels.pair_max``).

The four Monte-Carlo estimators are selections of one count engine
(``_tail_counts``): per trial it evaluates a few fixed subsets and, when
asked, the max over all subsets.  Every output row is one per-trial
statistic, the max over all subsets or the min over an event's subsets (all
of them exceed a exactly when their min does), and every row is counted by
one rule: sort the chunk's statistic and ``searchsorted`` the grid into it.
Exact integer counts are added to a running total, one per worker, as each
trial chunk finishes, so counting takes O(trials + grid) memory and results
are invariant to the chunk size and the degree of parallelism.  The count is
exact for any grid as long as no value is NaN, which the kernels never yield
from sampled (finite) matrices.  One kernel evaluation per trial serves the
whole threshold grid, so estimated tail curves are monotone by construction.
Each curve is one read-only record array of ``TailEstimate``.

One byte budget for the whole run, ``_CHUNK_BYTES`` (2.5 MiB), sizes the
chunks (``_chunk_spans``).  It is split across the min(threads, CPUs)
workers, and a chunk holds max(1, budget // (workers * trial bytes)) trials.
A trial's bytes (``_trial_bytes``) are its sampled stack of all n columns and
its Gram over the c columns in use, 8 (m n + c^2), or its packed sign words
on the Bernoulli coherence path.  A Gaussian trial at k <= 2 counts instead
what it takes in its worker's arena (``_arena_words``): the sampler's Philox
state or raw words, which the entries then reuse, or the entries with the
diagonal, pair table and scratch of ``kernels.pair_max``, whichever is more.
Each worker's fold allocates one arena for its largest chunk and reuses it
for every chunk it runs, so a chunk allocates no sampling or table
temporaries and faults no fresh pages; the arena is freed when the run ends.
Within a chunk every enumeration of the subsets at k >= 3, exhaustive or
pruned, walks them in one kind of slice (``_slices``): 256 KiB
(``_SLICE_BYTES``) of one 8-byte value or bound per matrix and subset, so a
slice's gathered k x k Grams take k^2 times that, and ``_BLOCK_BYTES``
(256 MiB) caps them, which binds only at k > 32.  The pruned max also holds
one ``_workspace`` of eight slice-sized bound tables, 2 MiB at 256 KiB a
table, and a copy of the chunk's Grams with the trial last.  All of these,
and the column-block tiles of ``kernels.pair_max`` on wide trials, are per
worker, outside ``_CHUNK_BYTES``, so threads multiply them.  Each slice is
filled straight from the lexicographic stream, so no array of every subset is
built.  A single trial larger than the budget still runs, as a chunk of its
own.

The max over all subsets (``_max_values``, also behind ``max_over_subsets``)
is an exact branch and bound wherever the kernel needs ``eigvalsh``, that is
for the eigen kernels at k >= 3; at k <= 2 the closed form is cheaper than any
bound and every pair or column is evaluated.  Each subset's extreme
eigenvalues are bounded by bordering its lexicographic prefixes, from the
1 x 1 diagonal up to k (``_bordered_bounds``; Horn & Johnson, *Matrix
Analysis*, ch. 4), the lower side only for the kernels that read it, and the
subset gets the kernel's value at those bounds.  The bounds are gathered as
whole rows of a Gram table with the trial last, into the fixed workspace, so
no slice allocates a (subsets, trials) array.  The running maximum of each
matrix starts at the values of subsets grown greedily on the same bounds
(``_greedy_seeds``).
Slice by slice of the enumeration, a subset is decomposed only when its
bound, widened by 1e-9 of |bound| + ub_smax for rounding, reaches that
running maximum, so the maximum and every count are exactly those of
exhaustive evaluation.  On 10 x 20 Gaussian matrices (seed 7) 0.23% of
subsets are decomposed at k = 4 (128 trials) for ``ric`` and 0.21% for
``sigma_max_sq`` (0.42% and 0.32% at k = 3, 512 trials), and for
``neg_sigma_min_sq`` 51%, or 12% at k = 3, where most lower bounds on
sigma2_min still sit below the smallest sigma2_min found.  At k > m every
sigma2_min is exactly 0, and the ``neg_sigma_min_sq`` max is -0.0 with no
``eigvalsh`` at all.
"""

from __future__ import annotations

import collections
import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb, inf

import numpy as np

from .ensembles import EnsembleSpec, sample_batch, sample_words
from .kernels import (
    KernelId,
    _checked,
    gram_extremes,
    gram_pair_max,
    gram_stack,
    packed_coherence,
    packed_mutual_coherence,
    pair_max,
    pair_values,
    pair_words,
    spectral_value,
    trial_last_grams,
)

DEFAULT_SUBSET_CAP = 1_000_000

# Byte budget of a whole run's trial chunks, split across its workers (see the
# module notes).  It gives 5 x 10 Gaussian trials at k <= 2 1,092 a chunk at two
# workers (150 arena words a trial): a chunk's numpy calls, about 170 of them in
# the sampler, are then few per trial, so two threads seldom queue on the GIL.
# Split rather than per worker, so a lone worker gets all of it: wide runs need
# large chunks, since each chunk enumerates every subset again.
_CHUNK_BYTES = 5 << 19  # 2.5 MiB
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


def feasible_overlaps(n, k):
    """The overlaps i in [1, k-1] whose canonical pair fits in n columns (2k - i <= n)."""
    return [i for i in range(1, k) if 2 * k - i <= n]


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


def _batch_values(grams, kernel: KernelId, subs, rows, picks=None):
    """Kernel values of subsets, read from Gram matrices.

    grams: (B, c, c) from gram_stack; subs: (N, k) int array of indices into
    its c columns; rows: the row count m of the matrices -> (B, N) array, or
    with ``picks`` (N,) subs[c] in matrix picks[c] alone -> (N,).  Coherence
    pairs are read by ``pair_values``; every k x k block is gathered here.
    At k = 2 only the engine's fixed eigen subsets come here, so every run
    still calls ``gram_extremes``, which the benchmark's span tracer wraps.
    """
    if kernel.needs_pair:
        return pair_values(grams, kernel, subs)
    lead = slice(None) if picks is None else picks[:, None, None]
    smin, smax = gram_extremes(grams[lead, subs[..., :, None], subs[..., None, :]], rows=rows)
    return spectral_value(kernel, smin, smax)


def _slice_size(n, k, matrices):
    """Subsets in one slice of ``_slices``: _SLICE_BYTES of one 8-byte value per (matrix, subset).

    Fewer where the slice's gathered k x k Grams could exceed _BLOCK_BYTES
    (only at k > 32), never less than one subset and never more than C(n, k).
    """
    return min(comb(n, k), max(1, min(_SLICE_BYTES, _BLOCK_BYTES // (k * k)) // (matrices * 8)))


def _slices(n, k, matrices):
    """All size-k subsets of range(n) as consecutive (size, k) int64 slices, in enumeration order.

    Each slice holds ``_slice_size`` subsets over a stack of ``matrices``
    Grams, the last one the rest, and is filled from the lexicographic
    stream, so only one slice of subsets exists at a time.
    """
    step = _slice_size(n, k, matrices)
    stream = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    count = comb(n, k)
    for start in range(0, count, step):
        size = min(step, count - start)
        yield np.fromiter(stream, dtype=np.int64, count=size * k).reshape(size, k)


def _workspace(size, matrices):
    """The fixed buffers of ``_bordered_bounds`` and ``_subset_reach``: eight (size, matrices) float64 tables.

    One ``np.empty``, so a table no slice writes, such as the lower side for
    sigma_max_sq, is never faulted in.
    """
    return np.empty((8, size, matrices))


def _border(side, c, b_sq, half, root, sign):
    """side <- (side + c)/2 + sign sqrt(((side - c)/2)^2 + b_sq), in place; half and root are work buffers."""
    np.subtract(side, c, out=half)
    half *= 0.5
    np.multiply(half, half, out=root)
    root += b_sq
    np.sqrt(root, out=root)
    if sign > 0:
        half -= root
    else:
        half += root
    side -= half


def _bordered_bounds(table, subs, rows, work):
    """(lb_smin, ub_smax), each (N, B): bounds on the extreme eigenvalues of subsets, views into work.

    table: (n, n, B) Grams, trial last and contiguous, so every gather below
    copies whole rows of B values; work: a ``_workspace`` of at least
    N = len(subs) rows.  A subset S with lexicographic prefix T (its first
    k - 1 indices) and last index s has Gram [[G_T, b], [b^T, c]], c = G_ss,
    and for any U >= lambda_max(G_T) and L <= lambda_min(G_T)

        lambda_max(G_S) <= (U + c)/2 + sqrt(((U - c)/2)^2 + ||b||^2)
        lambda_min(G_S) >= (L + c)/2 - sqrt(((L - c)/2)^2 + ||b||^2),

    both monotone in U and L, so a prefix's bounds may stand in for its
    eigenvalues.  The bounds are built level by level from the 1 x 1
    diagonal.  Each level's table holds one row per prefix that occurs in
    subs, read at the rows where the prefix differs from the previous one;
    a cumulative sum over those rows gives each subset the rank of its
    prefix, and its row is taken from the previous level's table into the
    other of two ping-pong buffers.  sigma2_min is bounded by 0 from below,
    and is exactly 0 when k > m; rows = 0 asks for that trivial lower bound
    alone, a read-only broadcast 0 that writes no buffer.
    """
    n, (size, k) = len(table), subs.shape
    flat = table.reshape(n * n, -1)
    upper, upper_next, lower, lower_next, c, b_sq, half, root = work[:, :size]
    fresh = np.zeros(size, dtype=bool)
    fresh[0] = True
    for j in range(k):
        rank = np.cumsum(fresh) - 1  # of each subset's length-j prefix, in the previous table
        last = subs[:, j]
        fresh[1:] |= last[1:] != last[:-1]
        starts = np.flatnonzero(fresh)
        s, p = last[starts], len(starts)
        # every index is in range by construction; take's default mode="raise"
        # would fill a temporary of the output's size and copy it into out
        if j == 0:
            np.take(flat, s * (n + 1), axis=0, out=upper[:p], mode="clip")
            if k <= rows:
                np.copyto(lower[:p], upper[:p])
            continue
        cj, bj, hj, rj = c[:p], b_sq[:p], half[:p], root[:p]
        np.take(flat, s * (n + 1), axis=0, out=cj, mode="clip")
        edges = subs[starts, :j] * n + s[:, None]
        np.square(np.take(flat, edges[:, 0], axis=0, out=bj, mode="clip"), out=bj)
        for i in range(1, j):
            bj += np.square(np.take(flat, edges[:, i], axis=0, out=rj, mode="clip"), out=rj)
        parent = rank[starts]
        np.take(upper, parent, axis=0, out=upper_next[:p], mode="clip")
        _border(upper_next[:p], cj, bj, hj, rj, 1)
        upper, upper_next = upper_next, upper
        if k <= rows:
            np.take(lower, parent, axis=0, out=lower_next[:p], mode="clip")
            _border(lower_next[:p], cj, bj, hj, rj, -1)
            lower, lower_next = lower_next, lower
    if k > rows:
        return np.broadcast_to(0.0, upper.shape), upper
    return np.maximum(lower, 0.0, out=lower), upper


def _subset_reach(table, kernel: KernelId, subs, rows, work):
    """(N, B) upper bounds on the kernel values of subs, widened for rounding: a view into work.

    The bound is spectral_value at the bordered-prefix bounds (lb_smin,
    ub_smax) of ``_bordered_bounds``, plus _BOUND_MARGIN times
    |bound| + ub_smax, which covers rounding in the bound and in eigvalsh;
    it is worked in the buffers the bounds no longer need.  sigma_max_sq
    reads no lower bound, so it is given the trivial one, 0, which holds for
    every PSD Gram: rows = 0 takes that branch.
    """
    lb_smin, ub_smax = _bordered_bounds(table, subs, 0 if kernel.variant == "sigma_max_sq" else rows, work)
    bound, slack = work[4, : len(subs)], work[5, : len(subs)]  # c and b_sq of _bordered_bounds
    if kernel.variant == "sigma_max_sq":
        bound = ub_smax
    elif kernel.variant == "neg_sigma_min_sq":
        np.negative(lb_smin, out=bound)
    else:
        np.maximum(np.subtract(ub_smax, 1.0, out=bound), np.subtract(1.0, lb_smin, out=slack), out=bound)
    np.abs(bound, out=slack)
    slack += ub_smax
    slack *= _BOUND_MARGIN
    slack += bound
    return slack


def _greedy_seeds(grams, kernel: KernelId, k):
    """Column subsets grown greedily on the bordered bounds: a list of (B, k) sorted index arrays.

    Each subset starts at the matrix's largest diagonal entry and adds, k - 1
    times, the column not yet in it whose bordered bound (as in
    ``_bordered_bounds``) on lambda_max is largest.  The kernels that read
    sigma2_min get a second subset, grown from the smallest diagonal entry
    on the lower bound.  Each array holds one subset per matrix.  Their values
    are real subset values, so any of them may seed the running max of
    ``_max_values``.
    """
    count, n = grams.shape[0], grams.shape[-1]
    diag = np.diagonal(grams, axis1=-2, axis2=-1)
    every = np.arange(count)
    seeds = []
    for sign in (1,) if kernel.variant == "sigma_max_sq" else (1, -1):
        chosen = np.empty((count, k), dtype=np.int64)
        b_sq = np.zeros((count, n))  # ||b||^2 of each column against the subset grown so far
        bound = diag
        for j in range(k):
            if j > 0:
                half = 0.5 * (grown[:, None] - diag)
                bound = grown[:, None] - half + sign * np.sqrt(half * half + b_sq)
            score = sign * bound
            score[every[:, None], chosen[:, :j]] = -np.inf
            pick = score.argmax(axis=1)
            chosen[:, j], grown = pick, bound[every, pick]
            b_sq += np.square(grams[every, pick])
        seeds.append(np.sort(chosen, axis=1))
    return seeds


def _max_values(grams, kernel: KernelId, k, rows):
    """Per-matrix max kernel value over all size-k subsets -> (B,), equal to exhaustive evaluation.

    grams: (B, n, n) over all n columns.  At k <= 2 the max over every pair,
    or column, is read by ``kernels.gram_pair_max``, with no subset stream.
    At k > m every sigma2_min is exactly 0, so the neg_sigma_min_sq max is
    -0.0 with no eigvalsh.  Otherwise (k >= 3) this is an exact branch and
    bound over the slices of ``_slices`` in enumeration order.  The running
    max is seeded with the values of the ``_greedy_seeds`` subsets.  The Grams are copied once into an (n, n, B)
    table with the trial last, and one ``_workspace`` of slice size holds
    every bound: each slice is bounded by ``_subset_reach``, and only the
    subsets whose widened bound reaches the running max are decomposed.  A
    skipped subset cannot hold the maximum, and eigvalsh gives each k x k
    Gram, gathered from ``grams``, the same floats whatever else is in its
    stack, so the maximum is bit for bit the exhaustive one.
    """
    if k <= 2:
        return gram_pair_max(grams, kernel, k, rows)
    count, n = grams.shape[0], grams.shape[-1]
    if kernel.variant == "neg_sigma_min_sq" and k > rows:
        return np.full(count, -0.0)
    every = np.arange(count)
    top = functools.reduce(
        np.maximum, (_batch_values(grams, kernel, seed, rows, every) for seed in _greedy_seeds(grams, kernel, k))
    )
    table = np.ascontiguousarray(np.moveaxis(grams, 0, -1))
    work = _workspace(_slice_size(n, k, count), count)
    for part in _slices(n, k, count):
        pos, picks = np.nonzero(_subset_reach(table, kernel, part, rows, work) >= top)
        np.maximum.at(top, picks, _batch_values(grams, kernel, part[pos], rows, picks))
    return top


def subset_values(phi, kernel: KernelId, k: int, cap: int = DEFAULT_SUBSET_CAP):
    """Kernel values of one matrix over all size-k subsets, enumeration order."""
    phi = _checked(phi)
    m, n = phi.shape
    _check_k(n, k, kernel, cap)
    grams = gram_stack(phi[None])
    values = pair_values if k == 2 else _batch_values
    return np.concatenate([values(grams, kernel, part, m)[0] for part in _slices(n, k, 1)])


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


# a record per threshold: the binomial Monte-Carlo estimate of one tail probability
TailEstimate = np.dtype([("threshold", "f8"), ("point", "f8"), ("std_err", "f8"), ("trials", "i8")])


def _estimates(grid, counts, trials):
    """One read-only ``np.recarray`` of ``TailEstimate`` per curve: p = count / trials and its SE."""
    p = counts / trials
    fields = [grid, p, np.sqrt(p * (1.0 - p) / trials), np.full(len(p), trials)]
    out = np.rec.fromarrays(fields, dtype=TailEstimate)
    out.flags.writeable = False
    return out


def _trial_bytes(spec: EnsembleSpec, cols, packed):
    """Bytes one trial holds in a chunk: its packed sign words, or its sampled stack and its Gram.

    The stack spans all n columns, since all are sampled before those in use
    are taken; the Gram spans only the ``cols`` columns in use.  Gaussian
    chunks at k <= 2 hold neither and are sized by ``_arena_words``.
    """
    if packed:
        return 8 * spec.n * -(-spec.m // 64)
    return 8 * (spec.m * spec.n + cols * cols)


def _arena_words(spec: EnsembleSpec, k, table):
    """Float64 words one Gaussian trial at k <= 2 takes in its worker's arena.

    The sampler's words (``ensembles.sample_words``), which its entries then
    reuse, or the entries and what ``kernels.pair_max`` reads the max with
    (``kernels.pair_words``), whichever is more; ``table`` None reads no max.
    """
    entries = spec.m * spec.n
    read = 0 if table is None else pair_words(spec.m, spec.n, k, table)
    return max(sample_words(spec), entries + read)


def _cpus():
    """The CPUs this process may run on: its affinity mask where the platform has one, else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_spans(trials, threads, trial_bytes):
    """(workers, spans): the trial chunks [start, stop) of a run and the threads that share them.

    ``_CHUNK_BYTES`` is split across min(threads, CPUs) workers, where CPUs
    are those of ``_cpus``, and a chunk holds as many trials of
    ``trial_bytes`` as one worker's share takes, at least one.  Workers are
    then capped at the chunk count.
    """
    workers = max(1, min(threads, _cpus()))
    size = max(1, _CHUNK_BYTES // (workers * trial_bytes))
    spans = [(s, min(s + size, trials)) for s in range(0, trials, size)]
    return min(workers, len(spans)), spans


def _accumulate_counts(trials, threads, trial_bytes, chunk_counts, arena=False):
    """Sum the integer counts of the chunks of ``_chunk_spans`` as each finishes.

    A trial's counts do not depend on the chunk that holds it, so neither does
    the sum on the chunk size, the budget or the thread count.  One worker needs
    no pool.  Pool workers take chunks one at a time from a shared queue and
    each keeps a running total, so nothing held grows with the chunk count; once
    a chunk fails, the queue is emptied and the others stop after their current chunk.
    With ``arena``, each worker's fold allocates one float64 buffer of
    ``trial_bytes`` per trial of the largest chunk and passes it to every chunk
    it runs, as chunk_counts(start, stop, arena); a shorter chunk uses its
    start.  The fold owns the buffer, so it is freed when the run ends.
    """
    workers, spans = _chunk_spans(trials, threads, trial_bytes)
    queue = collections.deque(spans)  # popleft and clear are thread-safe
    words = (spans[0][1] - spans[0][0]) * trial_bytes // 8

    def fold(_):
        total = 0
        own = (np.empty(words),) if arena else ()
        while True:
            try:
                span = queue.popleft()
            except IndexError:
                return total
            try:
                total += chunk_counts(*span, *own)
            except BaseException:
                queue.clear()
                raise

    if workers == 1:
        return fold(0)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(fold, range(workers)))


def _tail_counts(
    spec: EnsembleSpec, kernel: KernelId, k, a_grid, trials, threads, fixed=(), events=(), cap=None
):
    """(grid, integer count rows) of one pass over the trial stream.

    Every row counts the trials whose statistic exceeds a, by one rule: B
    minus the ``searchsorted(sort(v), grid, "right")`` of the chunk's B
    per-trial values v, summed as chunks finish: O(trials + grid) memory.  With
    ``cap`` set, the Grams span all n columns and the first row's statistic
    is the max over all size-k subsets (enumeration refused above ``cap``);
    otherwise they span only the columns of the ``fixed`` subsets.  Each
    event, a tuple of positions into ``fixed``, adds a row whose statistic
    is the min over the subsets it names: every one of them exceeds a
    exactly when their min does.  The rule equals ``1{value > a}`` at every
    grid point (ties, +-0.0, +-inf and NaN among them) as long as no value
    is NaN; the kernels yield none from sampled (finite) matrices.  Bernoulli
    coherence builds no Gram: its values are read from the chunk's packed
    sign words.  Neither does a Gaussian run at k <= 2: its fixed subsets
    get a Gram over their own columns, and its max is read by
    ``kernels.pair_max`` from the trial-last entries in the worker's arena,
    over the pair table when a chunk holds at least n trials, a tile of
    column blocks a trial at a time otherwise.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
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
    # Gaussian pairs and columns are read without an n x n Gram, in a worker arena
    arena = spec.family == "gaussian" and k <= 2
    if cap is None or arena:
        cols = np.unique(fixed)
        local = np.searchsorted(cols, fixed)
    else:
        cols, local = slice(None), fixed
    if arena:
        # the pair table pays when a chunk holds at least n trials
        table = None
        if cap is not None:
            spans = _chunk_spans(trials, threads, 8 * _arena_words(spec, k, True))[1]
            table = spans[0][1] - spans[0][0] >= spec.n
        trial_bytes = 8 * _arena_words(spec, k, table)
    else:
        trial_bytes = _trial_bytes(spec, spec.n if cap is not None else len(cols), packed)

    def chunk_counts(start, stop, work=None):
        if packed:
            words = sample_batch(spec, start, stop, packed=True)
            top = packed_mutual_coherence(words, spec.m) if cap is not None else None
            values = packed_coherence(words, spec.m, fixed) if events else None
        elif arena:
            stack = sample_batch(spec, start, stop, out=work)
            entries = np.moveaxis(stack, 0, -1)  # (m, n, B), contiguous
            values = _batch_values(trial_last_grams(entries[:, cols]), kernel, local, spec.m) if events else None
            top = pair_max(entries, kernel, k, spec.m, work[stack.size :], table) if cap is not None else None
        else:
            # one expression, so the sampled stack is freed once its Gram is built
            grams = gram_stack(sample_batch(spec, start, stop)[:, :, cols])
            top = _max_values(grams, kernel, k, spec.m) if cap is not None else None
            values = _batch_values(grams, kernel, local, spec.m) if events else None
        stats = [top] if cap is not None else []
        stats += [values[:, list(event)].min(axis=1) for event in events]
        return np.stack([len(v) - np.searchsorted(np.sort(v), grid, side="right") for v in stats])

    return grid, _accumulate_counts(trials, threads, trial_bytes, chunk_counts, arena)


def mc_marginal_tail(
    spec: EnsembleSpec,
    kernel: KernelId,
    k: int,
    a_grid,
    trials: int,
    subset=None,
    threads: int = 1,
):
    """Estimate p(a) = Pr{kernel(A_S) > a} on one fixed subset: a TailEstimate record per grid point.

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
    """TailEstimate records of q_i(a) = Pr{kernel(A_S) > a and kernel(A_R) > a}, |S & R| = i."""
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
    """TailEstimate records of Pr{max over all size-k subsets of kernel(A_S) > a}, one per grid point."""
    grid, counts = _tail_counts(spec, kernel, k, a_grid, trials, threads, cap=cap)
    return _estimates(grid, counts[0], trials)


@dataclass(frozen=True)
class ExtremeRun:
    """Extreme, marginal and joint TailEstimate record arrays from one shared trial stream."""

    grid: np.ndarray
    extreme: np.recarray
    marginal: np.recarray
    joint: dict  # overlap -> np.recarray of TailEstimate


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
        overlaps = feasible_overlaps(spec.n, k)
    if len(set(overlaps)) != len(overlaps):
        raise ValueError(f"overlaps must not repeat, got {list(overlaps)}")
    fixed = [tuple(range(k))] + [canonical_pair(k, i, spec.n).second for i in overlaps]
    events = [(0,)] + [(0, 1 + pos) for pos in range(len(overlaps))]
    grid, counts = _tail_counts(spec, kernel, k, a_grid, trials, threads, fixed, events, cap)
    return ExtremeRun(
        grid=grid,
        extreme=_estimates(grid, counts[0], trials),
        marginal=_estimates(grid, counts[1], trials),
        joint={i: _estimates(grid, counts[2 + pos], trials) for pos, i in enumerate(overlaps)},
    )

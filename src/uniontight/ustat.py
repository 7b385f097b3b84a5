"""Exact U-statistics over size-k column subsets and the Monte-Carlo tail engine.

The U-statistic of a sampled matrix is the average of a strict exceedance
indicator over all C(n, k) column subsets; it is zero exactly when the
max-over-subsets statistic stays at or below the threshold.  Enumeration is
lexicographic and refused (never silently approximated) above a configurable
cap.

Kernels are evaluated Gram-first: a stack's Grams over the columns the
subsets use, all n when every subset is enumerated, are one trial-last table
(``kernels.gram_stack``), and every subset's value is read from it: a
pair as G_ii, G_jj and G_ij (``kernels.pair_values``), for every kernel, and
a k x k block for the eigen kernels at k != 2 and for the engine's fixed
eigen subsets.  The max over every pair or column of a caller's whole Grams
is read by ``kernels.gram_pair_max``, from index tiles rather than a subset
stream.  For +-1/sqrt(m) matrices the Gram is the exact lattice one, so
values sit exactly on j/m and ties at a = j/m resolve as 0.

The engine's chunks are of three kinds, chosen by the family and k:

- Bernoulli, k <= 2: no Gram at all.  One packed ``sample_batch`` call
  gives each column's sign bits, and both the max over all pairs or columns
  and the fixed subsets come from XOR and popcount of those words
  (``kernels.packed_pair_max``, ``kernels.packed_pair_values``), the same
  floats as the lattice Gram, for every kernel.
- Gaussian, k <= 2: drawn trial-last into its worker's arena, with no
  n x n Gram.  The fixed subsets get a Gram over their own <= 2k columns,
  and the max over every pair or column is read from the diagonal and a
  pair-only table (``kernels.pair_max``).
- k >= 3, both families: drawn trial-last into its worker's arena, and
  ``kernels.gram_stack`` writes its Gram table there too, after the
  entries; the max and the fixed subsets read it in place.

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
One function, ``_trial_words``, gives a trial's words for every kind of
chunk: packed sign words for Bernoulli at k <= 2, and what a trial of the
other two kinds takes in its worker's arena.  Each worker's fold allocates
one arena for its largest chunk and reuses it for every chunk it runs, so
such a chunk allocates no table temporaries; the arena is freed when the
run ends.  Within a chunk every enumeration at k >= 3, of the subsets or of
the pruned max's (k - 1)-prefixes, walks them in one kind of slice
(``_slices``): 256 KiB (``_SLICE_BYTES``) of one 8-byte value or bound per
matrix and subset, so a slice's gathered k x k Grams take k^2 times that,
and ``_BLOCK_BYTES`` (256 MiB) caps them, which binds only at k > 32.  The
pruned max also holds one ``_workspace`` of eight slice-sized bound tables,
2 MiB at 256 KiB a table, two (n, B) subtree tables, and the index arrays of
one batch of children, about one more table.  All of these, the
column-block tiles of ``kernels.pair_max`` on wide trials and the packed
path's word tiles are per worker, outside ``_CHUNK_BYTES``, so threads
multiply them.  Each slice is filled straight from the lexicographic
stream, so no array of every subset is built.  A single trial larger than
the budget still runs, as a chunk of its own.

The max over all subsets (``_max_values``, also behind ``max_over_subsets``)
is an exact branch and bound wherever the kernel needs ``eigvalsh``, that is
for the eigen kernels at k >= 3; at k <= 2 the closed form is cheaper than any
bound and every pair or column is evaluated.  A subset's extreme eigenvalues
are bounded by bordering its lexicographic prefixes, from the 1 x 1 diagonal
up to k (``_bordered_bounds``; Horn & Johnson, *Matrix Analysis*, ch. 4), the
lower side only for the kernels that read it, and the subset gets the
kernel's value at those bounds, widened by 1e-9 of |bound| + ub_smax for
rounding.  The running maximum of each matrix starts at the values of
subsets grown greedily on the same bounds (``_greedy_seeds``), and a subset
is decomposed only when its widened bound reaches it, so the maximum and
every count are exactly those of exhaustive evaluation.  For ``ric`` and
``sigma_max_sq`` the walk is over the (k - 1)-prefixes, C(n - 1, k - 1) of
them, a slice at a time.  Each prefix T is bordered as whole rows of the
chunk's trial-last Gram table, read in place, and one bound then covers its
whole subtree, every child T + {s} with s > last(T): the bordered form at
c = max_{s > last(T)} G_ss and ||b||^2 = the sum over t in T of
max_{s > t} G_ts^2, two (n, B) tables built once per chunk, with 0 as the
subtree's bound on lambda_min.  A (prefix, matrix) pair whose widened
subtree bound falls below the running max is dropped with its children.
Each matrix's best surviving prefix goes first; the children of the pairs
still alive after it are bordered from their pair's bounds by single-entry
gathers, and each matrix's best-bounded child is decomposed before the
rest.  On 10 x 20 Gaussian matrices (seed 7, k = 4, 128 trials) 5,859 of
the 124,032 (prefix, trial) pairs survive and 43,057 of the 620,160
(subset, trial) pairs are bordered; 0.17% of subsets are decomposed for
``ric`` and 0.14% for ``sigma_max_sq`` (0.35% and 0.25% at k = 3, 512
trials).  ``neg_sigma_min_sq`` prunes no subtree, since every subtree's
bound on -sigma2_min is 0, so it bounds every subset a slice at a time as
whole rows, and decomposes 51%, or 12% at k = 3, where most lower bounds on
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
    packed_pair_max,
    packed_pair_values,
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

    grams: (B, c, c) as gram_stack returns them, read in place; subs: (N, k)
    int array of indices into its c columns; rows: the row count m of the
    matrices -> (B, N) array, or with ``picks`` (N,) subs[c] in matrix
    picks[c] alone -> (N,).  Coherence pairs are read by ``pair_values``;
    every k x k block is gathered here.
    At k = 2 only the Gaussian engine's fixed eigen subsets come here, so
    every Gaussian run still calls ``gram_extremes``, which the benchmark's
    span tracer wraps.
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
    """The fixed buffers of the pruned max's bounds: eight (size, matrices) float64 tables.

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


def _border_level(src, diag, edges, parent, upper, lower, out):
    """Bound subsets bordered by one column from their prefixes' bounds, into out[0] and out[1].

    src is the Gram table as rows, (n * n, B), or as elements, (n * n * B,);
    diag indexes each subset's new diagonal entry c in it, edges yields j
    index arrays, one per prefix column, of the entries of its column b
    against the prefix, and parent indexes its prefix's bounds in upper and
    lower (None: the upper side alone).  out holds six buffers of the
    subsets' shape: the two bounds, then c, ||b||^2 and two work buffers.
    Every gather copies a row of B values or one value.
    """
    upper_next, lower_next, c, b_sq, half, root = out
    # every index is in range by construction; take's default mode="raise"
    # would fill a temporary of the output's size and copy it into out
    np.take(src, diag, axis=0, out=c, mode="clip")
    columns = iter(edges)
    np.square(np.take(src, next(columns), axis=0, out=b_sq, mode="clip"), out=b_sq)
    for column in columns:
        b_sq += np.square(np.take(src, column, axis=0, out=root, mode="clip"), out=root)
    np.take(upper, parent, axis=0, out=upper_next, mode="clip")
    _border(upper_next, c, b_sq, half, root, 1)
    if lower is not None:
        np.take(lower, parent, axis=0, out=lower_next, mode="clip")
        _border(lower_next, c, b_sq, half, root, -1)


def _bordered_bounds(table, subs, rows, work):
    """(lb_smin, ub_smax), each (N, B): bounds on the extreme eigenvalues of subsets, views into work.

    table: (n, n, B) Grams, trial last and contiguous, so every gather below
    copies whole rows of B values; work: a ``_workspace`` of at least
    N = len(subs) rows.  A subset S with lexicographic prefix T (its first
    k - 1 indices) and last index s has Gram [[G_T, b], [b^T, c]], c = G_ss,
    and for any U >= lambda_max(G_T) and L <= lambda_min(G_T)

        lambda_max(G_S) <= (U + c)/2 + sqrt(((U - c)/2)^2 + ||b||^2)
        lambda_min(G_S) >= (L + c)/2 - sqrt(((L - c)/2)^2 + ||b||^2),

    both monotone in U, L, c and ||b||^2, so a prefix's bounds may stand in
    for its eigenvalues.  The bounds are built level by level from the 1 x 1
    diagonal (``_border_level``).  Each level's table holds one row per
    prefix that occurs in subs, read at the rows where the prefix differs
    from the previous one; a cumulative sum over those rows gives each
    subset the rank of its prefix, and its row is taken from the previous
    level's table into the other of two ping-pong buffers, started so that
    the bounds end in work[0] and work[2] and leave the other six free.
    sigma2_min is bounded by 0 from below, and is exactly 0 when k > m;
    rows = 0 asks for that trivial lower bound alone, a read-only broadcast
    0 that writes no buffer.
    """
    n, (size, k) = len(table), subs.shape
    flat = table.reshape(n * n, -1)
    upper, upper_next = work[(k - 1) % 2, :size], work[k % 2, :size]
    lower, lower_next = work[2 + (k - 1) % 2, :size], work[2 + k % 2, :size]
    fresh = np.zeros(size, dtype=bool)
    fresh[0] = True
    for j in range(k):
        rank = np.cumsum(fresh) - 1  # of each subset's length-j prefix, in the previous table
        last = subs[:, j]
        fresh[1:] |= last[1:] != last[:-1]
        starts = np.flatnonzero(fresh)
        s, p = last[starts], len(starts)
        if j == 0:
            np.take(flat, s * (n + 1), axis=0, out=upper[:p], mode="clip")
            if k <= rows:
                np.copyto(lower[:p], upper[:p])
            continue
        edges = subs[starts, :j].T * n + s
        out = (upper_next[:p], lower_next[:p], *work[4:, :p])
        _border_level(flat, s * (n + 1), edges, rank[starts], upper, lower if k <= rows else None, out)
        upper, upper_next = upper_next, upper
        lower, lower_next = lower_next, lower
    if k > rows:
        return np.broadcast_to(0.0, upper.shape), upper
    return np.maximum(lower, 0.0, out=lower), upper


def _reach(kernel: KernelId, lb_smin, ub_smax, bound, slack):
    """Upper bounds on kernel values from eigenvalue bounds, widened for rounding, worked in bound and slack.

    The bound is spectral_value at (lb_smin, ub_smax), plus _BOUND_MARGIN
    times |bound| + ub_smax, which covers rounding in the bound and in
    eigvalsh.  Returns slack.
    """
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


def _subset_reach(table, kernel: KernelId, subs, rows, work):
    """(N, B) upper bounds on the kernel values of subs, widened for rounding: a view into work.

    ``_reach`` at the bounds of ``_bordered_bounds``, worked in the buffers
    those no longer need.  sigma_max_sq reads no lower bound, so it is given
    the trivial one, 0, which holds for every PSD Gram: rows = 0 takes that
    branch.
    """
    lb_smin, ub_smax = _bordered_bounds(table, subs, 0 if kernel.variant == "sigma_max_sq" else rows, work)
    return _reach(kernel, lb_smin, ub_smax, work[4, : len(subs)], work[5, : len(subs)])


def _subtree_tables(table):
    """(d, beta), each (n, B): d[j] = max_{s > j} G_ss and beta[t] = max_{s > t} G_ts^2; row n - 1 is 0.

    A child T + {s} of a prefix T has s > last(T), so its new diagonal entry
    is at most d[last(T)] and its ||b||^2 at most the sum of beta over T.
    """
    n = len(table)
    d, beta = np.zeros((2, n, table.shape[-1]))
    np.maximum.accumulate(table.reshape(n * n, -1)[:0:-(n + 1)], axis=0, out=d[-2::-1])
    for t in range(n - 1):
        np.abs(table[t, t + 1 :]).max(axis=0, out=beta[t])
    np.square(beta, out=beta)
    return d, beta


def _subtree_reach(kernel: KernelId, heads, ub_smax, tables, work):
    """(P, B) upper bounds on the kernel values of every child of each prefix, widened: a view into work.

    heads: (P, k - 1) prefixes with upper bounds ub_smax in work[0];
    tables: ``_subtree_tables``.  Every child T + {s} of T has lambda_max at
    most the bordered bound of U_T with c = d[last(T)] and ||b||^2 = the sum
    of beta over T, since that bound grows with c and ||b||^2, and
    lambda_min at least 0.  ``_reach`` widens the kernel's bound there.
    """
    d, beta = tables
    p = len(heads)
    bound, c, b_sq, half, root = work[1, :p], work[4, :p], work[5, :p], work[6, :p], work[7, :p]
    np.take(d, heads[:, -1], axis=0, out=c, mode="clip")
    np.take(beta, heads[:, 0], axis=0, out=b_sq, mode="clip")
    for j in range(1, heads.shape[1]):
        b_sq += np.take(beta, heads[:, j], axis=0, out=root, mode="clip")
    np.copyto(bound, ub_smax)
    _border(bound, c, b_sq, half, root, 1)
    return _reach(kernel, 0.0, bound, c, b_sq)


def _children(last, n, cap):
    """The children s > last[i] of each entry i, in order, as (owner, s) batches of at most cap."""
    ends = np.cumsum(n - 1 - last)
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, cap):
        s = np.arange(start, min(start + cap, total))
        owner = np.searchsorted(ends, s, side="right")
        s -= ends[owner]
        s += n
        yield owner, s


def _pair_leaves(grams, kernel: KernelId, heads, prefix, trial, bounds, top, rows, work, cap):
    """Decompose the children of (prefix, matrix) pairs whose widened bound reaches top, raising top in place.

    prefix, trial: the pairs, as positions in heads and in the stack;
    bounds: (upper, lower) of heads from ``_bordered_bounds``, flattened
    (lower None for a kernel that reads none).  Each child is bordered by
    ``_border_level`` from its pair's bounds, gathering single entries of
    the trial-last table, cap children at a time in work[1] and work[3:].
    """
    count, n = grams.shape[0], grams.shape[-1]
    src, flat = np.moveaxis(grams, 0, -1).reshape(-1), work.reshape(len(work), -1)
    upper, lower = bounds
    base = np.take(heads.T, prefix, axis=1)  # (t, 0, 0) of each pair's prefix columns t
    base *= n * count
    for owner, s in _children(heads[prefix, -1], n, cap):
        picks = trial[owner]
        line = s * count  # (s, trial) within an (n, B) slab of the table
        line += picks
        diag = s * (n * count)
        diag += line
        parent = prefix[owner] * count
        parent += picks
        out = tuple(flat[i, : len(s)] for i in (1, 3, 4, 5, 6, 7))
        edges = (np.take(row, owner) + line for row in base)
        _border_level(src, diag, edges, parent, upper, lower, out)
        del line, diag, parent  # not held through the eigvalsh gathers
        reach = _reach(kernel, 0.0 if lower is None else out[1], out[0], out[2], out[3])
        hit = np.flatnonzero(reach >= top[picks])
        # each matrix's best-bounded child first: it lifts the running max the rest are held to
        best = np.full(count, -np.inf)
        np.maximum.at(best, picks[hit], reach[hit])
        first = reach[hit] == best[picks[hit]]
        for part in (hit[first], hit[~first]):
            part = part[reach[part] >= top[picks[part]]]
            leaves = np.column_stack([heads[prefix[owner[part]]], s[part]])
            np.maximum.at(top, picks[part], _batch_values(grams, kernel, leaves, rows, picks[part]))


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

    grams: (B, n, n) over all n columns, the view of the trial-last table
    that ``gram_stack`` returns, read in place.  At k <= 2 the max over
    every pair, or column, is read by ``kernels.gram_pair_max``, with no
    subset stream.  At k > m every sigma2_min is exactly 0, so the
    neg_sigma_min_sq max is -0.0 with no eigvalsh.  Otherwise (k >= 3) this
    is the exact branch and bound of the module notes, its running max
    seeded with the values of the ``_greedy_seeds`` subsets and every bound
    held in one ``_workspace`` of slice size: neg_sigma_min_sq bounds each
    subset (``_subset_reach``); the other kernels border the prefixes
    (``_bordered_bounds``), drop the (prefix, matrix) pairs whose subtree
    bound (``_subtree_reach``) falls below the running max, and border the
    children of the rest (``_pair_leaves``).  eigvalsh gives each gathered
    k x k Gram the same floats whatever else is in its stack, so the
    maximum is bit for bit the exhaustive one.
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
    table = np.moveaxis(grams, 0, -1)
    step = _slice_size(n, k, count)
    work = _workspace(max(step, _slice_size(n - 1, k - 1, count)), count)
    if kernel.variant == "neg_sigma_min_sq":
        # a subtree's bound on lambda_min is 0, which prunes no subtree of this kernel
        for part in _slices(n, k, count):
            pos, picks = np.nonzero(_subset_reach(table, kernel, part, rows, work) >= top)
            np.maximum.at(top, picks, _batch_values(grams, kernel, part[pos], rows, picks))
        return top
    lower = kernel.variant == "ric" and k <= rows
    tables = _subtree_tables(table)
    # a batch of children keeps about eight index words a child outside the
    # workspace: this many keep them within one more table's bytes, but at
    # least a slice's worth, still within the step x B that _BLOCK_BYTES covers
    cap = max(step, step * count // 8)
    for heads in _slices(n - 1, k - 1, count):
        lb_smin, ub_smax = _bordered_bounds(table, heads, rows if lower else 0, work)
        reach = _subtree_reach(kernel, heads, ub_smax, tables, work)
        keep = reach >= top
        # each matrix's best subtree first: its children lift the running max
        # that the other pairs are then held to
        best = reach.argmax(axis=0)
        probe = np.flatnonzero(keep[best, every])
        keep[best, every] = False
        pi, pb = np.nonzero(keep)
        bar = reach[pi, pb]
        bounds = (ub_smax.reshape(-1), lb_smin.reshape(-1) if lower else None)
        _pair_leaves(grams, kernel, heads, best[probe], probe, bounds, top, rows, work, cap)
        alive = bar >= top[pb]
        _pair_leaves(grams, kernel, heads, pi[alive], pb[alive], bounds, top, rows, work, cap)
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


def _trial_words(spec: EnsembleSpec, kernel: KernelId, k, cols, table):
    """8-byte words one trial takes in a chunk whose Grams span ``cols`` columns; every chunk is sized by this.

    Bernoulli at k <= 2: packed sign words.  Otherwise the sampler's words
    (``ensembles.sample_words``), which the entries then reuse, or the
    entries and what they are read with, whichever is more: at k <= 2
    ``kernels.pair_words`` (``table`` None reads no max), at k >= 3 the
    Grams and scratch of ``gram_stack``.
    """
    m, n = spec.m, spec.n
    if k <= 2:
        if spec.family == "bernoulli":
            return n * -(-m // 64)
        read = 0 if table is None else pair_words(m, n, k, table)
    else:
        read = cols * (cols + 1)
    return max(sample_words(spec), m * n + read)


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
    is NaN; the kernels yield none from sampled (finite) matrices.  Each
    chunk is of one of the three kinds in the module notes; a Gaussian
    chunk at k <= 2 reads the max over the pair table when it holds at least
    n trials, a tile of column blocks a trial at a time otherwise.
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
    packed = spec.family == "bernoulli" and k <= 2
    # the columns the Grams span, all n for the max at k >= 3, and the fixed subsets' positions among them
    cols = np.unique(fixed) if cap is None or k <= 2 else slice(None)
    local = np.searchsorted(np.arange(spec.n)[cols], fixed)
    trial_words = functools.partial(_trial_words, spec, kernel, k, spec.n if cap is not None else len(cols))
    table = None
    if k <= 2 and not packed and cap is not None:
        # the pair table pays when a chunk holds at least n trials
        spans = _chunk_spans(trials, threads, 8 * trial_words(True))[1]
        table = spans[0][1] - spans[0][0] >= spec.n

    def chunk_counts(start, stop, work=None):
        if packed:
            words = sample_batch(spec, start, stop, packed=True)
            top = packed_pair_max(words, kernel, k, spec.m) if cap is not None else None
            values = packed_pair_values(words, kernel, fixed, spec.m) if events else None
        else:
            stack = sample_batch(spec, start, stop, out=work)
            entries = np.moveaxis(stack, 0, -1)  # (m, n, B), contiguous
            if k <= 2:
                values = _batch_values(trial_last_grams(entries[:, cols]), kernel, local, spec.m) if events else None
                top = pair_max(entries, kernel, k, spec.m, work[stack.size :], table) if cap is not None else None
            else:
                grams = gram_stack(np.moveaxis(entries[:, cols], -1, 0), work[stack.size :])
                top = _max_values(grams, kernel, k, spec.m) if cap is not None else None
                values = _batch_values(grams, kernel, local, spec.m) if events else None
        stats = [top] if cap is not None else []
        stats += [values[:, list(event)].min(axis=1) for event in events]
        return np.stack([len(v) - np.searchsorted(np.sort(v), grid, side="right") for v in stats])

    return grid, _accumulate_counts(trials, threads, 8 * trial_words(table), chunk_counts, not packed)


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

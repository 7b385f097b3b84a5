import functools
import math
from itertools import combinations

import numpy as np
import pytest

from uniontight import kernels
from uniontight.bounds import gershgorin_ric
from uniontight.ensembles import EnsembleSpec, entry_scale, sample_batch
from uniontight.kernels import (
    COHERENCE,
    NEG_SIGMA_MIN_SQ,
    RIC,
    SIGMA_MAX_SQ,
    KernelId,
    coherence_kernel,
    gram_extremes,
    gram_pair_max,
    gram_stack,
    indicator,
    kernel_value,
    packed_pair_max,
    packed_pair_values,
    pair_max,
    pair_values,
    pair_words,
    ric_kernel,
    spectral_value,
    squared_singular_extremes,
    trial_last_grams,
)

GOLDEN = np.array([[1.0, 1.0], [0.0, 1.0]])  # Gram [[1,1],[1,2]], eigs (3 -+ sqrt 5)/2


def test_extremes_zero_matrix():
    assert squared_singular_extremes(np.zeros((4, 2))) == (0.0, 0.0)


def test_extremes_orthonormal_columns():
    smin, smax = squared_singular_extremes(np.eye(5)[:, :3])
    np.testing.assert_allclose([smin, smax], [1.0, 1.0], rtol=1e-12)


def test_extremes_two_by_two_characteristic_polynomial():
    smin, smax = squared_singular_extremes(GOLDEN)
    np.testing.assert_allclose(smin, (3 - math.sqrt(5)) / 2, rtol=1e-12)
    np.testing.assert_allclose(smax, (3 + math.sqrt(5)) / 2, rtol=1e-12)


def test_extremes_match_svd_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        m, k = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.standard_normal((m, k))
        smin, smax = squared_singular_extremes(a)
        sv = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(smax, sv[0] ** 2, rtol=1e-10, atol=1e-12)
        want_min = 0.0 if k > m else sv[-1] ** 2
        np.testing.assert_allclose(smin, want_min, rtol=1e-8, atol=1e-10)


def test_wide_matrix_minimum_is_zero():
    smin, _ = squared_singular_extremes(np.ones((2, 5)))
    assert smin == 0.0


def test_ric_kernel_values():
    assert ric_kernel(np.eye(4)[:, :2]) == pytest.approx(0.0, abs=1e-12)
    assert ric_kernel(np.zeros((3, 2))) == 1.0
    np.testing.assert_allclose(ric_kernel(GOLDEN), (3 + math.sqrt(5)) / 2 - 1, rtol=1e-12)


def test_ric_kernel_never_negative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal((5, 3))
        assert ric_kernel(a) >= 0.0


def test_coherence_kernel_values():
    assert coherence_kernel(np.array([[1.0, 0.0], [0.0, 1.0]])) == 0.0
    col = np.array([1.0, 2.0, -1.0])
    assert coherence_kernel(np.column_stack([col, 3.0 * col])) == pytest.approx(1.0, abs=1e-12)
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_allclose(coherence_kernel(a), 1 / math.sqrt(2), rtol=1e-12)


def test_coherence_kernel_bounds_and_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = rng.standard_normal((4, 2))
        v = coherence_kernel(a)
        assert 0.0 <= v <= 1.0
        assert coherence_kernel(a[:, ::-1]) == pytest.approx(v, abs=1e-14)


def test_coherence_kernel_errors():
    with pytest.raises(ValueError):
        coherence_kernel(np.ones((3, 3)))
    with pytest.raises(ValueError, match="degenerate"):
        coherence_kernel(np.column_stack([np.zeros(3), np.ones(3)]))
    with pytest.raises(ValueError, match="degenerate"):
        gram_pair_max(gram_stack(np.column_stack([np.ones(3), np.zeros(3), np.ones(3)])[None]), COHERENCE, 2)


def test_pair_values_keeps_the_coherence_messages():
    grams = gram_stack(np.column_stack([np.ones(3), np.zeros(3), np.ones(3)])[None])
    with pytest.raises(ValueError, match="^coherence kernel requires k = 2$"):
        pair_values(grams, COHERENCE, np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="^degenerate input: coherence kernel needs nonzero columns$"):
        pair_values(grams, COHERENCE, np.array([[0, 2]]))


def _pair_max(grams):
    """The coherence max over the gathered list of all pairs i < j."""
    pairs = np.array(list(combinations(range(grams.shape[-1]), 2)))
    return pair_values(grams, COHERENCE, pairs).max(axis=1)


@pytest.mark.parametrize(
    "ensemble, m, n, trials",
    [
        ("gaussian", 7, 12, 40),
        ("gaussian", 50, 100, 16),   # three Grams per tile, the last tile short
        ("gaussian", 10, 200, 3),    # one Gram is more than a tile
        ("gaussian", 5, 2, 40),
        ("bernoulli", 50, 100, 16),  # unit diagonal
        ("bernoulli", 6, 9, 40),
        ("bernoulli", 4, 2, 40),
    ],
)
def test_mutual_coherence_equals_pair_max_bitwise(ensemble, m, n, trials):
    grams = gram_stack(sample_batch(EnsembleSpec(ensemble, m, n, base_seed=50), 0, trials))
    assert gram_pair_max(grams, COHERENCE, 2).tobytes() == _pair_max(grams).tobytes()


def test_mutual_coherence_clips_duplicated_and_negated_columns():
    base = np.random.default_rng(0).standard_normal((8, 7, 4))
    mats = np.concatenate([base, 3.0 * base[:, :, :1], -base[:, :, 1:2], base[:, :, 2:3]], axis=2)
    grams = gram_stack(mats)
    diag = np.diagonal(grams, axis1=1, axis2=2)
    raw = np.abs(grams[:, 0, 4]) / np.sqrt(diag[:, 0] * diag[:, 4])
    assert np.any(raw > 1.0)  # the clip is what keeps these at 1
    top = gram_pair_max(grams, COHERENCE, 2)
    assert top.tobytes() == _pair_max(grams).tobytes()
    np.testing.assert_array_equal(top, 1.0)


def test_mutual_coherence_divides_unless_every_diagonal_entry_is_one():
    bernoulli = gram_stack(sample_batch(EnsembleSpec("bernoulli", 6, 10, base_seed=51), 0, 1))
    gaussian = gram_stack(sample_batch(EnsembleSpec("gaussian", 6, 10, base_seed=51), 0, 1))
    assert np.all(np.diagonal(bernoulli, axis1=1, axis2=2) == 1.0)
    assert not np.any(np.diagonal(gaussian, axis1=1, axis2=2) == 1.0)
    for mixed in (np.concatenate([bernoulli, gaussian]), np.concatenate([gaussian, bernoulli])):
        assert gram_pair_max(mixed, COHERENCE, 2).tobytes() == _pair_max(mixed).tobytes()


# m on both sides of each 64-bit word boundary; n = 2 has a single pair
@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 128, 129])
@pytest.mark.parametrize("n", [2, 3, 100])
def test_packed_mutual_coherence_equals_the_float_gram_max_bitwise(m, n):
    spec = EnsembleSpec("bernoulli", m, n, base_seed=53)
    words = sample_batch(spec, 0, 24, packed=True)
    grams = gram_stack(sample_batch(spec, 0, 24))
    assert packed_pair_max(words, COHERENCE, 2, m).tobytes() == gram_pair_max(grams, COHERENCE, 2).tobytes()
    pairs = np.array(list(combinations(range(n), 2)))
    assert packed_pair_values(words, COHERENCE, pairs, m).tobytes() == pair_values(grams, COHERENCE, pairs).tobytes()


def _lattice_block_values(grams, kernel, subs, m):
    """Kernel values of subsets from their gathered k x k blocks of lattice Grams, as the fixed subsets read them."""
    return spectral_value(kernel, *gram_extremes(grams[:, subs[:, :, None], subs[:, None, :]], rows=m))


# m on both sides of each 64-bit word boundary, m = 1 with sigma2_min at 0;
# each stack gains a copy and a negation of its first column, so the max
# |J| = m is reached at d = 0 and at d = m
@pytest.mark.parametrize("m", [1, 2, 7, 64, 65, 129])
@pytest.mark.parametrize("n", [2, 30])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kernel", [RIC, SIGMA_MAX_SQ, NEG_SIGMA_MIN_SQ], ids=lambda kern: kern.variant)
def test_packed_pair_values_equal_the_lattice_gram_bitwise(kernel, k, n, m):
    spec = EnsembleSpec("bernoulli", m, n, base_seed=59)
    words = sample_batch(spec, 0, 24, packed=True)
    mats = sample_batch(spec, 0, 24)
    full = np.array([2**64 - 1] * (m // 64) + [2 ** (m % 64) - 1] * (m % 64 > 0), dtype=np.uint64)
    for extra_words, extra in ((words[:, :0], mats[:, :, :0]), (words[:, :1], mats[:, :, :1]),
                               (words[:, :1] ^ full, -mats[:, :, :1])):
        stack = np.concatenate([mats, extra], axis=2)
        packed = np.concatenate([words, extra_words], axis=1)
        grams = gram_stack(stack)
        assert packed_pair_max(packed, kernel, k, m).tobytes() == gram_pair_max(grams, kernel, k, m).tobytes()
        subs = np.array(list(combinations(range(stack.shape[2]), k)))
        values = packed_pair_values(packed, kernel, subs, m)
        assert values.tobytes() == _lattice_block_values(grams, kernel, subs, m).tobytes()
        if k == 2:
            assert values.tobytes() == pair_values(grams, kernel, subs, m).tobytes()


def test_packed_mutual_coherence_reaches_both_ends_of_the_lattice():
    # equal and opposite columns (d = 0 and d = m) both have coherence 1
    words = sample_batch(EnsembleSpec("bernoulli", 70, 4, base_seed=54), 0, 2, packed=True)
    full = np.array([2**64 - 1, 2**6 - 1], dtype=np.uint64)  # the 70 sign bits
    copied = np.concatenate([words, words[:, :1]], axis=1)
    flipped = np.concatenate([words, words[:, :1] ^ full], axis=1)
    np.testing.assert_array_equal(packed_pair_max(copied, COHERENCE, 2, 70), 1.0)
    np.testing.assert_array_equal(packed_pair_max(flipped, COHERENCE, 2, 70), 1.0)
    assert np.all(packed_pair_max(words, COHERENCE, 2, 70) < 1.0)
    with pytest.raises(ValueError, match="two columns"):
        packed_pair_max(words[:, :1], COHERENCE, 2, 70)
    with pytest.raises(ValueError, match="k = 2"):
        packed_pair_values(words, COHERENCE, np.array([[0, 1, 2]]), 70)


@pytest.mark.parametrize("ensemble", ["bernoulli", "gaussian"])  # lattice and row-order sums
def test_gram_stack_is_exactly_symmetric(ensemble):
    grams = gram_stack(sample_batch(EnsembleSpec(ensemble, 50, 100, base_seed=52), 0, 8))
    assert grams.tobytes() == np.ascontiguousarray(np.swapaxes(grams, 1, 2)).tobytes()
    assert np.moveaxis(grams, 0, -1).flags.c_contiguous  # the trial last in memory


# m = 1 is a single row; 10 x 40 is the size of a k >= 3 engine chunk's table
@pytest.mark.parametrize("m, n, trials", [(1, 3, 5), (7, 12, 40), (10, 40, 9)])
def test_trial_last_grams_sum_in_row_order_with_and_without_out(m, n, trials):
    mats = sample_batch(EnsembleSpec("gaussian", m, n, base_seed=67), 0, trials)
    want = np.stack([functools.reduce(np.add, (np.multiply.outer(row, row) for row in mat)) for mat in mats])
    entries = np.ascontiguousarray(np.moveaxis(mats, 0, -1))
    words = trials * n * (n + 1)
    out = np.full(words + 5, np.nan)
    for grams in (gram_stack(mats), trial_last_grams(entries), trial_last_grams(entries, out)):
        assert np.moveaxis(grams, 0, -1).flags.c_contiguous
        assert np.ascontiguousarray(grams).tobytes() == want.tobytes()
    assert np.shares_memory(grams, out) and np.all(np.isnan(out[words:]))


@pytest.mark.parametrize("m, n, trials", [(1, 3, 5), (7, 12, 40), (65, 10, 9)])
def test_gram_stack_reads_the_lattice_only_when_every_entry_is_on_it(m, n, trials):
    mats = sample_batch(EnsembleSpec("bernoulli", m, n, base_seed=68), 0, trials)
    signs = np.rint(mats * math.sqrt(m))
    want = (np.swapaxes(signs, 1, 2) @ signs) / m  # integer sums, exact in any order
    arena = np.ascontiguousarray(np.moveaxis(mats, 0, -1))
    out = np.full(trials * n * (n + 1) + 5, np.nan)
    for grams in (gram_stack(mats), gram_stack(np.moveaxis(arena, -1, 0), out)):
        assert np.moveaxis(grams, 0, -1).flags.c_contiguous
        assert np.ascontiguousarray(grams).tobytes() == want.tobytes()
    # with out the signs are taken in place, over the entries
    assert np.shares_memory(grams, out) and np.array_equal(arena, np.moveaxis(signs, 0, -1))
    # one entry off the lattice, or a Gaussian stack that starts on it, takes the row-order sums
    off = mats.copy()
    off.flat[-1] *= 0.5
    gaussian = sample_batch(EnsembleSpec("gaussian", m, n, base_seed=68), 0, trials)
    gaussian.flat[0] = entry_scale(m)
    for stack in (off, gaussian):
        sums = trial_last_grams(np.moveaxis(stack, 0, -1))
        assert np.ascontiguousarray(gram_stack(stack)).tobytes() == np.ascontiguousarray(sums).tobytes()


def test_non_finite_entries_rejected():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        squared_singular_extremes(bad)


def test_indicator_strictness_and_examples():
    assert indicator(SIGMA_MAX_SQ, GOLDEN, 1e12) == 0
    assert indicator(RIC, np.eye(3)[:, :2], -0.5) == 1
    assert indicator(SIGMA_MAX_SQ, GOLDEN, 2.5) == 1
    # ties resolve to 0
    assert indicator(RIC, np.zeros((2, 1)), 1.0) == 0


def test_neg_sigma_min_indicator_negated_threshold():
    # exceeding the negated threshold -a is exactly the event sigma2_min < a
    smin, _ = squared_singular_extremes(GOLDEN)
    assert kernel_value(NEG_SIGMA_MIN_SQ, GOLDEN) == -smin
    for a in (0.1, smin, 0.9):
        assert indicator(NEG_SIGMA_MIN_SQ, GOLDEN, -a) == int(smin < a)


def test_kernel_column_permutation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        a = rng.standard_normal((6, k))
        perm = rng.permutation(k)
        for kernel in (RIC, SIGMA_MAX_SQ, NEG_SIGMA_MIN_SQ):
            assert kernel_value(kernel, a[:, perm]) == pytest.approx(
                kernel_value(kernel, a), abs=1e-12
            )


def test_ric_matches_one_sided_kernels():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.standard_normal((5, 3))
        smin, smax = squared_singular_extremes(a)
        assert ric_kernel(a) == pytest.approx(max(smax - 1, 1 - smin), abs=1e-12)


def test_gershgorin_consistency_for_unit_columns():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        a = rng.standard_normal((8, k))
        a /= np.linalg.norm(a, axis=0)
        coh = max(
            coherence_kernel(a[:, [i, j]]) for i in range(k) for j in range(i + 1, k)
        )
        assert ric_kernel(a) <= gershgorin_ric(coh, k) + 1e-9


def test_kernel_id_validation():
    with pytest.raises(ValueError):
        KernelId("spectral")
    assert COHERENCE.needs_pair and not RIC.needs_pair


def _exhaustive_pair_max(grams, kernel, k, m):
    """The max over every subset of size k = 1 or 2, from gathered blocks of whole Grams."""
    subs = np.array(list(combinations(range(grams.shape[-1]), k)))
    blocks = grams[:, subs[:, :, None], subs[:, None, :]]
    if kernel.needs_pair:
        gii, gjj, gij = blocks[..., 0, 0], blocks[..., 1, 1], blocks[..., 0, 1]
        return np.minimum(np.abs(gij) / np.sqrt(gii * gjj), 1.0).max(axis=1)
    return spectral_value(kernel, *gram_extremes(blocks, rows=m)).max(axis=1)


# n below one 181-column tile of a wide trial, at one tile and off a tile
# multiple; m = 1 has rank-one pairs, n = 2 fewer pairs than columns, and
# 3 x 7 more pairs than entries
@pytest.mark.parametrize(
    "m, n, trials", [(1, 2, 40), (2, 3, 40), (1, 7, 40), (3, 7, 40), (20, 7, 40), (4, 181, 1), (3, 183, 2), (20, 200, 1)]
)
@pytest.mark.parametrize("kernel", [RIC, SIGMA_MAX_SQ, NEG_SIGMA_MIN_SQ, COHERENCE], ids=lambda kern: kern.variant)
def test_pair_max_equals_the_exhaustive_max_bitwise(kernel, m, n, trials):
    assert math.isqrt(kernels._PAIR_TILE_BYTES // 8) == 181
    mats = sample_batch(EnsembleSpec("gaussian", m, n, base_seed=66), 0, trials)
    grams = gram_stack(mats)
    assert np.ascontiguousarray(trial_last_grams(np.moveaxis(mats, 0, -1))).tobytes() == grams.tobytes()
    for k in (1, 2) if not kernel.needs_pair else (2,):
        want = _exhaustive_pair_max(grams, kernel, k, m).tobytes()
        assert gram_pair_max(grams, kernel, k, m).tobytes() == want
        for table in (True, False):
            entries = np.ascontiguousarray(np.moveaxis(mats, 0, -1))
            out = np.full(trials * pair_words(m, n, k, table), np.nan)
            assert pair_max(entries, kernel, k, m, out, table).tobytes() == want, (k, table)


def test_pair_max_keeps_the_coherence_messages():
    entries = np.column_stack([np.ones(3), np.zeros(3), np.ones(3)])[:, :, None]
    for table in (True, False):
        with pytest.raises(ValueError, match="^degenerate input: coherence kernel needs nonzero columns$"):
            pair_max(entries.copy(), COHERENCE, 2, 3, np.empty(pair_words(3, 3, 2, table)), table)
        with pytest.raises(ValueError, match="^coherence kernel requires k = 2$"):
            pair_max(entries.copy(), COHERENCE, 1, 3, np.empty(pair_words(3, 3, 1, table)), table)

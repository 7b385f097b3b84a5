import math
from itertools import combinations

import numpy as np
import pytest

from uniontight.bounds import gershgorin_ric
from uniontight.ensembles import EnsembleSpec, sample_batch
from uniontight.kernels import (
    COHERENCE,
    NEG_SIGMA_MIN_SQ,
    RIC,
    SIGMA_MAX_SQ,
    KernelId,
    coherence_kernel,
    gram_coherence,
    gram_mutual_coherence,
    gram_stack,
    indicator,
    kernel_value,
    packed_coherence,
    packed_mutual_coherence,
    ric_kernel,
    squared_singular_extremes,
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
        gram_mutual_coherence(gram_stack(np.column_stack([np.ones(3), np.zeros(3), np.ones(3)])[None]))


def _pair_max(grams):
    """The coherence max over the gathered list of all pairs i < j."""
    pairs = np.array(list(combinations(range(grams.shape[-1]), 2)))
    return gram_coherence(grams, pairs).max(axis=1)


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
    assert gram_mutual_coherence(grams).tobytes() == _pair_max(grams).tobytes()


def test_mutual_coherence_clips_duplicated_and_negated_columns():
    base = np.random.default_rng(0).standard_normal((8, 7, 4))
    mats = np.concatenate([base, 3.0 * base[:, :, :1], -base[:, :, 1:2], base[:, :, 2:3]], axis=2)
    grams = gram_stack(mats)
    diag = np.diagonal(grams, axis1=1, axis2=2)
    raw = np.abs(grams[:, 0, 4]) / np.sqrt(diag[:, 0] * diag[:, 4])
    assert np.any(raw > 1.0)  # the clip is what keeps these at 1
    top = gram_mutual_coherence(grams)
    assert top.tobytes() == _pair_max(grams).tobytes()
    np.testing.assert_array_equal(top, 1.0)


def test_mutual_coherence_divides_unless_every_diagonal_entry_is_one():
    bernoulli = gram_stack(sample_batch(EnsembleSpec("bernoulli", 6, 10, base_seed=51), 0, 1))
    gaussian = gram_stack(sample_batch(EnsembleSpec("gaussian", 6, 10, base_seed=51), 0, 1))
    assert np.all(np.diagonal(bernoulli, axis1=1, axis2=2) == 1.0)
    assert not np.any(np.diagonal(gaussian, axis1=1, axis2=2) == 1.0)
    for mixed in (np.concatenate([bernoulli, gaussian]), np.concatenate([gaussian, bernoulli])):
        assert gram_mutual_coherence(mixed).tobytes() == _pair_max(mixed).tobytes()


# m on both sides of each 64-bit word boundary; n = 2 has a single pair
@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 128, 129])
@pytest.mark.parametrize("n", [2, 3, 100])
def test_packed_mutual_coherence_equals_the_float_gram_max_bitwise(m, n):
    spec = EnsembleSpec("bernoulli", m, n, base_seed=53)
    words = sample_batch(spec, 0, 24, packed=True)
    grams = gram_stack(sample_batch(spec, 0, 24))
    assert packed_mutual_coherence(words, m).tobytes() == gram_mutual_coherence(grams).tobytes()
    pairs = np.array(list(combinations(range(n), 2)))
    assert packed_coherence(words, m, pairs).tobytes() == gram_coherence(grams, pairs).tobytes()


def test_packed_mutual_coherence_reaches_both_ends_of_the_lattice():
    # equal and opposite columns (d = 0 and d = m) both have coherence 1
    words = sample_batch(EnsembleSpec("bernoulli", 70, 4, base_seed=54), 0, 2, packed=True)
    full = np.array([2**64 - 1, 2**6 - 1], dtype=np.uint64)  # the 70 sign bits
    copied = np.concatenate([words, words[:, :1]], axis=1)
    flipped = np.concatenate([words, words[:, :1] ^ full], axis=1)
    np.testing.assert_array_equal(packed_mutual_coherence(copied, 70), 1.0)
    np.testing.assert_array_equal(packed_mutual_coherence(flipped, 70), 1.0)
    assert np.all(packed_mutual_coherence(words, 70) < 1.0)
    with pytest.raises(ValueError, match="two columns"):
        packed_mutual_coherence(words[:, :1], 70)
    with pytest.raises(ValueError, match="k = 2"):
        packed_coherence(words, 70, np.array([[0, 1, 2]]))


@pytest.mark.parametrize("ensemble", ["bernoulli", "gaussian"])  # lattice and row-order sums
def test_gram_stack_is_exactly_symmetric(ensemble):
    grams = gram_stack(sample_batch(EnsembleSpec(ensemble, 50, 100, base_seed=52), 0, 8))
    assert grams.tobytes() == np.ascontiguousarray(np.swapaxes(grams, 1, 2)).tobytes()


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

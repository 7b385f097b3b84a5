import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import Philox

from uniontight import ensembles
from uniontight.ensembles import (
    EnsembleSpec,
    MatrixSample,
    row_outer_products,
    sample_batch,
    sample_matrix,
)


def test_bernoulli_columns_have_exactly_unit_norm():
    spec = EnsembleSpec("bernoulli", 4, 7, base_seed=1)
    data = sample_matrix(spec, 0).data
    assert np.all(np.abs(data) == 0.5)  # entries are +-1/sqrt(4)
    np.testing.assert_allclose(np.linalg.norm(data, axis=0), 1.0, rtol=1e-12)


def test_same_spec_and_trial_reproduces_bit_exactly():
    spec = EnsembleSpec("gaussian", 6, 5, base_seed=7)
    first = sample_matrix(spec, 3)
    second = sample_matrix(spec, 3)
    assert np.array_equal(first.data, second.data)
    assert isinstance(first, MatrixSample)
    assert first.trial_index == 3


def test_distinct_trials_and_seeds_differ():
    spec = EnsembleSpec("gaussian", 6, 5, base_seed=7)
    a = sample_matrix(spec, 0).data
    b = sample_matrix(spec, 1).data
    c = sample_matrix(EnsembleSpec("gaussian", 6, 5, base_seed=8), 0).data
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_batch_matches_per_trial_sampling():
    spec = EnsembleSpec("bernoulli", 3, 4, base_seed=11)
    batch = sample_batch(spec, 2, 6)
    for offset in range(4):
        assert np.array_equal(batch[offset], sample_matrix(spec, 2 + offset).data)


def _reference_words(base_seed, start, stop, size):
    """The words of one freshly keyed numpy Philox per trial (the oracle)."""
    return np.stack(
        [Philox(key=np.array([base_seed, t], dtype=np.uint64)).random_raw(size) for t in range(start, stop)]
    )


def _batch_words(monkeypatch, spec, start, stop):
    """The raw words sample_batch hands to its Gaussian transform."""
    seen = []

    def keep(raw):
        seen.append(raw.copy())
        return np.zeros(raw.shape)

    monkeypatch.setattr(ensembles, "_gaussian_from_raw", keep)
    sample_batch(spec, start, stop)
    return seen[0]


@pytest.mark.parametrize("path", ["vectorized", "reseated"])
@pytest.mark.parametrize(
    "base_seed, m, n, start, stop",
    [
        (0, 1, 1, 0, 8),
        (2**64 - 1, 1, 7, 37, 45),
        (7, 5, 10, 0, 64),
        (7, 5, 10, 0, 1092),  # a two-worker extreme_sampling chunk
        (11, 5, 8, 2**40, 2**40 + 9),  # 40 words: whole blocks, none cut
        (3, 5, 10, 2**64 - 9, 2**64),
        (8117, 50, 100, 2**64 - 3, 2**64),
    ],
)
def test_sample_batch_words_match_numpy_philox(monkeypatch, path, base_seed, m, n, start, stop):
    monkeypatch.setattr(ensembles, "_VECTOR_WORDS_MAX", 2**62 if path == "vectorized" else 0)
    spec = EnsembleSpec("gaussian", m, n, base_seed=base_seed)
    words = _batch_words(monkeypatch, spec, start, stop)
    assert words.dtype == np.uint64
    assert np.array_equal(words, _reference_words(base_seed, start, stop, m * n))


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("base_seed, start", [(0, 0), (2**64 - 1, 2**64 - 6)])
def test_sample_batch_words_exact_around_crossover(monkeypatch, offset, base_seed, start):
    size = ensembles._VECTOR_WORDS_MAX + offset
    spec = EnsembleSpec("gaussian", 1, size, base_seed=base_seed)
    words = _batch_words(monkeypatch, spec, start, start + 6)
    assert np.array_equal(words, _reference_words(base_seed, start, start + 6, size))


@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
@pytest.mark.parametrize("base_seed, start, stop", [(0, 0, 3), (2**64 - 1, 2**64 - 5, 2**64)])
def test_sample_batch_out_buffer_holds_the_words_and_entries(family, base_seed, start, stop):
    # every size through the crossover, so every partial last block on the vectorized path
    count = stop - start
    for size in range(1, ensembles._VECTOR_WORDS_MAX + 2):
        m = math.gcd(size, 6)
        spec = EnsembleSpec(family, m, size // m, base_seed=base_seed)
        words = count * ensembles.sample_words(spec)
        buffer = np.empty(words)
        raws = ensembles._raw_words(base_seed, start, count, size, buffer.view(np.uint64))
        assert raws.T.flags.c_contiguous and raws.T.ctypes.data == buffer.ctypes.data
        assert np.array_equal(raws, _reference_words(base_seed, start, stop, size))
        entries = sample_batch(spec, start, stop, out=buffer)
        trial_last = np.moveaxis(entries, 0, -1)
        assert trial_last.flags.c_contiguous and trial_last.ctypes.data == buffer.ctypes.data
        assert entries.tobytes() == sample_batch(spec, start, stop).tobytes()
        # one word short: refused, and the word past its end is left alone
        padded = np.full(words, 7.0)
        with pytest.raises(ValueError):
            sample_batch(spec, start, stop, out=padded[: words - 1])
        assert padded[-1] == 7.0


@pytest.mark.parametrize("m, n", [(5, 10), (10, 20)])
def test_sample_batch_builds_at_most_one_generator(monkeypatch, m, n):
    built = []

    def counting_philox(*args, **kwargs):
        built.append(kwargs)
        return Philox(*args, **kwargs)

    monkeypatch.setattr(ensembles, "Philox", counting_philox)
    assert sample_batch(EnsembleSpec("gaussian", m, n, base_seed=7), 100, 612).shape == (512, m, n)
    assert len(built) <= 1


@pytest.mark.parametrize("start, stop", [(-1, 1), (2**64 - 1, 2**64 + 1), (5, 4)])
def test_sample_batch_rejects_trials_outside_u64(start, stop):
    with pytest.raises(ValueError):
        sample_batch(EnsembleSpec("bernoulli", 3, 4), start, stop)


def test_sample_batch_empty_range_at_top_of_u64():
    assert sample_batch(EnsembleSpec("bernoulli", 3, 4), 2**64, 2**64).shape == (0, 3, 4)


def test_gaussian_column_norm_second_moment():
    # ||col||^2 ~ chi2_m / m with mean 1; Monte-Carlo oracle at 3 standard errors
    trials = 10_000
    spec = EnsembleSpec("gaussian", 10, 1, base_seed=5)
    sq = np.sum(sample_batch(spec, 0, trials) ** 2, axis=(1, 2))
    se = sq.std(ddof=1) / math.sqrt(trials)
    assert abs(sq.mean() - 1.0) <= 3 * se


def test_stream_independence_correlation():
    trials = 1000
    spec = EnsembleSpec("gaussian", 2, 3, base_seed=9)
    entries = sample_batch(spec, 0, trials + 1)[:, 0, 0]
    corr = np.corrcoef(entries[:-1], entries[1:])[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(trials)


def test_row_outer_products_identity_example():
    outers = row_outer_products(np.eye(2), scale=1.0)
    np.testing.assert_allclose(outers[0], [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(outers[1], [[0.0, 0.0], [0.0, 1.0]])


def test_row_outer_products_sum_to_scaled_gram():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 3))
    scale = math.sqrt(6 / 3)
    outers = row_outer_products(a, scale)
    np.testing.assert_allclose(outers.sum(axis=0), scale**2 * a.T @ a, rtol=1e-12)


def test_row_outer_products_psd_and_bernoulli_diagonal():
    m, k = 8, 4
    spec = EnsembleSpec("bernoulli", m, k, base_seed=3)
    sub = sample_matrix(spec, 0).data
    scale = math.sqrt(m / k)
    outers = row_outer_products(sub, scale)
    assert np.abs(scale * sub).max() <= 1.0 / math.sqrt(k) + 1e-15
    for x in outers:
        np.testing.assert_allclose(np.diag(x), 1.0 / k, rtol=1e-12)
        eigs = np.linalg.eigvalsh(x)
        assert eigs.min() >= -1e-12 * np.trace(x)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"family": "uniform", "m": 3, "n": 3},
        {"family": "gaussian", "m": 0, "n": 3},
        {"family": "gaussian", "m": 3, "n": 0},
        {"family": "gaussian", "m": 3, "n": 3, "base_seed": -1},
        {"family": "gaussian", "m": 3, "n": 3, "base_seed": 2**64},
    ],
)
def test_invalid_spec_rejected(kwargs):
    with pytest.raises(ValueError):
        EnsembleSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"family": "gaussian", "m": 3, "n": 4, "base_seed": 1.5},
        {"family": "gaussian", "m": 30, "n": 40, "base_seed": 1.9},
        {"family": "gaussian", "m": 2.5, "n": 4},
        {"family": "gaussian", "m": 3, "n": 4.0},
        {"family": "gaussian", "m": True, "n": 4},
        {"family": "bernoulli", "m": 3, "n": 4, "base_seed": False},
        {"family": "gaussian", "m": 3, "n": 4, "base_seed": "7"},
    ],
)
def test_non_integer_spec_rejected(kwargs):
    # a float seed or shape used to be truncated into another spec's matrices
    with pytest.raises(ValueError, match="must be an integer"):
        EnsembleSpec(**kwargs)


def test_numpy_integer_spec_samples_like_python_ints():
    for m, n in ((3, 4), (30, 40)):  # vectorized rounds and a reseated generator
        spec = EnsembleSpec("gaussian", np.int64(m), np.int64(n), np.uint64(7))
        assert np.array_equal(sample_batch(spec, 0, 3), sample_batch(EnsembleSpec("gaussian", m, n, 7), 0, 3))


def test_row_outer_products_rejects_bad_args():
    with pytest.raises(ValueError):
        row_outer_products(np.eye(2), scale=0.0)
    with pytest.raises(ValueError):
        row_outer_products(np.ones(3), scale=1.0)



@pytest.mark.parametrize("m, n", [(1, 4), (5, 10), (63, 3), (64, 7), (65, 7), (130, 5)])
def test_packed_signs_hold_the_top_bits(m, n):
    # (1, 4) and (5, 10) take the vectorized rounds, the others a reseated generator
    spec = EnsembleSpec("bernoulli", m, n, base_seed=9)
    words = sample_batch(spec, 3, 40, packed=True)
    assert words.dtype == np.uint64 and words.shape == (37, n, -(-m // 64))
    # bit i % 64 of word i // 64 lands at position i along the last axis
    bits = ((words[..., None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).reshape(37, n, -1)
    assert np.array_equal(bits[:, :, :m], np.swapaxes(sample_batch(spec, 3, 40) < 0, 1, 2))
    assert not np.any(bits[:, :, m:])  # the unused high bits stay 0

def test_packed_signs_do_not_depend_on_the_word_tile(monkeypatch):
    spec = EnsembleSpec("bernoulli", 50, 100, base_seed=7)
    whole = sample_batch(spec, 0, 512, packed=True)
    monkeypatch.setattr(ensembles, "_WORD_TILE_BYTES", 1)  # one trial per tile
    assert np.array_equal(sample_batch(spec, 0, 512, packed=True), whole)
    monkeypatch.setattr(ensembles, "_WORD_TILE_BYTES", 100 * 50 * 100 * 8)  # 100-trial tiles
    assert np.array_equal(sample_batch(spec, 0, 512, packed=True), whole)


def test_packed_word_tiles_hold_the_sampler_state(monkeypatch):
    # 5 x 10 trials take 150 words of Philox state each, not m n = 50, so a
    # tile sized by m n held three times its budget of state
    spec = EnsembleSpec("bernoulli", 5, 10, base_seed=7)
    whole = sample_batch(spec, 0, 20_000, packed=True)
    monkeypatch.setattr(ensembles, "_WORD_TILE_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        tiled = sample_batch(spec, 0, 20_000, packed=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(tiled, whole)
    assert peak < whole.nbytes + 1.5 * 2**20


def test_packed_signs_refuse_gaussian_specs():
    with pytest.raises(ValueError, match="Bernoulli"):
        sample_batch(EnsembleSpec("gaussian", 3, 4), 0, 2, packed=True)

import hashlib
import math
import sys
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from uniontight import ustat
from uniontight.ensembles import EnsembleSpec, sample_batch, sample_matrix
from uniontight.kernels import (
    COHERENCE,
    NEG_SIGMA_MIN_SQ,
    RIC,
    SIGMA_MAX_SQ,
    coherence_kernel,
    gram_extremes,
    gram_pair_max,
    gram_stack,
    kernel_value,
    pair_extremes,
    pair_values,
    ric_kernel,
    spectral_value,
)
from uniontight.ustat import (
    EnumerationInfeasibleError,
    SubsetPair,
    canonical_pair,
    extreme_experiment,
    max_over_subsets,
    mc_extreme_tail,
    mc_joint_tail,
    mc_marginal_tail,
    subset_count,
    subset_values,
    subsets,
    u_statistic,
)


def test_subsets_small_cases():
    assert list(subsets(3, 2)) == [(0, 1), (0, 2), (1, 2)]
    assert list(subsets(4, 4)) == [(0, 1, 2, 3)]
    assert sum(1 for _ in subsets(25, 2)) == 300


def test_subsets_cap_error_names_count():
    with pytest.raises(EnumerationInfeasibleError, match=r"C\(100,10\)"):
        list(subsets(100, 10))
    err = None
    try:
        list(subsets(30, 8, cap=100))
    except EnumerationInfeasibleError as exc:
        err = exc
    assert err is not None and err.count == math.comb(30, 8) and err.cap == 100


def test_u_statistic_hand_enumeration():
    # columns e1, e1, e2: only the pair {0, 1} has coherence 1 > 0.5
    phi = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert u_statistic(phi, COHERENCE, 2, 0.5) == pytest.approx(1 / 3)


def test_u_statistic_extremes():
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((4, 5))
    top = max_over_subsets(phi, RIC, 2)
    assert u_statistic(phi, RIC, 2, top + 1e-9) == 0.0
    assert u_statistic(phi, RIC, 2, -10.0) == 1.0


def test_max_over_subsets_examples():
    assert max_over_subsets(np.eye(5)[:, :4], RIC, 3) == pytest.approx(0.0, abs=1e-12)
    col = np.array([0.6, 0.8])
    phi = np.column_stack([col, col, [1.0, 0.0]])
    assert max_over_subsets(phi, COHERENCE, 2) == pytest.approx(1.0)


def test_max_over_subsets_brute_force_oracle():
    rng = np.random.default_rng(7)
    phi = rng.standard_normal((3, 4))
    brute = max(ric_kernel(phi[:, list(s)]) for s in combinations(range(4), 2))
    assert max_over_subsets(phi, RIC, 2) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda phi: subset_values(phi, RIC, 2), id="subset_values"),
        pytest.param(lambda phi: u_statistic(phi, RIC, 2, 0.5), id="u_statistic"),
        pytest.param(lambda phi: max_over_subsets(phi, RIC, 2), id="max_over_subsets"),
    ],
)
@pytest.mark.parametrize("shape", [(3,), (0, 3), (2, 3, 4)], ids=["1d", "no_rows", "3d"])
def test_matrix_functions_refuse_non_matrices(call, shape):
    with pytest.raises(ValueError, match="nonempty 2-d"):
        call(np.ones(shape))


def test_zero_u_statistic_iff_max_below_threshold():
    spec = EnsembleSpec("gaussian", 4, 6, base_seed=21)
    rng = np.random.default_rng(21)
    for trial in range(20):
        phi = sample_matrix(spec, trial).data
        top = max_over_subsets(phi, SIGMA_MAX_SQ, 2)
        a = top + rng.uniform(-0.4, 0.4)
        assert (u_statistic(phi, SIGMA_MAX_SQ, 2, a) == 0.0) == (top <= a)


def test_canonical_pair_and_subset_pair_validation():
    pair = canonical_pair(3, 2, 6)
    assert pair.first == (0, 1, 2) and pair.second == (1, 2, 3)
    with pytest.raises(ValueError):
        canonical_pair(3, 3, 10)
    with pytest.raises(ValueError):
        canonical_pair(3, 1, 4)  # needs 2k - i <= n
    with pytest.raises(ValueError):
        SubsetPair((0, 1), (2, 3), overlap=1)


def test_mc_marginal_known_exponential_tail():
    # k = 1, gaussian, m = 2: ||col||^2 ~ Exp(1), so p(a) = e^-a
    spec = EnsembleSpec("gaussian", 2, 3, base_seed=4)
    [est] = mc_marginal_tail(spec, SIGMA_MAX_SQ, 1, [1.0], trials=20_000)
    assert abs(est.point - math.exp(-1.0)) <= 3 * est.std_err
    assert est.std_err == pytest.approx(
        math.sqrt(est.point * (1 - est.point) / est.trials)
    )


def test_mc_marginal_determinism_and_extreme_dominates():
    spec = EnsembleSpec("gaussian", 3, 5, base_seed=10)
    grid = [0.5, 1.5, 2.5, 3.5]
    first = mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=300)
    second = mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=300)
    assert [e.point for e in first] == [e.point for e in second]
    extreme = mc_extreme_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=300)
    for marg, ext in zip(first, extreme):
        assert ext.point >= marg.point  # same trials by seeding, max dominates


def test_mc_marginal_saturates_below_all_values():
    spec = EnsembleSpec("gaussian", 3, 4, base_seed=2)
    [est] = mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, [-1.0], trials=100)
    assert est.point == 1.0


def test_mc_curves_monotone_in_threshold():
    spec = EnsembleSpec("gaussian", 4, 6, base_seed=3)
    grid = np.linspace(0.0, 5.0, 21)
    for series in (
        mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=400),
        mc_joint_tail(spec, SIGMA_MAX_SQ, 2, 1, grid, trials=400),
        mc_extreme_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=400),
    ):
        pts = [e.point for e in series]
        assert all(x >= y for x, y in zip(pts, pts[1:]))


def test_mc_joint_below_marginal_and_low_threshold_saturation():
    spec = EnsembleSpec("gaussian", 4, 6, base_seed=8)
    grid = [-5.0, 1.0, 2.0]
    joint = mc_joint_tail(spec, SIGMA_MAX_SQ, 2, 1, grid, trials=500)
    marginal = mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=500)
    assert joint[0].point == 1.0
    for j, p in zip(joint, marginal):
        assert j.point <= p.point


def test_joint_overlap_ordering():
    # deeper overlap makes joint exceedance more likely: q_2 >= q_1 - 3 SE
    spec = EnsembleSpec("gaussian", 5, 5, base_seed=12)
    grid = np.linspace(1.0, 4.0, 13)
    q1 = mc_joint_tail(spec, SIGMA_MAX_SQ, 3, 1, grid, trials=5_000)
    q2 = mc_joint_tail(spec, SIGMA_MAX_SQ, 3, 2, grid, trials=5_000)
    for e1, e2 in zip(q1, q2):
        if e1.point >= 0.01:
            se = math.hypot(e1.std_err, e2.std_err)
            assert e2.point >= e1.point - 3 * se


def test_mc_extreme_trace_bound_for_unit_columns():
    # sigma2_max <= k for unit-norm columns, so the tail vanishes at a >= k
    spec = EnsembleSpec("bernoulli", 4, 6, base_seed=5)
    series = mc_extreme_tail(spec, SIGMA_MAX_SQ, 2, [2.0, 2.5], trials=200)
    assert [e.point for e in series] == [0.0, 0.0]


def test_mc_extreme_infeasible_enumeration():
    spec = EnsembleSpec("gaussian", 4, 50, base_seed=5)
    with pytest.raises(EnumerationInfeasibleError):
        mc_extreme_tail(spec, SIGMA_MAX_SQ, 8, [1.0], trials=10)


def test_exchangeability_across_fixed_subsets():
    spec = EnsembleSpec("gaussian", 5, 8, base_seed=6)
    grid = [1.5, 2.2]
    lead = mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=4_000)
    other = mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=4_000, subset=(5, 7))
    for e1, e2 in zip(lead, other):
        assert abs(e1.point - e2.point) <= 3 * math.hypot(e1.std_err, e2.std_err)


def test_binomial_mean_for_k_equal_one():
    # n * U_n(a) has Binomial(n, p(a)) law; compare its mean to n * e^-a
    spec = EnsembleSpec("gaussian", 2, 6, base_seed=13)
    a, trials = 0.7, 4_000
    counts = []
    for trial in range(trials):
        phi = sample_matrix(spec, trial).data
        counts.append(spec.n * u_statistic(phi, SIGMA_MAX_SQ, 1, a))
    counts = np.array(counts)
    se = counts.std(ddof=1) / math.sqrt(trials)
    assert abs(counts.mean() - spec.n * math.exp(-a)) <= 3 * se


def test_threads_do_not_change_results(chunk_plan, drawn_spans):
    # 1,200 trials are three chunks of at most 512, on two workers; one worker
    # gets chunks of 1,024
    spec = EnsembleSpec("gaussian", 4, 8, base_seed=14)
    grid = np.linspace(0.5, 4.0, 9)
    trial_bytes = chunk_plan(spec, SIGMA_MAX_SQ, 2, 512, threads=4)
    plan = [(0, 512), (512, 1_024), (1_024, 1_200)]
    assert ustat._chunk_spans(1_200, 4, trial_bytes) == (2, plan)
    serial = mc_extreme_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=1_200, threads=1)
    assert drawn_spans == [(0, 1_024), (1_024, 1_200)]
    drawn_spans.clear()
    threaded = mc_extreme_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=1_200, threads=4)
    assert sorted(drawn_spans) == plan
    assert [e.point for e in serial] == [e.point for e in threaded]


def test_extreme_experiment_matches_individual_estimators():
    spec = EnsembleSpec("gaussian", 4, 7, base_seed=15)
    grid = np.linspace(0.5, 4.5, 9)
    run = extreme_experiment(spec, SIGMA_MAX_SQ, 2, grid, trials=600)
    marg = mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=600)
    joint = mc_joint_tail(spec, SIGMA_MAX_SQ, 2, 1, grid, trials=600)
    ext = mc_extreme_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=600)
    assert [e.point for e in run.marginal] == [e.point for e in marg]
    assert [e.point for e in run.joint[1]] == [e.point for e in joint]
    assert [e.point for e in run.extreme] == [e.point for e in ext]


def test_mc_argument_validation(monkeypatch):
    spec = EnsembleSpec("gaussian", 4, 6, base_seed=1)
    with pytest.raises(ValueError):
        mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, [1.0], trials=0)
    with pytest.raises(ValueError):
        mc_marginal_tail(spec, SIGMA_MAX_SQ, 9, [1.0], trials=10)
    with pytest.raises(ValueError):
        mc_marginal_tail(spec, COHERENCE, 3, [0.5], trials=10)
    with pytest.raises(ValueError):
        mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, [1.0], trials=10, subset=(0, 9))
    with pytest.raises(ValueError, match="distinct"):
        mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, [2.0], trials=10, subset=(1, 1))
    with pytest.raises(ValueError, match="distinct"):
        mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, [2.0], trials=10, subset=(1, 1.5))
    with pytest.raises(ValueError):
        mc_joint_tail(spec, SIGMA_MAX_SQ, 2, 2, [1.0], trials=10)
    with pytest.raises(ValueError, match="coherence kernel requires k = 2"):
        mc_extreme_tail(spec, COHERENCE, 3, [0.5], trials=10)
    with pytest.raises(ValueError, match="coherence kernel requires k = 2"):
        max_over_subsets(np.random.default_rng(1).standard_normal((5, 6)), COHERENCE, 3)
    # a grid that is not one-dimensional is refused before anything is sampled,
    # and coherence at k != 2 before any Gram is built
    monkeypatch.setattr(ustat, "sample_batch", _refuse)
    monkeypatch.setattr(ustat, "gram_stack", _refuse)
    phi = np.random.default_rng(1).standard_normal((5, 6))
    with pytest.raises(ValueError, match="^coherence kernel requires k = 2$"):
        subset_values(phi, COHERENCE, 3)
    with pytest.raises(ValueError, match="^coherence kernel requires k = 2$"):
        u_statistic(phi, COHERENCE, 3, 0.5)
    with pytest.raises(ValueError, match="a_grid must be one-dimensional"):
        mc_extreme_tail(spec, SIGMA_MAX_SQ, 2, 2.0, 600)
    with pytest.raises(ValueError, match="a_grid must be one-dimensional"):
        mc_extreme_tail(spec, SIGMA_MAX_SQ, 2, [[1.0, 2.0], [3.0, 4.0]], 600)
    with pytest.raises(ValueError, match="a_grid must be one-dimensional"):
        extreme_experiment(spec, SIGMA_MAX_SQ, 2, [[1.0], [2.0]], 600)


@pytest.mark.parametrize("threads", [0, -3, 1.5, True, "2", None])
def test_engine_refuses_bad_threads_before_sampling(monkeypatch, threads):
    monkeypatch.setattr(ustat, "sample_batch", _refuse)
    spec = EnsembleSpec("gaussian", 4, 6, base_seed=1)
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        mc_extreme_tail(spec, SIGMA_MAX_SQ, 2, [1.0], trials=10, threads=threads)
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        extreme_experiment(spec, SIGMA_MAX_SQ, 2, [1.0], trials=10, threads=threads)


def test_engine_takes_numpy_integer_threads():
    spec = EnsembleSpec("gaussian", 4, 6, base_seed=1)
    serial = mc_extreme_tail(spec, SIGMA_MAX_SQ, 2, [1.0, 2.0], trials=50)
    assert np.array_equal(mc_extreme_tail(spec, SIGMA_MAX_SQ, 2, [1.0, 2.0], trials=50, threads=np.int64(2)), serial)


def test_extreme_experiment_refuses_repeated_overlaps(monkeypatch):
    monkeypatch.setattr(ustat, "sample_batch", _refuse)
    spec = EnsembleSpec("gaussian", 4, 8, base_seed=1)
    with pytest.raises(ValueError, match=r"overlaps must not repeat, got \[1, 1\]"):
        extreme_experiment(spec, SIGMA_MAX_SQ, 3, [1.0], trials=10, overlaps=[1, 1])
    with pytest.raises(ValueError, match="overlaps must not repeat"):
        extreme_experiment(spec, SIGMA_MAX_SQ, 3, [1.0], trials=10, overlaps=(2, 1, 2))


def test_subset_count_helper():
    assert subset_count(25, 2) == 300


def _exact_pair_products(phi):
    """|<s_i, s_j>| over column pairs i < j (lexicographic) of a +-1/sqrt(m) matrix."""
    signs = np.sign(phi).astype(np.int64)
    rows, cols = np.triu_indices(phi.shape[1], k=1)
    return np.abs(signs.T @ signs)[rows, cols]


def test_gaussian_coherence_matches_pairwise_loop():
    phi = sample_matrix(EnsembleSpec("gaussian", 7, 6, base_seed=30), 0).data
    loop = [
        abs(phi[:, i] @ phi[:, j]) / (np.linalg.norm(phi[:, i]) * np.linalg.norm(phi[:, j]))
        for i, j in combinations(range(6), 2)
    ]
    np.testing.assert_allclose(subset_values(phi, COHERENCE, 2), loop, rtol=1e-13)


def test_bernoulli_coherence_sits_on_the_lattice():
    for m, n in ((6, 9), (20, 12), (50, 30)):
        spec = EnsembleSpec("bernoulli", m, n, base_seed=31)
        for phi in sample_batch(spec, 0, 8):
            values = subset_values(phi, COHERENCE, 2)
            exact = _exact_pair_products(phi)
            np.testing.assert_array_equal(values, exact / m)
            if m != 50:  # fl(fl(j/50) * 50) != j for j = 7, 14, 28, 29
                np.testing.assert_array_equal(values * m, exact)


def test_u_statistic_ties_on_the_bernoulli_lattice():
    for m, n in ((6, 9), (50, 20)):
        spec = EnsembleSpec("bernoulli", m, n, base_seed=32)
        for trial in range(6):
            phi = sample_matrix(spec, trial).data
            exact = _exact_pair_products(phi)
            for j in range(m + 1):
                want = np.count_nonzero(exact > j) / len(exact)
                assert u_statistic(phi, COHERENCE, 2, j / m) == want


def test_coherence_chunk_memory_is_gram_sized():
    # one 512-trial chunk of 50 x 100 matrices: the Gram stack is 41 MB, while
    # gathering both columns of all 4950 pairs would take 2 GB
    spec = EnsembleSpec("bernoulli", 50, 100, base_seed=7)
    tracemalloc.start()
    try:
        mc_extreme_tail(spec, COHERENCE, 2, [0.5], trials=512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20


def test_coherence_chunk_memory_at_a_thousand_columns():
    # 16 trials of 50 x 1000: the Gram stack alone is 122 MiB, and gathering
    # the 499,500 pairs took the peak to 374 MiB
    spec = EnsembleSpec("bernoulli", 50, 1000, base_seed=7)
    tracemalloc.start()
    try:
        mc_extreme_tail(spec, COHERENCE, 2, [0.5], trials=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 192 * 2**20


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def test_coherence_max_builds_no_pair_list(monkeypatch):
    spec = EnsembleSpec("bernoulli", 6, 9, base_seed=33)
    grid = np.linspace(0.0, 1.0, 7)
    tops = np.array([subset_values(phi, COHERENCE, 2).max() for phi in sample_batch(spec, 0, 40)])
    monkeypatch.setattr(ustat, "_slices", _refuse)
    est = mc_extreme_tail(spec, COHERENCE, 2, grid, trials=40)
    assert [e.point for e in est] == [np.count_nonzero(tops > a) / 40 for a in grid]
    phi = sample_batch(spec, 0, 1)[0]
    assert max_over_subsets(phi, COHERENCE, 2) == tops[0]


def test_coherence_cap_refused_before_sampling(monkeypatch):
    # C(1415, 2) = 1,000,405 is just over the cap
    monkeypatch.setattr(ustat, "sample_batch", _refuse)
    monkeypatch.setattr(ustat, "_slices", _refuse)
    spec = EnsembleSpec("bernoulli", 50, 1415, base_seed=7)
    with pytest.raises(EnumerationInfeasibleError, match=r"C\(1415,2\) = 1000405"):
        mc_extreme_tail(spec, COHERENCE, 2, [0.5], trials=512)
    with pytest.raises(EnumerationInfeasibleError):
        max_over_subsets(np.ones((2, 1415)), COHERENCE, 2)


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs serially."""

    def __init__(self, seen, max_workers):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_thread_count_clamped_to_chunks_and_cpus(monkeypatch):
    seen = []
    monkeypatch.setattr(ustat, "ThreadPoolExecutor", lambda max_workers: _RecordingPool(seen, max_workers))
    spec = EnsembleSpec("gaussian", 4, 8, base_seed=14)
    grid = np.linspace(0.5, 4.0, 9)
    serial = [e.point for e in mc_extreme_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=1_200)]
    assert seen == []
    # 1200 trials are 3 chunks of at most 512
    for cpus, threads, trials, want in (
        (2, 64, 1_200, [2]),
        (8, 64, 1_200, [3]),
        (1, 64, 1_200, []),
        (8, 64, 100, []),
    ):
        seen.clear()
        monkeypatch.setattr(ustat, "_cpus", lambda: cpus)
        # split across min(threads, CPUs) workers, the budget holds 512 trials of 768 B each
        monkeypatch.setattr(ustat, "_CHUNK_BYTES", min(threads, cpus) * 512 * 768)
        est = mc_extreme_tail(spec, SIGMA_MAX_SQ, 2, grid, trials=trials, threads=threads)
        assert seen == want
        if trials == 1_200:
            assert [e.point for e in est] == serial


def test_cpus_reads_the_affinity_mask(monkeypatch):
    # two CPUs on the host but one in the mask: a --threads 2 run gets one worker
    monkeypatch.setattr(ustat.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(ustat.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert ustat._cpus() == 1
    one_trial_chunks = ustat._CHUNK_BYTES
    assert ustat._chunk_spans(100, 2, one_trial_chunks)[0] == 1
    monkeypatch.delattr(ustat.os, "sched_getaffinity")
    assert ustat._cpus() == 2
    assert ustat._chunk_spans(100, 2, one_trial_chunks)[0] == 2
    monkeypatch.setattr(ustat.os, "cpu_count", lambda: None)
    assert ustat._cpus() == 1


def test_failed_chunk_stops_the_other_workers(monkeypatch):
    # 100 one-trial chunks on two workers: chunk 1 fails at once while chunk 0
    # takes 0.2 s, and the failing worker takes no further chunk; waiting for
    # chunk 0 before stopping ran about 20 more of 10 ms each
    monkeypatch.setattr(ustat, "_cpus", lambda: 2)
    monkeypatch.setattr(ustat, "_CHUNK_BYTES", 2)
    ran = []

    def chunk_counts(start, stop):
        ran.append(start)
        if start == 1:
            raise MemoryError
        time.sleep(0.2 if start == 0 else 0.01)
        return np.ones(3, dtype=np.int64)

    with pytest.raises(MemoryError):
        ustat._accumulate_counts(100, 2, 1, chunk_counts)
    assert len(ran) < 10


def test_shared_chunk_queue_counts_every_chunk_once(monkeypatch):
    # eight workers on 2,000 one-trial chunks, switching threads as often as
    # the interpreter allows: a chunk taken twice or lost changes the total
    monkeypatch.setattr(ustat, "_cpus", lambda: 8)
    monkeypatch.setattr(ustat, "_CHUNK_BYTES", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        total = ustat._accumulate_counts(2000, 8, 1, lambda start, stop: np.array([1, start]))
    finally:
        sys.setswitchinterval(interval)
    assert total.tolist() == [2000, sum(range(2000))]


def _points(run):
    return (
        [e.point for e in run.extreme],
        [e.point for e in run.marginal],
        {i: [e.point for e in series] for i, series in run.joint.items()},
    )


@pytest.mark.parametrize("threads", [1, 2])
def test_subset_tiling_does_not_change_estimates(monkeypatch, chunk_plan, drawn_spans, threads):
    # 600 trials are two chunks, of 512 and 88; k = 3 of n = 7 is 35 subsets per trial
    spec = EnsembleSpec("gaussian", 4, 7, base_seed=16)
    trial_bytes = chunk_plan(spec, RIC, 3, 512, threads)
    assert ustat._chunk_spans(600, threads, trial_bytes) == (threads, [(0, 512), (512, 600)])
    grid = np.linspace(0.2, 1.4, 13)
    untiled = (
        _points(extreme_experiment(spec, RIC, 3, grid, trials=600, threads=threads)),
        [e.point for e in mc_extreme_tail(spec, RIC, 3, grid, trials=600, threads=threads)],
    )
    assert sorted(drawn_spans) == [(0, 512), (0, 512), (512, 600), (512, 600)]
    coh_grid = np.linspace(0.1, 0.9, 9)
    coh = [e.point for e in mc_extreme_tail(spec, COHERENCE, 2, coh_grid, trials=600)]
    # 36,864 B holds one 3 x 3 Gram of 8-byte entries for each of 512 trials, so
    # _slices cuts a 512-trial chunk into one subset per slice (also at 1 B), five at 5x
    for budget in (1, 36_864, 5 * 36_864):
        monkeypatch.setattr(ustat, "_BLOCK_BYTES", budget)
        tiled = (
            _points(extreme_experiment(spec, RIC, 3, grid, trials=600, threads=threads)),
            [e.point for e in mc_extreme_tail(spec, RIC, 3, grid, trials=600, threads=threads)],
        )
        assert tiled == untiled
        tiled_coh = mc_extreme_tail(spec, COHERENCE, 2, coh_grid, trials=600, threads=threads)
        assert [e.point for e in tiled_coh] == coh


def test_subset_tiling_bounds_chunk_memory(monkeypatch):
    # one 128-trial chunk over the C(20, 4) = 4845 subsets of a 10 x 20 matrix:
    # gathering every 4 x 4 block at once takes 128 * 4845 * 128 B = 79 MB
    monkeypatch.setattr(ustat, "_BLOCK_BYTES", 4 * 2**20)
    spec = EnsembleSpec("gaussian", 10, 20, base_seed=7)
    tracemalloc.start()
    try:
        mc_extreme_tail(spec, RIC, 4, [0.5], trials=128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_subset_values_match_single_submatrix_kernels_bitwise():
    # the all-column Gram and a k-column Gram must round each entry alike
    phi = np.random.default_rng(0).standard_normal((7, 6))
    pairs = [coherence_kernel(phi[:, list(s)]) for s in combinations(range(6), 2)]
    np.testing.assert_array_equal(subset_values(phi, COHERENCE, 2), pairs)
    triples = [kernel_value(SIGMA_MAX_SQ, phi[:, list(s)]) for s in combinations(range(6), 3)]
    np.testing.assert_array_equal(subset_values(phi, SIGMA_MAX_SQ, 3), triples)


EIGEN_KERNELS = [RIC, SIGMA_MAX_SQ, NEG_SIGMA_MIN_SQ]


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _exact_cases():
    rng = np.random.default_rng(40)
    gaussian = rng.standard_normal((6, 9))
    bernoulli = np.sign(rng.standard_normal((6, 9))) / math.sqrt(6)  # many tied maxima
    duplicated = np.column_stack([gaussian, gaussian[:, 4]])
    return [(gaussian, 3), (gaussian, 4), (bernoulli, 3), (bernoulli, 4), (gaussian[:3], 4), (duplicated, 3)]


@pytest.mark.parametrize("block_bytes", [None, 1])
@pytest.mark.parametrize("kernel", EIGEN_KERNELS, ids=lambda kern: kern.variant)
def test_pruned_max_equals_exhaustive_max_bitwise(monkeypatch, kernel, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(ustat, "_BLOCK_BYTES", block_bytes)  # one subset per slice
    for phi, k in _exact_cases():
        exhaustive = subset_values(phi, kernel, k).max()
        assert _bits(max_over_subsets(phi, kernel, k)) == _bits(exhaustive)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kernel", EIGEN_KERNELS, ids=lambda kern: kern.variant)
def test_pruned_extreme_counts_match_exhaustive_at_ties(chunk_plan, kernel, threads):
    # thresholds at the exhaustive maxima themselves: an ulp off flips a count
    # (600 trials are two chunks; 3 x 7 with k = 4 is rank deficient)
    for ensemble, m, k in (("gaussian", 4, 3), ("bernoulli", 4, 3), ("gaussian", 3, 4)):
        spec = EnsembleSpec(ensemble, m, 7, base_seed=41)
        chunk_plan(spec, kernel, k, 512, threads)
        tops = np.array([subset_values(phi, kernel, k).max() for phi in sample_batch(spec, 0, 600)])
        values = np.unique(tops)
        grid = values[:: max(1, len(values) // 40)]
        est = mc_extreme_tail(spec, kernel, k, grid, trials=600, threads=threads)
        assert [e.point for e in est] == [np.count_nonzero(tops > a) / 600 for a in grid]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kernel", [COHERENCE, *EIGEN_KERNELS], ids=lambda kern: kern.variant)
def test_event_counts_match_a_recount_at_ties(chunk_plan, kernel, threads):
    # thresholds at the fixed subsets' own values and at -0.0, 0.0 and +-inf
    # (600 trials are two chunks; 3 x 7 with k = 4 is rank deficient, so its
    # neg_sigma_min_sq values are -0.0)
    if kernel.needs_pair:
        cases = [("gaussian", 4, 2), ("bernoulli", 4, 2)]
    else:
        cases = [("gaussian", 4, 3), ("bernoulli", 4, 3), ("gaussian", 3, 4)]
    for ensemble, m, k in cases:
        spec = EnsembleSpec(ensemble, m, 7, base_seed=42)
        chunk_plan(spec, kernel, k, 512, threads)
        overlaps = list(range(1, k))
        fixed = [tuple(range(k))] + [canonical_pair(k, i, 7).second for i in overlaps]
        at = [list(subsets(7, k)).index(sub) for sub in fixed]
        values = np.array([subset_values(phi, kernel, k)[at] for phi in sample_batch(spec, 0, 600)])
        if kernel is NEG_SIGMA_MIN_SQ and k > m:
            assert np.all(values == 0.0) and np.all(np.signbit(values))
        grid = np.concatenate([[-np.inf, -0.0, 0.0, np.inf], np.unique(values)])
        exceed = values[:, :, None] > grid
        run = extreme_experiment(spec, kernel, k, grid, trials=600, overlaps=overlaps, threads=threads)
        assert [e.point for e in run.marginal] == list(np.count_nonzero(exceed[:, 0], axis=0) / 600)
        for pos, i in enumerate(overlaps, start=1):
            joint = np.count_nonzero(exceed[:, 0] & exceed[:, pos], axis=0) / 600
            assert [e.point for e in run.joint[i]] == list(joint)


def test_eigvalsh_of_gathered_candidates_matches_full_stack():
    grams = gram_stack(sample_batch(EnsembleSpec("gaussian", 10, 12, base_seed=42), 0, 16))
    subs = np.array(list(subsets(12, 4)))
    full = np.linalg.eigvalsh(grams[:, subs[:, :, None], subs[:, None, :]])
    picks, pos = np.nonzero(np.random.default_rng(42).random(full.shape[:2]) < 0.03)
    gathered = np.linalg.eigvalsh(grams[picks[:, None, None], subs[pos][:, :, None], subs[pos][:, None, :]])
    assert _bits(gathered) == _bits(full[picks, pos])


@pytest.mark.parametrize("kernel", [RIC, SIGMA_MAX_SQ], ids=lambda kern: kern.variant)
def test_pruning_skips_most_eigendecompositions(monkeypatch, kernel):
    seen = []
    real = ustat.gram_extremes

    def recording(grams, rows=None):
        seen.append(int(np.prod(grams.shape[:-2])))
        return real(grams, rows=rows)

    monkeypatch.setattr(ustat, "gram_extremes", recording)
    spec = EnsembleSpec("gaussian", 10, 20, base_seed=7)
    mc_extreme_tail(spec, kernel, 4, [0.5], trials=128)
    assert 0 < sum(seen) < 0.05 * 128 * math.comb(20, 4)


def test_bordered_bounds_bracket_every_subset_before_the_margin():
    # ties on the Bernoulli lattice make the bordered bound tight, so it may
    # fall a few ulps short of eigvalsh there: that is what the margin covers,
    # and the slack here is 64 ulps of the upper bound, far under the margin
    for phi, k in _exact_cases():
        m, n = phi.shape
        grams = gram_stack(phi[None])
        subs = np.array(list(subsets(n, k)))
        table = np.ascontiguousarray(np.moveaxis(grams, 0, -1))
        lb_smin, ub_smax = (b.T for b in ustat._bordered_bounds(table, subs, m, ustat._workspace(len(subs), 1)))
        smin, smax = ustat.gram_extremes(grams[:, subs[:, :, None], subs[:, None, :]], rows=m)
        slack = 64 * np.finfo(np.float64).eps * ub_smax
        assert np.all(ub_smax >= smax - slack)
        assert np.all(lb_smin <= smin + slack)
        assert np.all(lb_smin >= 0.0)


@pytest.mark.parametrize("kernel", EIGEN_KERNELS, ids=lambda kern: kern.variant)
def test_subset_reach_covers_every_subset_value(kernel):
    for phi, k in _exact_cases():
        m, n = phi.shape
        subs = np.array(list(subsets(n, k)))
        table = np.ascontiguousarray(np.moveaxis(gram_stack(phi[None]), 0, -1))
        reach = ustat._subset_reach(table, kernel, subs, m, ustat._workspace(len(subs), 1))[:, 0]
        assert np.all(reach >= subset_values(phi, kernel, k))


@pytest.mark.parametrize("kernel", EIGEN_KERNELS, ids=lambda kern: kern.variant)
def test_pruned_max_bitwise_at_twenty_of_twenty_four_columns(kernel):
    # 19-index prefixes: a base-n key of a prefix would need 24**19 > 2**63
    for phi in sample_batch(EnsembleSpec("gaussian", 22, 24, base_seed=43), 0, 2):
        assert _bits(max_over_subsets(phi, kernel, 20)) == _bits(subset_values(phi, kernel, 20).max())


@pytest.mark.parametrize("kernel", [RIC, SIGMA_MAX_SQ], ids=lambda kern: kern.variant)
def test_bordered_bound_decomposes_under_one_percent(monkeypatch, kernel):
    # the Gershgorin/Frobenius bound this replaced left 2.84% of subsets here
    seen = []
    real = ustat.gram_extremes

    def recording(grams, rows=None):
        seen.append(int(np.prod(grams.shape[:-2])))
        return real(grams, rows=rows)

    monkeypatch.setattr(ustat, "gram_extremes", recording)
    spec = EnsembleSpec("gaussian", 10, 20, base_seed=7)
    mc_extreme_tail(spec, kernel, 4, [0.5], trials=128)
    assert 0 < sum(seen) < 0.01 * 128 * math.comb(20, 4)


def test_bordered_bounds_are_views_into_the_workspace():
    # no slice allocates a (subsets, matrices) array: both bounds live in the
    # buffers they are given, and sigma_max_sq's trivial lower bound in none
    grams = gram_stack(sample_batch(EnsembleSpec("gaussian", 6, 9, base_seed=40), 0, 5))
    table = np.ascontiguousarray(np.moveaxis(grams, 0, -1))
    subs = np.array(list(subsets(9, 4)))
    work = ustat._workspace(len(subs), 5)
    lb_smin, ub_smax = ustat._bordered_bounds(table, subs, 6, work)
    assert np.shares_memory(lb_smin, work) and np.shares_memory(ub_smax, work)
    lb_smin, ub_smax = ustat._bordered_bounds(table, subs, 0, work)
    assert np.shares_memory(ub_smax, work) and not np.shares_memory(lb_smin, work)
    assert not lb_smin.any()
    for kernel in EIGEN_KERNELS:
        assert np.shares_memory(ustat._subset_reach(table, kernel, subs, 6, work), work)


@pytest.mark.parametrize("kernel", [RIC, SIGMA_MAX_SQ], ids=lambda kern: kern.variant)
def test_greedy_seed_decomposes_under_three_tenths_of_a_percent(monkeypatch, kernel):
    # 0.23% for ric and 0.21% for sigma_max_sq at seed 7; the best-bound
    # subset of the first slice as the seed left 0.49%
    seen = _recorded_matrices(monkeypatch)
    spec = EnsembleSpec("gaussian", 10, 20, base_seed=7)
    mc_extreme_tail(spec, kernel, 4, [0.5], trials=128)
    assert 0 < sum(seen) < 0.003 * 128 * math.comb(20, 4)


@pytest.mark.parametrize("kernel", EIGEN_KERNELS, ids=lambda kern: kern.variant)
def test_greedy_seeds_are_sorted_distinct_k_subsets(kernel):
    cases = _exact_cases() + [(np.column_stack([phi, phi]), 5) for phi, _ in _exact_cases()[:3]]
    for phi, k in cases:
        grams = gram_stack(np.stack([phi, -phi[:, ::-1]]))
        seeds = ustat._greedy_seeds(grams, kernel, k)
        assert len(seeds) == (1 if kernel is SIGMA_MAX_SQ else 2)
        for seed in seeds:
            assert seed.shape == (2, k) and seed.dtype == np.int64
            assert np.all(np.diff(seed, axis=1) > 0)
            assert seed.min() >= 0 and seed.max() < phi.shape[1]


def test_pruned_max_memory_on_a_wide_stack():
    # 64 trials of 10 x 40 at k = 4: one block of 32,768 subsets holds a
    # 16 MiB bound array; prefix tables over every 3-subset would add to it
    grams = gram_stack(sample_batch(EnsembleSpec("gaussian", 10, 40, base_seed=7), 0, 64))
    tracemalloc.start()
    try:
        ustat._max_values(grams, RIC, 4, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_pruned_max_memory_is_slice_sized():
    # the same stack as above: bounds, candidate picks and their Grams are
    # held one slice at a time, so nothing scales with C(40, 4)
    grams = gram_stack(sample_batch(EnsembleSpec("gaussian", 10, 40, base_seed=7), 0, 64))
    tracemalloc.start()
    try:
        ustat._max_values(grams, RIC, 4, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _recorded_matrices(monkeypatch):
    seen = []
    real = ustat.gram_extremes

    def recording(grams, rows=None):
        seen.append(int(np.prod(grams.shape[:-2])))
        return real(grams, rows=rows)

    monkeypatch.setattr(ustat, "gram_extremes", recording)
    return seen


@pytest.mark.parametrize("k, trials, share", [(3, 512, 0.25), (4, 128, 0.65)])
def test_min_side_prunes_against_the_running_max(monkeypatch, k, trials, share):
    # the first _SLICE_BYTES slice seeds the running max, then each slice's
    # subsets whose bound reaches it are decomposed: 13% / 52% at seed 7
    seen = _recorded_matrices(monkeypatch)
    spec = EnsembleSpec("gaussian", 10, 20, base_seed=7)
    mc_extreme_tail(spec, NEG_SIGMA_MIN_SQ, k, [-0.5], trials=trials)
    assert 0 < sum(seen) < share * trials * math.comb(20, k)


def test_rank_deficient_min_side_max_needs_no_eigvalsh(monkeypatch):
    # k = 5 > m = 4: every sigma2_min is exactly 0, so every value is -0.0
    spec = EnsembleSpec("bernoulli", 4, 10, base_seed=7)
    seen = _recorded_matrices(monkeypatch)
    mc_extreme_tail(spec, NEG_SIGMA_MIN_SQ, 5, [-0.5, 0.0], trials=300)
    assert seen == []
    monkeypatch.undo()
    for phi in sample_batch(spec, 0, 20):
        assert _bits(max_over_subsets(phi, NEG_SIGMA_MIN_SQ, 5)) == _bits(subset_values(phi, NEG_SIGMA_MIN_SQ, 5).max())


@pytest.mark.parametrize("kernel", EIGEN_KERNELS, ids=lambda kern: kern.variant)
def test_pruned_max_bitwise_with_one_subset_per_slice(monkeypatch, kernel):
    monkeypatch.setattr(ustat, "_SLICE_BYTES", 8)
    for phi, k in _exact_cases():
        exhaustive = subset_values(phi, kernel, k).max()
        assert _bits(max_over_subsets(phi, kernel, k)) == _bits(exhaustive)
    grams = gram_stack(sample_batch(EnsembleSpec("gaussian", 10, 14, base_seed=44), 0, 40))
    subs = np.array(list(subsets(14, 4)))
    exhaustive = ustat._batch_values(grams, kernel, subs, 10).max(axis=1)
    assert _bits(ustat._max_values(grams, kernel, 4, 10)) == _bits(exhaustive)


@pytest.mark.parametrize("slice_bytes", [None, 8])
@pytest.mark.parametrize("kernel", EIGEN_KERNELS, ids=lambda kern: kern.variant)
def test_prefix_pruned_max_bitwise_on_lattice_stacks(monkeypatch, kernel, slice_bytes):
    # many tied subset values, so the subtree and child bounds are often tight;
    # at 8 bytes each slice holds one prefix and each batch a child or a few
    if slice_bytes is not None:
        monkeypatch.setattr(ustat, "_SLICE_BYTES", slice_bytes)
    for m, n, k, trials in ((5, 9, 3, 200), (6, 10, 4, 100), (4, 9, 5, 60), (7, 11, 3, 150)):
        grams = gram_stack(sample_batch(EnsembleSpec("bernoulli", m, n, base_seed=45), 0, trials))
        exhaustive = ustat._batch_values(grams, kernel, np.array(list(subsets(n, k))), m).max(axis=1)
        assert _bits(ustat._max_values(grams, kernel, k, m)) == _bits(exhaustive)


def _prefix_work(monkeypatch):
    """Counts of one run's (prefix, matrix) pairs whose children are bordered, of those children,
    and of the subsets bounded one by one as whole rows of matrices."""
    work = {"pairs": 0, "children": 0, "subset_rows": 0}
    pair_leaves, subset_reach = ustat._pair_leaves, ustat._subset_reach

    def pairs(grams, kernel, heads, prefix, trial, *args):
        work["pairs"] += len(prefix)
        work["children"] += int(np.sum(grams.shape[-1] - 1 - heads[prefix, -1]))
        return pair_leaves(grams, kernel, heads, prefix, trial, *args)

    def rows(table, kernel, subs, *args):
        work["subset_rows"] += len(subs)
        return subset_reach(table, kernel, subs, *args)

    monkeypatch.setattr(ustat, "_pair_leaves", pairs)
    monkeypatch.setattr(ustat, "_subset_reach", rows)
    return work


@pytest.mark.parametrize("kernel", [RIC, SIGMA_MAX_SQ], ids=lambda kern: kern.variant)
def test_prefix_test_borders_few_children(monkeypatch, kernel):
    # 969 prefixes x 128 trials, 4,845 children each: 5,859 pairs pass the
    # subtree test and 43,057 children are bordered at seed 7, one at a time
    work = _prefix_work(monkeypatch)
    seen = _recorded_matrices(monkeypatch)
    mc_extreme_tail(EnsembleSpec("gaussian", 10, 20, base_seed=7), kernel, 4, [0.5], trials=128)
    assert 0 < work["pairs"] < 0.06 * 128 * math.comb(19, 3)
    assert 0 < work["children"] < 0.08 * 128 * math.comb(20, 4)
    assert work["subset_rows"] == 0
    assert 0 < sum(seen) < 0.003 * 128 * math.comb(20, 4)


def test_min_side_bounds_every_subset_as_whole_rows(monkeypatch):
    # its subtree bound on lambda_min is 0, so no subtree is pruned
    work = _prefix_work(monkeypatch)
    mc_extreme_tail(EnsembleSpec("gaussian", 10, 20, base_seed=7), NEG_SIGMA_MIN_SQ, 3, [-0.5], trials=64)
    assert work == {"pairs": 0, "children": 0, "subset_rows": math.comb(20, 3)}


@pytest.mark.parametrize("kernel", [RIC, SIGMA_MAX_SQ], ids=lambda kern: kern.variant)
def test_one_matrix_prunes_most_prefixes(monkeypatch, kernel):
    # 43 of 969 prefixes and 232 of 4,845 children at seed 7
    work = _prefix_work(monkeypatch)
    phi = sample_batch(EnsembleSpec("gaussian", 10, 20, base_seed=7), 0, 1)[0]
    assert _bits(max_over_subsets(phi, kernel, 4)) == _bits(subset_values(phi, kernel, 4).max())
    assert 0 < work["pairs"] < 0.1 * math.comb(19, 3)
    assert 0 < work["children"] < 0.1 * math.comb(20, 4)


def test_subtree_tables_bound_every_child():
    # d[j] is the largest diagonal entry after j and beta[t] the largest squared
    # entry of row t after t, each read per matrix
    grams = gram_stack(sample_batch(EnsembleSpec("gaussian", 6, 9, base_seed=40), 0, 3))
    d, beta = ustat._subtree_tables(np.moveaxis(grams, 0, -1))
    for b, gram in enumerate(grams):
        diag = np.diagonal(gram)
        assert list(d[:-1, b]) == [diag[j + 1 :].max() for j in range(8)]
        assert list(beta[:-1, b]) == [np.square(gram[t, t + 1 :]).max() for t in range(8)]
        assert d[-1, b] == beta[-1, b] == 0.0


@pytest.mark.parametrize("kernel", EIGEN_KERNELS, ids=lambda kern: kern.variant)
def test_pruned_max_gathers_candidates_under_the_block_budget(monkeypatch, kernel):
    # 64 KiB holds 20 Grams of 20 x 20; a slice would otherwise span all
    # C(24, 20) = 10,626 subsets, and a weak bound keeps most of them
    monkeypatch.setattr(ustat, "_BLOCK_BYTES", 1 << 16)
    grams = gram_stack(sample_batch(EnsembleSpec("gaussian", 22, 24, base_seed=43), 0, 2))
    seen = _recorded_matrices(monkeypatch)
    ustat._max_values(grams, kernel, 20, 22)
    assert 0 < max(seen) <= ustat._BLOCK_BYTES // (20 * 20 * 8)


def test_slices_cover_subsets_in_order_at_the_slice_size():
    subs = np.array(list(subsets(60, 2)))
    step = ustat._SLICE_BYTES // (512 * 8)  # 64 pairs over a stack of 512 Grams
    parts = list(ustat._slices(60, 2, 512))
    assert [len(part) for part in parts] == [step] * (1770 // step) + [1770 % step]
    assert _bits(np.concatenate(parts)) == _bits(subs)
    assert [len(part) for part in ustat._slices(60, 2, 1)] == [1770]
    # at k = 40 a slice of 32,768 subsets would gather 400 MiB of Grams
    assert len(next(ustat._slices(44, 40, 1))) == ustat._BLOCK_BYTES // (40 * 40 * 8)


def test_extreme_tail_memory_near_the_cap_is_slice_sized():
    # C(23, 9) = 817,190 subsets: an array of all of them takes 56 MiB, more
    # than every slice, Gram and bound of this one-trial run together
    spec = EnsembleSpec("gaussian", 10, 23, base_seed=7)
    tracemalloc.start()
    try:
        mc_extreme_tail(spec, SIGMA_MAX_SQ, 9, [1.0], trials=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_tail_count_memory_does_not_grow_with_trials_times_grid():
    # 512 trials and 100,000 thresholds: comparing every event value with
    # every threshold at once peaked at 246 MiB; sorting each row's per-trial
    # statistic needs the trials and the grid, not their product
    spec = EnsembleSpec("gaussian", 5, 10, base_seed=7)
    grid = np.linspace(0.0, 4.0, 100_000)
    tracemalloc.start()
    try:
        ustat._tail_counts(spec, SIGMA_MAX_SQ, 2, grid, 512, 1, [(0, 1), (1, 2)], [(0,), (0, 1)], cap=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("threads", [1, 2])
def test_tail_count_memory_does_not_grow_with_chunks_times_grid(chunk_plan, threads):
    # 200 chunks of 8 trials, 3 rows and 20,000 thresholds: keeping every
    # chunk's counts and stacking them peaked at 184 MiB; a running total
    # holds a few (rows, grid) arrays whatever the chunk count
    spec = EnsembleSpec("gaussian", 5, 10, base_seed=7)
    chunk_plan(spec, SIGMA_MAX_SQ, 2, 8, threads)
    grid = np.linspace(0.0, 4.0, 20_000)
    tracemalloc.start()
    try:
        ustat._tail_counts(spec, SIGMA_MAX_SQ, 2, grid, 1600, threads, [(0, 1), (1, 2)], [(0,), (0, 1)], cap=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_tail_curves_are_read_only_record_arrays():
    spec = EnsembleSpec("gaussian", 4, 6, base_seed=1)
    grid = [0.5, 1.0, 2.0]
    run = extreme_experiment(spec, SIGMA_MAX_SQ, 3, grid, trials=40)
    curves = [run.extreme, run.marginal, *run.joint.values()]
    curves += [
        mc_marginal_tail(spec, SIGMA_MAX_SQ, 3, grid, trials=40),
        mc_joint_tail(spec, SIGMA_MAX_SQ, 3, 1, grid, trials=40),
        mc_extreme_tail(spec, SIGMA_MAX_SQ, 3, grid, trials=40),
    ]
    for curve in curves:
        assert isinstance(curve, np.recarray) and curve.dtype == ustat.TailEstimate
        assert curve.threshold.tolist() == grid and curve.trials.tolist() == [40] * 3
        assert curve[1].point == curve.point[1] and curve[1].std_err == curve.std_err[1]
        with pytest.raises(ValueError, match="read-only"):
            curve.point[0] = 0.5


def test_tail_estimates_memory_does_not_grow_per_threshold():
    # one record array per curve: a 100,000-threshold run held 52.7 MiB in
    # per-threshold objects after the call, and holds 9.2 MiB in arrays
    spec = EnsembleSpec("gaussian", 5, 10, base_seed=7)
    grid = np.linspace(1.0, 6.0, 100_000)
    tracemalloc.start()
    try:
        run = extreme_experiment(spec, SIGMA_MAX_SQ, 2, grid, trials=512)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(run.extreme) == len(grid)
    assert held <= 16 * 2**20


def test_threaded_fold_memory_does_not_grow_with_chunks(chunk_plan):
    # 1,000 one-trial chunks on two workers: submitting every chunk at once
    # peaked at 2.5 MiB traced, while one worker (no pool) peaks at 0.11 MiB
    spec = EnsembleSpec("gaussian", 5, 10, base_seed=7)
    chunk_plan(spec, SIGMA_MAX_SQ, 2, 1, threads=2)
    grid = np.linspace(0.0, 4.0, 60)
    tracemalloc.start()
    try:
        ustat._tail_counts(spec, SIGMA_MAX_SQ, 2, grid, 1000, 2, [(0, 1), (1, 2)], [(0,), (0, 1)], cap=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**18


def _arena_grams(monkeypatch):
    """A list of one flag per ``ustat.gram_stack`` call: True when its stack and its Grams are in its worker's arena."""
    in_arena = []

    def spying(mats, out=None):
        grams = gram_stack(mats, out)
        in_arena.append(out is not None and np.shares_memory(mats, out.base) and np.shares_memory(grams, out))
        return grams

    monkeypatch.setattr(ustat, "gram_stack", spying)
    return in_arena


def _check_arena_chunks(monkeypatch, drawn_spans, ensemble):
    # 700 trials of 10 x 40 at k = 3 are several chunks; each is drawn into
    # its worker's arena and its Grams built there, with no (B, m, n) stack
    in_arena = _arena_grams(monkeypatch)
    spec = EnsembleSpec(ensemble, 10, 40, base_seed=7)
    grid = np.linspace(0.0, 2.0, 41)
    runs = []
    for threads in (1, 2, 3):
        drawn_spans.clear()
        in_arena.clear()
        runs.append(_points(extreme_experiment(spec, RIC, 3, grid, trials=700, threads=threads)))
        assert len(drawn_spans) >= 2 and in_arena == [True] * len(drawn_spans)
    assert runs[0] == runs[1] == runs[2]


def test_gaussian_eigen_chunks_read_one_arena_table(monkeypatch, drawn_spans):
    _check_arena_chunks(monkeypatch, drawn_spans, "gaussian")


def test_bernoulli_eigen_chunks_read_one_arena_table(monkeypatch, drawn_spans):
    # the lattice Grams, from the signs taken in place over the arena's entries
    _check_arena_chunks(monkeypatch, drawn_spans, "bernoulli")


# SHA-256 of the ric record arrays of Bernoulli extreme_experiment runs at
# seed 7 (the CLI has no ric kernel), taken on the shapes and trial counts
# of the Bernoulli fig-extreme pins in tests/test_cli.py, while every
# Bernoulli eigen chunk still built a float lattice Gram outside the arena
_PINNED_BERNOULLI_RIC = [
    pytest.param(7, 10, 1, 2000, 1, "160cf6f9c29919faffd67a7df8c44ec01c8e92233f9d4deb4f4c9b5c3bcd3547", id="7x10-k1"),
    pytest.param(1, 6, 1, 500, 1, "a538eed59e4ca900847e69027829fae58e658e7e7d17dd9e73e78c6cedaf7aa6", id="1x6-k1"),
    pytest.param(4, 2, 1, 500, 1, "a538eed59e4ca900847e69027829fae58e658e7e7d17dd9e73e78c6cedaf7aa6", id="4x2-k1"),
    pytest.param(65, 30, 1, 1100, 2, "66be6b4240ad108ce5e15cc50e19df8ebf9098523e1d99c3455b11d0a8b9427c", id="65x30-k1-threads2"),
    pytest.param(7, 10, 2, 2000, 1, "fe3a0534ff5f9f5a4e3a273342f4b3129ca0f742f737a32f0d251f67eb4aab0d", id="7x10-k2"),
    pytest.param(1, 6, 2, 500, 1, "107b58970e1e5350c0fd1da0b13f124ba24f539e3e267f85f7ea3f64f1578b8a", id="1x6-k2"),
    pytest.param(4, 2, 2, 500, 1, "03965337aaf9503ac42328968668f73194c4cbfd241ce91fde95a4c0647a40eb", id="4x2-k2"),
    pytest.param(65, 30, 2, 1100, 2, "31ad001d3a4ee94f22e0ea511fb354f0255a737eb4eaa4374af5bcec6bf3826e", id="65x30-k2-threads2"),
    pytest.param(10, 20, 4, 128, 1, "e7d2d953c5010b7e6c9db6909b6352639f04f7e856c49502ef09bbfe226242cc", id="10x20-k4"),
    pytest.param(100, 150, 3, 8, 1, "c4ee454669757a1065486a56192e430b792459c5953f70268ca1c4f15891d2bb", id="100x150-k3"),
]


@pytest.mark.parametrize("m, n, k, trials, threads, digest", _PINNED_BERNOULLI_RIC)
def test_bernoulli_ric_records_pinned_bytes(m, n, k, trials, threads, digest):
    spec = EnsembleSpec("bernoulli", m, n, base_seed=7)
    run = extreme_experiment(spec, RIC, k, np.linspace(0.0, 1.0, 241), trials, threads=threads)
    records = [run.extreme, run.marginal, *(run.joint[i] for i in sorted(run.joint))]
    assert hashlib.sha256(b"".join(r.tobytes() for r in records)).hexdigest() == digest


def test_bernoulli_pair_chunks_read_packed_signs(monkeypatch, chunk_plan):
    # every Bernoulli chunk at k <= 2, for every kernel, is one packed draw,
    # with no Gram of any kind
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return sample_batch(*args, **kwargs)

    monkeypatch.setattr(ustat, "sample_batch", recording)
    for name in ("gram_stack", "trial_last_grams", "pair_max", "gram_extremes"):
        monkeypatch.setattr(ustat, name, _refuse)
    spec = EnsembleSpec("bernoulli", 7, 10, base_seed=58)
    for kernel in EIGEN_KERNELS:
        for k in (1, 2):
            calls.clear()
            chunk_plan(spec, kernel, k, 300, threads=1)
            extreme_experiment(spec, kernel, k, [-0.5, 0.5, 1.5], trials=1_000)
            mc_marginal_tail(spec, kernel, k, [0.5], trials=1_000)
            assert calls == [{"packed": True}] * 2 * math.ceil(1_000 / 300)


def test_tall_bernoulli_eigen_chunk_memory_is_the_arena():
    # 40 trials of 2000 x 12 at k = 3 are four 13-trial chunks of a 2.4 MiB
    # arena; drawn outside it, each chunk's raw words, float steps, signs and
    # their transposed copy peaked at 7.2 MiB
    spec = EnsembleSpec("bernoulli", 2000, 12, base_seed=7)
    tracemalloc.start()
    try:
        extreme_experiment(spec, RIC, 3, np.linspace(0.0, 2.0, 41), trials=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20


def test_gaussian_eigen_chunk_memory_holds_one_gram_table():
    # 700 trials of 10 x 40 at k = 3: a fresh stack per chunk, its (B, n, n)
    # Grams and their trial-last copy peaked at 6.1 MiB; the chunk's one
    # table in the arena peaks at 4.6 MiB
    spec = EnsembleSpec("gaussian", 10, 40, base_seed=7)
    tracemalloc.start()
    try:
        extreme_experiment(spec, RIC, 3, np.linspace(0.0, 2.0, 41), trials=700)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2**20


def test_pruned_max_reads_the_gram_table_in_place():
    # 512 trials of 10 x 40 take a 6.25 MiB table, which a copy would add to
    # the 2 MiB workspace of bounds
    grams = gram_stack(sample_batch(EnsembleSpec("gaussian", 10, 40, base_seed=7), 0, 512))
    tracemalloc.start()
    try:
        ustat._max_values(grams, RIC, 3, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grams.nbytes / 2


def test_exhaustive_max_memory_is_slice_sized():
    # 512 trials of 20 x 60 at k = 2: evaluating all 1770 pairs at once peaks
    # at 62 MiB, while a slice of 64 pairs gathers 1 MiB of 2 x 2 Grams
    grams = gram_stack(sample_batch(EnsembleSpec("gaussian", 20, 60, base_seed=7), 0, 512))
    tracemalloc.start()
    try:
        ustat._max_values(grams, RIC, 2, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("kernel", EIGEN_KERNELS, ids=lambda kern: kern.variant)
def test_exhaustive_max_bitwise_with_one_subset_per_slice(monkeypatch, kernel):
    monkeypatch.setattr(ustat, "_SLICE_BYTES", 8)
    stacks = [(gram_stack(phi[None]), phi.shape) for phi, _ in _exact_cases()]
    phi = sample_batch(EnsembleSpec("gaussian", 10, 14, base_seed=44), 0, 40)
    stacks.append((gram_stack(phi), phi.shape[1:]))
    for grams, (m, n) in stacks:
        for k in (1, 2):
            subs = np.array(list(subsets(n, k)))
            exhaustive = ustat._batch_values(grams, kernel, subs, m).max(axis=1)
            assert _bits(ustat._max_values(grams, kernel, k, m)) == _bits(exhaustive)


@pytest.mark.parametrize("kernel", [COHERENCE, *EIGEN_KERNELS], ids=lambda kern: kern.variant)
def test_subset_values_bitwise_with_one_subset_per_slice(monkeypatch, kernel):
    cases = [(phi, 2) for phi, _ in _exact_cases()]
    if not kernel.needs_pair:
        cases += _exact_cases()
    default = [subset_values(phi, kernel, k) for phi, k in cases]
    monkeypatch.setattr(ustat, "_SLICE_BYTES", 8)
    for (phi, k), values in zip(cases, default):
        assert _bits(subset_values(phi, kernel, k)) == _bits(values)


def _exact_coherence_tops(spec, trials):
    """Each trial's max off-diagonal |<s_i, s_j>| of its integer signs."""
    signs = np.rint(sample_batch(spec, 0, trials) * math.sqrt(spec.m)).astype(np.int64)
    grams = np.abs(np.swapaxes(signs, 1, 2) @ signs)
    grams[:, np.arange(spec.n), np.arange(spec.n)] = 0
    return grams.max(axis=(1, 2))


@pytest.mark.parametrize("m", [64, 65])
def test_bernoulli_coherence_counts_at_every_lattice_level(chunk_plan, m):
    # three chunks, the last one short; a = j/m is a tie and resolves as 0
    spec = EnsembleSpec("bernoulli", m, 40, base_seed=55)
    tops = _exact_coherence_tops(spec, 1_100)
    want = [np.count_nonzero(tops > j) / 1_100 for j in range(m + 1)]
    for threads in (1, 2):
        chunk_plan(spec, COHERENCE, 2, 512, threads)
        est = mc_extreme_tail(spec, COHERENCE, 2, np.arange(m + 1) / m, trials=1_100, threads=threads)
        assert [e.point for e in est] == want


def test_bernoulli_coherence_estimators_match_the_float_gram():
    spec = EnsembleSpec("bernoulli", 65, 12, base_seed=56)
    grid = np.union1d(np.arange(66) / 65, np.linspace(0.05, 0.95, 7))
    grams = gram_stack(sample_batch(spec, 0, 600))

    def tail(values):
        return [np.count_nonzero(np.all(values > a, axis=1)) / 600 for a in grid]

    pairs = pair_values(grams, COHERENCE, np.array([(0, 1), (1, 2), (9, 4)]))
    run = extreme_experiment(spec, COHERENCE, 2, grid, trials=600)
    assert [e.point for e in run.extreme] == tail(gram_pair_max(grams, COHERENCE, 2)[:, None])
    assert [e.point for e in run.marginal] == tail(pairs[:, :1])
    assert [e.point for e in run.joint[1]] == tail(pairs[:, :2])
    assert [e.point for e in mc_joint_tail(spec, COHERENCE, 2, 1, grid, trials=600)] == tail(pairs[:, :2])
    marginal = mc_marginal_tail(spec, COHERENCE, 2, grid, trials=600, subset=(9, 4))
    assert [e.point for e in marginal] == tail(pairs[:, 2:])


def test_bernoulli_coherence_reads_packed_signs_once_per_chunk(monkeypatch, chunk_plan):
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return sample_batch(*args, **kwargs)

    monkeypatch.setattr(ustat, "sample_batch", recording)
    monkeypatch.setattr(ustat, "gram_stack", _refuse)
    spec = EnsembleSpec("bernoulli", 20, 30, base_seed=57)
    chunk_plan(spec, COHERENCE, 2, 512, threads=1)
    extreme_experiment(spec, COHERENCE, 2, [0.3, 0.5], trials=1_100)
    assert calls == [{"packed": True}] * math.ceil(1_100 / 512)


def test_bernoulli_coherence_chunk_memory_is_word_tile_sized():
    # one 512-trial chunk of 50 x 1000: its float Gram stack would take 4.1 GB
    # and its raw words 205 MB, of which one 16 MiB tile is held at a time
    # (about 20 MiB in all; two tiles at once measured 36 MiB)
    spec = EnsembleSpec("bernoulli", 50, 1000, base_seed=7)
    tracemalloc.start()
    try:
        mc_extreme_tail(spec, COHERENCE, 2, [0.5], trials=512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("threads", [1, 2])
def test_counts_do_not_depend_on_the_chunk_budget(chunk_plan, threads):
    # budgets down to one trial a chunk and to odd chunk sizes, on both float
    # Gram paths (k = 1, 2 and the pruned k = 3) and on packed Bernoulli signs
    cases = [
        (EnsembleSpec("gaussian", 4, 9, base_seed=60), kernel, k, np.linspace(0.1, 3.0, 12))
        for kernel in (RIC, SIGMA_MAX_SQ)
        for k in (1, 2, 3)
    ]
    cases.append((EnsembleSpec("bernoulli", 20, 12, base_seed=61), COHERENCE, 2, np.arange(21) / 20))
    defaults = [_points(extreme_experiment(*case, trials=101, threads=threads)) for case in cases]
    for (spec, kernel, k, grid), default in zip(cases, defaults):
        for size in (1, 7, 33):
            trial_bytes = chunk_plan(spec, kernel, k, size, threads)
            spans = [(start, min(start + size, 101)) for start in range(0, 101, size)]
            assert ustat._chunk_spans(101, threads, trial_bytes) == (threads, spans)
            assert _points(extreme_experiment(spec, kernel, k, grid, trials=101, threads=threads)) == default


def _closed_form(grams):
    """The 2 x 2 extremes as gram_extremes computed them before the closed form moved to pair_extremes."""
    gii, gjj, gij = grams[..., 0, 0], grams[..., 1, 1], grams[..., 0, 1]
    half_tr = 0.5 * (gii + gjj)
    half_disc = 0.5 * np.sqrt((gii - gjj) ** 2 + 4.0 * gij**2)
    return np.maximum(half_tr - half_disc, 0.0), np.maximum(half_tr + half_disc, 0.0)


def test_pair_closed_form_keeps_its_bits():
    stacks = [gram_stack(sample_batch(EnsembleSpec("gaussian", m, 9, base_seed=62), 0, 50)) for m in (1, 3, 10)]
    stacks += [gram_stack(sample_batch(EnsembleSpec("bernoulli", m, 9, base_seed=63), 0, 50)) for m in (7, 65)]
    # every lattice pair Gram [[1, j/m], [j/m, 1]] of m = 2..80
    lattice = [(m, np.arange(-m, m + 1, 2) / m) for m in range(2, 81)]
    pairs = np.array(list(subsets(9, 2)))
    for grams in stacks:
        blocks = grams[:, pairs[:, :, None], pairs[:, None, :]]
        want = _closed_form(blocks)
        got = pair_extremes(*(blocks[..., i, j].copy() for i, j in ((0, 0), (1, 1), (0, 1))))
        assert _bits(got) == _bits(want)
        assert _bits(gram_extremes(blocks)) == _bits(want)
    for m, inner in lattice:
        blocks = np.ones((len(inner), 2, 2))
        blocks[:, 0, 1] = blocks[:, 1, 0] = inner
        ones = np.ones(len(inner))
        assert _bits(pair_extremes(ones, ones.copy(), inner.copy())) == _bits(_closed_form(blocks))
    # the pair Gram of j = 5 at m = 7 has sigma2_max one ulp above 12/7, as before
    smax = pair_extremes(np.ones(1), np.ones(1), np.array([5 / 7]))[1]
    assert smax[0] == 1.7142857142857144 == np.nextafter(12 / 7, 2.0)
    # the k = 2 max reads the same floats, also on rank-one (m = 1) Grams
    for grams, m in zip(stacks, (1, 3, 10, 7, 65)):
        for kernel in EIGEN_KERNELS:
            exhaustive = ustat._batch_values(grams, kernel, pairs, m).max(axis=1)
            assert _bits(ustat._max_values(grams, kernel, 2, m)) == _bits(exhaustive)
    # the closed form leaves sigma2_min = 1.1e-16 here, where rank one makes it 0
    phi = np.array([[0.7, 0.8]])
    assert max_over_subsets(phi, RIC, 2) == 1.0 == subset_values(phi, RIC, 2).max()


def _gathered_pair_values(phi, kernel):
    """Every pair's value in enumeration order, from gathered 2 x 2 blocks of the Gram.

    gram_extremes of the blocks for the eigen kernels, |G_ij| / sqrt(G_ii G_jj)
    clipped at 1 for the coherence.
    """
    pairs = np.array(list(combinations(range(phi.shape[1]), 2)))
    blocks = gram_stack(phi[None])[0][pairs[:, :, None], pairs[:, None, :]]
    if kernel.needs_pair:
        gii, gjj, gij = blocks[:, 0, 0], blocks[:, 1, 1], blocks[:, 0, 1]
        return np.minimum(np.abs(gij) / np.sqrt(gii * gjj), 1.0)
    return spectral_value(kernel, *gram_extremes(blocks, rows=phi.shape[0]))


def test_pair_reads_equal_the_block_gather_bitwise():
    gaussian = sample_matrix(EnsembleSpec("gaussian", 10, 14, base_seed=64), 0).data
    lattice = sample_matrix(EnsembleSpec("bernoulli", 7, 14, base_seed=65), 0).data
    rank_one = np.array([[0.7, 0.8, -0.3, 1.2, 0.7]])
    for phi in (gaussian, lattice, rank_one):
        for kernel in [*EIGEN_KERNELS, COHERENCE]:
            want = _gathered_pair_values(phi, kernel)
            assert _bits(subset_values(phi, kernel, 2)) == _bits(want)
            assert u_statistic(phi, kernel, 2, float(np.median(want))) == np.mean(want > np.median(want))
    # a pair with inner product 5/7 keeps sigma2_max one ulp above 12/7 (ROADMAP item 2)
    assert np.nextafter(12 / 7, 2.0) in subset_values(lattice, SIGMA_MAX_SQ, 2)
    # every pair of a one-row matrix has rank one: sigma2_min is exactly +0.0
    assert _bits(subset_values(rank_one, NEG_SIGMA_MIN_SQ, 2)) == _bits(np.full(10, -0.0))


def test_large_gram_chunk_memory_is_a_few_trials():
    # a 50 x 300 trial and its Gram take 840,000 B, so the budget holds three;
    # one 64-trial chunk of them peaked at 52 MiB
    spec = EnsembleSpec("gaussian", 50, 300, base_seed=7)
    tracemalloc.start()
    try:
        mc_extreme_tail(spec, COHERENCE, 2, [0.5], trials=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 840_000


def test_wide_marginal_chunk_memory_is_a_few_trials():
    # all 1,000 columns of a 50 x 1000 trial are sampled before the pair in use
    # is taken, 400,000 B of floats, so the budget holds six trials a chunk;
    # one 64-trial chunk of them peaked at 73 MiB
    spec = EnsembleSpec("gaussian", 50, 1000, base_seed=7)
    tracemalloc.start()
    try:
        mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, [0.5, 1.0], trials=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from uniontight.poisson import (
    LARGE,
    PoissonReport,
    _logsumexp,
    eps_full,
    eps_mid,
    eps_single,
    lambda_n,
    log_binomial,
    poisson_nonzero_approx,
    poisson_report,
    poisson_zero_approx,
)


def test_log_binomial_small_values():
    assert log_binomial(5, 0) == 0.0
    assert log_binomial(4, 2) == pytest.approx(math.log(6), rel=1e-12)


def test_log_binomial_against_exact_integers():
    for n, k in ((1000, 10), (1000, 500), (10_000, 3), (10_000, 5000)):
        exact = math.log(math.comb(n, k))  # big-integer oracle
        assert log_binomial(n, k) == pytest.approx(exact, rel=1e-10)


def test_log_binomial_range_errors():
    for n, k in ((3, 4), (3, -1), (-1, 0)):
        with pytest.raises(ValueError):
            log_binomial(n, k)


@pytest.mark.parametrize("n, k", [(5.5, 2), (5, 2.0), (5.0, 2), (True, 1), (1, False)])
def test_log_binomial_refuses_non_integers(n, k):
    # cached per (n, k) by type: a refusal is not cached, nor hidden by an
    # equal integer's entry (5.0 == 5 and True == 1 as keys)
    log_binomial(5, 2)
    log_binomial(1, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="must be integers"):
            log_binomial(n, k)


def test_log_binomial_accepts_numpy_integers():
    assert log_binomial(np.int64(10), np.int32(3)) == log_binomial(10, 3)


def test_logsumexp_bytes_equal_scipy():
    # lengths 1-12, ties at the max (some rows all equal) and spreads up to
    # +-700, the span of ln LARGE
    rng = np.random.default_rng(15)
    seen = set()
    for _ in range(5000):
        length = int(rng.integers(1, 13))
        spread = float(rng.choice([1e-3, 1.0, 30.0, 700.0]))
        a = rng.uniform(-700.0, 700.0) + spread * rng.uniform(-1.0, 1.0, length)
        u = rng.random()
        if u < 0.2:
            a[rng.integers(length, size=length)] = a.max()
        elif u < 0.3:
            a[:] = a[0]
        elif u < 0.5:
            a = np.round(a)
        ties = int(np.count_nonzero(a == a.max()))
        seen.add("tied max" if 1 < ties < length else "all equal" if ties > 1 else "one max")
        terms = [float(x) for x in a]
        assert np.float64(_logsumexp(terms)).tobytes() == np.float64(logsumexp(terms)).tobytes()
    assert seen == {"one max", "tied max", "all equal"}


def test_lambda_n_values():
    assert lambda_n(10, 2, 0.0) == 0.0
    assert lambda_n(4, 2, 0.1) == pytest.approx(0.6, rel=1e-12)
    assert lambda_n(17, 1, 0.03) == pytest.approx(17 * 0.03, rel=1e-12)


def test_lambda_n_saturates_instead_of_overflowing():
    assert lambda_n(10_000, 5_000, 1.0) == LARGE


def test_lambda_n_rejects_bad_p():
    with pytest.raises(ValueError):
        lambda_n(4, 2, -0.1)
    with pytest.raises(ValueError):
        lambda_n(4, 2, 1.5)


def test_poisson_zero_approx():
    assert poisson_zero_approx(0.0) == 1.0
    assert poisson_zero_approx(0.6) == pytest.approx(0.5488116360940264, rel=1e-12)
    assert poisson_zero_approx(LARGE) == 0.0
    assert poisson_nonzero_approx(0.0) == 0.0
    assert poisson_nonzero_approx(0.6) == pytest.approx(1 - 0.5488116360940264, rel=1e-12)
    with pytest.raises(ValueError):
        poisson_zero_approx(-1.0)


def test_eps_full_empty_sum_case():
    # k = 1: eps = (1 - e^{-n p}) p
    assert eps_full(10, 1, 0.1, ()) == pytest.approx(0.06321205588285576, rel=1e-12)


def test_eps_values_direct_formula_evaluation():
    one_minus = -math.expm1(-0.6)
    assert eps_full(4, 2, 0.1, [0.01]) == pytest.approx(
        one_minus * (0.1 * 5 + 4 * 0.1), rel=1e-10
    )
    assert eps_mid(4, 2, 0.1, [0.01]) == pytest.approx(
        one_minus * 0.05 * 10 + 24 * 0.01, rel=1e-10
    )
    coeff = 2**2 * (math.e * 3) * (math.e * 4 / 3) ** 3
    assert eps_single(4, 2, 0.1, 0.01) == pytest.approx(
        one_minus * 0.1 * 5 + coeff * 0.01, rel=1e-10
    )


def test_eps_frozen_values():
    assert eps_full(4, 2, 0.1, [0.01]) == pytest.approx(0.40606952751537617, rel=1e-10)
    assert eps_mid(4, 2, 0.1, [0.01]) == pytest.approx(0.46559418195298674, rel=1e-10)
    assert eps_single(4, 2, 0.1, 0.01) == pytest.approx(15.755734635825124, rel=1e-10)


def test_eps_zero_joint_tails_agree():
    full = eps_full(8, 3, 0.05, [0.0, 0.0])
    mid = eps_mid(8, 3, 0.05, [0.0, 0.0])
    lam = lambda_n(8, 3, 0.05)
    want = poisson_nonzero_approx(lam) * 0.05 * (math.comb(8, 3) - math.comb(5, 3))
    assert full == pytest.approx(want, rel=1e-10)
    assert mid == pytest.approx(want, rel=1e-10)
    assert eps_single(8, 3, 0.05, 0.0) == pytest.approx(want, rel=1e-10)


def test_eps_handles_infeasible_overlaps():
    # n < 2k - r makes C(n-k, k-r) = 0; those terms vanish instead of erroring
    value = eps_full(4, 3, 0.2, [0.1, 0.05])
    assert value > 0.0
    assert eps_mid(4, 3, 0.2, [0.1, 0.05]) >= value


def test_eps_preconditions_and_flags():
    with pytest.raises(ValueError):
        eps_full(4, 2, 0.0, [0.0])
    with pytest.raises(ValueError):
        eps_full(4, 2, -0.2, [0.0])
    with pytest.raises(ValueError):
        eps_full(4, 2, 0.1, [0.01, 0.02])
    with pytest.raises(ValueError):
        eps_single(4, 1, 0.1, 0.0)
    with pytest.warns(UserWarning, match="q_r > p"):
        eps_full(4, 2, 0.01, [0.02])
    with pytest.warns(UserWarning):
        eps_mid(4, 2, 0.01, [0.02])


def test_error_bound_chain_fuzz():
    rng = np.random.default_rng(123)
    for _ in range(2000):
        n = int(rng.integers(2, 101))
        k = int(rng.integers(2, min(10, n) + 1))
        p = float(rng.uniform(1e-9, 1.0))
        q = np.sort(rng.uniform(0.0, p, size=k - 1))
        full = eps_full(n, k, p, q)
        mid = eps_mid(n, k, p, q)
        single = eps_single(n, k, p, q[-1])
        assert full <= mid * (1 + 1e-12)
        assert mid <= single * (1 + 1e-12)


def test_large_sentinel_saturation():
    # enormous binomials with order-one tails saturate rather than overflow
    assert eps_single(10_000, 60, 0.5, 0.5) == LARGE
    mid = eps_mid(10_000, 10, 0.5, [0.5] * 9)
    assert math.isfinite(mid) and mid > 1e60
    assert math.isfinite(eps_full(10_000, 10, 0.5, [0.5] * 9))


def test_out_of_range_joint_tail_named_by_its_overlap():
    # eps_single's q_top is q_{k-1}; eps_full and eps_mid number q_1..q_{k-1}
    with pytest.raises(ValueError, match=r"joint tail q_2 must be in \[0, 1\], got 1.5"):
        eps_single(6, 3, 0.1, 1.5)
    for bound in (eps_full, eps_mid):
        with pytest.raises(ValueError, match=r"joint tail q_1 must be in \[0, 1\], got 1.5"):
            bound(6, 3, 0.1, (1.5, 0.05))
        with pytest.raises(ValueError, match=r"joint tail q_2 must be in \[0, 1\], got -0.5"):
            bound(6, 3, 0.1, (0.05, -0.5))


def test_nan_lambda_refused():
    for approx in (poisson_zero_approx, poisson_nonzero_approx):
        with pytest.raises(ValueError, match="lambda must be nonnegative"):
            approx(math.nan)
    assert poisson_zero_approx(math.inf) == 0.0
    assert poisson_nonzero_approx(math.inf) == 1.0


def test_poisson_report_bundles():
    report = poisson_report(6, 2, 1.3, 0.2, [0.05])
    assert isinstance(report, PoissonReport)
    assert report.lam == pytest.approx(15 * 0.2)
    assert report.approx_zero == pytest.approx(math.exp(-3.0))
    assert report.eps_full == pytest.approx(eps_full(6, 2, 0.2, [0.05]))
    assert report.eps_single == pytest.approx(eps_single(6, 2, 0.2, 0.05))
    empty = poisson_report(6, 2, 1.3, 0.0, [0.0])
    assert empty.eps_full is None and empty.approx_zero == 1.0
    k1 = poisson_report(6, 1, 1.3, 0.2, [])
    assert k1.eps_single is None and k1.eps_full is not None


def test_combinatorial_identities_exact():
    for k in range(1, 61):
        assert sum(math.comb(k, r) for r in range(1, k)) == 2**k - 2
    for n in range(2, 61):
        for k in range(1, n):
            for i in range(0, n - k + 1):
                lhs = math.comb(n - k, i) * math.comb(n, k)
                rhs = math.comb(k + i, i) * math.comb(n, k + i)
                assert lhs == rhs


def test_one_minus_exp_below_lambda():
    for lam in np.linspace(0.0, 30.0, 121):
        assert poisson_nonzero_approx(lam) <= lam + 1e-12


def _eps_sweep():
    # Seeded (n, k, p, q) draws through every branch of the three bounds;
    # ``seen`` names the branches that the draws reached.
    rng = np.random.default_rng(2013)
    values, seen = [], set()
    for _ in range(2000):
        k = int(rng.integers(1, 13))
        shape = int(rng.integers(4))
        if shape == 0:
            n = int(rng.integers(k, 2 * k))  # overlaps with k - r > n - k cannot occur
        elif shape == 1:
            k = int(rng.integers(2, 61))
            n = int(rng.integers(2_000, 10_001))  # binomials that saturate at LARGE
        else:
            n = int(rng.integers(max(k, 2), 401))
        u = rng.random()
        if u < 0.1:
            p = 1.0
            seen.add("p = 1")
        elif u < 0.2:
            p = 1.0 / math.comb(n, k)
            seen.add("p = 1/N")
        else:
            p = float(10.0 ** rng.uniform(-12.0, 0.0))
        q = []
        for r in range(1, k):
            v = rng.random()
            if v < 0.2:
                q.append(0.0)
                seen.add("zero q")
                continue
            q.append(float(rng.uniform(p, 1.0)) if v < 0.3 else p * float(rng.random()))
            if q[-1] > p:
                seen.add("q > p")
            if k - r > n - k:
                seen.add("infeasible")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            values += [eps_full(n, k, p, q), eps_mid(n, k, p, q)]
            if k >= 2:
                values.append(eps_single(n, k, p, q[-1]))
    if LARGE in values:
        seen.add("LARGE")
    return np.array(values, dtype=np.float64), seen


# SHA-256 of the sweep's float64 bytes
_EPS_SWEEP_SHA256 = "9edd2c45d44a4c3195abe20def4cab109d4f9e56ab5570bfea1247229d0cfe03"


def test_eps_bytes_pinned_and_one_warning_per_call():
    values, seen = _eps_sweep()
    assert seen == {"p = 1", "p = 1/N", "zero q", "q > p", "infeasible", "LARGE"}
    assert hashlib.sha256(values.tobytes()).hexdigest() == _EPS_SWEEP_SHA256
    for call in (
        lambda: eps_full(6, 3, 0.01, [0.02, 0.03]),
        lambda: eps_mid(6, 3, 0.01, [0.02, 0.03]),
        lambda: eps_single(6, 3, 0.01, 0.03),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [w.category for w in caught] == [UserWarning]
        assert caught[0].filename == __file__

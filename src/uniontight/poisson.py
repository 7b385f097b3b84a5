"""Poisson approximation of the no-exceedance probability and its error bounds.

For a marginal tail p(a) over C(n, k) subsets, lambda = C(n, k) * p(a) is the
union-bound total and exp(-lambda) approximates Pr{no subset exceeds a}.  The
Stein-Chen approximation error admits three nested closed forms, ordered
eps_full <= eps_mid <= eps_single whenever the joint tails are monotone in the
overlap (q_r <= q_{k-1}):

  eps_full   = (1 - e^-lam) * { p*[C(n,k) - C(n-k,k)]
                                + sum_r C(k,r) C(n-k,k-r) q_r / p }
  eps_mid    = (1 - e^-lam) * p*[C(n,k) - C(n-k,k)]
                                + sum_r C(k,r) C(n-k,k-r) C(n,k) q_r
  eps_single = (1 - e^-lam) * p*[C(n,k) - C(n-k,k)]
                 + 2^k (e(2k-1)/(k-1))^(k-1) (e n/(2k-1))^(2k-1) q_{k-1}

All binomial products are accumulated in the log domain with one final
exponentiation, saturating at the LARGE sentinel instead of overflowing.

The eps floats come from the in-repo ``_logsumexp``; of scipy only ``gammaln``
is still used.  Do not vectorise ``_logsumexp`` over grid rows by padding them
with -inf to one width: numpy's pairwise sum associates differently from 8
terms on, so a padded row of 5-7 terms can sum to another float.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

LARGE = 1e300           # saturation sentinel for exponentiated log-domain values
_LOG_LARGE = math.log(LARGE)


def _sat_exp(log_value):
    if log_value >= _LOG_LARGE:
        return LARGE
    return math.exp(log_value)


def _logsumexp(terms) -> float:
    """ln(sum(exp(terms))) of a nonempty list of finite floats.

    The algorithm of Blanchard, Higham & Higham (IMA J. Numer. Anal. 41(4),
    2021), as scipy.special.logsumexp runs it, on the same numpy ufuncs in
    the same order, so the floats are scipy 1.17's: the max entries are set
    aside and the result is log1p(sum(exp(a - max)) / #max) + log(#max) + max.
    """
    a = np.array(terms, dtype=np.float64)
    top = a.max()
    at_top = a == top
    count = np.count_nonzero(at_top)
    # scipy skips the division when the sum is 0; with count >= 1 it gives 0 too
    s = np.exp(np.where(at_top, -np.inf, a) - top).sum() / count
    return float(np.log1p(s) + np.log(count) + top)


# typed: a float or bool argument must miss every int's entry and be refused;
# 4096 entries hold the 2k - 1 binomials of one (n, k) for k up to 2048
@functools.lru_cache(maxsize=4096, typed=True)
def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) via log-gamma; exact to ~1e-10 relative for n up to 1e4.

    Computed once per integer (n, k): every grid row's eps bounds need the
    same few binomials.
    """
    for value in (n, k):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"n and k must be integers, got n={n!r}, k={k!r}")
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))


def lambda_n(n: int, k: int, p: float) -> float:
    """Union-bound total C(n, k) * p, computed in the log domain."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    return _sat_exp(log_binomial(n, k) + math.log(p))


def poisson_zero_approx(lam: float) -> float:
    """exp(-lambda), the Poisson approximation of the no-exceedance probability."""
    if not lam >= 0.0:
        raise ValueError("lambda must be nonnegative")
    return math.exp(-lam) if lam < math.inf else 0.0


def poisson_nonzero_approx(lam: float) -> float:
    """1 - exp(-lambda), the companion approximation of the exceedance probability."""
    if not lam >= 0.0:
        raise ValueError("lambda must be nonnegative")
    return -math.expm1(-lam) if lam < math.inf else 1.0


def _check_pq(k, p, q):
    if not 0.0 < p <= 1.0:
        raise ValueError(f"marginal tail p must be in (0, 1], got {p}")
    flagged = False
    # q ends at q_{k-1}: it holds q_1..q_{k-1}, or q_{k-1} alone
    for r, qr in enumerate(q, start=k - len(q)):
        if not 0.0 <= qr <= 1.0:
            raise ValueError(f"joint tail q_{r} must be in [0, 1], got {qr}")
        if qr > p:
            flagged = True
    if flagged:
        # statistically impossible but reachable through MC noise; accept
        warnings.warn("joint tail exceeds marginal tail (q_r > p)", stacklevel=4)


def _eps_terms(n, k, p, q, overlaps=True):
    """Checked terms shared by the eps bounds: (1 - e^-lam, ln first, overlap logs).

    The first term p [C(n,k) - C(n-k,k)] takes the difference of the two
    nearly equal binomials in exact integers.  The overlap logs are
    (ln C(k,r) + ln C(n-k,k-r), ln q_r) for each r with q_r > 0 that can occur
    (C(n-k, k-r) = 0 when k - r > n - k).  With ``overlaps=False`` q holds
    q_{k-1} alone and no overlap logs are built.
    """
    if overlaps and len(q) != k - 1:
        raise ValueError(f"expected {k - 1} joint tails q_1..q_{k - 1}, got {len(q)}")
    _check_pq(k, p, q)
    factor = poisson_nonzero_approx(lambda_n(n, k, p))
    log_first = math.log(p) + math.log(math.comb(n, k) - math.comb(n - k, k))
    logs = [
        (log_binomial(k, r) + log_binomial(n - k, k - r), math.log(qr))
        for r, qr in enumerate(q, start=1)
        if overlaps and qr > 0.0 and k - r <= n - k
    ]
    return factor, log_first, logs


def eps_full(n: int, k: int, p: float, q) -> float:
    """Tightest approximation-error bound; q holds q_1..q_{k-1} (empty for k = 1)."""
    factor, log_first, overlaps = _eps_terms(n, k, p, tuple(q))
    log_p = math.log(p)
    logs = [log_first] + [c + log_q - log_p for c, log_q in overlaps]
    return min(factor * _sat_exp(_logsumexp(logs)), LARGE)


def eps_mid(n: int, k: int, p: float, q) -> float:
    """Intermediate bound with the joint sum pulled out of the (1 - e^-lam) factor."""
    factor, log_first, overlaps = _eps_terms(n, k, p, tuple(q))
    log_total = log_binomial(n, k)
    logs = [c + log_total + log_q for c, log_q in overlaps]
    second = _sat_exp(_logsumexp(logs)) if logs else 0.0
    return min(factor * _sat_exp(log_first) + second, LARGE)


def eps_single(n: int, k: int, p: float, q_top: float) -> float:
    """Loosest bound, depending on the single top-overlap joint tail q_{k-1}.

    Undefined for k = 1 (the (k-1) exponent degenerates).
    """
    if k < 2:
        raise ValueError("eps_single requires k >= 2")
    factor, log_first, _ = _eps_terms(n, k, p, (q_top,), overlaps=False)
    first = factor * _sat_exp(log_first)
    if q_top == 0.0:
        return min(first, LARGE)
    log_coeff = (
        k * math.log(2.0)
        + (k - 1) * (1.0 + math.log((2.0 * k - 1.0) / (k - 1.0)))
        + (2 * k - 1) * (1.0 + math.log(n / (2.0 * k - 1.0)))
    )
    return min(first + _sat_exp(log_coeff + math.log(q_top)), LARGE)


@dataclass(frozen=True)
class PoissonReport:
    """Per-threshold bundle: tails, lambda, e^-lambda and the three error bounds.

    ``eps_*`` fields are None when undefined: all three for p = 0 (the bounds
    require a positive marginal), eps_single for k = 1.
    """

    a: float
    p: float
    q: tuple
    lam: float
    approx_zero: float
    eps_full: float | None
    eps_mid: float | None
    eps_single: float | None


def poisson_report(n: int, k: int, a: float, p: float, q) -> PoissonReport:
    """Assemble the Poisson approximation bundle for one threshold."""
    q = tuple(q)
    lam = lambda_n(n, k, p)
    if p == 0.0:
        return PoissonReport(a, p, q, lam, 1.0, None, None, None)
    full = eps_full(n, k, p, q)
    mid = eps_mid(n, k, p, q)
    single = eps_single(n, k, p, q[-1]) if k >= 2 else None
    return PoissonReport(a, p, q, lam, poisson_zero_approx(lam), full, mid, single)

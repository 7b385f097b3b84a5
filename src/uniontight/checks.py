"""Self-check suites: one group per module-level invariant family.

Groups whose verdicts rest on Monte-Carlo confidence intervals are skipped
(not failed) when the configured trial count is below MIN_CI_TRIALS, since a
wide interval cannot distinguish pass from fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, poisson, ustat
from .ensembles import EnsembleSpec, row_outer_products, sample_batch, sample_matrix
from .kernels import (
    COHERENCE,
    NEG_SIGMA_MIN_SQ,
    RIC,
    SIGMA_MAX_SQ,
    coherence_kernel,
    kernel_value,
    ric_kernel,
    squared_singular_extremes,
)

MIN_CI_TRIALS = 1000

PASS, FAIL, SKIPPED = "pass", "fail", "skipped"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str


def _ci_guard(trials):
    if trials < MIN_CI_TRIALS:
        return SKIPPED, f"needs trials >= {MIN_CI_TRIALS}, got {trials}"
    return None


def check_ensemble_exactness(trials, seed):
    spec = EnsembleSpec("bernoulli", 4, 8, seed)
    sample = sample_matrix(spec, 0)
    norms = np.linalg.norm(sample.data, axis=0)
    if not np.allclose(norms, 1.0, rtol=1e-12, atol=0.0):
        return FAIL, "bernoulli columns are not unit norm"
    again = sample_matrix(spec, 0)
    if not np.array_equal(sample.data, again.data):
        return FAIL, "resampling the same trial changed the matrix"
    other = sample_matrix(spec, 1)
    if np.array_equal(sample.data, other.data):
        return FAIL, "distinct trials produced identical matrices"

    k = 3
    scale = math.sqrt(spec.m / k)
    sub = sample.data[:, :k]
    outers = row_outer_products(sub, scale)
    total = outers.sum(axis=0)
    target = scale**2 * sub.T @ sub
    if not np.allclose(total, target, rtol=1e-12, atol=1e-15):
        return FAIL, "row outer products do not sum to the scaled Gram"
    if np.abs(scale * sub).max() > 1.0 / math.sqrt(k) + 1e-12:
        return FAIL, "scaled bernoulli entry exceeds 1/sqrt(k)"
    for x in outers:
        w = np.linalg.eigvalsh(x)
        if w.min() < -1e-12 * max(np.trace(x), 1e-30):
            return FAIL, "row outer product is not PSD"
        if not np.allclose(np.diag(x), 1.0 / k, rtol=1e-12):
            return FAIL, "bernoulli row outer diagonal is not 1/k"
    return PASS, "norms, determinism, outer-product identities"


def check_ensemble_moments(trials, seed):
    guard = _ci_guard(trials)
    if guard:
        return guard
    spec = EnsembleSpec("gaussian", 10, 1, seed)
    cols = sample_batch(spec, 0, trials)[:, :, 0]
    sq = np.sum(cols**2, axis=1)
    se = sq.std(ddof=1) / math.sqrt(trials)
    if abs(sq.mean() - 1.0) > 3.0 * se:
        return FAIL, f"mean ||col||^2 = {sq.mean():.5f} not within 3 SE of 1"
    first = sample_batch(EnsembleSpec("gaussian", 2, 2, seed), 0, trials + 1)[:, 0, 0]
    corr = np.corrcoef(first[:-1], first[1:])[0, 1]
    if abs(corr) > 3.0 / math.sqrt(trials):
        return FAIL, f"consecutive-trial entry correlation {corr:.4f} too large"
    return PASS, f"column second moment and stream independence over {trials} trials"


def check_kernel_properties(trials, seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        m, k = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        a = rng.standard_normal((m, k))
        perm = rng.permutation(k)
        for kernel in (RIC, SIGMA_MAX_SQ, NEG_SIGMA_MIN_SQ):
            if abs(kernel_value(kernel, a) - kernel_value(kernel, a[:, perm])) > 1e-12:
                return FAIL, f"{kernel.variant} not invariant to column reordering"
        smin, smax = squared_singular_extremes(a)
        if abs(ric_kernel(a) - max(smax - 1.0, 1.0 - smin)) > 1e-12:
            return FAIL, "ric kernel disagrees with recomputation from extremes"
        b = rng.standard_normal((m, 2))
        if not 0.0 <= coherence_kernel(b) <= 1.0:
            return FAIL, "coherence left [0, 1]"
        if abs(coherence_kernel(b) - coherence_kernel(b[:, ::-1])) > 1e-12:
            return FAIL, "coherence not symmetric in column order"
    for _ in range(50):
        m, k = int(rng.integers(3, 9)), int(rng.integers(2, 5))
        a = rng.standard_normal((m, k))
        a /= np.linalg.norm(a, axis=0)
        coh = max(
            coherence_kernel(a[:, [i, j]]) for i in range(k) for j in range(i + 1, k)
        )
        if ric_kernel(a) > bounds.gershgorin_ric(coh, k) + 1e-9:
            return FAIL, "Gershgorin coherence bound violated"
    return PASS, "symmetry, ric recomputation, Gershgorin consistency"


def check_ustat_structure(trials, seed):
    rng = np.random.default_rng(seed)
    spec = EnsembleSpec("gaussian", 4, 6, seed)
    for trial in range(20):
        phi = sample_matrix(spec, trial).data
        for kernel, k in ((RIC, 2), (SIGMA_MAX_SQ, 3), (COHERENCE, 2)):
            top = ustat.max_over_subsets(phi, kernel, k)
            a = top + rng.uniform(-0.5, 0.5)
            zero_u = ustat.u_statistic(phi, kernel, k, a) == 0.0
            if zero_u != (top <= a):
                return FAIL, "U-statistic zero set disagrees with max-over-subsets"
    grid = np.linspace(0.0, 4.0, 17)
    run = ustat.extreme_experiment(spec, SIGMA_MAX_SQ, 2, grid, max(trials, 64))
    for series in (run.extreme, run.marginal, run.joint[1]):
        pts = [t.point for t in series]
        if any(x < y for x, y in zip(pts, pts[1:])):
            return FAIL, "tail curve is not nonincreasing on shared trials"
    for ext, marg, joint in zip(run.extreme, run.marginal, run.joint[1]):
        if ext.point < marg.point or marg.point < joint.point:
            return FAIL, "extreme >= marginal >= joint ordering violated"
    return PASS, "zero-set equivalence, monotone and ordered tail curves"


def check_ustat_binomial(trials, seed):
    guard = _ci_guard(trials)
    if guard:
        return guard
    # for k = 1, gaussian, m = 2: ||col||^2 ~ Exp(1), so p(a) = e^-a exactly.
    # Each column's estimate reads the same trials, so the p_j sum to the mean
    # of n*U_n, and the columns are independent, so their variances add.
    spec = EnsembleSpec("gaussian", 2, 5, seed)
    a = 0.8
    tails = [ustat.mc_marginal_tail(spec, SIGMA_MAX_SQ, 1, [a], trials, subset=(j,)) for j in range(spec.n)]
    p = np.concatenate([tail.point for tail in tails])
    mean, expected = p.sum(), spec.n * math.exp(-a)
    se = math.sqrt((p * (1.0 - p)).sum() / trials)
    if abs(mean - expected) > 3.0 * se:
        return FAIL, f"n*U_n mean {mean:.3f} vs binomial mean {expected:.3f}"
    return PASS, f"k=1 subset counts match the binomial mean over {trials} trials"


def check_ustat_exchangeability(trials, seed):
    guard = _ci_guard(trials)
    if guard:
        return guard
    spec = EnsembleSpec("gaussian", 5, 8, seed)
    grid = [1.2, 1.8, 2.4]
    lead = ustat.mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, grid, trials)
    tail = ustat.mc_marginal_tail(spec, SIGMA_MAX_SQ, 2, grid, trials, subset=(6, 7))
    for e1, e2 in zip(lead, tail):
        se = math.hypot(e1.std_err, e2.std_err)
        if abs(e1.point - e2.point) > 3.0 * max(se, 1e-12):
            return FAIL, f"subset choice shifted p({e1.threshold}) beyond 3 SE"
    return PASS, "marginal estimates agree across fixed subsets"


def check_poisson_algebra(trials, seed):
    rng = np.random.default_rng(seed)
    for _ in range(10_000):
        n = int(rng.integers(2, 101))
        k = int(rng.integers(2, min(10, n) + 1))
        p = float(rng.uniform(1e-6, 1.0))
        q = np.sort(rng.uniform(0.0, p, size=k - 1))
        full = poisson.eps_full(n, k, p, q)
        mid = poisson.eps_mid(n, k, p, q)
        single = poisson.eps_single(n, k, p, q[-1])
        if full > mid * (1 + 1e-12) or mid > single * (1 + 1e-12):
            return FAIL, f"error-bound chain violated at n={n}, k={k}"
    for k in range(1, 61):
        if sum(math.comb(k, r) for r in range(1, k)) != 2**k - 2:
            return FAIL, "binomial row-sum identity failed"
    for n in range(2, 61):
        for k in range(1, n):
            for i in range(0, n - k + 1):
                if math.comb(n - k, i) * math.comb(n, k) != math.comb(k + i, i) * math.comb(n, k + i):
                    return FAIL, f"subset-splitting identity failed at n={n}, k={k}, i={i}"
    for lam in np.linspace(0.0, 20.0, 81):
        if poisson.poisson_nonzero_approx(lam) > lam + 1e-12:
            return FAIL, "1 - e^-lambda <= lambda violated"
    for n, p in ((10, 0.1), (50, 0.01), (3, 0.9)):
        want = poisson.poisson_nonzero_approx(n * p) * p
        if abs(poisson.eps_full(n, 1, p, ()) - want) > 1e-12 * want:
            return FAIL, "k=1 reduction of eps_full failed"
    return PASS, "chain fuzz, exact combinatorial identities, k=1 reduction"


def check_bounds_identities(trials, seed):
    for a in (0.0, 0.1, 0.5, 0.9, 1.0):
        if a not in (0.0, 1.0) and bounds.divergence(a, a) != 0.0:
            return FAIL, "D(a||a) != 0"
    if bounds.c4_constant(1.0, 2, 0.5, 1.0) != 0.0 or bounds.c3_constant(1.0, 2, 0.5, 1.0) != 0.0:
        return FAIL, "c4 or c3 nonzero at c2 = 1"
    if bounds.welch_lower_bound(50, 50) != 0.0 or bounds.gershgorin_ric(0.3, 1) != 0.0:
        return FAIL, "welch(n=m) or gershgorin(k=1) nonzero"
    # joint bound with c2 = 1 collapses to the squared marginal with k^2 prefactor
    k, m, a = 6, 40, 2.5
    preset = bounds.TauPreset(1.0 / k**2, 1.0 / k, 1.0 / k, k)
    joint = bounds.joint_bound("max", a, k, m, preset)
    marg = bounds.marginal_bound("max", a, k, m, 1.0 / k)
    if abs(joint - k**2 * (marg / k) ** 2) > 1e-12 * joint:
        return FAIL, "joint bound at c2 = 1 is not the squared marginal"
    for m1, m2 in ((10, 20), (20, 40)):
        if bounds.marginal_bound("max", a, k, m2, 1.0 / k) > bounds.marginal_bound(
            "max", a, k, m1, 1.0 / k
        ):
            return FAIL, "marginal bound not nonincreasing in m"
    # exponent-halving diagnostic on the bernoulli preset
    for side, a_fix in (("max", 1.5), ("min", 0.5)):
        marg_exp, joint_exp = [], []
        for kk in range(4, 21):
            pre = bounds.TauPreset.for_family("bernoulli", kk)
            marg_exp.append(bounds.marginal_exponent(side, a_fix, kk, pre))
            joint_exp.append(bounds.joint_halved_exponent(side, a_fix, kk, pre))
        if min(marg_exp) <= 0.0 or min(joint_exp) <= 0.0:
            return FAIL, f"{side}-side exponents not positive on the preset"
        if any(x <= y for x, y in zip(marg_exp, marg_exp[1:])) or any(
            x <= y for x, y in zip(joint_exp, joint_exp[1:])
        ):
            return FAIL, f"{side}-side exponents not decreasing in k"
        for seq in (marg_exp, joint_exp):
            scaled = [kk * v for kk, v in zip(range(4, 21), seq)]
            if max(scaled) / min(scaled) >= 2.0:
                return FAIL, "k * exponent varies by a factor >= 2 over k in 4..20"
    return PASS, "identities, c2=1 collapse, m-monotonicity, exponent halving"


def check_lemma_trace_exp(trials, seed):
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        basis = np.linalg.qr(rng.standard_normal((k, k)))[0]
        x = (basis * rng.uniform(0.0, 1.0, size=k)) @ basis.T
        root = rng.standard_normal((k, k))
        c = root @ root.T
        h = float(rng.uniform(1e-3, 3.0))
        tol = 1e-9 * np.trace(c) * math.exp(h)
        lhs_pos = np.trace(c @ bounds.sym_expm(h * x))
        rhs_pos = np.trace(c) + (math.exp(h) - 1.0) * np.trace(c @ x)
        lhs_neg = np.trace(c @ bounds.sym_expm(-h * x))
        rhs_neg = np.trace(c) + (math.exp(-h) - 1.0) * np.trace(c @ x)
        if lhs_pos > rhs_pos + tol or lhs_neg > rhs_neg + tol:
            return FAIL, "trace-exponential inequality violated"
    return PASS, "both trace-exponential inequalities over 1000 draws"


def check_prop2_trace_moment(trials, seed):
    guard = _ci_guard(trials)
    if guard:
        return guard
    rng = np.random.default_rng(seed)
    k = 6
    for family in ("bernoulli", "gaussian"):
        tau = bounds.tau_q_estimate(
            1.0 / k, 1.0 / k**2 if family == "bernoulli" else 3.0 / k**2
        )
        for c_overlap in (0, k // 2, k):
            root_c = rng.standard_normal((k, k))
            root_d = rng.standard_normal((k, k))
            cmat = root_c @ root_c.T
            dmat = root_d @ root_d.T
            if family == "bernoulli":
                a = rng.choice([-1.0, 1.0], size=(trials, k)) / math.sqrt(k)
                b = rng.choice([-1.0, 1.0], size=(trials, k)) / math.sqrt(k)
            else:
                a = rng.standard_normal((trials, k)) / math.sqrt(k)
                b = rng.standard_normal((trials, k)) / math.sqrt(k)
            b[:, :c_overlap] = a[:, :c_overlap]
            z = np.einsum("ti,ij,tj->t", a, cmat, a) * np.einsum(
                "ti,ij,tj->t", b, dmat, b
            )
            z /= np.trace(cmat) * np.trace(dmat)
            se = z.std(ddof=1) / math.sqrt(trials)
            if z.mean() > tau + 3.0 * se:
                return FAIL, f"{family} overlap {c_overlap}: {z.mean():.3e} > tau + 3 SE"
    return PASS, "trace-moment estimates below tau_q across overlaps and families"


GROUPS = (
    ("ensemble_exactness", check_ensemble_exactness),
    ("ensemble_moments", check_ensemble_moments),
    ("kernel_properties", check_kernel_properties),
    ("ustat_structure", check_ustat_structure),
    ("ustat_binomial_k1", check_ustat_binomial),
    ("ustat_exchangeability", check_ustat_exchangeability),
    ("poisson_algebra", check_poisson_algebra),
    ("bounds_identities", check_bounds_identities),
    ("lemma_trace_exp", check_lemma_trace_exp),
    ("prop2_trace_moment", check_prop2_trace_moment),
)


def run_all(trials: int = 2000, seed: int = 0):
    """Run every invariant group; CI-based groups skip below MIN_CI_TRIALS."""
    results = []
    for name, fn in GROUPS:
        status, detail = fn(trials, seed)
        results.append(CheckResult(name, status, detail))
    return results

"""Acceptance suite: one check per numbered criterion, tolerances pinned here.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Monte-Carlo criteria use fixed seeds, so outcomes are
reproducible.  Criterion 2's sup-distance check is a known, documented
failure: Bernoulli coherence lives on the lattice {0, 2/m, 4/m, ...}, so its
empirical tail is a step function with jumps up to ~0.4 at (m, n) = (50, 100),
while the smooth Gaussian-proxy union bound cannot track those steps to
within 0.1; the companion diagnostic shows the union-bound prediction is
tight (sup distance < 0.01) once the exact lattice marginal is used.
"""

import math
from math import comb

import numpy as np
import pytest

from uniontight.bounds import (
    c3_constant,
    c4_constant,
    coherence_eps_bound,
    coherence_gaussian_proxy,
    coherence_tail_bound,
    divergence,
    gershgorin_ric,
    sym_expm,
    welch_lower_bound,
)
from uniontight.cli import main
from uniontight.ensembles import EnsembleSpec, sample_batch
from uniontight.kernels import COHERENCE, NEG_SIGMA_MIN_SQ, SIGMA_MAX_SQ
from uniontight.poisson import eps_full, eps_mid, eps_single, poisson_nonzero_approx
from uniontight.ustat import extreme_experiment, mc_extreme_tail, mc_marginal_tail


def _report(criterion, ok, detail):
    print(f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- criterion 1: extreme-tail reproduction, gaussian m=5, k=2, n in {10, 25} ----

_FIG1_GRIDS = {
    10: {"max": (1.6, 5.2), "min": (0.004, 0.20)},
    25: {"max": (2.2, 6.0), "min": (0.002, 0.07)},
}


def _fig1_ratios(n, side, trials=100_000, seed=20240817):
    spec = EnsembleSpec("gaussian", 5, n, seed)
    lo, hi = _FIG1_GRIDS[n][side]
    grid = np.linspace(lo, hi, 60)
    if side == "max":
        run = extreme_experiment(spec, SIGMA_MAX_SQ, 2, grid, trials, threads=2)
    else:
        run = extreme_experiment(spec, NEG_SIGMA_MIN_SQ, 2, -grid, trials, threads=2)
    emp = np.array([e.point for e in run.extreme])
    p_hat = np.array([e.point for e in run.marginal])
    approx = -np.expm1(-comb(n, 2) * p_hat)
    band = (emp >= 0.02) & (emp <= 0.8)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(approx > 0, emp / approx, np.inf)
    return ratios[band], int(band.sum())


def test_criterion_1_fig_extreme_reproduction():
    ok = True
    details = []
    for n in (10, 25):
        for side, (lo_band, hi_band) in (("max", (0.25, 4.0)), ("min", (0.5, 2.0))):
            ratios, points = _fig1_ratios(n, side)
            inside = points >= 10 and bool(
                np.all((ratios >= lo_band) & (ratios <= hi_band))
            )
            ok = ok and inside
            details.append(
                f"n={n} {side}: {points} band pts, ratio in "
                f"[{ratios.min():.3f}, {ratios.max():.3f}]"
            )
    _report(1, ok, "; ".join(details))


# --- criterion 2: coherence figure, bernoulli m=50, n=100 ------------------------


@pytest.fixture(scope="module")
def fig3_run():
    spec = EnsembleSpec("bernoulli", 50, 100, base_seed=7)
    grid = np.linspace(0.3, 0.8, 21)
    estimates = mc_extreme_tail(spec, COHERENCE, 2, grid, trials=5_000, threads=2)
    return grid, np.array([e.point for e in estimates])


def test_criterion_2_fig_coherence_sup_distance(fig3_run):
    grid, emp = fig3_run
    lam = comb(100, 2) * np.array([coherence_gaussian_proxy(a, 50) for a in grid])
    sup = float(np.abs(emp - (-np.expm1(-lam))).max())
    _report(
        "2 (sup distance)",
        sup <= 0.1,
        f"sup over a in [0.3, 0.8] of |empirical - (1 - e^-lambda)| = {sup:.4f} "
        "(tolerance 0.1, lambda from the Gaussian-proxy marginal)",
    )


def test_criterion_2_fig_coherence_eps_bound():
    a = 0.75
    lam = comb(100, 2) * coherence_gaussian_proxy(a, 50)
    value = coherence_eps_bound(100, 50, a, lam)
    _report(
        "2 (eps bound)",
        value <= 1e-3,
        f"coherence_eps_bound(n=100, m=50, a=0.75) = {value:.3e} <= 1e-3",
    )


def test_fig3_union_bound_tightness_with_exact_marginal(fig3_run):
    # diagnostic, not a stated criterion: with the exact lattice marginal the
    # union-bound prediction tracks the empirical curve tightly, so the
    # criterion-2 gap is the smooth proxy, not the Poisson approximation
    grid, emp = fig3_run
    m = 50
    pmf = np.array([comb(m, j) for j in range(m + 1)], dtype=float) / 2.0**m
    values = np.abs(2.0 * np.arange(m + 1) - m) / m
    p_exact = np.array([pmf[values > a].sum() for a in grid])
    lam = comb(100, 2) * p_exact
    sup = float(np.abs(emp - (-np.expm1(-lam))).max())
    print(f"fig-3 diagnostic: exact-marginal sup distance = {sup:.4f}")
    assert sup <= 0.1


# --- criterion 3: error-bound chain over random parameter draws ------------------


def test_criterion_3_error_bound_chain():
    rng = np.random.default_rng(3)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 101))
        k = int(rng.integers(2, min(10, n) + 1))
        p = float(rng.uniform(1e-9, 1.0))
        q = np.sort(rng.uniform(0.0, p, size=k - 1))
        full = eps_full(n, k, p, q)
        mid = eps_mid(n, k, p, q)
        single = eps_single(n, k, p, q[-1])
        if full > mid * (1 + 1e-12) or mid > single * (1 + 1e-12):
            violations += 1
    _report(3, violations == 0, f"{violations} chain violations in 10000 draws")


# --- criterion 4: bernoulli trace-moment constant beta = 3 -----------------------


def test_criterion_4_bernoulli_beta_three():
    rng = np.random.default_rng(4)
    k, trials = 8, 100_000
    tau = 3.0 / k**2
    worst = -np.inf
    ok = True
    for _ in range(20):
        root_c = rng.standard_normal((k, k))
        root_d = rng.standard_normal((k, k))
        cmat = root_c @ root_c.T
        dmat = root_d @ root_d.T
        for overlap in (0, 4, 8):
            a = rng.choice([-1.0, 1.0], size=(trials, k)) / math.sqrt(k)
            b = rng.choice([-1.0, 1.0], size=(trials, k)) / math.sqrt(k)
            b[:, :overlap] = a[:, :overlap]
            z = np.einsum("ti,ij,tj->t", a, cmat, a) * np.einsum(
                "ti,ij,tj->t", b, dmat, b
            )
            z /= np.trace(cmat) * np.trace(dmat)
            se = z.std(ddof=1) / math.sqrt(trials)
            margin = z.mean() - (tau + 3.0 * se)
            worst = max(worst, margin)
            ok = ok and margin <= 0.0
    _report(4, ok, f"max estimate minus (3/k^2 + 3 SE) = {worst:.2e} over 60 cases")


# --- criterion 5: normalized inner-product tail bound -----------------------------


def test_criterion_5_coherence_tail_bound_monte_carlo():
    m, trials = 20, 100_000
    grid = np.linspace(0.05, 0.95, 20)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(m)
    b /= np.linalg.norm(b)
    ok = True
    worst = -np.inf
    for family in ("gaussian", "bernoulli"):
        spec = EnsembleSpec(family, m, 100, base_seed=55)
        cols = sample_batch(spec, 0, trials // 100).transpose(0, 2, 1).reshape(-1, m)
        inner = np.abs(cols @ b) / np.linalg.norm(cols, axis=1)
        for a in grid:
            f_hat = float((inner > a).mean())
            se = math.sqrt(f_hat * (1 - f_hat) / trials)
            margin = f_hat - (coherence_tail_bound(a, m) + 3 * se)
            worst = max(worst, margin)
            ok = ok and margin <= 0.0
    _report(5, ok, f"max f_hat minus (2 e^(-m a^2/2) + 3 SE) = {worst:.2e}")


# --- criterion 6: joint tails grow with the overlap -------------------------------


def test_criterion_6_joint_overlap_monotonicity():
    spec = EnsembleSpec("gaussian", 5, 5, base_seed=6)
    grid = np.linspace(1.0, 5.0, 25)
    run = extreme_experiment(spec, SIGMA_MAX_SQ, 3, grid, trials=50_000, threads=2)
    considered = 0
    ok = True
    worst = np.inf
    for e1, e2 in zip(run.joint[1], run.joint[2]):
        if e1.point >= 0.01:
            considered += 1
            se = math.hypot(e1.std_err, e2.std_err)
            margin = e2.point - (e1.point - 3 * se)
            worst = min(worst, margin)
            ok = ok and margin >= 0.0
    ok = ok and considered >= 5
    _report(6, ok, f"q2 >= q1 - 3 SE at all {considered} grid pts (min margin {worst:.4f})")


# --- criterion 7: trace-exponential lemma --------------------------------------


def test_criterion_7_trace_exponential_lemma():
    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        x = (q * rng.uniform(0.0, 1.0, size=k)) @ q.T
        root = rng.standard_normal((k, k))
        c = root @ root.T
        h = float(rng.uniform(1e-3, 3.0))
        tol = 1e-9 * np.trace(c) * math.exp(h)
        up = np.trace(c @ sym_expm(h * x)) - (
            np.trace(c) + (math.exp(h) - 1.0) * np.trace(c @ x)
        )
        down = np.trace(c @ sym_expm(-h * x)) - (
            np.trace(c) + (math.exp(-h) - 1.0) * np.trace(c @ x)
        )
        if up > tol or down > tol:
            failures += 1
    _report(7, failures == 0, f"{failures} violations in 1000 random (X, C, h) draws")


# --- criterion 8: closed-form chi-square oracle ---------------------------------


def test_criterion_8_exponential_tail_oracle():
    # k = 1, gaussian, m = 2: ||col||^2 ~ chi2_2 / 2 = Exp(1), so p(a) = e^-a
    spec = EnsembleSpec("gaussian", 2, 1, base_seed=8)
    grid = [0.5, 1.0, 1.5, 2.0, 2.5]
    estimates = mc_marginal_tail(spec, SIGMA_MAX_SQ, 1, grid, trials=100_000, threads=2)
    worst = 0.0
    ok = True
    for est in estimates:
        gap = abs(est.point - math.exp(-est.threshold))
        worst = max(worst, gap - 3 * est.std_err)
        ok = ok and gap <= 3 * est.std_err
    _report(8, ok, f"max |p_hat - e^-a| minus 3 SE = {worst:.2e} over 5 grid points")


# --- criterion 9: CSV byte determinism across runs and thread counts -------------


def test_criterion_9_fig_coherence_determinism(tmp_path, chunk_plan):
    # 128-trial chunks at --threads 8 make 400 trials four chunks on two
    # workers; --threads 1 gets two chunks, of 256 and 144
    chunk_plan(EnsembleSpec("bernoulli", 20, 30), COHERENCE, 2, 128, threads=8)
    base = [
        "fig-coherence", "--m", "20", "--n", "30", "--trials", "400",
        "--a-min", "0.2", "--a-max", "0.9", "--a-steps", "15", "--seed", "9",
    ]
    paths = [tmp_path / name for name in ("t1.csv", "t1_again.csv", "t8.csv")]
    assert main(base + ["--threads", "1", "--out", str(paths[0])]) == 0
    assert main(base + ["--threads", "1", "--out", str(paths[1])]) == 0
    assert main(base + ["--threads", "8", "--out", str(paths[2])]) == 0
    raw = [p.read_bytes() for p in paths]
    ok = raw[0] == raw[1] == raw[2]
    _report(9, ok, "repeat run and --threads 1 vs --threads 8 byte-identical")


# --- criterion 10: exact trivial identities --------------------------------------


def test_criterion_10_trivial_identities():
    checks = {
        "D(a||a) = 0": all(divergence(a, a) == 0.0 for a in (0.25, 0.5, 0.75)),
        "c4 = 0 at c2 = 1": abs(c4_constant(1.2, 3, 0.4, 1.0)) <= 1e-12,
        "c3 = 0 at c2 = 1": abs(c3_constant(1.2, 3, 0.4, 1.0)) <= 1e-12,
        "welch(n = m) = 0": abs(welch_lower_bound(40, 40)) <= 1e-12,
        "gershgorin(k = 1) = 0": abs(gershgorin_ric(0.7, 1)) <= 1e-12,
    }
    for n, p in ((10, 0.1), (100, 0.004), (7, 0.8)):
        want = poisson_nonzero_approx(n * p) * p
        checks[f"eps_full(k=1, n={n})"] = abs(eps_full(n, 1, p, ()) - want) <= 1e-12 * want
    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    _report(10, ok, "all identities exact to 1e-12" if ok else f"failed: {failed}")

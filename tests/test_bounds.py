import math

import numpy as np
import pytest
from scipy.linalg import expm as dense_expm
from scipy.special import rel_entr

from uniontight.bounds import (
    TauPreset,
    c3_constant,
    c4_constant,
    coherence_eps_bound,
    coherence_eps_terms,
    coherence_gaussian_proxy,
    coherence_tail_bound,
    concentration_tail,
    divergence,
    gershgorin_ric,
    is_vacuous,
    joint_bound,
    joint_halved_exponent,
    marginal_bound,
    marginal_exponent,
    rate_condition,
    recovery_constants,
    ric_union_bound,
    sym_expm,
    tau_q_estimate,
    welch_lower_bound,
)


def _div_oracle(a, b):
    # scipy rel_entr sums the two KL contributions elementwise
    return float(rel_entr(a, b) + rel_entr(1 - a, 1 - b))


def test_divergence_values():
    assert divergence(0.5, 0.5) == 0.0
    assert divergence(0.0, 0.3) == pytest.approx(math.log(1 / 0.7), rel=1e-12)
    assert divergence(1.0, 0.3) == pytest.approx(math.log(1 / 0.3), rel=1e-12)
    assert divergence(0.1, 0.5) == pytest.approx(0.3680642071684971, rel=1e-12)
    for a, b in ((0.2, 0.7), (0.9, 0.05), (0.5, 0.5001)):
        assert divergence(a, b) == pytest.approx(_div_oracle(a, b), rel=1e-10)
        assert divergence(a, b) >= 0.0


def test_divergence_domain_errors():
    for a, b in ((-0.1, 0.5), (1.1, 0.5), (0.5, 0.0), (0.5, 1.0)):
        with pytest.raises(ValueError):
            divergence(a, b)


def test_marginal_bound_exact_value():
    # k e^{-m D(1/2 || 1/4)} at m = 10 is exactly (3/4)^5
    got = marginal_bound("max", 0.5, 1, 10, 0.25)
    assert got == pytest.approx(243 / 1024, rel=1e-12)


def test_marginal_bound_boundary_and_monotonicity():
    k, tau = 3, 0.2
    assert marginal_bound("max", k * tau, k, 10, tau, permissive=True) == pytest.approx(k)
    values = [marginal_bound("max", 1.5, k, m, tau) for m in (5, 10, 20, 40)]
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_marginal_bound_domain_errors_name_interval():
    with pytest.raises(ValueError, match="a in"):
        marginal_bound("max", 0.1, 2, 10, 0.3)
    with pytest.raises(ValueError, match="a in"):
        marginal_bound("min", 0.9, 2, 10, 0.3)
    with pytest.raises(ValueError):
        marginal_bound("max", 1.0, 2, 10, 1.5)  # tau outside (0, 1)
    with pytest.raises(ValueError):
        marginal_bound("both", 1.0, 2, 10, 0.3)
    # same points are fine in permissive mode
    assert marginal_bound("max", 0.1, 2, 10, 0.3, permissive=True) > 0


def test_min_side_bound_evaluates():
    v = marginal_bound("min", 0.4, 2, 30, 0.3)
    assert v == pytest.approx(2 * math.exp(-30 * divergence(0.2, 0.3)), rel=1e-12)


def test_c4_values():
    assert c4_constant(1.0, 2, 0.5, 1.0) == 0.0
    assert c4_constant(0.0, 2, 0.5, 0.5) == 0.0
    assert c4_constant(1.0, 2, 0.5, 0.5) == pytest.approx(
        (math.sqrt(5) - 1) / 2, rel=1e-12
    )
    for bad in ((2.5, 2, 0.5, 0.5), (1.0, 2, 1.5, 0.5), (1.0, 2, 0.5, 1.5), (1.0, 2, 0.5, 0.0)):
        with pytest.raises(ValueError):
            c4_constant(*bad)


def test_c3_values():
    assert c3_constant(1.0, 2, 0.5, 1.0) == 0.0
    assert c3_constant(1.0, 2, 0.5, 0.5) == pytest.approx(0.10596767775017096, rel=1e-12)
    with pytest.raises(ValueError):
        c3_constant(0.0, 2, 0.5, 0.5)  # needs a > 0


def test_c3_times_k_converges():
    # with c1 = 3/k, c2 = 1/3 the product k * c3 approaches a finite limit
    diffs = []
    prev = None
    for k in (10, 20, 40, 80):
        value = k * c3_constant(1.5, k, 3.0 / k, 1.0 / 3.0)
        if prev is not None:
            diffs.append(abs(value - prev))
        prev = value
    assert all(x > y for x, y in zip(diffs, diffs[1:]))


def test_tau_presets():
    ber = TauPreset.for_family("bernoulli", 8)
    assert ber.tau_q == pytest.approx(3 / 64)
    assert ber.tau_p_max == ber.tau_p_min == pytest.approx(1 / 8)
    gau = TauPreset.for_family("gaussian", 8)
    assert gau.tau_q == pytest.approx(5 / 64)
    with pytest.raises(ValueError):
        TauPreset.for_family("uniform", 8)
    with pytest.raises(ValueError, match="sqrt"):
        TauPreset.from_moment_scaling(1.0, 2.0, 4)
    with pytest.raises(ValueError):
        TauPreset(0.0, 0.1, 0.1, 4)


def test_joint_bound_compositional_identity():
    preset = TauPreset.for_family("bernoulli", 20)
    a, k, m = 4.0, 20, 100
    c1 = preset.tau_q / preset.tau_p_max
    c2 = preset.tau_p_max**2 / preset.tau_q
    assert c1 == pytest.approx(0.15) and c2 == pytest.approx(1 / 3)
    want = k**2 * math.exp(-2 * m * (divergence(a / k, c1) + c3_constant(a, k, c1, c2)))
    assert joint_bound("max", a, k, m, preset) == pytest.approx(want, rel=1e-12)


def test_joint_bound_collapses_when_c2_is_one():
    k, m, a = 6, 40, 2.5
    preset = TauPreset(1.0 / k**2, 1.0 / k, 1.0 / k, k)
    joint = joint_bound("max", a, k, m, preset)
    marg = marginal_bound("max", a, k, m, 1.0 / k)
    assert joint == pytest.approx(k**2 * (marg / k) ** 2, rel=1e-12)


def test_joint_bound_domain_reporting():
    preset = TauPreset.for_family("bernoulli", 2)  # c1 = 3/2 >= 1
    with pytest.raises(ValueError, match="c1"):
        joint_bound("max", 1.5, 2, 10, preset)
    good = TauPreset.for_family("bernoulli", 8)
    with pytest.raises(ValueError, match="a in"):
        joint_bound("max", 0.5, 8, 10, good)
    assert joint_bound("max", 0.5, 8, 10, good, permissive=True) > 0


def test_all_bound_evaluators_nonincreasing_in_m():
    preset = TauPreset.for_family("bernoulli", 8)
    ms = (10, 20, 40, 80, 160)
    families = {
        "marginal": lambda m: marginal_bound("max", 2.0, 8, m, preset.tau_p_max),
        "joint": lambda m: joint_bound("max", 2.0, 8, m, preset),
        "ric_union": lambda m: ric_union_bound(60, 8, m, 0.5),
        "coherence_tail": lambda m: coherence_tail_bound(0.4, m),
        "coherence_proxy": lambda m: coherence_gaussian_proxy(0.4, m),
        "coherence_eps": lambda m: coherence_eps_bound(60, m, 0.4, 1.0),
    }
    for name, fn in families.items():
        values = [fn(m) for m in ms]
        assert all(x >= y for x, y in zip(values, values[1:])), name


def test_exponent_helpers_match_bounds():
    preset = TauPreset.for_family("bernoulli", 10)
    a, m = 1.5, 60
    marg = marginal_bound("max", a, 10, m, preset.tau_p_max)
    joint = joint_bound("max", a, 10, m, preset)
    assert marg == pytest.approx(10 * math.exp(-m * marginal_exponent("max", a, 10, preset)))
    assert joint == pytest.approx(
        100 * math.exp(-2 * m * joint_halved_exponent("max", a, 10, preset))
    )


def test_exponent_halving_diagnostic():
    for side, a in (("max", 1.5), ("min", 0.5)):
        marg, joint = [], []
        for k in range(4, 21):
            preset = TauPreset.for_family("bernoulli", k)
            marg.append(marginal_exponent(side, a, k, preset))
            joint.append(joint_halved_exponent(side, a, k, preset))
        assert min(marg) > 0 and min(joint) > 0
        assert all(x > y for x, y in zip(marg, marg[1:]))
        assert all(x > y for x, y in zip(joint, joint[1:]))
        for seq in (marg, joint):
            scaled = [k * v for k, v in zip(range(4, 21), seq)]
            assert max(scaled) / min(scaled) < 2.0


def test_tau_q_estimate():
    k = 6
    assert tau_q_estimate(1 / k, 1 / k**2) == pytest.approx(3 / k**2, rel=1e-12)
    assert tau_q_estimate(1 / k, 3 / k**2) == pytest.approx(5 / k**2, rel=1e-12)
    assert tau_q_estimate(0.2, 0.04) == pytest.approx(3 * 0.04, rel=1e-12)
    with pytest.raises(ValueError, match="invalid moments"):
        tau_q_estimate(0.5, 0.1)


def test_concentration_tail():
    assert concentration_tail(0.0, "gaussian") == 1.0
    assert concentration_tail(2.0, "gaussian") == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert concentration_tail(4.0, "bernoulli") == pytest.approx(math.exp(-1.0), rel=1e-12)
    with pytest.raises(ValueError):
        concentration_tail(-1.0, "gaussian")
    with pytest.raises(ValueError):
        concentration_tail(1.0, "cauchy")


def test_ric_union_bound():
    direct = 2 * (math.e * 100 / 5) ** 5 * math.exp(-200 * 0.25 / 2)
    assert ric_union_bound(100, 5, 200, 0.5) == pytest.approx(direct, rel=1e-10)
    assert ric_union_bound(100, 5, 200, 0.5) == pytest.approx(0.013191383183606764, rel=1e-10)
    # k = n: coefficient is exactly 2 e^n
    assert ric_union_bound(8, 8, 100, 1.0) == pytest.approx(
        2 * math.exp(8) * math.exp(-50), rel=1e-10
    )
    values = [ric_union_bound(100, 5, m, 0.5) for m in (50, 100, 200)]
    assert all(x > y for x, y in zip(values, values[1:]))
    with pytest.raises(ValueError):
        ric_union_bound(5, 6, 10, 0.5)
    with pytest.raises(ValueError):
        ric_union_bound(5, 2, 10, 0.0)


def test_coherence_tail_bound():
    assert coherence_tail_bound(0.0, 10) == 2.0
    a_star = math.sqrt(4 * math.log(100) / 50)
    assert coherence_tail_bound(a_star, 50) == pytest.approx(2e-4, rel=1e-10)
    # spherical-cap comparison: (1 - a^2)^{m/2} <= e^{-m a^2 / 2}
    for m in (10, 50):
        for a in np.linspace(0.05, 0.95, 19):
            assert (1 - a**2) ** (m / 2) <= math.exp(-m * a**2 / 2) + 1e-15
    with pytest.raises(ValueError):
        coherence_tail_bound(1.5, 10)


def test_coherence_gaussian_proxy():
    assert coherence_gaussian_proxy(0.607, 50) == pytest.approx(
        0.00013133097889086152, rel=1e-10
    )
    # shares the exponential factor with the tail bound by construction
    for a in (0.2, 0.5, 0.8):
        assert coherence_gaussian_proxy(a, 50) == pytest.approx(
            coherence_tail_bound(a, 50) / (a * math.sqrt(2 * math.pi)), rel=1e-12
        )
    # decreasing once a >= 1/sqrt(m): finite-difference sign oracle
    grid = np.linspace(1 / math.sqrt(50), 1.0, 40)
    vals = [coherence_gaussian_proxy(a, 50) for a in grid]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        coherence_gaussian_proxy(0.0, 50)


def test_coherence_eps_bound():
    n, m, a = 100, 50, 0.75
    assert coherence_eps_bound(n, m, a, 0.0) == pytest.approx(
        4 * n**3 * math.exp(-m * a**2), rel=1e-12
    )
    lam = math.comb(100, 2) * coherence_gaussian_proxy(a, m)
    total = coherence_eps_bound(n, m, a, lam)
    want = (-math.expm1(-lam)) * 394 * math.exp(-m * a**2 / 2) + 4e6 * math.exp(-m * a**2)
    assert total == pytest.approx(want, rel=1e-12)
    assert total <= 1e-3
    # the second term decays exactly once a clears the stated threshold
    a_cut = math.sqrt((math.log(4) + 3 * math.log(n)) / m)
    assert 4 * n**3 * math.exp(-m * (a_cut + 0.01) ** 2) < 1.0
    assert 4 * n**3 * math.exp(-m * (a_cut - 0.01) ** 2) > 1.0
    with pytest.raises(ValueError):
        coherence_eps_bound(1, m, a, 0.0)
    with pytest.raises(ValueError):
        coherence_eps_bound(n, m, a, -0.5)


def test_coherence_eps_terms_refuse_nan_lambda():
    with pytest.raises(ValueError, match="lambda must be nonnegative"):
        coherence_eps_terms(100, 50, 0.5, math.nan)
    # an infinite lambda is the saturated union bound, not an error
    assert coherence_eps_terms(100, 50, 0.5, math.inf)[0] == 394 * math.exp(-50 * 0.5**2 / 2)


def test_rate_condition():
    big_m = rate_condition(1000, 10, 10_000, 4.0, 1.0)
    assert big_m.satisfied
    zero_a = rate_condition(1000, 10, 10_000, 0.0, 1.0)
    assert not zero_a.satisfied and zero_a.lhs == 0.0 < zero_a.rhs
    # frozen worked example
    m = 2 * 10 * (1 + math.log(100))
    check = rate_condition(1000, 10, m, 0.4 * 10 / 1.0, 1.0)
    assert check.lhs == pytest.approx(0.4 * m, rel=1e-12)
    assert check.rhs == pytest.approx(9.5 * (1 + math.log(1000 / 9)), rel=1e-12)
    assert not check.satisfied
    with pytest.raises(ValueError):
        rate_condition(10, 1, 100, 1.0, 1.0)
    with pytest.raises(ValueError):
        rate_condition(10, 10, 100, 1.0, 1.0)


def test_gershgorin_and_welch():
    assert gershgorin_ric(0.4, 1) == 0.0
    assert gershgorin_ric(0.4, 2) == pytest.approx(0.4)
    assert gershgorin_ric(0.05, 11) == pytest.approx(0.5)
    assert welch_lower_bound(50, 50) == 0.0
    assert welch_lower_bound(7, 1) == 1.0
    assert welch_lower_bound(100, 50) == pytest.approx(0.10050378152592121, rel=1e-12)
    with pytest.raises(ValueError):
        welch_lower_bound(1, 1)
    with pytest.raises(ValueError):
        gershgorin_ric(1.4, 3)


def test_recovery_constants():
    c1, c2 = recovery_constants(0.0)
    assert (c1, c2) == pytest.approx((4.0, 2.0), rel=1e-12)
    c1, _ = recovery_constants(0.2)
    assert c1 == pytest.approx(8.472819712177566, rel=1e-10)
    near = recovery_constants(math.sqrt(2) - 1 - 1e-9)[0]
    assert near > 1e8
    with pytest.raises(ValueError):
        recovery_constants(math.sqrt(2) - 1)
    with pytest.raises(ValueError):
        recovery_constants(-0.1)


def test_sym_expm_matches_pade_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        x = rng.standard_normal((k, k))
        x = 0.5 * (x + x.T)
        np.testing.assert_allclose(sym_expm(x), dense_expm(x), rtol=1e-9, atol=1e-12)


def test_trace_exponential_inequalities():
    rng = np.random.default_rng(12)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        x = (q * rng.uniform(0.0, 1.0, size=k)) @ q.T
        root = rng.standard_normal((k, k))
        c = root @ root.T
        h = float(rng.uniform(1e-3, 3.0))
        tol = 1e-9 * np.trace(c) * math.exp(h)
        assert np.trace(c @ sym_expm(h * x)) <= np.trace(c) + (
            math.exp(h) - 1
        ) * np.trace(c @ x) + tol
        assert np.trace(c @ sym_expm(-h * x)) <= np.trace(c) + (
            math.exp(-h) - 1
        ) * np.trace(c @ x) + tol


def test_is_vacuous():
    assert is_vacuous(1.0) and is_vacuous(7.3) and not is_vacuous(0.999)

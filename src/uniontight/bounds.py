"""Closed-form tail bounds and constants for restricted isometries and coherence.

Conventions: natural log everywhere; thresholds named ``a``; bounds are
returned raw (they may exceed 1 and stay valid but vacuous, see
``is_vacuous``).  Each bound's validity domain is enforced as an error; a
permissive evaluate-anyway mode skips the domain intervals (but never
mathematical definedness) for plotting exponent curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poisson import LARGE, _sat_exp, poisson_nonzero_approx

SIDES = ("max", "min")

# moment-scaling constant beta of tau_q = beta / k^2 per ensemble family
FAMILY_BETA = {"bernoulli": 3.0, "gaussian": 5.0}

_SQRT2 = math.sqrt(2.0)


def is_vacuous(bound: float) -> bool:
    """True when an upper bound on a probability carries no information."""
    return bound >= 1.0


def divergence(a: float, b: float) -> float:
    """Binary information divergence D(a||b) between Bernoulli(a) and Bernoulli(b).

    D(a||b) = a log(a/b) + (1-a) log((1-a)/(1-b)) with the 0 log 0 = 0
    convention; nonnegative, zero iff a = b.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"first argument must be in [0, 1], got {a}")
    if not 0.0 < b < 1.0:
        raise ValueError(f"second argument must be in the open interval (0, 1), got {b}")
    t1 = 0.0 if a == 0.0 else a * math.log(a / b)
    t2 = 0.0 if a == 1.0 else (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
    return max(t1 + t2, 0.0)


@dataclass(frozen=True)
class TauPreset:
    """Trace-moment constants: tau_q for the joint bound, tau_p per side.

    tau_p_max / tau_p_min are the extreme eigenvalues of the expected row
    outer product; tau_q dominates E Tr(C X) Tr(D Y) / (Tr C Tr D).  The
    joint bound requires max(tau_p_max, tau_p_min) <= sqrt(tau_q).
    """

    tau_q: float
    tau_p_max: float
    tau_p_min: float
    k: int
    family: str = "custom"

    def __post_init__(self):
        if min(self.tau_q, self.tau_p_max, self.tau_p_min) <= 0.0:
            raise ValueError("tau constants must be positive")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if max(self.tau_p_max, self.tau_p_min) > math.sqrt(self.tau_q) * (1.0 + 1e-12):
            raise ValueError(
                "preset violates max(tau_p_max, tau_p_min) <= sqrt(tau_q)"
            )

    def tau_p(self, side):
        _check_side(side)
        return self.tau_p_max if side == "max" else self.tau_p_min

    @classmethod
    def from_moment_scaling(cls, beta: float, beta_prime: float, k: int, family="custom"):
        """Preset tau_q = beta / k^2, tau_p = beta_prime / k on both sides."""
        return cls(beta / k**2, beta_prime / k, beta_prime / k, k, family)

    @classmethod
    def for_family(cls, family: str, k: int):
        """Moment-derived presets: beta = FAMILY_BETA[family] (3 or 5), beta' = 1."""
        if family not in FAMILY_BETA:
            raise ValueError(f"no preset for family {family!r}")
        return cls.from_moment_scaling(FAMILY_BETA[family], 1.0, k, family)


def _check_side(side):
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def _check_marginal_domain(side, a, k, tau):
    if side == "max" and not k * tau < a < k:
        raise ValueError(
            f"max-side bound needs k*tau < a < k, i.e. a in ({k * tau:.6g}, {k}); got a={a}"
        )
    if side == "min" and not 0.0 < a < k * tau:
        raise ValueError(
            f"min-side bound needs 0 < a < k*tau, i.e. a in (0, {k * tau:.6g}); got a={a}"
        )


def marginal_bound(side: str, a: float, k: int, m: int, tau: float, permissive=False) -> float:
    """Ahlswede-Winter marginal tail bound k * exp(-m * D(a/k || tau)).

    Upper-bounds Pr{sigma2_max(A_S) > a} (side="max", for k*tau < a < k) or
    Pr{sigma2_min(A_S) < a} (side="min", for 0 < a < k*tau); may exceed 1.
    """
    _check_side(side)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1) for the divergence term, got {tau}")
    exponent = _marginal_divergence(side, a, k, tau, permissive)
    return min(k * _sat_exp(-m * exponent), LARGE)


def c4_constant(a: float, k: int, c1: float, c2: float) -> float:
    """Chernoff-parameter constant entering c3; zero when c2 = 1 or a = 0."""
    x = a / k
    if not 0.0 <= x < 1.0:
        raise ValueError(f"need 0 <= a/k < 1, got a/k = {x}")
    if not 0.0 < c1 < 1.0:
        raise ValueError(f"need 0 < c1 < 1, got c1 = {c1}")
    if not 0.0 < c2 <= 1.0:
        raise ValueError(f"need 0 < c2 <= 1, got c2 = {c2}")
    radicand = 1.0 + 4.0 * (1.0 / c2 - 1.0) * (1.0 - x) * x / (1.0 - c1) ** 2
    return max(0.5 * math.sqrt(radicand) - 0.5, 0.0)


def c3_constant(a: float, k: int, c1: float, c2: float) -> float:
    """Exponent correction of the joint bound relative to a doubled marginal.

    c3 = (a/k) log((c4 + a/k)/(a/k))
         - (1/2) log(c2 (1 + c4)^2 + (1 - c2) ((1 - a/k)/(1 - c1))^2)

    Vanishes at c2 = 1; may be negative.  For c1 proportional to 1/k and
    fixed c2 it decays like a/k for large k.
    """
    x = a / k
    if not 0.0 < x < 1.0:
        raise ValueError(f"need 0 < a/k < 1, got a/k = {x}")
    c4 = c4_constant(a, k, c1, c2)
    arg = c2 * (1.0 + c4) ** 2 + (1.0 - c2) * ((1.0 - x) / (1.0 - c1)) ** 2
    if arg <= 0.0:
        raise ValueError("log of nonpositive value in c3")
    return x * math.log((c4 + x) / x) - 0.5 * math.log(arg)


def _joint_constants(side, preset):
    tau_p = preset.tau_p(side)
    c1 = preset.tau_q / tau_p
    # the preset invariant caps tau_p^2 / tau_q at 1; clamp rounding overshoot
    c2 = min(tau_p**2 / preset.tau_q, 1.0)
    return tau_p, c1, c2


def joint_bound(
    side: str, a: float, k: int, m: int, preset: TauPreset, permissive=False
) -> float:
    """Joint tail bound k^2 * exp(-2m * (D(a/k || c1) + c3)).

    Upper-bounds q_i(a) for every overlap i in [1, k-1], with
    c1 = tau_q / tau_p and c2 = tau_p^2 / tau_q from the preset; side
    domains mirror the marginal bound.
    """
    exponent = joint_halved_exponent(side, a, k, preset, permissive)
    return min(k * k * _sat_exp(-2.0 * m * exponent), LARGE)


def _marginal_divergence(side, a, k, tau, permissive):
    if not permissive:
        _check_marginal_domain(side, a, k, tau)
    return divergence(a / k, tau)


def marginal_exponent(side: str, a: float, k: int, preset: TauPreset, permissive=False) -> float:
    """Marginal-bound exponent D(a/k || tau_p) after factoring out -m."""
    return _marginal_divergence(side, a, k, preset.tau_p(side), permissive)


def joint_halved_exponent(side: str, a: float, k: int, preset: TauPreset, permissive=False) -> float:
    """Joint-bound exponent D(a/k || c1) + c3 after factoring out -2m."""
    _check_side(side)
    tau_p, c1, c2 = _joint_constants(side, preset)
    if not permissive:
        _check_marginal_domain(side, a, k, tau_p)
    if not 0.0 < c1 < 1.0:
        raise ValueError(
            f"sub-constant c1 = tau_q/tau_p = {c1:.6g} must be in (0, 1) "
            "for the divergence term (requires k > beta for moment presets)"
        )
    return divergence(a / k, c1) + c3_constant(a, k, c1, c2)


def tau_q_estimate(second_moment: float, fourth_moment: float) -> float:
    """Valid tau_q for IID zero-mean entries: max(EA^4, (EA^2)^2) + 2 (EA^2)^2."""
    if second_moment < 0.0:
        raise ValueError("second moment must be nonnegative")
    # Jensen: EA^4 >= (EA^2)^2, up to rounding in degenerate (deterministic) cases
    if fourth_moment < second_moment**2 * (1.0 - 1e-12):
        raise ValueError(
            f"invalid moments: EA^4 = {fourth_moment} < (EA^2)^2 = {second_moment**2}"
        )
    return max(fourth_moment, second_moment**2) + 2.0 * second_moment**2


def concentration_tail(eps: float, family: str) -> float:
    """Singular-value measure-concentration tail exp(-eps^2 / c).

    c = 2 for the Gaussian ensemble and c = 16 for the Bernoulli ensemble.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    c = {"gaussian": 2.0, "bernoulli": 16.0}.get(family)
    if c is None:
        raise ValueError(f"unknown family {family!r}")
    return math.exp(-(eps**2) / c)


def ric_union_bound(n: int, k: int, m: int, eps_const: float) -> float:
    """Union bound 2 (e n / k)^k exp(-m eps^2 / 2) on sampling a bad RIC."""
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    if not eps_const > 0.0:
        raise ValueError("eps_const must be positive")
    log_value = math.log(2.0) + k * (1.0 + math.log(n / k)) - m * eps_const**2 / 2.0
    return min(_sat_exp(log_value), LARGE)


def coherence_tail_bound(a: float, m: int) -> float:
    """Normalized-inner-product tail bound 2 exp(-m a^2 / 2) for unit test vectors."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must be in [0, 1], got {a}")
    if m < 1:
        raise ValueError("m must be >= 1")
    return 2.0 * math.exp(-m * a**2 / 2.0)


def coherence_gaussian_proxy(a: float, m: int) -> float:
    """Gaussian-tail proxy 2 exp(-m a^2 / 2) / (a sqrt(2 pi)) for the coherence marginal.

    This is the plotted closed form for pair inner products that are
    approximately N(0, 1/m); note it carries a sqrt(m) slack relative to the
    Mills-ratio tail of that normal distribution.
    """
    if not a > 0.0:
        raise ValueError("a must be positive")
    return 2.0 * math.exp(-m * a**2 / 2.0) / (a * math.sqrt(2.0 * math.pi))


def coherence_eps_terms(n: int, m: int, a: float, lam: float) -> tuple[float, float]:
    """The two terms of ``coherence_eps_bound``, in order.

    (1 - e^-lam) (4n - 6) exp(-m a^2 / 2) and 4 n^3 exp(-m a^2).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return (
        poisson_nonzero_approx(lam) * (4.0 * n - 6.0) * math.exp(-m * a**2 / 2.0),
        4.0 * n**3 * math.exp(-m * a**2),
    )


def coherence_eps_bound(n: int, m: int, a: float, lam: float) -> float:
    """Poisson-approximation error bound for the mutual coherence (k = 2).

    (1 - e^-lam) (4n - 6) exp(-m a^2 / 2) + 4 n^3 exp(-m a^2); the second
    term decays once a > sqrt((log 4 + 3 log n) / m).
    """
    term1, term2 = coherence_eps_terms(n, m, a, lam)
    return term1 + term2


@dataclass(frozen=True)
class RateCheck:
    """Both sides of the error-decay rate condition and whether it holds."""

    lhs: float
    rhs: float
    satisfied: bool


def rate_condition(n: int, k: int, m: int, a: float, beta_bar: float) -> RateCheck:
    """Diagnostic for exponential error decay: m beta_bar (a/k) > (k - 1/2)(1 + log(n/(k-1))).

    Implements the displayed large-k condition with the O(1/k) correction and
    the log(k) prefactor term dropped; beta_bar aggregates the linearized
    divergence and c3 slopes.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n <= k:
        raise ValueError("need n > k")
    if not beta_bar > 0.0:
        raise ValueError("beta_bar must be positive")
    lhs = m * beta_bar * (a / k)
    rhs = (k - 0.5) * (1.0 + math.log(n / (k - 1.0)))
    return RateCheck(lhs, rhs, lhs > rhs)


def gershgorin_ric(coh: float, k: int) -> float:
    """Gershgorin disc bound (k - 1) * coherence on the restricted-isometry kernel."""
    if not 0.0 <= coh <= 1.0:
        raise ValueError(f"coherence must be in [0, 1], got {coh}")
    if k < 1:
        raise ValueError("k must be >= 1")
    return (k - 1) * coh


def welch_lower_bound(n: int, m: int) -> float:
    """Welch bound sqrt((n - m) / (m (n - 1))) on achievable coherence, clamped at 0."""
    if n <= 1:
        raise ValueError("n must be > 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    if n <= m:
        return 0.0
    return math.sqrt((n - m) / (m * (n - 1.0)))


def recovery_constants(delta: float) -> tuple[float, float]:
    """Sparse-recovery error constants (c1, c2) as functions of the order-2k RIC.

    c1 = 4 sqrt(1 + delta) / (1 - delta (1 + sqrt 2));
    c2 = 2 (delta (1 - sqrt 2) - 1) / (delta (1 + sqrt 2) - 1);
    valid for 0 <= delta < sqrt(2) - 1.
    """
    if not 0.0 <= delta < _SQRT2 - 1.0:
        raise ValueError(
            f"delta = {delta} outside the guarantee range [0, sqrt(2) - 1)"
        )
    c1 = 4.0 * math.sqrt(1.0 + delta) / (1.0 - delta * (1.0 + _SQRT2))
    c2 = 2.0 * (delta * (1.0 - _SQRT2) - 1.0) / (delta * (1.0 + _SQRT2) - 1.0)
    return c1, c2


def sym_expm(x: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real symmetric matrix via eigendecomposition."""
    w, v = np.linalg.eigh(np.asarray(x, dtype=np.float64))
    return (v * np.exp(w)) @ v.T

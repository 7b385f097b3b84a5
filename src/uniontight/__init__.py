"""Poisson-approximation tightness of union bounds for random sensing matrices.

Measures how tight union-bound ("worst-case") analyses of restricted
isometries and mutual coherence are, by comparing Monte-Carlo tail estimates
of max-over-subsets statistics against the Poisson approximation
1 - exp(-C(n,k) p(a)) and its closed-form error bounds.
"""

from .bounds import (
    RateCheck,
    TauPreset,
    c3_constant,
    c4_constant,
    coherence_eps_bound,
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
from .ensembles import EnsembleSpec, MatrixSample, row_outer_products, sample_batch, sample_matrix
from .kernels import (
    COHERENCE,
    NEG_SIGMA_MIN_SQ,
    RIC,
    SIGMA_MAX_SQ,
    KernelId,
    coherence_kernel,
    indicator,
    kernel_value,
    ric_kernel,
    squared_singular_extremes,
)
from .poisson import (
    LARGE,
    PoissonReport,
    eps_full,
    eps_mid,
    eps_single,
    lambda_n,
    log_binomial,
    poisson_nonzero_approx,
    poisson_report,
    poisson_zero_approx,
)
from .ustat import (
    DEFAULT_SUBSET_CAP,
    EnumerationInfeasibleError,
    ExtremeRun,
    SubsetPair,
    TailEstimate,
    canonical_pair,
    extreme_experiment,
    max_over_subsets,
    mc_extreme_tail,
    mc_joint_tail,
    mc_marginal_tail,
    subset_count,
    subsets,
    u_statistic,
)

__version__ = "0.1.0"

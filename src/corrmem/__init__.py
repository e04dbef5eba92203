"""Correlated-error quantum memory workbench.

Simulates error-corrected memories whose per-epoch errors are driven by a
hidden one-dimensional Markov field, including an adversarial threshold
family with long-range correlations, and checks the analytic concentration
ceilings that govern memory lifetime against exact computation and Monte
Carlo at desk scale.
"""

__version__ = "0.1.0"

from .errors import EnumerationLimitError, ResourceLimitError, ValidationError
from .rng import derive_seed, make_generator
from .field import (
    ENUM_LIMIT,
    MarkovFieldSpec,
    correlation_decay_profile,
    mixing_bound,
    mixing_coefficients,
    sample_field_batch,
    site_marginals,
)
from .channel import (
    CovarianceEstimate,
    GlobalThresholdChannel,
    HiddenErrorModel,
    PerSiteChannel,
    WindowChannel,
    sample_errors_batch,
    sampled_covariance,
)
from .adversarial import ThresholdModelSpec, ThresholdMoments
from .memory import (
    CodeModel,
    LifetimeBound,
    RetentionEstimate,
    ScalingResult,
    geometric_ks_statistic,
    ks_critical_value,
    lifetime_lower_bound,
    scaling_experiment,
    simulate_retention,
)
from .bounds import (
    TailEstimate,
    TailReport,
    chain_rate_constant,
    chain_tail_bound,
    clopper_pearson,
    combined_tail_bound,
    count_exceedances,
    empirical_tail,
    exact_tail,
    hoeffding_conditional_bound,
    verify_bound,
    weight_law,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunResult,
    bundled_verification_suite,
    load_config,
    parse_config,
    run,
    symmetric_binary_field,
)

__all__ = [
    "ENUM_LIMIT",
    "CodeModel",
    "ConfigError",
    "CovarianceEstimate",
    "EnumerationLimitError",
    "ExperimentConfig",
    "GlobalThresholdChannel",
    "HiddenErrorModel",
    "LifetimeBound",
    "MarkovFieldSpec",
    "PerSiteChannel",
    "ResourceLimitError",
    "RetentionEstimate",
    "RunResult",
    "ScalingResult",
    "TailEstimate",
    "TailReport",
    "ThresholdModelSpec",
    "ThresholdMoments",
    "ValidationError",
    "WindowChannel",
    "bundled_verification_suite",
    "chain_rate_constant",
    "chain_tail_bound",
    "clopper_pearson",
    "combined_tail_bound",
    "correlation_decay_profile",
    "count_exceedances",
    "derive_seed",
    "empirical_tail",
    "exact_tail",
    "geometric_ks_statistic",
    "hoeffding_conditional_bound",
    "ks_critical_value",
    "lifetime_lower_bound",
    "load_config",
    "make_generator",
    "mixing_bound",
    "mixing_coefficients",
    "parse_config",
    "run",
    "sample_errors_batch",
    "sample_field_batch",
    "sampled_covariance",
    "scaling_experiment",
    "simulate_retention",
    "site_marginals",
    "symmetric_binary_field",
    "verify_bound",
    "weight_law",
]

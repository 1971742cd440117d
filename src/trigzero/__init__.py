"""Zero statistics of random cosine polynomials.

Simulation of the cosine and stationary ensembles, exact zero counting with
an eigenvalue cross-oracle, Rice moment integrals, chaos-level variance
constants of the limiting sinc process, and Monte Carlo verification of the
central limit behavior of the zero count.
"""

__version__ = "0.1.0"

from .chaos_variance import (
    ChaosTerm,
    VarianceConstant,
    chaos_lag_correlation,
    lag_correlations,
    sigma_q_squared,
    total_variance_constant,
)
from .covariance import (
    BoundsReport,
    Kernel,
    StandardizedKernel,
    c_k,
    c_k_dd0,
    c_k_derivs,
    kernel_bounds_check,
    sinc,
    sinc_derivs,
)
from .errors import (
    CampaignError,
    DegeneracyError,
    NumericError,
    UsageError,
)
from .experiments import (
    CampaignResult,
    ExperimentConfig,
    IntervalSpec,
    KSummary,
    NormalityReport,
    RunningMoments,
    WindowChopReport,
    clt_test,
    run_campaign,
    standardize_counts,
    window_chop_check,
)
from .hermite import (
    abs_coeff,
    dirac_coeff,
    dirac_coeff_normalized,
    hermite_eval,
    hermite_table,
    mehler_product_expectation,
)
from .rice import (
    RiceResult,
    RiceVariance,
    conditional_abs_moment,
    rice_mean,
    rice_second_moment,
    rice_variance,
    wilkins_mean,
    window_bounds,
    zero_intensity,
)
from .sampling import (
    CoefficientVector,
    draw_coefficient_batch,
    draw_coefficients,
    eval_path,
    sample_limit_process,
)
from .zeros import (
    ZeroCountResult,
    count_zeros_eigen,
    count_zeros_scan,
    oracle_agreement,
    scan_count_batch,
)

__all__ = [
    "ChaosTerm", "VarianceConstant", "chaos_lag_correlation", "lag_correlations",
    "sigma_q_squared", "total_variance_constant",
    "BoundsReport", "Kernel", "StandardizedKernel", "c_k", "c_k_dd0", "c_k_derivs",
    "kernel_bounds_check", "sinc", "sinc_derivs",
    "CampaignError", "DegeneracyError", "NumericError", "UsageError",
    "CampaignResult", "ExperimentConfig", "IntervalSpec", "KSummary",
    "NormalityReport", "RunningMoments", "WindowChopReport", "clt_test",
    "run_campaign", "standardize_counts", "window_chop_check",
    "abs_coeff", "dirac_coeff", "dirac_coeff_normalized",
    "hermite_eval", "hermite_table", "mehler_product_expectation",
    "RiceResult", "RiceVariance", "conditional_abs_moment", "rice_mean",
    "rice_second_moment", "rice_variance", "wilkins_mean", "window_bounds",
    "zero_intensity",
    "CoefficientVector", "draw_coefficient_batch", "draw_coefficients",
    "eval_path", "sample_limit_process",
    "ZeroCountResult", "count_zeros_eigen", "count_zeros_scan", "oracle_agreement",
    "scan_count_batch",
]

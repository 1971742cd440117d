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
    abs_coeff,
    chaos_lag_correlation,
    dirac_coeff,
    dirac_coeff_normalized,
    sigma_q_squared,
    total_variance_constant,
)
from .covariance import (
    BoundsReport,
    c_k,
    c_k_dd0,
    c_k_derivs,
    kernel_bounds_check,
    sinc,
    sinc_derivs,
)
from .errors import (
    CampaignError,
    NumericError,
    UsageError,
)
from .experiments import (
    CampaignResult,
    ExperimentConfig,
    IntervalSpec,
    KSummary,
    NormalityReport,
    WindowChopReport,
    clt_test,
    run_campaign,
    standardize_counts,
    window_chop_check,
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
)
from .zeros import (
    ZeroCountResult,
    count_zeros_eigen,
    count_zeros_scan,
    oracle_agreement,
    scan_count_batch,
)

__all__ = [
    "ChaosTerm", "VarianceConstant", "abs_coeff", "chaos_lag_correlation",
    "dirac_coeff", "dirac_coeff_normalized", "sigma_q_squared",
    "total_variance_constant",
    "BoundsReport", "c_k", "c_k_dd0", "c_k_derivs",
    "kernel_bounds_check", "sinc", "sinc_derivs",
    "CampaignError", "NumericError", "UsageError",
    "CampaignResult", "ExperimentConfig", "IntervalSpec", "KSummary",
    "NormalityReport", "WindowChopReport", "clt_test", "run_campaign",
    "standardize_counts", "window_chop_check",
    "RiceResult", "RiceVariance", "conditional_abs_moment", "rice_mean",
    "rice_second_moment", "rice_variance", "wilkins_mean", "window_bounds",
    "zero_intensity",
    "CoefficientVector", "draw_coefficient_batch", "draw_coefficients",
    "ZeroCountResult", "count_zeros_eigen", "count_zeros_scan", "oracle_agreement",
    "scan_count_batch",
]

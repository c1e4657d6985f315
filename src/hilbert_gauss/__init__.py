"""Gaussian models with known covariance spectrum on a separable Hilbert
space: partial-observation estimation, exact and conservative confidence
intervals, subspace tests, and a Monte Carlo verification harness.
"""

from .spectral import (
    HVector,
    SpectralModel,
    Subspace,
    default_use_tail,
    difference_subspace,
    inner,
    project,
    rank_on,
    restricted_eigenvalues,
    sup_eig_on,
    top_eigenspace,
    top_multiplicity,
    trace_q_on,
)
from .processes import (
    Grid,
    bridge_model,
    coeffs_from_trajectory,
    custom_model,
    eval_basis,
    eval_vector,
    kernel,
    wiener_model,
)
from .distributions import (
    GenFisherParams,
    Pearson7Params,
    f_quantile,
    gamma_quantile,
    gamma_ratio_reduction,
    gamma_sample,
    ks_critical_value,
    ks_statistic,
    norm_quantile,
    t_quantile,
    t_ratio_reduction,
)
from .sampling import (
    GaussianLaw,
    NoiseDecomposition,
    noise_decomposition,
    norm_sq_moments,
    sample,
    transformed_norm_sq_moments,
)
from .estimators import (
    RiskReport,
    est_functional,
    est_mean,
    est_variance,
    gm_variances,
    learning_gap,
    risk_mean,
    risk_partial,
    variance_est_risk,
)
from .inference import (
    Interval,
    TestResult,
    ZeroResidualError,
    ci_known,
    ci_params_unknown,
    ci_unknown,
    test_params,
    test_subspace,
)
from .regression import (
    DesignOperator,
    ci_beta_known,
    ci_beta_unknown,
    lse,
    pullback_functional,
    test_beta,
)
from .harness import ExperimentConfig, Report, derive_stream, run_experiment

__version__ = "0.1.0"

"""Kernel regression for curve-valued predictors.

Nonparametric Nadaraya-Watson estimation when the predictor is a sampled
curve: semi-metric distances built from derivatives, exactly-computed
asymptotic bias/variance constants, normality-based confidence intervals,
and a wild-bootstrap bandwidth selector, plus the Monte Carlo harness that
validates all of it at desk scale.
"""

from .bootstrap import (
    BootstrapConfig,
    FixedPilot,
    MultiplierPilot,
    WildBootstrapResult,
    WildResidualLaw,
    bootstrap_error_curve,
    draw_wild_residual,
    residuals,
    select_bandwidth,
)
from .curves import (
    Curve,
    FunctionalSample,
    SamplingGrid,
    SemiMetricSpec,
    differentiate,
    pairwise_distances,
    query_rows,
    sample_distances,
    semi_metric_distance,
)
from .errors import (
    DegenerateBall,
    DegenerateConstants,
    DegenerateGrid,
    DegeneratePilot,
    DomainError,
    EmptyGrid,
    EmptyNeighborhood,
    FunkregError,
    GridMismatch,
    GridTooShort,
    InvalidKernel,
    KernelNotH2Strict,
    MissingSigma2,
    NonMonotoneGrid,
    NumericError,
    ParseError,
    RaggedRows,
    TooFewPoints,
    ValidationError,
)
from .estimator import (
    BandwidthGrid,
    BiasVarianceReport,
    EstimateResult,
    InsampleSmoother,
    confidence_interval,
    empirical_sdf,
    empirical_tau,
    estimate_phi_prime,
    estimate_sigma2,
    interval_half_widths,
    knn_bandwidths,
    knn_radii,
    nadaraya_watson,
    nadaraya_watson_batch,
    nadaraya_watson_rows,
    plugin_variance,
    theoretical_bias_variance,
)
from .io import load_sample, save_sample, split_sample
from .kernels import (
    KernelConstants,
    KernelSpec,
    M0PositivityReport,
    Tau0Model,
    check_m0_positive,
    compute_constants,
    constants_by_quadrature,
    tau0_eval,
)
from .simulation import (
    BiasVarianceExperiment,
    FractalFamily,
    NonsmoothFamily,
    NormalityExperiment,
    ScalarDesignConfig,
    SimulationConfig,
    TauConvergenceReport,
    default_grid,
    generate_curve,
    generate_functional_sample,
    mc_bias_variance,
    mc_normality,
    mc_tau_convergence,
    true_regression,
)

__version__ = "0.1.0"

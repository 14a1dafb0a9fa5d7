"""Random pseudo-inverse regression on Jacobi polynomial bases.

Nonparametric least-squares regression at random Beta-distributed sample
points, with spectral stability diagnostics, a truncated estimator, robust
(consensus) fitting, a sinc-kernel ridge-regression baseline, linear
functional regression by dyadic block decomposition, and a seeded benchmark
harness with a CLI.
"""

from .design import (
    DesignMatrix,
    McSummary,
    SpectralReport,
    TheoryBounds,
    build_design,
    mc_condition_number,
    spectral_report,
    theory_bounds,
)
from .errors import (
    DataError,
    NumericalError,
    RegularizationError,
    RobustFitError,
    SingularBlockError,
    StabilityError,
    ValidationError,
)
from .jacobi import (
    JacobiBasis,
    JacobiParams,
    QuadratureRule,
    gauss_jacobi_rule,
    norm_constant,
    omega_norm,
    omega_weight,
    uniform_bound,
)
from .krr import KrrModel, cross_validate, krr_fit, sinc_kernel
from .lfr import (
    DyadicPartition,
    LfrModel,
    LfrProblem,
    dyadic_partition,
    ineq47_bound,
    lfr_errors,
    lfr_fit,
    lfr_risk_mc,
    simulate_problem,
    theorem6_bound,
    theorem7_bound,
    truncate_beta,
)
from .regression import (
    FitDiagnostics,
    NpregModel,
    RansacResult,
    RiskSummary,
    error_report,
    fit,
    fit_points,
    l2_risk_mc,
    load_model,
    ransac_fit,
    save_model,
    weierstrass,
)
from .sampling import (
    EmpiricalCdf,
    arcsine_quantile,
    cdf_transform,
    derive_rng,
    derive_seed,
    inverse_beta_cdf,
    make_noise,
    sample_beta_on_I,
    sample_beta_unit,
)
from .timeseries import TimeSeriesDataset, fit_series, load_series_csv

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # jacobi
    "JacobiParams",
    "JacobiBasis",
    "QuadratureRule",
    "gauss_jacobi_rule",
    "norm_constant",
    "omega_weight",
    "omega_norm",
    "uniform_bound",
    # sampling
    "EmpiricalCdf",
    "derive_seed",
    "derive_rng",
    "sample_beta_on_I",
    "sample_beta_unit",
    "make_noise",
    "arcsine_quantile",
    "inverse_beta_cdf",
    "cdf_transform",
    # design / diagnostics
    "DesignMatrix",
    "build_design",
    "SpectralReport",
    "spectral_report",
    "TheoryBounds",
    "theory_bounds",
    "McSummary",
    "mc_condition_number",
    # regression
    "NpregModel",
    "FitDiagnostics",
    "RansacResult",
    "RiskSummary",
    "fit",
    "fit_points",
    "ransac_fit",
    "error_report",
    "l2_risk_mc",
    "weierstrass",
    "save_model",
    "load_model",
    # krr
    "KrrModel",
    "sinc_kernel",
    "krr_fit",
    "cross_validate",
    # lfr
    "DyadicPartition",
    "LfrProblem",
    "LfrModel",
    "dyadic_partition",
    "simulate_problem",
    "lfr_fit",
    "lfr_errors",
    "theorem6_bound",
    "theorem7_bound",
    "ineq47_bound",
    "truncate_beta",
    "lfr_risk_mc",
    # timeseries
    "TimeSeriesDataset",
    "load_series_csv",
    "fit_series",
    # errors
    "ValidationError",
    "DataError",
    "NumericalError",
    "StabilityError",
    "SingularBlockError",
    "RobustFitError",
    "RegularizationError",
]

"""Ridge-penalized instrumental variables under weak instruments.

A library and CLI around the penalized just-identified IV estimator
Cov[Y,Z] / (Cov[D,Z] + lambda_n / n): data generation for the linear IV
model, the estimator in ratio, matrix and over-identified forms with its
penalized-moment interpretation, closed-form limiting predictions, and a
seeded Monte Carlo harness for MSE sweeps.
"""

from .asymptotics import (
    TailDiagnostics,
    cauchy_diagnostics,
    delta_method_variance,
    sigma_fixed,
    sigma_red_sq,
    sigma_stochastic,
    sqrtn_bias,
    staiger_stock_moments,
    v_ridge,
)
from .dgp import Dataset, DgpParams, aer_calibration, generate_dataset
from .estimators import (
    DegenerateDenominatorError,
    DegenerateInstrumentError,
    Estimate,
    PenaltyRate,
    PenaltySchedule,
    SingularSystemError,
    demeaned_cov,
    first_stage,
    fit_2sls,
    fit_ridge_iv,
    fit_ridge_iv_matrix,
    fit_ridge_iv_overidentified,
    gmm_minimize,
    gmm_objective,
    lagrange_correspondence,
    reduced_form,
)
from .montecarlo import (
    GridVariable,
    SweepCell,
    SweepConfig,
    SweepResult,
    collect_sampling_distribution,
    derive_seed,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "TailDiagnostics",
    "cauchy_diagnostics",
    "delta_method_variance",
    "sigma_fixed",
    "sigma_red_sq",
    "sigma_stochastic",
    "sqrtn_bias",
    "staiger_stock_moments",
    "v_ridge",
    "Dataset",
    "DgpParams",
    "aer_calibration",
    "generate_dataset",
    "DegenerateDenominatorError",
    "DegenerateInstrumentError",
    "Estimate",
    "PenaltyRate",
    "PenaltySchedule",
    "SingularSystemError",
    "demeaned_cov",
    "first_stage",
    "fit_2sls",
    "fit_ridge_iv",
    "fit_ridge_iv_matrix",
    "fit_ridge_iv_overidentified",
    "gmm_minimize",
    "gmm_objective",
    "lagrange_correspondence",
    "reduced_form",
    "GridVariable",
    "SweepCell",
    "SweepConfig",
    "SweepResult",
    "collect_sampling_distribution",
    "derive_seed",
    "run_sweep",
    "__version__",
]

"""Closed-form limiting quantities for the penalized IV estimator.

Everything here is a prediction to be checked against Monte Carlo: the
2x2 covariance matrix of the scaled reduced-form/first-stage covariance
estimators under two sampling assumptions (instruments held fixed vs fully
stochastic), the delta-method variance of their ratio, the large-sample
bias induced by a sqrt(n)-rate penalty, and the limiting moments of the
penalized estimator when the first stage drifts to zero at rate c/sqrt(n).

Sampling regimes by penalty rate, for a nonzero first stage:

* lambda_n = o(sqrt(n)): sqrt(n) (beta_hat - beta1) is asymptotically
  normal with variance ``sigma_eps^2 / pi1^2`` under either assumption.
* lambda_n = lambda0 * sqrt(n): same limit shifted to mean
  ``-beta1 * lambda0 / pi1``.
* lambda_n = lambda0 * n with a c/sqrt(n) first stage: sqrt(n) * beta_hat
  is asymptotically N(c beta1 / lambda0, sigma_red^2 / lambda0^2), while
  the unpenalized ratio collapses to a heavy-tailed (Cauchy-type) limit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dgp import DgpParams

__all__ = [
    "TailDiagnostics",
    "KURTOSIS_FLAG_THRESHOLD",
    "MIN_TAIL_SAMPLES",
    "sigma_red_sq",
    "sigma_fixed",
    "sigma_stochastic",
    "ratio_gradient",
    "delta_method_variance",
    "v_ridge",
    "sqrtn_bias",
    "staiger_stock_moments",
    "cauchy_diagnostics",
]

KURTOSIS_FLAG_THRESHOLD = 20.0
# Fewest samples cauchy_diagnostics accepts; the sample kurtosis behind its
# heavy-tail flag is too noisy to read below this.
MIN_TAIL_SAMPLES = 500
# E[Z^4] of the instrument: the generator draws Z from a standard normal.
_Z_FOURTH_MOMENT = 3.0


class TailDiagnostics(NamedTuple):
    median: float
    iqr: float
    tail_index_flag: bool


def sigma_red_sq(params: DgpParams) -> float:
    """Variance of the reduced-form disturbance beta1 * u + eps."""
    s_eta_sq = params.first_stage_error_var
    return (
        params.beta1**2 * s_eta_sq
        + params.sigma_eps**2
        + 2.0 * params.beta1 * params.err_cov
    )


def sigma_fixed(params: DgpParams) -> np.ndarray:
    """Covariance matrix of sqrt(n) * (Cov[Y,Z], Cov[D,Z]) with instruments held fixed.

    [[sigma_red^2, beta1 sigma_eta^2 + err_cov],
     [beta1 sigma_eta^2 + err_cov, sigma_eta^2]]
    with sigma_eta^2 the composite first-stage error variance.
    """
    s_eta_sq = params.first_stage_error_var
    off = params.beta1 * s_eta_sq + params.err_cov
    return np.array([[sigma_red_sq(params), off], [off, s_eta_sq]])


def sigma_stochastic(params: DgpParams) -> np.ndarray:
    """Covariance matrix with fully stochastic instruments.

    Adds pi1^2 (m4 - 1) * [[beta1^2, beta1], [beta1, 1]] to the
    fixed-instrument matrix, where m4 = 3 is the fourth moment of the
    standard normal instrument.
    """
    b = params.beta1
    scale = params.pi1**2 * (_Z_FOURTH_MOMENT - 1.0)
    return sigma_fixed(params) + scale * np.array([[b * b, b], [b, 1.0]])


def ratio_gradient(x: float, y: float) -> np.ndarray:
    """Gradient of h(x, y) = x / y, i.e. (1/y, -x/y^2)."""
    if y == 0.0:
        raise ValueError("ratio map is singular at y = 0")
    return np.array([1.0 / y, -x / y**2])


def delta_method_variance(sigma: np.ndarray, beta1: float, pi1: float) -> float:
    """Variance of the ratio estimator propagated through h(x, y) = x/y.

    Evaluates grad h(beta1*pi1, pi1)' Sigma grad h(beta1*pi1, pi1).  With
    either Sigma construction this collapses to sigma_eps^2 / pi1^2: the
    fourth-moment terms of the stochastic-instrument matrix cancel in the
    quadratic form.
    """
    if pi1 == 0.0:
        raise ValueError("delta method is undefined at pi1 = 0")
    sigma = np.asarray(sigma, dtype=np.float64)
    g = ratio_gradient(beta1 * pi1, pi1)
    return float(g @ sigma @ g)


def v_ridge(params: DgpParams) -> float:
    """Limiting variance sigma_eps^2 / pi1^2 under slow penalty rates."""
    if params.pi1 == 0.0:
        raise ValueError("v_ridge is undefined at pi1 = 0")
    return params.sigma_eps**2 / params.pi1**2


def sqrtn_bias(params: DgpParams, lambda0: float) -> float:
    """Asymptotic mean of sqrt(n)(beta_hat - beta1) under lambda_n = lambda0*sqrt(n)."""
    if params.pi1 == 0.0:
        raise ValueError("sqrt(n) bias is undefined at pi1 = 0")
    return -params.beta1 * lambda0 / params.pi1


def staiger_stock_moments(params: DgpParams, lambda0: float) -> tuple[float, float]:
    """Limiting (mean, variance) of sqrt(n) * beta_hat under a drifting first stage.

    Requires ``params.stock_c`` set and a linear-rate penalty with
    coefficient lambda0 > 0 (at lambda0 = 0 the unpenalized ratio has a
    heavy-tailed limit and no normal moments exist).  The reduced-form
    variance is evaluated at the pi1 -> 0 limit, where the formula
    beta1^2 sigma_eta^2 + sigma_eps^2 + 2 beta1 err_cov is unchanged.
    """
    if params.stock_c is None:
        raise ValueError("staiger_stock_moments requires stock_c to be set")
    if lambda0 <= 0.0:
        raise ValueError(
            "staiger_stock_moments requires lambda0 > 0; the unpenalized "
            "ratio has no normal limit under a drifting first stage"
        )
    mean = params.stock_c * params.beta1 / lambda0
    variance = sigma_red_sq(params) / lambda0**2
    return mean, variance


def cauchy_diagnostics(samples: np.ndarray) -> TailDiagnostics:
    """Robust location/scale summaries plus a heavy-tail flag.

    The flag is True when the sample (Pearson) kurtosis exceeds
    :data:`KURTOSIS_FLAG_THRESHOLD` or is non-finite; it verifies
    ratio-estimator instability rather than fitting any distribution.
    A zero-variance sample has no tails and flags False.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if s.size < MIN_TAIL_SAMPLES:
        raise ValueError(f"need at least {MIN_TAIL_SAMPLES} samples, got {s.size}")
    median = float(np.median(s))
    q25, q75 = np.percentile(s, [25.0, 75.0])
    iqr = float(q75 - q25)
    if not np.all(np.isfinite(s)):
        return TailDiagnostics(median, iqr, True)
    centered = s - s.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        return TailDiagnostics(median, iqr, False)
    kurtosis = float(np.mean(centered**4)) / m2**2
    flag = (not math.isfinite(kurtosis)) or kurtosis > KURTOSIS_FLAG_THRESHOLD
    return TailDiagnostics(median, iqr, flag)

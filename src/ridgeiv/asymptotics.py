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

Each closed form returns finite numbers or raises a ValueError naming the
argument that takes its result beyond the float range, in the package's
one wording (``dgp._finite_result``): ``<name> must give a finite
<quantity>, got ...``; a float argument that is not finite raises
``<name> must be finite, got ...`` (``dgp._finite_real``), since an infinite
one would give a finite limit.  A ``params`` that is not a
:class:`~ridgeiv.dgp.DgpParams` raises ``params must be a DgpParams, got
...`` (``dgp._instance``) before anything of it is read.  Squares are
float products, which give inf where ``**`` would raise an unnamed
OverflowError.

:func:`_linear_quantiles` owns every order statistic of the package: the
sweep quantiles and the median and IQR of :func:`cauchy_diagnostics`.  So
a median is numpy's "linear" quantile at 0.5 wherever it is reported,
``TailDiagnostics.median`` and ``SweepCell.q50`` alike.  It gives numpy's
bits without importing numpy.ma, which np.quantile, np.percentile and
np.median load on first use.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .dgp import DgpParams, _finite_real, _finite_result, _instance

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
    """What :func:`cauchy_diagnostics` returns; median and iqr are NaN for a non-finite sample."""

    median: float
    iqr: float
    tail_index_flag: bool


def sigma_red_sq(params: DgpParams) -> float:
    """Variance of the reduced-form disturbance beta1 * u + eps."""
    b = _instance("params", params, DgpParams).beta1
    value = (
        b * b * params.first_stage_error_var
        + params.sigma_eps * params.sigma_eps
        + 2.0 * b * params.err_cov
    )
    return _finite_result("params", "sigma_red^2", value)


def sigma_fixed(params: DgpParams) -> np.ndarray:
    """Covariance matrix of sqrt(n) * (Cov[Y,Z], Cov[D,Z]) with instruments held fixed.

    [[sigma_red^2, beta1 sigma_eta^2 + err_cov],
     [beta1 sigma_eta^2 + err_cov, sigma_eta^2]]
    with sigma_eta^2 the composite first-stage error variance.
    """
    s_eta_sq = _instance("params", params, DgpParams).first_stage_error_var
    off = params.beta1 * s_eta_sq + params.err_cov
    sigma = np.array([[sigma_red_sq(params), off], [off, s_eta_sq]])
    return _finite_result("params", "fixed-instrument covariance matrix", sigma)


def sigma_stochastic(params: DgpParams) -> np.ndarray:
    """Covariance matrix with fully stochastic instruments.

    Adds pi1^2 (m4 - 1) * [[beta1^2, beta1], [beta1, 1]] to the
    fixed-instrument matrix, where m4 = 3 is the fourth moment of the
    standard normal instrument.
    """
    b = _instance("params", params, DgpParams).beta1
    scale = params.pi1 * params.pi1 * (_Z_FOURTH_MOMENT - 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        sigma = sigma_fixed(params) + scale * np.array([[b * b, b], [b, 1.0]])
    return _finite_result("params", "stochastic-instrument covariance matrix", sigma)


def ratio_gradient(x: float, y: float) -> np.ndarray:
    """Gradient of h(x, y) = x / y, i.e. (1/y, -x/y^2).

    A gradient beyond the float range names ``y`` when 1/y^2 leaves it,
    else ``x``.
    """
    x, y = _finite_real("x", x), _finite_real("y", y)
    if y == 0.0:
        raise ValueError("y must be nonzero: the ratio map is singular at y = 0")
    gradient = np.array([1.0 / y, -x / y / y])  # y**2 underflows to 0 for a tiny y
    name = "y" if not math.isfinite(1.0 / y / y) else "x"
    return _finite_result(name, f"gradient of x / y at x = {x!r} and y = {y!r}", gradient)


def delta_method_variance(sigma: np.ndarray, beta1: float, pi1: float) -> float:
    """Variance of the ratio estimator propagated through h(x, y) = x/y.

    Evaluates grad h(beta1*pi1, pi1)' Sigma grad h(beta1*pi1, pi1), with the
    gradient in its reduced form (1/pi1, -beta1/pi1).  With either Sigma
    construction this collapses to sigma_eps^2 / pi1^2: the fourth-moment
    terms of the stochastic-instrument matrix cancel in the quadratic form.
    A variance beyond the float range names ``pi1`` when 1/pi1^2 leaves it,
    else ``beta1`` when (beta1/pi1)^2 does, else ``sigma``.
    """
    beta1, pi1 = _finite_real("beta1", beta1), _finite_real("pi1", pi1)
    if pi1 == 0.0:
        raise ValueError("pi1 must be nonzero: the delta method is undefined at pi1 = 0")
    sigma = np.asarray(sigma, dtype=np.float64)
    reciprocal, ratio = 1.0 / pi1, beta1 / pi1
    g = np.array([reciprocal, -ratio])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        variance = float(g @ sigma @ g)
    if not math.isfinite(reciprocal * reciprocal):
        name = "pi1"
    else:
        name = "beta1" if not math.isfinite(ratio * ratio) else "sigma"
    quantity = f"delta-method variance at beta1 = {beta1!r} and pi1 = {pi1!r}"
    return _finite_result(name, quantity, variance)


def v_ridge(params: DgpParams) -> float:
    """Limiting variance sigma_eps^2 / pi1^2 under slow penalty rates."""
    if _instance("params", params, DgpParams).pi1 == 0.0:
        raise ValueError("params must have a nonzero pi1: v_ridge is undefined at pi1 = 0")
    ratio = params.sigma_eps / params.pi1  # pi1**2 underflows to 0 for a tiny pi1
    return _finite_result("params", "v_ridge", ratio * ratio)


def sqrtn_bias(params: DgpParams, lambda0: float) -> float:
    """Asymptotic mean of sqrt(n)(beta_hat - beta1) under lambda_n = lambda0*sqrt(n).

    A bias beyond the float range names ``params`` when beta1/pi1 leaves
    it, else ``lambda0``.
    """
    lambda0 = _finite_real("lambda0", lambda0)
    if _instance("params", params, DgpParams).pi1 == 0.0:
        raise ValueError("params must have a nonzero pi1: sqrt(n) bias is undefined at pi1 = 0")
    ratio = params.beta1 / params.pi1
    name = "params" if not math.isfinite(ratio) else "lambda0"
    return _finite_result(name, f"sqrt(n) bias at lambda0 = {lambda0!r}", -ratio * lambda0)


def staiger_stock_moments(params: DgpParams, lambda0: float) -> tuple[float, float]:
    """Limiting (mean, variance) of sqrt(n) * beta_hat under a drifting first stage.

    Requires ``params.stock_c`` set and a linear-rate penalty with
    coefficient lambda0 > 0 (at lambda0 = 0 the unpenalized ratio has a
    heavy-tailed limit and no normal moments exist).  The reduced-form
    variance is evaluated at the pi1 -> 0 limit, where the formula
    beta1^2 sigma_eta^2 + sigma_eps^2 + 2 beta1 err_cov is unchanged.
    Moments beyond the float range name ``params`` when sigma_red^2 or
    stock_c * beta1 leaves it, else ``lambda0``.
    """
    lambda0 = _finite_real("lambda0", lambda0)
    if _instance("params", params, DgpParams).stock_c is None:
        raise ValueError("params must set stock_c: the limit needs a drifting first stage")
    if lambda0 <= 0.0:
        raise ValueError(
            "lambda0 must be positive (lambda0 > 0): the unpenalized ratio has no "
            "normal limit under a drifting first stage"
        )
    red = sigma_red_sq(params)  # names params
    effect = params.stock_c * params.beta1
    name = "params" if not math.isfinite(effect) else "lambda0"
    mean = _finite_result(name, f"limiting mean at lambda0 = {lambda0!r}", effect / lambda0)
    variance = _finite_result(  # lambda0**2 underflows to 0 for a tiny lambda0
        "lambda0", f"limiting variance at lambda0 = {lambda0!r}", red / lambda0 / lambda0
    )
    return mean, variance


def _linear_quantiles(values: np.ndarray, qs: Sequence[float]) -> np.ndarray:
    """numpy's "linear" quantiles of ``values`` along its last axis, one column per q.

    This is type 7 of Hyndman and Fan, "Sample Quantiles in Statistical
    Packages", The American Statistician 50(4), 1996: the order statistics
    at positions floor((n - 1) q) and the next, interpolated linearly.  On
    finite input it returns ``np.quantile(values, qs, axis=-1)`` bit for bit
    (with the q axis last), because it partitions with numpy's own kth set,
    which fixes where tied -0.0 and 0.0 land, and interpolates as numpy
    does, from the upper value where the weight is 0.5 or more.  It reorders
    ``values`` in place.
    """
    n = values.shape[-1]
    position = (n - 1) * np.asarray(qs, dtype=np.float64)
    below = np.floor(position)
    below[position >= n - 1] = -1.0  # numpy takes the last value here, with weight position + 1
    lower = below.astype(np.intp)
    upper = np.where(lower == -1, -1, lower + 1)
    values.partition(sorted({0, -1, *lower.tolist(), *upper.tolist()}), axis=-1)
    a, b = values[..., lower], values[..., upper]
    weight = position - below
    difference = b - a
    result = a + difference * weight
    np.subtract(b, difference * (1.0 - weight), out=result, where=weight >= 0.5)
    return result


def cauchy_diagnostics(samples: np.ndarray) -> TailDiagnostics:
    """Robust location/scale summaries plus a heavy-tail flag.

    The flag is True when the sample (Pearson) kurtosis exceeds
    :data:`KURTOSIS_FLAG_THRESHOLD` or a sample is not finite; it verifies
    ratio-estimator instability rather than fitting any distribution.
    A zero-variance sample has no tails and flags False.  A sample with an
    infinite or NaN entry has no median or IQR here: both are NaN, since its
    order statistics can be infinite or undefined (``-inf`` and ``inf``
    halves), and the flag is True.

    The median is ``np.quantile(samples, 0.5)``, numpy's "linear" quantile
    and the rule of ``SweepCell.q50``, not ``np.median``, which can differ
    from it in the last bit of an even-size sample's middle pair.

    A finite sample is scaled by a power of two, exactly, to a largest
    magnitude in [0.5, 1), and every statistic is taken of that: the
    differences of its middle pair and of its quartiles cannot overflow, and
    the powers in its kurtosis neither overflow nor vanish.  So the median
    and IQR are finite wherever the float range holds them, with the bits
    of the unscaled sample at ordinary scales, and a finite sample's flag
    is the same at every scale.  An IQR beyond the float range raises a
    ValueError.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if s.size < MIN_TAIL_SAMPLES:
        raise ValueError(f"need at least {MIN_TAIL_SAMPLES} samples, got {s.size}")
    if not np.isfinite(s).all():
        return TailDiagnostics(math.nan, math.nan, True)
    exponent = math.frexp(np.max(np.abs(s)))[1]
    scaled = np.ldexp(s, -exponent)
    # a copy: the quantiles' tied zeros and the mean below depend on the order
    q25, median, q75 = _linear_quantiles(scaled.copy(), (0.25, 0.5, 0.75))
    median = math.ldexp(median, exponent)
    with np.errstate(over="ignore"):  # _finite_result names an overflow
        iqr = _finite_result("samples", "iqr", float(np.ldexp(q75 - q25, exponent)))
    centered = scaled - scaled.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        return TailDiagnostics(median, iqr, False)
    kurtosis = float(np.mean(centered**4)) / (m2 * m2)
    return TailDiagnostics(median, iqr, kurtosis > KURTOSIS_FLAG_THRESHOLD)

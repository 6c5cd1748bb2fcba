"""Two-stage least squares and ridge-penalized IV estimators.

The scalar just-identified estimator is a ratio of demeaned covariances,

    beta_hat = Cov[Y, Z] / (Cov[D, Z] + lambda_n / n),

which reduces to 2SLS at lambda_n = 0.  Covariances use the 1/n convention
throughout so that the penalty composes with the sample size exactly as
written above.  The matrix forms (`fit_ridge_iv_matrix`,
`fit_ridge_iv_overidentified`) and the penalized-moment operations
(`gmm_objective`, `gmm_minimize`, `lagrange_correspondence`) work on raw
uncentered arrays; the two conventions are never mixed silently.

Every form, and every sweep and sampling distribution in
:mod:`.montecarlo`, divides through :func:`shifted_ratio`, which owns one
rule: a ratio is finite, or its shifted denominator is exactly zero
(degenerate: :class:`DegenerateDenominatorError` here, NaN in a vector of
reps), or the call raises a ValueError naming the input.  Near-zero
denominators pass through on purpose, as long as the ratio stays a float:
the instability of the unpenalized estimator is a measured quantity here,
not a failure mode.

The per-dataset fit states each fact once.  A ``data`` that is not a
:class:`~ridgeiv.dgp.Dataset`, a ``schedule`` that is not a
:class:`PenaltySchedule` and a ``rate`` that is not a :class:`PenaltyRate`
raise a TypeError naming the argument, before anything of it is read
(``dgp._instance``, the one record rule).  Every form with one
instrument takes it through one rule, which names ``data`` when there are
more.  :func:`fit_ridge_iv` forms Var z, Cov[D,Z] and Cov[Y,Z] once each
and hands them to the ratio and to the one stage regression that
:func:`first_stage` and :func:`reduced_form` also run; one loop then
names ``data`` and the first field beyond the float range.  Real
arguments (penalties, ``beta``) are taken as Python floats.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .dgp import Dataset, _finite_entries, _finite_real, _finite_result, _instance, _nonnegative

__all__ = [
    "DegenerateDenominatorError",
    "DegenerateInstrumentError",
    "SingularSystemError",
    "PenaltyRate",
    "PenaltySchedule",
    "Estimate",
    "demeaned_cov",
    "shifted_ratio",
    "first_stage",
    "reduced_form",
    "fit_2sls",
    "fit_ridge_iv",
    "fit_ridge_iv_matrix",
    "fit_ridge_iv_overidentified",
    "gmm_objective",
    "gmm_minimize",
    "lagrange_correspondence",
]


class DegenerateDenominatorError(ArithmeticError):
    """The (possibly penalized) IV denominator is exactly zero."""


class DegenerateInstrumentError(ValueError):
    """The instrument has zero sample variance."""


class SingularSystemError(ArithmeticError):
    """The instrument cross-moment Z'Z of the over-identified form is singular."""


class PenaltyRate(enum.Enum):
    """Growth rate of the penalty lambda_n in the sample size."""

    CONSTANT = "constant"
    SQRT_N = "sqrt_n"
    LINEAR_N = "linear_n"


@dataclass(frozen=True)
class PenaltySchedule:
    """Rule mapping sample size n to the penalty lambda_n.

    lambda_n(n) is ``lambda0`` (CONSTANT), ``lambda0 * sqrt(n)`` (SQRT_N)
    or ``lambda0 * n`` (LINEAR_N).  ``lambda0 = 0`` reduces every form to
    unpenalized 2SLS.  ``rate`` must be a :class:`PenaltyRate` member, and
    ``lambda0`` is stored as a Python float.
    """

    rate: PenaltyRate
    lambda0: float

    def __post_init__(self) -> None:
        _instance("rate", self.rate, PenaltyRate)
        object.__setattr__(self, "lambda0", _nonnegative("lambda0", self.lambda0))

    def lambda_n(self, n: int) -> float:
        """The penalty at sample size n; a ValueError if it overflows."""
        if self.rate is PenaltyRate.CONSTANT:
            return self.lambda0
        name = f"lambda_n({n})"
        # else math.sqrt raises an unnamed error on a negative n, and an int
        # beyond the float range an OverflowError
        real_n = _nonnegative(name, n)
        growth = math.sqrt(real_n) if self.rate is PenaltyRate.SQRT_N else real_n
        return _nonnegative(name, self.lambda0 * growth)


@dataclass(frozen=True)
class Estimate:
    """A fitted slope plus the pieces of the penalized ratio and stage diagnostics.

    ``sigma_z_hat`` is the sample sd of the instrument (1/n convention).
    """

    beta1_hat: float
    numerator: float
    denominator: float
    lambda_n: float
    n: int
    pi1_hat: float
    sigma_eta_hat: float
    sigma_red_hat: float
    sigma_eps_hat: float
    sigma_z_hat: float

    @property
    def std_error(self) -> float:
        """Plug-in standard error sigma_eps_hat / (|pi1_hat| sd(z) sqrt(n)).

        This is the unpenalized (2SLS) standard error, from the limiting
        variance sigma_eps^2 / (pi1^2 Var z); it is reported as is when
        lambda_n > 0 and ignores the penalty's shrinkage.  It does not
        change when z is rescaled.  The exponents of the fields are taken
        apart (:func:`math.frexp`), so no product underflows or overflows on
        the way: it is finite wherever the exact quotient is in the float
        range, and inf only where ``pi1_hat`` or ``sigma_z_hat`` is 0, or the
        quotient lies beyond the float range.
        """
        pi1, sd_z = abs(float(self.pi1_hat)), float(self.sigma_z_hat)
        sd_eps, root_n = float(self.sigma_eps_hat), math.sqrt(self.n)
        if pi1 == 0.0 or sd_z == 0.0:
            return math.inf
        (m_eps, e_eps), (m_pi1, e_pi1), (m_z, e_z) = map(math.frexp, (sd_eps, pi1, sd_z))
        try:
            return math.ldexp(m_eps / (m_pi1 * m_z * root_n), e_eps - e_pi1 - e_z)
        except OverflowError:  # the quotient is beyond the float range
            return math.inf


def demeaned_cov(x: np.ndarray, w: np.ndarray) -> float:
    """Sample covariance (1/n) * sum (x_i - xbar)(w_i - wbar).

    ``x`` and ``w`` must be finite, each named when it is not; a covariance,
    or a mean on the way to it, beyond the float range raises a ValueError
    naming ``x and w``.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.ndim != 1 or w.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if x.shape[0] != w.shape[0]:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {w.shape[0]}")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    _finite_entries("x", x)
    _finite_entries("w", w)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite_result names an overflow
        return _finite_result("x and w", "covariance", _cov(x, w))


def _cov(x: np.ndarray, w: np.ndarray) -> float:
    """:func:`demeaned_cov` unchecked: the caller checks the inputs and the result's range."""
    return float(np.mean((x - x.mean()) * (w - w.mean())))


def shifted_ratio(
    numerator: float | np.ndarray,
    base: float | np.ndarray,
    shift: float | Sequence[float],
    name: str = "numerator",
    shift_name: str = "shift",
) -> float | np.ndarray:
    """The penalized ratio numerator / (base + shift): the one division of every form.

    A result is finite, or its shifted denominator is exactly zero
    (degenerate), or the call raises a ValueError naming the input.  Called
    with three floats, it returns a float and raises
    :class:`DegenerateDenominatorError` on a degenerate denominator.
    Called with arrays ``numerator`` and ``base`` of one shape, it returns
    an array of that shape, with a leading axis of one row per shift when
    ``shift`` is a sequence, and NaN exactly where the rep is degenerate.

    A shifted denominator beyond the float range from a finite ``base``
    raises naming ``shift_name`` (``str.format``-ed with the shift's index
    when ``shift`` is a sequence); any other result that is not finite,
    and a degenerate float ratio, names ``name``, the argument that set the
    numerator and the base.
    """
    numerator = np.asarray(numerator, dtype=np.float64)
    base = np.asarray(base, dtype=np.float64)
    shifts = np.asarray(shift, dtype=np.float64)
    shift_axes = shifts.ndim  # 1 when there is a row per shift
    shifts = shifts.reshape(shifts.shape + (1,) * base.ndim)
    with np.errstate(all="ignore"):  # every result that is not finite is named below
        denominators = base + shifts
        quotients = numerator / denominators
    degenerate = denominators == 0.0
    bad = ~(np.isfinite(quotients) & np.isfinite(denominators) | degenerate)
    if bad.any():
        at = np.unravel_index(bad.argmax(), bad.shape)
        num, b, s, den, q = (
            float(np.broadcast_to(x, bad.shape)[at])
            for x in (numerator, base, shifts, denominators, quotients)
        )
        if math.isfinite(b):
            shift_at = shift_name.format(*at[:shift_axes])
            quantity = f"shifted denominator with {name}"
            _finite_result(shift_at, quantity, den, f"{b!r} + {s!r} = {den!r}")
        # a finite quotient over an infinite base is out of range too
        _finite_result(name, "beta1_hat", (q, den), f"{q!r} = {num!r} / {den!r}")
    if quotients.ndim == 0:
        if degenerate:
            raise DegenerateDenominatorError(
                f"{name} gives a shifted denominator of exactly zero "
                f"(base = {float(base)!r}, shift = {float(shifts)!r})"
            )
        return float(quotients)
    quotients[degenerate] = math.nan
    return quotients


def _instrument_column(data: Dataset) -> np.ndarray:
    """The instrument column; every form that takes one instrument checks ``data`` here.

    A ``data`` that is not a :class:`~ridgeiv.dgp.Dataset` raises a
    TypeError, and one with more than one instrument a ValueError.
    """
    if _instance("data", data, Dataset).k != 1:
        raise ValueError(f"data must have a single instrument (a square Z'D), got k = {data.k}")
    return data.z[:, 0]


def _stage(z: np.ndarray, t: np.ndarray, var_z: float, cov_tz: float) -> tuple[float, ...]:
    """OLS of t on (1, z) from Var z and Cov[t,z]: (intercept, slope, residual sd).

    The residual sd takes the 1/n convention; a zero Var z raises
    :class:`DegenerateInstrumentError`.
    """
    if var_z == 0.0:
        raise DegenerateInstrumentError("data has an instrument of zero sample variance")
    slope = cov_tz / var_z
    intercept = float(t.mean() - slope * z.mean())
    resid = t - intercept - slope * z
    return intercept, slope, float(np.sqrt(np.mean(resid**2)))


# Why a field of a fit on finite data can leave the float range
_DATA_OUT_OF_RANGE = "{!r}: a mean or a moment of the data is beyond the float range"


def _data_in_range(fields: Iterable[tuple[str, float]]) -> None:
    """A ValueError naming ``data`` and the first (field, value) pair beyond the float range."""
    for field, value in fields:
        _finite_result("data", field, value, _DATA_OUT_OF_RANGE)


def _checked_ols(data: Dataset, regressand: str, names: Sequence[str]) -> tuple[float, ...]:
    """The stage regression of ``data``'s ``regressand`` (``"d"`` or ``"y"``) on z, checked."""
    z, t = _instrument_column(data), getattr(data, regressand)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        fit = _stage(z, t, _cov(z, z), _cov(t, z))
    _data_in_range(zip(names, fit))
    return fit


def first_stage(data: Dataset) -> tuple[float, float, float]:
    """OLS of D on (1, Z): returns (pi0_hat, pi1_hat, sigma_eta_hat).

    A value beyond the float range from finite data raises a ValueError
    naming ``data`` and the field, as :func:`fit_ridge_iv` does.
    """
    return _checked_ols(data, "d", ("pi0_hat", "pi1_hat", "sigma_eta_hat"))


def reduced_form(data: Dataset) -> tuple[float, float, float]:
    """OLS of Y on (1, Z): returns (rf0_hat, rf1_hat, sigma_red_hat).

    The slope estimates beta1 * pi1; the residual sd estimates sigma_red
    where sigma_red^2 = beta1^2 sigma_eta^2 + sigma_eps^2 + 2 beta1 err_cov.
    A value beyond the float range raises as in :func:`first_stage`.
    """
    return _checked_ols(data, "y", ("rf0_hat", "rf1_hat", "sigma_red_hat"))


def fit_2sls(data: Dataset) -> Estimate:
    """Just-identified 2SLS: the ratio Cov[Y,Z] / Cov[D,Z].

    Large values are returned as-is; an exactly-zero denominator raises, and
    so does a value beyond the float range (:func:`shifted_ratio`).
    """
    return fit_ridge_iv(data, PenaltySchedule(PenaltyRate.CONSTANT, 0.0))


def fit_ridge_iv(data: Dataset, schedule: PenaltySchedule) -> Estimate:
    """Penalized ratio estimator Cov[Y,Z] / (Cov[D,Z] + lambda_n(n)/n).

    Finite data can still have a mean, a moment or a ratio beyond the float
    range; a ValueError naming ``data`` then says which field it reaches.
    """
    _instance("data", data, Dataset)
    lambda_n = _instance("schedule", schedule, PenaltySchedule).lambda_n(data.n)
    shift = lambda_n / data.n
    z = _instrument_column(data)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        var_z, cov_dz, cov_yz = _cov(z, z), _cov(data.d, z), _cov(data.y, z)
        beta1_hat = shifted_ratio(cov_yz, cov_dz, shift, "data")
        _, pi1_hat, sigma_eta_hat = _stage(z, data.d, var_z, cov_dz)
        _, _, sigma_red_hat = _stage(z, data.y, var_z, cov_yz)
        resid = (data.y - data.y.mean()) - beta1_hat * (data.d - data.d.mean())
        sigma_eps_hat = float(np.sqrt(np.mean(resid**2)))
    estimate = Estimate(
        beta1_hat, cov_yz, cov_dz + shift, lambda_n, data.n,
        pi1_hat, sigma_eta_hat, sigma_red_hat, sigma_eps_hat, math.sqrt(var_z),
    )
    _data_in_range(asdict(estimate).items())
    return estimate


def fit_ridge_iv_matrix(data: Dataset, lam: float) -> np.ndarray:
    """Penalized just-identified estimator (Z'D + lam I)^{-1} Z'Y.

    Works on the arrays exactly as stored (no demeaning), so on demeaned
    single-instrument data with ``lam = lambda_n`` it agrees with
    :func:`fit_ridge_iv`.  ``data`` must be square in the sense that the
    instrument count matches the single endogenous regressor (k = 1).
    """
    zd, zy = _uncentered_sums(data)  # checks the instrument count first
    return np.array([shifted_ratio(zy, zd, _nonnegative("lam", lam), "data", "lam")])


def fit_ridge_iv_overidentified(data: Dataset, lam: float) -> np.ndarray:
    """Penalized over-identified estimator.

    Returns D'P_zY / (D'P_zD + lam), with P_z = Z (Z'Z)^{-1} Z', on raw
    uncentered arrays; lam = 0 reproduces textbook 2SLS.  A singular Z'Z
    raises :class:`SingularSystemError`.
    """
    lam = _nonnegative("lam", lam)
    z = _instance("data", data, Dataset).z
    d = data.d.reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # shifted_ratio names an overflow
        zz = z.T @ z
        zd = z.T @ d
        zy = (z.T @ data.y).reshape(-1, 1)
        try:
            solved = np.linalg.solve(zz, np.hstack([zd, zy]))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"data gives a singular Z'Z: {exc}") from exc
        a = zd.T @ solved[:, :1]
        b = zd.T @ solved[:, 1]
    return np.array([shifted_ratio(b.item(), a.item(), lam, "data", "lam")])


def _uncentered_sums(data: Dataset) -> tuple[float, float]:
    """(sum Z*D, sum Z*Y); each caller names a sum beyond the float range."""
    z = _instrument_column(data)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(z @ data.d), float(z @ data.y)


def gmm_objective(data: Dataset, beta: float, gamma: float) -> float:
    """Penalized moment objective (sum_i Z_i (Y_i - D_i beta))^2 + gamma * beta^2.

    Uses raw uncentered sums (no intercepts).  An objective beyond the
    float range raises a ValueError naming the argument that took it there:
    ``data`` when its own sums square beyond it, else ``beta`` for the
    moment term or a square of beta beyond it, else ``gamma``.
    """
    beta, gamma = _finite_real("beta", beta), _nonnegative("gamma", gamma)
    z = _instrument_column(data)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        moment = float(z @ (data.y - data.d * beta))
        # float products give inf where ** would raise an unnamed OverflowError
        fit, penalty = moment * moment, gamma * beta * beta
        objective = fit + penalty
        if not math.isfinite(fit):
            szd, szy = _uncentered_sums(data)
            name = "data" if not math.isfinite(szd * szd + szy * szy) else "beta"
        else:
            name = "beta" if not math.isfinite(beta * beta) else "gamma"
    quantity = f"GMM objective at beta = {beta!r} and gamma = {gamma!r}"
    got = f"{{!r}} from the moment {moment!r} and the penalty {penalty!r}"
    return _finite_result(name, quantity, objective, got)


def gmm_minimize(data: Dataset, gamma: float) -> float:
    """Closed-form minimizer of :func:`gmm_objective`.

    The objective is a convex quadratic in beta; its minimizer is
    (sum ZD)(sum ZY) / ((sum ZD)^2 + gamma).  When sum(Z*D) and gamma are
    both zero it has no unique minimizer, and the ratio raises.
    """
    gamma = _nonnegative("gamma", gamma)
    szd, szy = _uncentered_sums(data)  # shifted_ratio names an overflow
    # float products give inf where ** would raise an unnamed OverflowError
    return shifted_ratio(szd * szy, szd * szd, gamma, "data", "gamma")


def lagrange_correspondence(data: Dataset, lambda_n: float) -> float:
    """Map the denominator penalty lambda_n to the multiplier gamma_n.

    gamma_n = (sum_i Z_i D_i / n) * lambda_n, so that
    ``gmm_minimize(data, gamma_n)`` equals the uncentered penalized ratio
    sum(ZY) / (sum(ZD) + lambda_n / n).  A multiplier beyond the float
    range raises a ValueError naming ``data`` when sum(Z*D) overflows, else
    ``lambda_n``.  A lambda_n > 0 beside a sum(Z*D) <= 0 then raises a
    ValueError naming ``data``: its multiplier would be negative, which
    ``gmm_minimize`` rejects, or 0, whose minimiser is not the ratio.
    """
    lambda_n = _nonnegative("lambda_n", lambda_n)
    szd, _ = _uncentered_sums(data)
    gamma_n = (szd / data.n) * lambda_n  # floats: an overflow is inf, named below
    name = "data" if not math.isfinite(szd) else "lambda_n"
    quantity = f"multiplier gamma_n at lambda_n = {lambda_n!r}"
    gamma_n = _finite_result(name, quantity, gamma_n, f"{{!r}} from sum(Z*D) = {szd!r}")
    if lambda_n > 0 and szd <= 0:
        raise ValueError(f"data must have a positive sum(Z*D) for lambda_n > 0, got {szd!r}")
    return gamma_n

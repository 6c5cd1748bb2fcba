import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ridgeiv.dgp import Dataset, DgpParams, aer_calibration, generate_dataset
from ridgeiv.estimators import (
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
    shifted_ratio,
)

Z123 = np.array([1.0, 2.0, 3.0])


def _random_dataset(seed, n=30, k=1):
    rng = np.random.default_rng(seed)
    return Dataset(
        y=rng.normal(size=n),
        d=rng.normal(size=n),
        z=rng.normal(size=(n, k)),
    )


def _demeaned(data):
    return Dataset(
        y=data.y - data.y.mean(),
        d=data.d - data.d.mean(),
        z=data.z - data.z.mean(axis=0),
    )


# ---------------------------------------------------------------------------
# demeaned_cov


def test_demeaned_cov_hand_values():
    assert demeaned_cov(Z123, Z123) == 2.0 / 3.0
    assert demeaned_cov(Z123, np.array([2.0, 4.0, 6.0])) == 4.0 / 3.0


def test_demeaned_cov_constant_is_zero():
    assert demeaned_cov(Z123, np.full(3, 7.25)) == 0.0


def test_demeaned_cov_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        demeaned_cov(Z123, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="at least 2"):
        demeaned_cov(np.array([1.0]), np.array([1.0]))


@pytest.mark.parametrize(
    "x, w, message",
    [
        ([np.nan, 1.0, 2.0], [1.0, 2.0, 3.0], r"^x must be finite, got a non-finite entry$"),
        ([1.0, 2.0, 3.0], [1.0, np.inf, 3.0], r"^w must be finite, got a non-finite entry$"),
        (np.linspace(-1.0, 1.0, 20) * 1e300, np.linspace(-1.0, 1.0, 20) * 1e300,
         r"^x and w must give a finite covariance, got inf$"),
    ],
    ids=["nan", "inf", "overflow"],
)
def test_demeaned_cov_names_what_leaves_the_float_range(x, w, message):
    # these returned nan, or warned and returned nan or inf
    with pytest.raises(ValueError, match=message):
        demeaned_cov(np.array(x), np.array(w))


@pytest.mark.parametrize("two_d", ["x", "w"])
def test_demeaned_cov_rejects_two_dimensional_input(two_d):
    arrays = {"x": Z123, "w": Z123, two_d: Z123.reshape(3, 1)}
    with pytest.raises(ValueError, match="one-dimensional"):
        demeaned_cov(**arrays)


# ---------------------------------------------------------------------------
# stage regressions


def test_first_stage_identity_line():
    data = Dataset(y=np.zeros(3), d=Z123, z=Z123)
    assert first_stage(data) == (0.0, 1.0, 0.0)


def test_first_stage_noise_free_recovers_coefficients():
    params = DgpParams(
        beta0=1.0, beta1=1.0, pi0=-0.346, pi1=0.072,
        sigma_eps=0.0, sigma_eta=0.0, err_cov=0.0,
    )
    data = generate_dataset(params, 100, 5)
    pi0_hat, pi1_hat, sigma_eta_hat = first_stage(data)
    assert pi0_hat == pytest.approx(-0.346, abs=1e-12)
    assert pi1_hat == pytest.approx(0.072, abs=1e-12)
    assert sigma_eta_hat == pytest.approx(0.0, abs=1e-12)


def test_first_stage_degenerate_instrument():
    data = Dataset(y=Z123, d=Z123, z=np.full(3, 1.0))
    with pytest.raises(DegenerateInstrumentError):
        first_stage(data)


def test_first_stage_large_sample_consistency(big_aer_dataset):
    _, pi1_hat, sigma_eta_hat = first_stage(big_aer_dataset)
    sigma_u = math.sqrt(1.0 + 0.67**2)
    assert abs(pi1_hat - 0.072) < 4 * sigma_u / math.sqrt(big_aer_dataset.n)
    assert sigma_eta_hat == pytest.approx(sigma_u, rel=0.01)


def test_reduced_form_scaled_line():
    data = Dataset(y=2.0 * Z123, d=np.zeros(3), z=Z123)
    assert reduced_form(data) == (0.0, 2.0, 0.0)


def test_reduced_form_noise_free_slope():
    params = DgpParams(
        beta0=0.5, beta1=1.0, pi0=-0.346, pi1=0.072,
        sigma_eps=0.0, sigma_eta=0.0, err_cov=0.0,
    )
    data = generate_dataset(params, 100, 6)
    _, rf1_hat, _ = reduced_form(data)
    assert rf1_hat == pytest.approx(params.beta1 * params.pi1, rel=1e-12)


def test_reduced_form_error_variance(big_aer_dataset):
    # residual variance estimates beta1^2 sigma_eta^2 + sigma_eps^2 + 2 beta1 err_cov
    _, _, sigma_red_hat = reduced_form(big_aer_dataset)
    expected = 1.0 * (1.0 + 0.67**2) + 1.0 + 2.0 * 1.0 * (-0.67)
    assert sigma_red_hat**2 == pytest.approx(expected, rel=0.01)


# ---------------------------------------------------------------------------
# scalar ratio forms


def test_fit_2sls_noise_free():
    data = Dataset(y=np.array([2.0, 4.0, 6.0]), d=Z123, z=Z123)
    est = fit_2sls(data)
    assert est.beta1_hat == 2.0
    assert est.lambda_n == 0.0
    assert est.sigma_eps_hat == pytest.approx(0.0, abs=1e-15)


def test_fit_2sls_hand_example():
    data = Dataset(y=np.array([1.0, 5.0, 3.0]), d=Z123, z=Z123)
    est = fit_2sls(data)
    assert est.numerator == pytest.approx(2.0 / 3.0)
    assert est.denominator == pytest.approx(2.0 / 3.0)
    assert est.beta1_hat == 1.0


def test_fit_2sls_constant_d_degenerate():
    data = Dataset(y=np.array([1.0, 5.0, 3.0]), d=np.full(3, 0.5), z=Z123)
    with pytest.raises(DegenerateDenominatorError):
        fit_2sls(data)


def test_estimate_ratio_invariant():
    est = fit_2sls(_random_dataset(0))
    assert est.beta1_hat == est.numerator / est.denominator


def test_fit_ridge_iv_hand_example():
    data = Dataset(y=np.array([2.0, 4.0, 6.0]), d=Z123, z=Z123)
    est = fit_ridge_iv(data, PenaltySchedule(PenaltyRate.CONSTANT, 1.0))
    assert est.lambda_n == 1.0
    assert est.denominator == pytest.approx(1.0)
    assert est.beta1_hat == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_penalty_schedule_rates():
    assert PenaltySchedule(PenaltyRate.CONSTANT, 2.0).lambda_n(400) == 2.0
    assert PenaltySchedule(PenaltyRate.SQRT_N, 2.0).lambda_n(400) == 40.0
    assert PenaltySchedule(PenaltyRate.LINEAR_N, 2.0).lambda_n(400) == 800.0
    with pytest.raises(ValueError, match="nonnegative"):
        PenaltySchedule(PenaltyRate.CONSTANT, -1.0)


@pytest.mark.parametrize("rate", ["sqrt_n", "constant", None, 1.0])
def test_penalty_schedule_rejects_a_rate_that_is_not_an_enum_member(rate):
    # strings are not coerced: "sqrt_n" would otherwise act as the linear rate
    with pytest.raises(TypeError, match="rate must be a PenaltyRate"):
        PenaltySchedule(rate, 1.0)


@pytest.mark.parametrize(
    "rate, lambda0, n",
    [
        (PenaltyRate.SQRT_N, 1e308, 150),
        (PenaltyRate.LINEAR_N, 1e307, 150),
        # a numpy n made lambda0 * n a numpy product, which warned as it overflowed
        (PenaltyRate.LINEAR_N, 1e307, np.int64(150)),
    ],
    ids=["PenaltyRate.SQRT_N-1e+308", "PenaltyRate.LINEAR_N-1e+307", "numpy-n"],
)
def test_lambda_n_rejects_an_overflowing_penalty(rate, lambda0, n):
    schedule = PenaltySchedule(rate, lambda0)
    with pytest.raises(ValueError, match=r"lambda_n\(150\) must be finite, got inf"):
        schedule.lambda_n(n)


@pytest.mark.parametrize("rate", [PenaltyRate.SQRT_N, PenaltyRate.LINEAR_N])
def test_lambda_n_names_an_n_beyond_float_range(rate):
    # math.sqrt(n) and lambda0 * n raised an unnamed OverflowError
    message = r"^lambda_n\(10+\) must be finite, got a value too large"
    with pytest.raises(ValueError, match=message):
        PenaltySchedule(rate, 1.0).lambda_n(10**400)


@pytest.mark.parametrize("lambda0", [0.0, 1.0])
@pytest.mark.parametrize("rate", [PenaltyRate.SQRT_N, PenaltyRate.LINEAR_N])
def test_lambda_n_names_a_negative_n(rate, lambda0):
    # math.sqrt(-1) raised an unnamed "math domain error", and 0.0 * -1 passed
    message = r"^lambda_n\(-1\) must be nonnegative, got -1$"
    with pytest.raises(ValueError, match=message):
        PenaltySchedule(rate, lambda0).lambda_n(-1)


@pytest.mark.parametrize("rate", list(PenaltyRate))
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_penalty_schedule_rejects_non_finite_lambda0(rate, value):
    with pytest.raises(ValueError, match="lambda0 must be finite"):
        PenaltySchedule(rate, value)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=5, max_value=60))
@settings(max_examples=60, deadline=None)
def test_lambda_zero_is_2sls_bit_for_bit(seed, n):
    data = _random_dataset(seed, n=n)
    baseline = fit_2sls(data)
    for rate in PenaltyRate:
        assert fit_ridge_iv(data, PenaltySchedule(rate, 0.0)) == baseline


def test_shrinkage_toward_zero():
    data = _random_dataset(3, n=40)
    if demeaned_cov(data.d, data.z[:, 0]) < 0:
        data = Dataset(y=data.y, d=-data.d, z=data.z)
    lambdas = [0.0, 0.5, 2.0, 10.0, 1e3, 1e6]
    fits = [
        abs(fit_ridge_iv(data, PenaltySchedule(PenaltyRate.CONSTANT, lam)).beta1_hat)
        for lam in lambdas
    ]
    assert all(b <= a for a, b in zip(fits, fits[1:]))
    assert fits[-1] < 1e-5


@pytest.mark.parametrize(
    "y, field",
    [
        # y.mean() overflows, so Cov[Y,Z] is NaN
        (1e308 + np.arange(50.0), "beta1_hat"),
        # the residual's square overflows beside finite covariances
        (1e200 * np.sin(np.arange(50.0)), "sigma_red_hat"),
    ],
    ids=["mean", "square"],
)
def test_fit_names_data_whose_moments_overflow(y, field):
    # numpy warned, and the Estimate held NaN or inf
    z = np.cos(np.arange(50.0))
    data = Dataset(y=y, d=z + 0.5 * np.sin(np.arange(50.0)), z=z)
    with pytest.raises(ValueError, match=f"^data must give a finite {field}, got "):
        fit_2sls(data)


def test_std_error_matches_plugin_formula():
    data = _random_dataset(11, n=80)
    est = fit_2sls(data)
    sd_z = float(np.std(data.z[:, 0]))
    assert est.sigma_z_hat == pytest.approx(sd_z, rel=1e-12)
    expected = est.sigma_eps_hat / (abs(est.pi1_hat) * est.sigma_z_hat * math.sqrt(est.n))
    assert est.std_error == expected
    degenerate = Estimate(0.0, 0.0, 1.0, 0.0, 10, 0.0, 1.0, 1.0, 1.0, 1.0)
    assert degenerate.std_error == math.inf


@pytest.mark.parametrize(
    "pi1_hat, sigma_z_hat, sigma_eps_hat, n",
    [
        (1e-200, 1e-200, 1e-300, 3),  # the product underflowed to 0: inf
        (1e-160, 1e-160, 1e-300, 3),  # a subnormal product lost its low bits
        (1e300, 1e300, 1e300, 4),  # the product overflowed: 0.0
        (np.float64(-1e300), np.float64(1e300), np.float64(1e300), 4),  # numpy warned
    ],
    ids=["underflow", "subnormal", "overflow", "numpy-fields"],
)
def test_std_error_is_finite_wherever_its_exact_value_is(pi1_hat, sigma_z_hat, sigma_eps_hat, n):
    est = Estimate(0.0, 0.0, 0.0, 0.0, n, pi1_hat, 0.0, 0.0, sigma_eps_hat, sigma_z_hat)
    pi1, sd_z, sd_eps = map(Fraction, (pi1_hat, sigma_z_hat, sigma_eps_hat))
    exact = sd_eps / (abs(pi1) * sd_z * Fraction(math.sqrt(n)))
    assert est.std_error == pytest.approx(float(exact), rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# invariances of beta1_hat and std_error

# A strong first stage and a sizeable effect keep Cov[D,Z] and Cov[Y,Z] well
# away from zero, so rounding stays far inside the tolerance.
_STRONG = DgpParams(beta0=2.83, beta1=2.0, pi0=-0.346, pi1=1.0, err_cov=-0.67)
_RTOL = 1e-9
_seeds = st.integers(min_value=0, max_value=2**32 - 1)
_sizes = st.integers(min_value=50, max_value=300)
_schedules = st.builds(
    PenaltySchedule, st.sampled_from(PenaltyRate), st.floats(0.0, 100.0)
)
_shifts = st.floats(-1e3, 1e3)
_scales = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)


def _beta_hat(y, d, z, schedule):
    return fit_ridge_iv(Dataset(y=y, d=d, z=z), schedule).beta1_hat


@given(_seeds, _sizes, _schedules, _shifts, _shifts, _shifts)
@settings(max_examples=100, deadline=None)
def test_beta_hat_ignores_additive_constants(seed, n, schedule, a, b, c):
    data = generate_dataset(_STRONG, n, seed)
    base = _beta_hat(data.y, data.d, data.z, schedule)
    shifted = _beta_hat(data.y + a, data.d + b, data.z + c, schedule)
    assert shifted == pytest.approx(base, rel=_RTOL)


@given(_seeds, _sizes, _schedules, _scales)
@settings(max_examples=100, deadline=None)
def test_beta_hat_scales_with_y(seed, n, schedule, a):
    data = generate_dataset(_STRONG, n, seed)
    base = _beta_hat(data.y, data.d, data.z, schedule)
    assert _beta_hat(a * data.y, data.d, data.z, schedule) == pytest.approx(
        a * base, rel=_RTOL
    )


@given(_seeds, _sizes, _scales)
@settings(max_examples=100, deadline=None)
def test_unpenalized_beta_hat_ignores_instrument_scale(seed, n, c):
    # Only at lambda = 0: the shift lambda_n / n does not rescale with z.
    schedule = PenaltySchedule(PenaltyRate.CONSTANT, 0.0)
    data = generate_dataset(_STRONG, n, seed)
    base = _beta_hat(data.y, data.d, data.z, schedule)
    assert _beta_hat(data.y, data.d, c * data.z, schedule) == pytest.approx(
        base, rel=_RTOL
    )


@given(_seeds, _sizes, _scales)
@settings(max_examples=100, deadline=None)
def test_unpenalized_std_error_ignores_instrument_scale(seed, n, c):
    data = generate_dataset(_STRONG, n, seed)
    base = fit_2sls(data).std_error
    scaled = fit_2sls(Dataset(y=data.y, d=data.d, z=c * data.z)).std_error
    assert scaled == pytest.approx(base, rel=_RTOL)


@given(
    _seeds,
    st.integers(min_value=5, max_value=60),
    st.sampled_from(PenaltyRate),
    st.floats(0.0, 1e3),
    st.floats(0.0, 1e3),
)
@settings(max_examples=100, deadline=None)
def test_abs_beta_hat_non_increasing_in_lambda(seed, n, rate, lam_a, lam_b):
    data = _random_dataset(seed, n=n)
    cov_dz = demeaned_cov(data.d, data.z[:, 0])
    assume(cov_dz != 0.0)
    if cov_dz < 0:
        data = Dataset(y=data.y, d=-data.d, z=data.z)
    low, high = sorted((lam_a, lam_b))
    fits = [
        abs(fit_ridge_iv(data, PenaltySchedule(rate, lam)).beta1_hat)
        for lam in (low, high)
    ]
    assert fits[1] <= fits[0]


# ---------------------------------------------------------------------------
# matrix forms


def test_matrix_form_ols_reduction():
    # with z = d and no penalty this is OLS on uncentered data
    data = Dataset(y=3.0 * Z123, d=Z123, z=Z123)
    assert fit_ridge_iv_matrix(data, 0.0)[0] == 3.0


def test_matrix_form_requires_square_system():
    with pytest.raises(ValueError, match="square"):
        fit_ridge_iv_matrix(_random_dataset(0, k=2), 0.0)


@pytest.mark.parametrize("lambda_n", [0.0, 0.7, 3.0])
def test_matrix_form_matches_ratio_form_on_demeaned_data(lambda_n):
    # the ratio form adds lambda_n/n to the covariance, the matrix form adds
    # lambda_n to the raw cross moment; on demeaned data they coincide
    data = _demeaned(_random_dataset(21, n=37))
    ratio = fit_ridge_iv(data, PenaltySchedule(PenaltyRate.CONSTANT, lambda_n))
    matrix = fit_ridge_iv_matrix(data, lambda_n)
    assert matrix.shape == (1,)
    assert matrix[0] == pytest.approx(ratio.beta1_hat, rel=1e-10)


def test_overidentified_exact_identification():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(40, 2))
    d = z[:, 0]
    data = Dataset(y=3.0 * d, d=d, z=z)
    coef = fit_ridge_iv_overidentified(data, 0.0)
    assert coef.shape == (1,)
    assert coef[0] == pytest.approx(3.0, rel=1e-12)


def test_overidentified_reduces_to_projected_matrix_form():
    # with k = 1 the over-identified estimator equals the just-identified
    # matrix form run on the projected instrument P_z d
    data = _random_dataset(5, n=25)
    lam = 0.4
    z = data.z
    proj_d = z @ np.linalg.solve(z.T @ z, z.T @ data.d)
    projected = Dataset(y=data.y, d=data.d, z=proj_d.reshape(-1, 1))
    expected = fit_ridge_iv_matrix(projected, lam)
    got = fit_ridge_iv_overidentified(data, lam)
    assert got[0] == pytest.approx(expected[0], rel=1e-10)


def test_overidentified_against_dense_oracle():
    rng = np.random.default_rng(17)
    n, k, lam = 20, 3, 0.5
    z = rng.normal(size=(n, k))
    d = z @ np.array([0.6, -0.2, 0.1]) + rng.normal(size=n)
    y = 1.5 * d + rng.normal(size=n)
    data = Dataset(y=y, d=d, z=z)
    # independent oracle: explicit inverse composition instead of solves
    zz_inv = np.linalg.inv(z.T @ z)
    a = float(d @ z @ zz_inv @ z.T @ d) + lam
    b = float(d @ z @ zz_inv @ z.T @ y)
    assert fit_ridge_iv_overidentified(data, lam)[0] == pytest.approx(b / a, rel=1e-10)


def test_overidentified_singular_zz():
    z = np.column_stack([Z123, Z123])
    data = Dataset(y=Z123, d=Z123, z=z)
    with pytest.raises(SingularSystemError):
        fit_ridge_iv_overidentified(data, 0.1)


def test_scalar_ops_reject_multiple_instruments():
    data = _random_dataset(1, k=3)
    for op in (fit_2sls, first_stage, reduced_form):
        with pytest.raises(ValueError, match="single instrument"):
            op(data)


# ---------------------------------------------------------------------------
# the shared ratio and penalty check of every form

_CONSTANT_D = Dataset(y=np.array([1.0, 5.0, 3.0]), d=np.full(3, 0.5), z=Z123)  # Cov[D,Z] = 0
_ORTHOGONAL = Dataset(y=Z123, d=np.array([1.0, 1.0, -1.0]), z=Z123)  # Z'D = 0


@pytest.mark.parametrize(
    "fit, data",
    [
        (fit_2sls, _CONSTANT_D),
        (lambda data: fit_ridge_iv(data, PenaltySchedule(PenaltyRate.SQRT_N, 0.0)), _CONSTANT_D),
        (functools.partial(fit_ridge_iv_matrix, lam=0.0), _ORTHOGONAL),
        (functools.partial(fit_ridge_iv_overidentified, lam=0.0), _ORTHOGONAL),
        (functools.partial(gmm_minimize, gamma=0.0), _ORTHOGONAL),
    ],
    ids=["2sls", "ridge", "matrix", "overidentified", "gmm"],
)
def test_every_form_raises_on_an_exactly_zero_shifted_denominator(fit, data):
    with pytest.raises(DegenerateDenominatorError, match="exactly zero"):
        fit(data)


_OVERFLOWING = Dataset(
    y=1e300 * np.array([1.0, 1.0, 1.0, -1.0]),
    d=1e160 * np.array([1.0, 2.0, -1.0, 3.0]),
    z=np.array([1.0, -1.0, 2.0, 0.5]),
)


@pytest.mark.parametrize(
    "call, message",
    [
        # sum(ZD)**2 raised an unnamed OverflowError
        (lambda: gmm_minimize(_OVERFLOWING, 0.0), r"^data must give a finite beta1_hat, got "),
        # D'P_zD overflowed in a matmul: [nan], after two numpy warnings
        (
            lambda: fit_ridge_iv_overidentified(_OVERFLOWING, 0.0),
            r"^data must give a finite beta1_hat, got ",
        ),
        # returned inf
        (
            lambda: shifted_ratio(1e300, 1e-300, 0.0),
            r"^numerator must give a finite beta1_hat, got inf = 1e\+300 / 1e-300$",
        ),
        # returned 0.0: 1 / inf
        (
            lambda: shifted_ratio(1.0, 1.7e308, 1.7e308),
            r"^shift must give a finite shifted denominator with numerator, got 1\.7e\+308 \+ ",
        ),
    ],
    ids=["gmm", "overidentified", "scalar-quotient", "scalar-denominator"],
)
def test_a_ratio_beyond_the_float_range_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()


_SMALL = Dataset(
    y=np.array([1.0, 2.0, 3.0, 4.0]),
    d=np.array([1.0, 0.0, 2.0, 1.0]),
    z=np.array([1.0, -1.0, 2.0, 0.5]),
)


@pytest.mark.parametrize(
    "data, beta, gamma, name",
    [
        # the three that raised an unnamed OverflowError from a float's ** ...
        (_OVERFLOWING, 1.0, 0.0, "data"),
        (_OVERFLOWING, 0.0, 1e300, "data"),
        (_SMALL, 1e200, 1.0, "beta"),
        # ... numpy's overflow warning from d * beta ...
        (_OVERFLOWING, 1e200, 1.0, "data"),
        # ... and inf, returned
        (_SMALL, 2.0, 1.7e308, "gamma"),
    ],
    ids=["data-moment", "data-at-zero", "beta", "data-times-beta", "gamma"],
)
def test_an_objective_beyond_the_float_range_is_named(data, beta, gamma, name):
    with pytest.raises(ValueError, match=f"^{name} must give a finite GMM objective at "):
        gmm_objective(data, beta, gamma)


@pytest.mark.parametrize(
    "data, lambda_n, name",
    [
        # returned -inf and inf: (z'd / n) * lambda_n overflows
        (_OVERFLOWING, 1e300, "lambda_n"),
        (_SMALL, 1.7e308, "lambda_n"),
        # numpy's overflow warning from z'd itself
        (Dataset(y=_SMALL.y, d=np.full(4, 1e308), z=np.array([1.0, 1.0, 2.0, 0.5])), 1.0, "data"),
    ],
    ids=["product-negative", "product-positive", "data"],
)
def test_a_multiplier_beyond_the_float_range_is_named(data, lambda_n, name):
    message = f"^{name} must give a finite multiplier gamma_n at lambda_n = "
    with pytest.raises(ValueError, match=message):
        lagrange_correspondence(data, lambda_n)


@pytest.mark.parametrize(
    "stage, field",
    [(first_stage, "sigma_eta_hat"), (reduced_form, "sigma_red_hat")],
    ids=["first-stage", "reduced-form"],
)
def test_a_stage_beyond_the_float_range_is_named(stage, field):
    # the residual's square overflowed: an inf sd, after numpy's warning
    scaled = 1e200 * np.array([1.0, 2.0, -1.0, 3.0])
    data = Dataset(y=scaled, d=scaled, z=_SMALL.z[:, 0])
    with pytest.raises(ValueError, match=f"^data must give a finite {field}, got inf: "):
        stage(data)


def test_the_vector_ratio_marks_degenerate_reps_nan_and_names_the_shift():
    numerator, base = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1.0])
    ratios = shifted_ratio(numerator, base, (0.0, 1.0))
    expected = np.array([[math.nan, 2.0, -3.0], [1.0, 1.0, math.nan]])
    np.testing.assert_array_equal(ratios, expected)
    np.testing.assert_array_equal(shifted_ratio(numerator, base, 1.0), expected[1])
    message = r"^lambda\[1\] must give a finite shifted denominator with z, "
    with pytest.raises(ValueError, match=message):
        shifted_ratio(numerator, np.array([1.0, 1e308, 0.0]), (0.0, 1.7e308), "z", "lambda[{}]")


_DATA = _random_dataset(0)
_PENALTY_ARGUMENTS = {
    "lambda0": lambda v: PenaltySchedule(PenaltyRate.CONSTANT, v),
    "lam-matrix": lambda v: fit_ridge_iv_matrix(_DATA, v),
    "lam-overidentified": lambda v: fit_ridge_iv_overidentified(_DATA, v),
    "gamma-objective": lambda v: gmm_objective(_DATA, 1.0, v),
    "gamma-minimize": lambda v: gmm_minimize(_DATA, v),
    "lambda_n": lambda v: lagrange_correspondence(_DATA, v),
}


@pytest.mark.parametrize("argument", list(_PENALTY_ARGUMENTS))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5])
def test_every_penalty_rejects_non_finite_and_negative_values(argument, value):
    name = argument.split("-")[0]
    with pytest.raises(ValueError, match=f"^{name} must be"):
        _PENALTY_ARGUMENTS[argument](value)


@pytest.mark.parametrize("argument", list(_PENALTY_ARGUMENTS))
@pytest.mark.parametrize("value", [None, "1", True], ids=["None", "str", "bool"])
def test_every_penalty_rejects_non_real_values_by_name(argument, value):
    # None and strings raised math's error, which names no argument; True passed
    name = argument.split("-")[0]
    with pytest.raises(TypeError, match=f"^{name} must be a real number, got "):
        _PENALTY_ARGUMENTS[argument](value)


@pytest.mark.parametrize("argument", list(_PENALTY_ARGUMENTS))
def test_every_penalty_names_an_int_beyond_float_range(argument):
    # math.isfinite raised an OverflowError that named no argument
    name = argument.split("-")[0]
    with pytest.raises(ValueError, match=f"^{name} must be finite, got a value too large"):
        _PENALTY_ARGUMENTS[argument](10**400)


# ---------------------------------------------------------------------------
# the fit path's bits

# A draw of the model and small hand-made samples, among them one whose
# Cov[D,Z] is 0, one whose instrument is constant, and some whose moments
# reach the ends of the float range
_PINNED_DATA = {
    "aer": generate_dataset(aer_calibration(), 150, 7),
    "random": _random_dataset(3),
    "demeaned": _demeaned(_random_dataset(21, n=37)),
    "line": Dataset(y=3.0 * Z123 + 1.0, d=Z123, z=Z123),
    "constant-d": _CONSTANT_D,
    "constant-z": Dataset(y=Z123, d=Z123, z=np.full(3, 2.0)),
    "tiny": Dataset(y=1e-160 * _SMALL.y, d=1e-160 * _SMALL.d, z=1e-150 * _SMALL.z),
    "huge": Dataset(y=1e150 * _SMALL.y, d=1e150 * _SMALL.d, z=1e150 * _SMALL.z[:, 0]),
    "mean-overflow": Dataset(y=1e308 + np.arange(50.0), d=np.sin(np.arange(50.0)),
                             z=np.cos(np.arange(50.0))),
    "square-overflow": Dataset(y=1e200 * np.sin(np.arange(50.0)), d=np.cos(np.arange(50.0)),
                               z=np.cos(np.arange(50.0))),
    "overflowing": _OVERFLOWING,
    "product-overflow": Dataset(y=_SMALL.y, d=2e154 * _SMALL.d, z=1e154 * _SMALL.z[:, 0]),
}
_PINNED_SCHEDULES = [
    PenaltySchedule(PenaltyRate.CONSTANT, 0.0),
    PenaltySchedule(PenaltyRate.CONSTANT, 4.0),
    PenaltySchedule(PenaltyRate.SQRT_N, 0.5),
    PenaltySchedule(PenaltyRate.LINEAR_N, 1.0),
    PenaltySchedule(PenaltyRate.CONSTANT, 1.7e308),
    PenaltySchedule(PenaltyRate.LINEAR_N, 1e307),
]
_PINNED_FITS = {
    "aer": "9fd9a75209fab63e8e5d0f48adc894c13fe920e987e2bb7bda3a7adf1d038319",
    "random": "7834fa31b6f3173db91aa4b3cd533fdd5311bf2cbc3df63c338cef12b344acd0",
    "demeaned": "91ca2f1bebe1062d04ee393bb1e94b30b122662dfc8092bb9056781ae03dbf53",
    "line": "29f1bc11756582cdfa27f832789b2a1f7b25e8f9173256dc7d12cc216ec76a74",
    "constant-d": "29c43b999db2e5379b135b7c6fedd1fe9b6a22f3cd9b37a56de88d1bd63d04f1",
    "constant-z": "82b03ce05ff4decd7733057cb1699fa13c761f582a4ebd7695b6a9ee4655c94e",
    "tiny": "07d0a567c3c0ab8607ec066bba3adbcf7b755be69898430f41344ed680a6d1cc",
    "huge": "a5f59d5efd1f158b01a720ac1cf750d5d27cc8016072c08e5d8f54ea196b4ae8",
    "mean-overflow": "0c7fb4214907c6384796cea4bd6fdcc1257d859fea71ab069cf7972be1cc881f",
    "square-overflow": "cbe6c7226085a36e1d1ee5bf11357c433a84bff7fc42253d07d7b2dd8f8261f5",
    "overflowing": "6f93baf18633a231c6de838feba7450ef4c245b246c382b77320be2e4a73f2ad",
    "product-overflow": "067085e080da7b37ea0e365cd612cdfcdfaa44ad3bfb199904e7cb8409432819",
}


def _outcome(call, *args):
    """The repr of ``call(*args)``, or the type and message of what it raises."""
    try:
        return repr(call(*args))
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _fit_path_outcomes(data):
    outcomes = [_outcome(fit_ridge_iv, data, schedule) for schedule in _PINNED_SCHEDULES]
    outcomes += [_outcome(stage, data) for stage in (first_stage, reduced_form)]
    outcomes += [_outcome(fit_ridge_iv_matrix, data, lam) for lam in (0.0, 4.0, 1.7e308)]
    return "\n".join(outcomes)


@pytest.mark.parametrize("case", list(_PINNED_FITS))
def test_the_fit_path_keeps_its_bits(case):
    outcomes = _fit_path_outcomes(_PINNED_DATA[case])
    assert hashlib.sha256(outcomes.encode()).hexdigest() == _PINNED_FITS[case], outcomes

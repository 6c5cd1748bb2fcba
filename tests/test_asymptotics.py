import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgeiv.asymptotics import (
    _linear_quantiles,
    cauchy_diagnostics,
    delta_method_variance,
    ratio_gradient,
    sigma_fixed,
    sigma_red_sq,
    sigma_stochastic,
    sqrtn_bias,
    staiger_stock_moments,
    v_ridge,
)
from ridgeiv.dgp import DgpParams, aer_calibration
from ridgeiv.montecarlo import _QUANTILES, GridVariable, SweepConfig, run_sweep
from support import _exact_moments


def _params(beta1=1.0, pi1=1.0, sigma_eps=1.0, sigma_eta=1.0, err_cov=0.0, **kw):
    return DgpParams(
        beta0=0.0, beta1=beta1, pi0=0.0, pi1=pi1,
        sigma_eps=sigma_eps, sigma_eta=sigma_eta, err_cov=err_cov, **kw
    )


def _random_params(rng):
    sigma_eps = rng.uniform(0.2, 2.0)
    return _params(
        beta1=rng.uniform(-3.0, 3.0),
        pi1=rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0),
        sigma_eps=sigma_eps,
        sigma_eta=rng.uniform(0.2, 2.0),
        err_cov=rng.uniform(-1.5, 1.5),
    )


# ---------------------------------------------------------------------------
# covariance matrices


def test_sigma_fixed_decoupled_case():
    params = _params(beta1=0.0, sigma_eps=1.5, sigma_eta=0.5)
    assert np.array_equal(sigma_fixed(params), np.array([[2.25, 0.0], [0.0, 0.25]]))


def test_sigma_fixed_hand_values():
    assert np.array_equal(sigma_fixed(_params()), np.array([[2.0, 1.0], [1.0, 1.0]]))


def test_sigma_fixed_uses_composite_first_stage_variance():
    params = _params(err_cov=-0.67)
    s_eta_sq = 1.0 + 0.67**2
    expected_red = s_eta_sq + 1.0 - 2 * 0.67
    sigma = sigma_fixed(params)
    assert sigma[1, 1] == pytest.approx(s_eta_sq)
    assert sigma[0, 0] == pytest.approx(expected_red)
    assert sigma[0, 1] == pytest.approx(s_eta_sq - 0.67)


def test_sigma_stochastic_hand_values():
    assert np.array_equal(
        sigma_stochastic(_params()), np.array([[4.0, 3.0], [3.0, 3.0]])
    )


def test_sigma_stochastic_equals_fixed_at_zero_first_stage():
    params = _params(pi1=0.0)
    assert np.array_equal(sigma_stochastic(params), sigma_fixed(params))


def test_sigma_decomposition():
    rng = np.random.default_rng(12)
    for _ in range(50):
        params = _random_params(rng)
        b = params.beta1
        drift = (
            params.pi1**2
            * (3.0 - 1.0)
            * np.array([[b * b, b], [b, 1.0]])
        )
        diff = sigma_stochastic(params) - sigma_fixed(params)
        assert np.allclose(diff, drift, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("builder", [sigma_fixed, sigma_stochastic])
def test_sigma_symmetric_psd(builder):
    rng = np.random.default_rng(99)
    for _ in range(200):
        sigma = builder(_random_params(rng))
        assert sigma[0, 1] == sigma[1, 0]
        assert np.linalg.eigvalsh(sigma).min() >= -1e-12


# ---------------------------------------------------------------------------
# delta method


def test_ratio_gradient_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = rng.uniform(-5.0, 5.0)
        y = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0)
        g = ratio_gradient(x, y)
        hx = 1e-6 * max(1.0, abs(x))
        hy = 1e-6 * max(1.0, abs(y))
        fd_x = ((x + hx) / y - (x - hx) / y) / (2 * hx)
        fd_y = (x / (y + hy) - x / (y - hy)) / (2 * hy)
        assert g[0] == pytest.approx(fd_x, rel=1e-6)
        assert g[1] == pytest.approx(fd_y, rel=1e-6)
    with pytest.raises(ValueError, match="singular"):
        ratio_gradient(1.0, 0.0)


def test_delta_method_identity_sigma():
    assert delta_method_variance(np.eye(2), beta1=0.0, pi1=1.0) == 1.0


def test_delta_method_rejects_zero_pi1():
    with pytest.raises(ValueError, match="pi1 = 0"):
        delta_method_variance(np.eye(2), beta1=1.0, pi1=0.0)


def test_delta_method_cancellation():
    # both covariance constructions collapse to sigma_eps^2 / pi1^2
    rng = np.random.default_rng(7)
    for _ in range(1000):
        params = _random_params(rng)
        target = v_ridge(params)
        for sigma in (sigma_fixed(params), sigma_stochastic(params)):
            got = delta_method_variance(sigma, params.beta1, params.pi1)
            assert abs(got - target) <= 1e-10 * abs(target)


# ---------------------------------------------------------------------------
# scalar predictions


def test_v_ridge_values():
    assert v_ridge(_params(sigma_eps=1.0, pi1=0.5)) == 4.0
    assert v_ridge(_params(pi1=0.072)) == pytest.approx(192.9, abs=0.01)
    with pytest.raises(ValueError):
        v_ridge(_params(pi1=0.0))


def test_sqrtn_bias_values():
    assert sqrtn_bias(_params(), 0.0) == 0.0
    assert sqrtn_bias(_params(beta1=0.0), 2.0) == 0.0
    assert sqrtn_bias(_params(pi1=0.072), 0.5) == pytest.approx(-6.944, abs=1e-3)
    with pytest.raises(ValueError):
        sqrtn_bias(_params(pi1=0.0), 0.5)


def test_staiger_stock_moments_values():
    params = _params(stock_c=1.0)
    assert staiger_stock_moments(params, 1.0) == (1.0, 2.0)
    null = _params(beta1=0.0, sigma_eps=1.5, stock_c=1.0)
    mean, var = staiger_stock_moments(null, 3.0)
    assert mean == 0.0
    assert var == 1.5**2 / 9.0


def test_staiger_stock_moments_preconditions():
    with pytest.raises(ValueError, match="stock_c"):
        staiger_stock_moments(_params(), 1.0)
    with pytest.raises(ValueError, match="lambda0 > 0"):
        staiger_stock_moments(_params(stock_c=1.0), 0.0)


def test_sigma_red_sq_aer_design():
    assert sigma_red_sq(aer_calibration(beta1=1.0)) == pytest.approx(
        (1 + 0.67**2) + 1.0 - 2 * 0.67
    )


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: sigma_red_sq(_params(beta1=1e200)), "params"),
        (lambda: sigma_red_sq(_params(sigma_eta=1e200)), "params"),
        (lambda: sigma_fixed(_params(beta1=1e200)), "params"),
        (lambda: sigma_stochastic(_params(beta1=1e200)), "params"),
        (lambda: sigma_stochastic(_params(pi1=1e200)), "params"),
        (lambda: ratio_gradient(1.0, 1e-200), "y"),
        (lambda: ratio_gradient(1e300, 1e-10), "x"),
        (lambda: delta_method_variance(np.eye(2), 1.0, 1e-200), "pi1"),
        (lambda: delta_method_variance(np.eye(2), 1e300, 1e-10), "beta1"),
        (lambda: delta_method_variance(1e308 * np.eye(2), 2.0, 1.0), "sigma"),
        (lambda: v_ridge(_params(pi1=1e-200)), "params"),
        (lambda: staiger_stock_moments(_params(stock_c=1.0), 1e-200), "lambda0"),
        (lambda: staiger_stock_moments(_params(beta1=1e10, stock_c=1e300), 1.0), "params"),
        (lambda: sqrtn_bias(DgpParams(0.0, 1e200, 0.0, 1e-200), 1.0), "params"),
        (lambda: sqrtn_bias(_params(beta1=1e200), 1e200), "lambda0"),
        (lambda: staiger_stock_moments(_params(stock_c=1.0), math.inf), "lambda0"),
        (lambda: delta_method_variance(np.eye(2), 1.0, math.inf), "pi1"),
        (lambda: delta_method_variance(np.eye(2), math.nan, 1.0), "beta1"),
        (lambda: ratio_gradient(1.0, math.inf), "y"),
        (lambda: ratio_gradient(math.nan, 1.0), "x"),
        (lambda: sqrtn_bias(_params(), -math.inf), "lambda0"),
    ],
    ids=[
        "sigma_red_sq-beta1", "sigma_red_sq-sigma_eta", "sigma_fixed", "sigma_stochastic-beta1",
        "sigma_stochastic-pi1", "ratio_gradient-y", "ratio_gradient-x", "delta-pi1",
        "delta-beta1", "delta-sigma", "v_ridge", "staiger-lambda0", "staiger-params",
        "sqrtn_bias-params", "sqrtn_bias-lambda0", "staiger-inf", "delta-inf", "delta-nan",
        "ratio_gradient-inf", "ratio_gradient-nan", "sqrtn_bias-inf",
    ],
)
def test_a_closed_form_beyond_the_float_range_is_named(call, name):
    # these raised OverflowError or ZeroDivisionError, returned -inf, or took an
    # argument that is not finite to a finite limit
    wording = "(give a finite|be finite, got (-?inf|nan)$)"
    with pytest.raises(ValueError, match=f"^{name} must {wording}"):
        call()


def test_tiny_arguments_keep_a_finite_closed_form():
    # a square of a tiny argument underflows to 0; these divide by it twice instead
    assert ratio_gradient(1e-300, 1e-200).tolist() == [1e200, -1e100]
    assert v_ridge(_params(sigma_eps=1e-100, pi1=1e-200)) == pytest.approx(1e200)
    assert delta_method_variance(np.eye(2), 0.0, 1e-100) == pytest.approx(1e200)


# ---------------------------------------------------------------------------
# heavy-tail diagnostics


def test_cauchy_diagnostics_normal_sample():
    rng = np.random.default_rng(7)
    diag = cauchy_diagnostics(rng.standard_normal(10_000))
    assert not diag.tail_index_flag
    assert diag.median == pytest.approx(0.0, abs=0.05)
    assert diag.iqr == pytest.approx(1.349, abs=0.1)


def test_cauchy_diagnostics_normal_ratio_sample():
    # a ratio of independent centered normals is exactly Cauchy
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(10_000) / rng.standard_normal(10_000)
    assert cauchy_diagnostics(samples).tail_index_flag


def test_cauchy_diagnostics_constant_sample():
    diag = cauchy_diagnostics(np.full(600, 3.25))
    assert diag == (3.25, 0.0, False)


def test_cauchy_diagnostics_nonfinite_flags():
    samples = np.ones(600)
    samples[17] = np.inf
    assert cauchy_diagnostics(samples).tail_index_flag


@pytest.mark.parametrize(
    "samples",
    [
        np.r_[np.full(300, -np.inf), np.full(300, np.inf)],
        np.r_[np.zeros(300), np.full(300, np.inf)],
        np.r_[np.ones(599), np.nan],
    ],
    ids=["opposite-infinities", "zeros-and-infinities", "one-nan"],
)
def test_a_non_finite_sample_has_a_nan_median_and_iqr(samples):
    # numpy warned on the infinite halves (inf - inf in the median or a
    # quartile), and the median or IQR came back inf
    median, iqr, flag = cauchy_diagnostics(samples)
    assert math.isnan(median) and math.isnan(iqr) and flag


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e81, 1e200])
def test_cauchy_diagnostics_flag_does_not_depend_on_scale(scale):
    # the kurtosis' powers warned and overflowed, or vanished to 0 / 0
    rng = np.random.default_rng(9)
    assert not cauchy_diagnostics(scale * rng.standard_normal(1000)).tail_index_flag
    assert cauchy_diagnostics(scale * np.r_[np.zeros(499), 1.0]).tail_index_flag


# finite samples at the float range's edge, each with a median and an IQR
# the float range holds
_EDGE_SAMPLES = {
    "constant": np.full(600, 1e308),
    "middle-pair": np.r_[np.full(300, 1e308), np.full(300, 1.7e308)],
    "quartile-across-zero": np.r_[np.full(150, -1.7e308), np.full(450, 1.7e308)],
}


@pytest.mark.parametrize("samples", list(_EDGE_SAMPLES.values()), ids=list(_EDGE_SAMPLES))
def test_cauchy_diagnostics_median_and_iqr_finite_at_the_float_range(samples):
    # the middle pair's sum and the quartiles' difference warned and
    # overflowed to an inf median or IQR (or a nan quartile)
    quarter = samples / 4  # exact, and far from overflow
    q25, q75 = np.percentile(quarter, [25.0, 75.0])
    diag = cauchy_diagnostics(samples)
    assert diag.median == 4 * np.quantile(quarter, 0.5)
    assert diag.iqr == 4 * (q75 - q25)


@pytest.mark.parametrize("scale", [1e-300, 3.7, 1e300])
def test_cauchy_diagnostics_keeps_the_unscaled_bits_at_ordinary_scales(scale):
    samples = scale * np.random.default_rng(10).standard_cauchy(1001)
    q25, q75 = np.percentile(samples, [25.0, 75.0])
    diag = cauchy_diagnostics(samples)
    assert (diag.median, diag.iqr) == (np.quantile(samples, 0.5), q75 - q25)


_UNCHANGED_SAMPLES = {
    "ordinary": np.r_[np.random.default_rng(11).standard_cauchy(600), 0.0, -0.0],
    **_EDGE_SAMPLES,
}


@pytest.mark.parametrize(
    "samples", list(_UNCHANGED_SAMPLES.values()), ids=list(_UNCHANGED_SAMPLES)
)
def test_cauchy_diagnostics_leaves_its_samples_unchanged(samples):
    # the quantiles partition a copy; the caller's values keep their order
    # and their bits, sign of zero included
    samples = np.random.default_rng(12).permutation(samples)
    before = samples.copy()
    cauchy_diagnostics(samples)
    assert (samples.view(np.uint64) == before.view(np.uint64)).all()


def test_the_median_is_the_linear_quantile_a_sweep_cell_reports():
    # np.median takes the mean of an even-size sample's middle pair, which
    # differs in the last bit from numpy's "linear" quantile at 0.5 where
    # the pair straddles a power of two; SweepCell.q50 is that quantile
    samples = np.random.default_rng(12).standard_cauchy(500)
    expected = np.quantile(samples, 0.5)
    assert np.median(samples) != expected
    median = np.float64(cauchy_diagnostics(samples).median)
    assert median.view(np.uint64) == expected.view(np.uint64)
    config = SweepConfig(
        base_params=aer_calibration(beta1=0.0),
        grid_variable=GridVariable.PI1,
        grid=(1.0,),
        lambda_values=(0.0,),
        n=30,
        reps=500,
        master_seed=13,
    )
    result = run_sweep(config)
    (cell,), (row,) = result.cells, result.estimates
    assert cell.n_degenerate == 0
    assert np.median(row) != cell.q50
    assert cauchy_diagnostics(row).median == cell.q50


def test_cauchy_diagnostics_names_an_iqr_beyond_the_float_range():
    samples = np.r_[np.full(300, -1e308), np.full(300, 1e308)]
    with pytest.raises(ValueError, match=r"^samples must give a finite iqr, got inf$"):
        cauchy_diagnostics(samples)


def test_cauchy_diagnostics_needs_samples():
    with pytest.raises(ValueError, match="at least 500"):
        cauchy_diagnostics(np.ones(499))


def test_cauchy_diagnostics_needs_one_dimensional_samples():
    with pytest.raises(ValueError, match="one-dimensional"):
        cauchy_diagnostics(np.ones((600, 2)))


# values that tie, change sign at zero, sit below the normal range, or leave
# the float range in a difference of two of them
_ORDER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.5e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    pool=st.lists(_ORDER_VALUES, min_size=1, max_size=6),
    rows=st.integers(1, 4),
    n=st.one_of(st.integers(1, 8), st.integers(1, 600)),
    seed=st.integers(0, 2**32 - 1),
)
def test_order_statistics_have_numpys_bits(pool, rows, n, seed):
    # np.quantile and np.percentile load numpy.ma; the helper that
    # replaces them must give their bits, sign of zero included, which
    # a sort in place of numpy's partition does not
    values = np.random.default_rng(seed).choice(np.array(pool), size=(rows, n))
    sample = values[0]
    with np.errstate(over="ignore", invalid="ignore"):  # both sides overflow alike
        quantiles = _linear_quantiles(values.copy(), _QUANTILES)
        quartiles = _linear_quantiles(sample.copy(), (0.25, 0.75))
        expected = np.quantile(values, _QUANTILES, axis=-1).T
        expected_quartiles = np.percentile(sample, [25.0, 75.0])
    assert quantiles.shape == expected.shape
    assert (quantiles.view(np.uint64) == expected.view(np.uint64)).all()
    assert (quartiles.view(np.uint64) == expected_quartiles.view(np.uint64)).all()


# ---------------------------------------------------------------------------
# Monte Carlo oracles for the covariance matrices


def _scaled_cov_estimates(params, n, reps, seed, redraw_instruments):
    """np.cov of sqrt(n) (Cov[Y,Z], Cov[D,Z]) over reps of the model.

    The reps come from the exact law of the unit shocks' moments, not from
    the kernel; the model is linear in the shocks, and the intercepts drop
    out of every covariance.
    """
    rng = np.random.default_rng(seed)
    var_z, cov_ez, cov_hz = _exact_moments(n, reps, rng, fixed=not redraw_instruments)
    cov_epsz = params.sigma_eps * cov_ez
    cov_dz = params.pi1 * var_z + params.eps_loading * cov_epsz + params.sigma_eta * cov_hz
    cov_yz = params.beta1 * cov_dz + cov_epsz
    return np.cov(math.sqrt(n) * np.vstack([cov_yz, cov_dz]))


@pytest.mark.parametrize(
    "builder, redraw", [(sigma_fixed, False), (sigma_stochastic, True)]
)
def test_sigma_matches_monte_carlo(builder, redraw):
    params = aer_calibration(beta1=1.0)
    empirical = _scaled_cov_estimates(params, 100_000, 1_000_000, 31, redraw)
    predicted = builder(params)
    assert np.all(np.abs(empirical - predicted) <= 0.02 * np.abs(predicted))

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from ridgeiv.dgp import Dataset, DgpParams, _z_covariances, aer_calibration, generate_dataset
from ridgeiv.estimators import first_stage


def test_generate_is_bit_identical():
    params = aer_calibration(beta1=1.3)
    a = generate_dataset(params, 500, 7)
    b = generate_dataset(params, 500, 7)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.d, b.d)
    assert np.array_equal(a.z, b.z)


def test_different_seeds_differ():
    params = aer_calibration()
    a = generate_dataset(params, 100, 1)
    b = generate_dataset(params, 100, 2)
    assert not np.array_equal(a.y, b.y)


def test_shapes():
    data = generate_dataset(aer_calibration(), 50, 0)
    assert data.n == 50
    assert data.k == 1
    assert data.y.shape == (50,)
    assert data.d.shape == (50,)
    assert data.z.shape == (50, 1)


def test_n_below_three_rejected():
    with pytest.raises(ValueError, match="at least 3"):
        generate_dataset(aer_calibration(), 2, 0)


@pytest.mark.parametrize(
    "n, seed, name",
    [(5.0, 1, "n"), (True, 1, "n"), (5, 2.5, "seed"), (5, False, "seed"), (5, "1", "seed")],
)
def test_generate_dataset_rejects_non_integers_by_name(n, seed, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        generate_dataset(aer_calibration(), n, seed)


@pytest.mark.parametrize(
    "seed, message", [(-1, "seed must be at least 0"), (2**128, "seed must be less than 2\\*\\*128")]
)
def test_generate_dataset_rejects_out_of_range_seeds_by_name(seed, message):
    with pytest.raises(ValueError, match=message):
        generate_dataset(aer_calibration(), 5, seed)


def test_generate_dataset_accepts_numpy_integers_and_the_largest_seed():
    a = generate_dataset(aer_calibration(), np.int64(5), np.uint64(7))
    b = generate_dataset(aer_calibration(), 5, 7)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.z, b.z)
    assert generate_dataset(aer_calibration(), 5, 2**128 - 1).n == 5


@pytest.mark.parametrize(
    "field, value",
    [(field, value) for value in (-0.1, Fraction(-1, 10**400)) for field in ("sigma_eps", "sigma_eta")],
    # the Fraction rounds to -0.0, so only an exact comparison rejects it
    ids=["sigma_eps", "sigma_eta", "sigma_eps-tiny-fraction", "sigma_eta-tiny-fraction"],
)
def test_negative_scale_rejected(field, value):
    kwargs = dict(beta0=0.0, beta1=1.0, pi0=0.0, pi1=0.5)
    kwargs[field] = value
    with pytest.raises(ValueError, match="nonnegative"):
        DgpParams(**kwargs)


@pytest.mark.parametrize(
    "field",
    ["beta0", "beta1", "pi0", "pi1", "sigma_eps", "sigma_eta", "err_cov", "stock_c"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_field_rejected(field, value):
    kwargs = dict(beta0=0.0, beta1=1.0, pi0=0.0, pi1=0.5)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DgpParams(**kwargs)


@pytest.mark.parametrize("field", ["beta1", "err_cov", "stock_c"])
def test_int_beyond_float_range_rejected_by_name(field):
    # math.isfinite raised an unnamed OverflowError
    kwargs = dict(beta0=0.0, beta1=1.0, pi0=0.0, pi1=0.5)
    kwargs[field] = -(10**400)
    with pytest.raises(ValueError, match=f"^{field} must be finite, got a value too large"):
        DgpParams(**kwargs)


_NON_REALS = {"None": None, "str": "1", "bool": True, "list": [1.0]}


@pytest.mark.parametrize(
    "field, kind",
    [
        (f.name, kind)
        for f in dataclasses.fields(DgpParams)
        for kind in _NON_REALS
        if (f.name, kind) != ("stock_c", "None")  # None means a fixed slope
    ],
)
def test_non_real_field_rejected_by_name(field, kind):
    # None constructed and failed later inside a sweep; a string raised an
    # error that named no field; a bool was accepted
    kwargs = dict(beta0=0.0, beta1=1.0, pi0=0.0, pi1=0.5)
    kwargs[field] = _NON_REALS[kind]
    with pytest.raises(TypeError, match=f"^{field} must be a real number, got "):
        DgpParams(**kwargs)


def test_numpy_and_integer_fields_accepted():
    params = DgpParams(np.float64(2.83), 1, np.int64(0), np.float32(0.5), stock_c=2)
    assert params.effective_pi1(4) == 1.0


def test_err_cov_requires_structural_noise():
    with pytest.raises(ValueError, match="err_cov"):
        DgpParams(beta0=0.0, beta1=1.0, pi0=0.0, pi1=0.5, sigma_eps=0.0, err_cov=0.2)


@pytest.mark.parametrize(
    "sigma_eps, err_cov",
    [(1e-200, 0.5), (1e-10, 1e300), (1e200, 0.0)],
    ids=["square-underflows", "loading-overflows", "square-overflows"],
)
def test_eps_loading_must_be_finite(sigma_eps, err_cov):
    # err_cov / sigma_eps**2 divided by zero, gave inf, or overflowed in the
    # square, each only when a dataset or a sweep first read it
    with pytest.raises(ValueError, match="^sigma_eps must give a finite eps_loading"):
        DgpParams(beta0=0.0, beta1=1.0, pi0=0.0, pi1=0.5, sigma_eps=sigma_eps, err_cov=err_cov)


def test_zero_noise_is_exact():
    params = DgpParams(
        beta0=2.83, beta1=1.0, pi0=-0.346, pi1=0.072,
        sigma_eps=0.0, sigma_eta=0.0, err_cov=0.0,
    )
    data = generate_dataset(params, 200, 3)
    z = data.z[:, 0]
    assert np.array_equal(data.d, params.pi0 + params.pi1 * z + 0.0)
    assert np.array_equal(data.y, params.beta0 + params.beta1 * data.d + 0.0)


def test_eps_loading_and_total_variance():
    params = DgpParams(
        beta0=0.0, beta1=1.0, pi0=0.0, pi1=0.5,
        sigma_eps=2.0, sigma_eta=1.0, err_cov=-0.8,
    )
    assert params.eps_loading == -0.8 / 4.0
    assert params.first_stage_error_var == pytest.approx(1.0 + 0.8**2 / 4.0)


def test_effective_pi1():
    fixed = DgpParams(beta0=0.0, beta1=1.0, pi0=0.0, pi1=0.3)
    assert fixed.effective_pi1(10_000) == 0.3
    drifting = DgpParams(beta0=0.0, beta1=1.0, pi0=0.0, pi1=0.3, stock_c=2.0)
    assert drifting.effective_pi1(400) == 2.0 / math.sqrt(400)


@pytest.mark.parametrize("params", [aer_calibration(), aer_calibration(stock_c=1.0)],
                         ids=["fixed", "drifting"])
def test_the_covariances_load_each_unit_moment_as_the_model_does(params):
    # one unit moment at a time (Var z, Cov[e,z], Cov[h,z]) reads off each
    # loading: D loads z by the slope at n, e by eps_loading * sigma_eps and
    # h by sigma_eta; Y loads D by beta1 and e once more by sigma_eps
    cov_yz, cov_dz = _z_covariances(params, 150, np.eye(3), "params")
    loadings = (params.effective_pi1(150), params.eps_loading * params.sigma_eps, params.sigma_eta)
    assert cov_dz.tolist() == list(loadings)
    beta1, (slope, eps, eta) = params.beta1, loadings
    assert cov_yz.tolist() == [beta1 * slope, beta1 * eps + params.sigma_eps, beta1 * eta]


def test_aer_calibration_values():
    params = aer_calibration(beta1=3.475)
    assert (params.beta0, params.pi0, params.pi1) == (2.83, -0.346, 0.072)
    assert params.err_cov == -0.67
    assert params.eps_loading == -0.67
    assert params.stock_c is None
    assert params.beta1 == 3.475


def test_dataset_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        Dataset(y=np.zeros(4), d=np.zeros(5), z=np.zeros((4, 1)))
    with pytest.raises(ValueError, match="at least 3"):
        Dataset(y=np.zeros(2), d=np.zeros(2), z=np.zeros((2, 1)))
    # 1-d instruments are accepted as a single column
    data = Dataset(y=[1.0, 2.0, 3.0], d=[1.0, 2.0, 3.0], z=[1.0, 2.0, 3.0])
    assert data.z.shape == (3, 1)


@pytest.mark.parametrize(
    "arrays, message",
    [
        (dict(y=np.zeros((3, 1)), d=np.zeros(3), z=np.zeros(3)), "y and d must be one-dimensional"),
        (dict(y=np.zeros(3), d=np.zeros((3, 2)), z=np.zeros(3)), "y and d must be one-dimensional"),
        (dict(y=np.zeros(3), d=np.zeros(3), z=np.zeros((3, 1, 1))), r"z must be an \(n, k\) matrix"),
        (dict(y=np.zeros(3), d=np.zeros(3), z=np.zeros((3, 0))), "need at least one instrument"),
    ],
    ids=["2-D y", "2-D d", "3-D z", "no instrument"],
)
def test_dataset_rejects_wrong_shapes(arrays, message):
    with pytest.raises(ValueError, match=message):
        Dataset(**arrays)


def test_generate_dataset_names_params_whose_data_overflow():
    # y = beta0 + d + eps overflows; Dataset saw only a non-finite y, after
    # numpy's overflow warning
    params = DgpParams(beta0=1e308, beta1=1.0, pi0=1e308, pi1=1e200)
    with pytest.raises(ValueError, match="^params must give finite data at n = 50"):
        generate_dataset(params, 50, 0)


@pytest.mark.parametrize("field", ["y", "d", "z"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dataset_non_finite_entry_rejected(field, value):
    arrays = {name: [1.0, 2.0, 3.0] for name in ("y", "d", "z")}
    arrays[field] = [1.0, value, 2.0]
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Dataset(**arrays)


def _recovered_errors(data, params):
    eps = data.y - params.beta0 - params.beta1 * data.d
    u = data.d - params.pi0 - params.pi1 * data.z[:, 0]
    return eps, u


def test_error_covariance_matches_parameter(big_endogenous_dataset, endogenous_params):
    # cov of the composite first-stage error with eps is err_cov by construction
    eps, u = _recovered_errors(big_endogenous_dataset, endogenous_params)
    products = (u - u.mean()) * (eps - eps.mean())
    se = products.std() / math.sqrt(products.size)
    assert abs(products.mean() - endogenous_params.err_cov) < 3 * se


def test_instrument_exogeneity(big_endogenous_dataset, endogenous_params):
    eps, u = _recovered_errors(big_endogenous_dataset, endogenous_params)
    z = big_endogenous_dataset.z[:, 0]
    bound = 4.0 / math.sqrt(big_endogenous_dataset.n)
    assert abs(np.corrcoef(z, eps)[0, 1]) < bound
    assert abs(np.corrcoef(z, u)[0, 1]) < bound


def test_regressor_endogeneity(big_endogenous_dataset, endogenous_params):
    eps, _ = _recovered_errors(big_endogenous_dataset, endogenous_params)
    d = big_endogenous_dataset.d
    products = (d - d.mean()) * (eps - eps.mean())
    se = products.std() / math.sqrt(products.size)
    assert abs(products.mean() - endogenous_params.err_cov) < 4 * se


def test_staiger_stock_scaling():
    # with a drifting first stage, sqrt(n) * pi1_hat concentrates on c
    c = 1.5
    params = DgpParams(
        beta0=0.0, beta1=1.0, pi0=0.0, pi1=0.0,
        sigma_eps=1.0, sigma_eta=1.0, err_cov=0.3, stock_c=c,
    )
    n, reps = 400, 400
    scaled = np.array(
        [
            math.sqrt(n) * first_stage(generate_dataset(params, n, seed))[1]
            for seed in range(reps)
        ]
    )
    se = scaled.std(ddof=1) / math.sqrt(reps)
    assert abs(scaled.mean() - c) < 4 * se

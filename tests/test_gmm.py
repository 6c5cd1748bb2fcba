import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgeiv.dgp import Dataset, DgpParams, aer_calibration, generate_dataset
from ridgeiv.estimators import (
    DegenerateDenominatorError,
    gmm_minimize,
    gmm_objective,
    lagrange_correspondence,
)

HAND_DATA = Dataset(
    y=np.array([2.0, 4.0, 6.0]),
    d=np.array([1.0, 2.0, 3.0]),
    z=np.array([1.0, 2.0, 3.0]),
)  # sum(ZY) = 28, sum(ZD) = 14


def _grid_argmin(data, gamma, lo=-10.0, hi=10.0, step=1e-4):
    """Brute-force minimizer of the penalized moment objective."""
    z = data.z[:, 0]
    szy = float(z @ data.y)
    szd = float(z @ data.d)
    betas = np.arange(lo, hi + step, step)
    values = (szy - szd * betas) ** 2 + gamma * betas**2
    return float(betas[np.argmin(values)])


def _random_dataset(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 51))
    z = rng.normal(size=n)
    d = z + 0.3 * rng.normal(size=n)
    y = rng.uniform(-2.0, 2.0) * d + 0.5 * rng.normal(size=n)
    return Dataset(y=y, d=d, z=z)


def test_objective_hand_example():
    assert gmm_objective(HAND_DATA, beta=1.0, gamma=2.0) == 198.0


def test_objective_at_beta_zero_is_squared_moment():
    assert gmm_objective(HAND_DATA, beta=0.0, gamma=5.0) == 28.0**2


def test_objective_zero_at_exact_fit():
    params = DgpParams(
        beta0=0.0, beta1=2.0, pi0=0.25, pi1=0.5,
        sigma_eps=0.0, sigma_eta=0.0, err_cov=0.0,
    )
    data = generate_dataset(params, 60, 9)
    assert gmm_objective(data, beta=2.0, gamma=0.0) == 0.0


def test_objective_rejects_negative_gamma():
    with pytest.raises(ValueError, match="nonnegative"):
        gmm_objective(HAND_DATA, beta=1.0, gamma=-1.0)


@pytest.mark.parametrize(
    "beta, error",
    [(math.nan, ValueError), (math.inf, ValueError), (None, TypeError), ("1", TypeError)],
)
def test_objective_checks_beta_by_name(beta, error):
    # nan returned nan, and None failed inside the arithmetic
    with pytest.raises(error, match="^beta must be"):
        gmm_objective(HAND_DATA, beta=beta, gamma=1.0)


def test_minimize_hand_example():
    assert gmm_minimize(HAND_DATA, gamma=4.0) == 1.96


def test_minimize_unpenalized_is_uncentered_ratio():
    assert gmm_minimize(HAND_DATA, gamma=0.0) == 2.0  # 28 / 14


def test_minimize_degenerate():
    # orthogonal instrument and regressor with no penalty
    data = Dataset(
        y=np.array([1.0, 2.0, 3.0]),
        d=np.array([1.0, 1.0, 1.0]),
        z=np.array([1.0, -1.0, 0.0]),
    )
    with pytest.raises(DegenerateDenominatorError):
        gmm_minimize(data, gamma=0.0)
    assert gmm_minimize(data, gamma=2.0) == 0.0


def test_lagrange_correspondence_values():
    assert lagrange_correspondence(HAND_DATA, 0.0) == 0.0
    assert lagrange_correspondence(HAND_DATA, 3.0) == pytest.approx(14.0, rel=1e-14)


@pytest.mark.parametrize(
    "data",
    [
        # sum(Z*D) = -38.38 on a draw with a negative first stage: at lambda_n =
        # 600 the multiplier would be -153.54, which gmm_minimize rejects
        generate_dataset(dataclasses.replace(aer_calibration(), pi1=-0.5), 150, 3),
        # sum(Z*D) = 0: the multiplier would be 0, whose minimiser is degenerate
        Dataset(y=np.array([1.0, 2.0, 3.0]), d=np.array([1.0, 1.0, 5.0]), z=np.array([1.0, -1.0, 0.0])),
    ],
    ids=["negative", "zero"],
)
def test_the_lagrange_map_gives_no_multiplier_gmm_minimize_rejects(data):
    with pytest.raises(ValueError, match=r"^data must have a positive sum\(Z\*D\) for lambda_n > 0"):
        lagrange_correspondence(data, 600.0)
    assert lagrange_correspondence(data, 0.0) == 0.0


def test_correspondence_round_trip():
    for seed in range(10):
        data = _random_dataset(seed)
        z = data.z[:, 0]
        szy, szd = float(z @ data.y), float(z @ data.d)
        for lambda_n in (0.0, 0.5, 2.0):
            gamma_n = lagrange_correspondence(data, lambda_n)
            minimizer = gmm_minimize(data, gamma_n)
            expected = szy / (szd + lambda_n / data.n)
            assert minimizer == pytest.approx(expected, rel=1e-10)
            assert minimizer == pytest.approx(
                _grid_argmin(data, gamma_n), abs=1e-3
            )


@pytest.mark.parametrize("gamma", [0.0, 0.1, 1.0, 10.0])
def test_minimizer_matches_grid_search(gamma):
    for seed in range(12):
        data = _random_dataset(seed)
        assert gmm_minimize(data, gamma) == pytest.approx(
            _grid_argmin(data, gamma), abs=1e-3
        )


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_monotone_shrinkage(seed):
    data = _random_dataset(seed)
    gammas = [0.0, 0.1, 1.0, 10.0, 100.0, 1e4]
    path = [abs(gmm_minimize(data, g)) for g in gammas]
    assert all(b <= a for a, b in zip(path, path[1:]))
    assert path[-1] < path[0] or path[0] == 0.0


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_objective_convexity(seed, beta, step):
    data = _random_dataset(seed)
    gamma = 0.5
    lo = gmm_objective(data, beta - step, gamma)
    mid = gmm_objective(data, beta, gamma)
    hi = gmm_objective(data, beta + step, gamma)
    second_difference = lo + hi - 2.0 * mid
    assert second_difference >= -1e-8 * max(1.0, abs(mid))

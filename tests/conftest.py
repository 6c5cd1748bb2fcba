import os

import pytest

import ridgeiv._fork as _fork
from ridgeiv.dgp import DgpParams, aer_calibration, generate_dataset


@pytest.fixture(scope="session")
def endogenous_params():
    """A strongly endogenous design with a comfortable first stage."""
    return DgpParams(
        beta0=0.5, beta1=2.0, pi0=0.1, pi1=0.5,
        sigma_eps=1.0, sigma_eta=1.0, err_cov=0.3,
    )


@pytest.fixture(scope="session")
def big_endogenous_dataset(endogenous_params):
    """One million draws, shared by the large-sample moment checks."""
    return generate_dataset(endogenous_params, 1_000_000, 20_260_810)


@pytest.fixture(scope="session")
def big_aer_dataset():
    """AER-calibrated design at n = 10^6 with unit effect."""
    return generate_dataset(aer_calibration(beta1=1.0), 1_000_000, 4242)


@pytest.fixture
def two_workers(monkeypatch):
    """Fork two draw workers for any work, whatever the host's CPUs."""
    monkeypatch.setattr(_fork, "_POOL_MIN_SAMPLES", 0)
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)


def assert_no_child_left():
    """No child process of any kind is left, reaped or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

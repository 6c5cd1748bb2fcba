"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured margin and runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np

from ridgeiv.asymptotics import (
    cauchy_diagnostics,
    delta_method_variance,
    sigma_fixed,
    sigma_stochastic,
    sqrtn_bias,
    staiger_stock_moments,
    v_ridge,
)
from ridgeiv.cli import default_beta_sweep, default_pi_sweep, run_cli
from ridgeiv.dgp import Dataset, aer_calibration
from ridgeiv.estimators import (
    PenaltyRate,
    PenaltySchedule,
    fit_2sls,
    fit_ridge_iv,
    fit_ridge_iv_matrix,
    fit_ridge_iv_overidentified,
    gmm_minimize,
    lagrange_correspondence,
)
import ridgeiv._fork as _fork
import ridgeiv.montecarlo as montecarlo
from ridgeiv.montecarlo import collect_sampling_distribution, run_sweep

SEED = 20260810
REPS = 2000
N_LARGE = 10_000


class _Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.criterion} exceeded its {self.seconds:.0f}s budget "
                f"({self.elapsed:.1f}s)"
            )

    def report(self, passed, detail):
        status = "PASS" if passed else "FAIL"
        print(
            f"[acceptance] {self.criterion}: {status} ({detail}; "
            f"{time.perf_counter() - self.start:.1f}s)"
        )
        assert passed, f"{self.criterion}: {detail}"


def _random_dataset(rng):
    n = int(rng.integers(20, 200))
    return Dataset(
        y=rng.normal(scale=rng.uniform(0.5, 2.0), size=n),
        d=rng.normal(scale=rng.uniform(0.5, 2.0), size=n),
        z=rng.normal(size=n),
    )


def _demeaned(data):
    return Dataset(
        y=data.y - data.y.mean(),
        d=data.d - data.d.mean(),
        z=data.z - data.z.mean(axis=0),
    )


def test_criterion_1_lambda_zero_identity_suite():
    """Ridge IV at lambda = 0 is 2SLS bit for bit; all forms agree."""
    with _Budget("criterion 1 (lambda-zero identity)", 10.0) as budget:
        rng = np.random.default_rng(SEED)
        zero = PenaltySchedule(PenaltyRate.CONSTANT, 0.0)
        worst = 0.0
        for _ in range(500):
            data = _random_dataset(rng)
            two_sls = fit_2sls(data)
            assert fit_ridge_iv(data, zero) == two_sls  # bitwise field equality

            demeaned = _demeaned(data)
            reference = fit_2sls(demeaned).beta1_hat
            matrix = fit_ridge_iv_matrix(demeaned, 0.0)[0]
            over = fit_ridge_iv_overidentified(demeaned, 0.0)[0]
            for other in (matrix, over):
                worst = max(worst, abs(other - reference) / abs(reference))

            # penalized cross-form agreement: the ratio form's lambda_n/n
            # shift equals a raw shift of lambda_n in the matrix form
            lambda_n = 0.7
            ratio = fit_ridge_iv(
                demeaned, PenaltySchedule(PenaltyRate.CONSTANT, lambda_n)
            ).beta1_hat
            matrix_pen = fit_ridge_iv_matrix(demeaned, lambda_n)[0]
            worst = max(worst, abs(matrix_pen - ratio) / abs(ratio))
        budget.report(worst <= 1e-10, f"max relative form gap {worst:.2e} <= 1e-10")


def test_criterion_2_gmm_oracle_equivalence():
    """Closed-form minimizer matches grid search; multiplier map round-trips."""
    with _Budget("criterion 2 (penalized-moment oracle)", 60.0) as budget:
        rng = np.random.default_rng(SEED + 1)
        betas = np.arange(-10.0, 10.0 + 1e-4, 1e-4)
        worst_grid = 0.0
        worst_round = 0.0
        for _ in range(200):
            n = int(rng.integers(5, 51))
            z = rng.normal(size=n)
            d = z + 0.3 * rng.normal(size=n)
            y = rng.uniform(-2.0, 2.0) * d + 0.5 * rng.normal(size=n)
            data = Dataset(y=y, d=d, z=z)
            szy = float(z @ y)
            szd = float(z @ d)
            for gamma in (0.0, 0.1, 1.0, 10.0):
                closed = gmm_minimize(data, gamma)
                values = (szy - szd * betas) ** 2 + gamma * betas**2
                worst_grid = max(
                    worst_grid, abs(closed - float(betas[np.argmin(values)]))
                )
            for lambda_n in (0.5, 2.0):
                gamma_n = lagrange_correspondence(data, lambda_n)
                minimizer = gmm_minimize(data, gamma_n)
                expected = szy / (szd + lambda_n / n)
                worst_round = max(
                    worst_round, abs(minimizer - expected) / abs(expected)
                )
                values = (szy - szd * betas) ** 2 + gamma_n * betas**2
                worst_grid = max(
                    worst_grid, abs(minimizer - float(betas[np.argmin(values)]))
                )
        passed = worst_grid <= 1e-3 and worst_round <= 1e-10
        budget.report(
            passed,
            f"max grid-search gap {worst_grid:.2e} <= 1e-3, "
            f"max round-trip gap {worst_round:.2e} <= 1e-10",
        )


def test_criterion_3_strong_instrument_variance():
    """Sample variance of sqrt(n)(b - beta1) matches sigma_eps^2/pi1^2."""
    with _Budget("criterion 3 (limit variance, strong instrument)", 120.0) as budget:
        params = dataclasses.replace(aer_calibration(beta1=1.0), pi1=1.0)
        samples = collect_sampling_distribution(
            params, PenaltySchedule(PenaltyRate.CONSTANT, 0.0), N_LARGE, REPS, SEED
        )
        predicted = v_ridge(params)
        empirical = float(np.var(samples))
        deviation = abs(empirical - predicted) / predicted

        rng = np.random.default_rng(SEED + 2)
        worst_identity = 0.0
        draws = [params] + [
            dataclasses.replace(
                params,
                beta1=rng.uniform(-3, 3),
                pi1=rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0),
                sigma_eps=rng.uniform(0.2, 2.0),
                sigma_eta=rng.uniform(0.2, 2.0),
                err_cov=rng.uniform(-1.5, 1.5),
            )
            for _ in range(200)
        ]
        for p in draws:
            target = v_ridge(p)
            for sigma in (sigma_fixed(p), sigma_stochastic(p)):
                gap = abs(delta_method_variance(sigma, p.beta1, p.pi1) - target)
                worst_identity = max(worst_identity, gap / abs(target))
        passed = deviation <= 0.10 and worst_identity <= 1e-10
        budget.report(
            passed,
            f"variance {empirical:.4f} vs {predicted:.4f} "
            f"({100 * deviation:.2f}% <= 10%), delta-method gap "
            f"{worst_identity:.2e} <= 1e-10",
        )


def test_criterion_4_sqrt_rate_bias():
    """Mean of sqrt(n)(b - beta1) matches -beta1*lambda0/pi1 under sqrt-rate penalty."""
    with _Budget("criterion 4 (sqrt-rate bias)", 120.0) as budget:
        params = dataclasses.replace(aer_calibration(beta1=1.0), pi1=1.0)
        lambda0 = 0.5
        samples = collect_sampling_distribution(
            params, PenaltySchedule(PenaltyRate.SQRT_N, lambda0), N_LARGE, REPS, SEED
        )
        predicted = sqrtn_bias(params, lambda0)
        empirical = float(np.mean(samples))
        std_err = float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
        deviation = abs(empirical - predicted) / std_err
        budget.report(
            deviation <= 3.0,
            f"mean {empirical:.4f} vs {predicted:.4f} "
            f"({deviation:.2f} MC standard errors <= 3)",
        )


def test_criterion_5_weak_instrument_regimes():
    """Unpenalized ratio heavy-tailed; linear-rate penalty restores normal limits."""
    with _Budget("criterion 5 (drifting first stage)", 120.0) as budget:
        params = dataclasses.replace(aer_calibration(beta1=1.0, stock_c=1.0), pi1=0.0)
        raw = collect_sampling_distribution(
            params, PenaltySchedule(PenaltyRate.CONSTANT, 0.0), N_LARGE, REPS, SEED
        )
        heavy = cauchy_diagnostics(raw).tail_index_flag

        lambda0 = 1.0
        ridge = collect_sampling_distribution(
            params, PenaltySchedule(PenaltyRate.LINEAR_N, lambda0), N_LARGE, REPS, SEED
        )
        mean_pred, var_pred = staiger_stock_moments(params, lambda0)
        mean_dev = abs(float(np.mean(ridge)) - mean_pred) / abs(mean_pred)
        var_dev = abs(float(np.var(ridge)) - var_pred) / var_pred
        tame = not cauchy_diagnostics(ridge).tail_index_flag
        passed = heavy and tame and mean_dev <= 0.10 and var_dev <= 0.10
        budget.report(
            passed,
            f"2SLS heavy-tail flag {heavy}, penalized flag {not tame} (want False), "
            f"mean dev {100 * mean_dev:.2f}% <= 10%, "
            f"variance dev {100 * var_dev:.2f}% <= 10%",
        )


def test_criterion_6_first_stage_sweep_shape():
    """Weak end: penalty cuts MSE by >= 100x; strong end: heavier penalty costs more."""
    with _Budget("criterion 6 (first-stage sweep)", 300.0) as budget:
        result = run_sweep(default_pi_sweep(reps=REPS, master_seed=SEED))
        _, mse_0 = result.mse_curve(0.0)
        _, mse_4 = result.mse_curve(4.0)
        _, mse_10 = result.mse_curve(10.0)
        ratio = mse_0[1] / mse_4[1]  # smallest nonzero grid point
        bias_dominance = all(mse_10[i] > mse_4[i] for i in (-3, -2, -1))
        passed = ratio >= 100.0 and bias_dominance
        budget.report(
            passed,
            f"weak-end MSE ratio {ratio:.0f} >= 100, "
            f"lambda=10 above lambda=4 at top grid points: {bias_dominance}",
        )


def test_criterion_7_effect_size_sweep_shape():
    """Moderate penalty at least halves MSE at small effects; aggressive penalty costs at large effects."""
    with _Budget("criterion 7 (effect-size sweep)", 300.0) as budget:
        result = run_sweep(default_beta_sweep(reps=REPS, master_seed=SEED))
        _, mse_0 = result.mse_curve(0.0)
        _, mse_08 = result.mse_curve(0.8)
        _, mse_30 = result.mse_curve(3.0)
        small_ratios = [mse_08[i] / mse_0[i] for i in range(4)]
        aggressive_cost = all(mse_30[i] > mse_08[i] for i in (-2, -1))
        passed = max(small_ratios) <= 0.6 and aggressive_cost
        budget.report(
            passed,
            f"max small-effect MSE ratio {max(small_ratios):.2e} <= 0.6, "
            f"lambda=3.0 above lambda=0.8 near the top: {aggressive_cost}",
        )


def test_criterion_8_determinism_across_workers(tmp_path, monkeypatch):
    """Same config and seed give byte-identical CSV at 1 and at 8 workers."""
    with _Budget("criterion 8 (determinism)", 60.0) as budget:
        config = {
            "grid": {"start": 0.0, "stop": 1.0, "points": 6},
            "lambdas": [0.0, 4.0],
            "n": 60,
            "reps": 80,
            "seed": 123,
            "emit_raw": True,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        # the sweep is below the fork floor: lower it, and log who draws
        log = tmp_path / "pids"
        shock_moments = montecarlo._shock_moments

        def logged(*task):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return shock_moments(*task)

        monkeypatch.setattr(montecarlo, "_shock_moments", logged)
        monkeypatch.setattr(_fork, "_POOL_MIN_SAMPLES", 0)
        outputs, pids = {}, {}
        for workers in (1, 8):
            monkeypatch.setattr(_fork, "_usable_cpus", lambda cpus=workers: cpus)
            log.write_text("")
            out = tmp_path / f"w{workers}"
            code = run_cli(
                ["sweep-pi", "--config", str(config_path), "--out", str(out)]
            )
            assert code == 0
            outputs[workers] = (
                (out / "mse_sweep.csv").read_bytes(),
                (out / "raw_estimates.csv").read_bytes(),
            )
            pids[workers] = set(map(int, log.read_text().split()))
        assert pids[1] == {os.getpid()}
        # the second run drew in forked processes, not in this one
        assert pids[8] and os.getpid() not in pids[8]
        identical = outputs[1] == outputs[8]
        budget.report(
            identical, "mse_sweep.csv and raw_estimates.csv byte-identical"
        )

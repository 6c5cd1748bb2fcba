import csv
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from ridgeiv.asymptotics import MIN_TAIL_SAMPLES, cauchy_diagnostics
from ridgeiv.dgp import DgpParams, aer_calibration, generate_dataset
from ridgeiv.estimators import (
    DegenerateDenominatorError,
    PenaltyRate,
    PenaltySchedule,
    demeaned_cov,
    fit_ridge_iv,
    shifted_ratio,
)
import ridgeiv.montecarlo as montecarlo
from ridgeiv.cli import write_raw_csv
from ridgeiv.montecarlo import (
    _BLOCK_REPS,
    GridVariable,
    SweepConfig,
    _block_reps,
    _derive_seeds,
    _ratios,
    _shock_moments,
    _UnitShocks,
    collect_sampling_distribution,
    derive_seed,
    run_sweep,
    verify_regimes,
)


def _small_config(**overrides):
    defaults = dict(
        base_params=aer_calibration(beta1=1.0),
        grid_variable=GridVariable.PI1,
        grid=(0.05, 0.3, 0.6, 1.0),
        lambda_values=(0.0, 1.0),
        n=30,
        reps=40,
        master_seed=101,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError, match="non-empty"):
        _small_config(grid=())
    with pytest.raises(ValueError, match="strictly increasing"):
        _small_config(grid=(0.1, 0.1, 0.2))
    with pytest.raises(ValueError, match="nonnegative"):
        _small_config(lambda_values=(-0.1,))
    with pytest.raises(ValueError, match="reps"):
        _small_config(reps=0)
    with pytest.raises(ValueError, match="non-empty"):
        _small_config(lambda_values=())
    with pytest.raises(ValueError, match="distinct"):
        _small_config(lambda_values=(4.0, 1.0, 4.0))
    with pytest.raises(ValueError, match="stock_c"):
        _small_config(base_params=aer_calibration(beta1=1.0, stock_c=1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_grid_and_lambdas_rejected(bad):
    # NaN fails every comparison, so the ordering checks alone let it through
    with pytest.raises(ValueError, match=r"^grid\[1\] must be finite"):
        _small_config(grid=(0.1, bad, 0.3))
    with pytest.raises(ValueError, match=r"^lambda_values\[1\] must be finite"):
        _small_config(lambda_values=(0.0, bad))


@pytest.mark.parametrize("field", ["grid", "lambda_values"])
@pytest.mark.parametrize("bad", ["0.1", True, None])
def test_non_real_grid_and_lambda_entries_rejected_by_name(field, bad):
    # float() accepted "0.1" and True, and None failed with an unnamed error
    values = {"grid": (bad, 0.5), "lambda_values": (bad, 1.0)}[field]
    with pytest.raises(TypeError, match=rf"^{field}\[0\] must be a real number"):
        _small_config(**{field: values})


def test_numpy_grid_entries_accepted_as_floats():
    config = _small_config(
        grid=tuple(np.linspace(0.0, 1.0, 3)), lambda_values=(np.int64(2),)
    )
    assert config.grid == (0.0, 0.5, 1.0) and config.lambda_values == (2.0,)
    assert all(type(value) is float for value in config.grid + config.lambda_values)


def test_params_at_replaces_the_right_field():
    config = _small_config()
    assert config.params_at(0.9).pi1 == 0.9
    assert config.params_at(0.9).beta1 == 1.0
    beta_config = _small_config(grid_variable=GridVariable.BETA1)
    assert beta_config.params_at(2.5).beta1 == 2.5
    assert beta_config.params_at(2.5).pi1 == aer_calibration().pi1


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(7, 0, 1) == derive_seed(7, 0, 1)
    seeds = {derive_seed(7, g, r) for g in range(4) for r in range(50)}
    assert len(seeds) == 200
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seed(7, 3) != derive_seed(8, 3)


# ---------------------------------------------------------------------------
# the block sweep kernel against the per-dataset path


# whole blocks and partial ones; a pool worker's range starts past 0
_REP_RANGES = ((0, 0), (0, 1), (0, 2 * _BLOCK_REPS + 5), (7, 7), (64, 131), (499, 500))


# The 32-bit words of the master seed and of the prefix set how far the
# hash has run before the rep word, so seeds of 1 to 5 words are covered.
@pytest.mark.parametrize(
    "master",
    [
        0, 20260810, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 1,
        pytest.param(np.uint64(2**64 - 1), id="uint64"),
    ],
)
@pytest.mark.parametrize(
    "grid_index", [0, 7, 2**32, pytest.param(np.int64(7), id="int64")]
)
def test_vectorised_seeds_match_derive_seed(master, grid_index):
    for prefix in ((grid_index,), (3, grid_index)):
        for start, stop in _REP_RANGES:
            seeds = _derive_seeds(master, prefix, start, stop)
            assert seeds.dtype == np.uint64
            expected = [derive_seed(master, *prefix, rep) for rep in range(start, stop)]
            assert seeds.tolist() == expected


def test_empty_seed_path_matches_derive_seed():
    # sampling distributions seed rep i with derive_seed(master, i)
    for master in (0, 20260810, 2**64, 2**128 + 1, np.uint64(2**64 - 1)):
        for start, stop in _REP_RANGES:
            expected = [derive_seed(master, rep) for rep in range(start, stop)]
            assert _derive_seeds(master, (), start, stop).tolist() == expected


def test_block_length_follows_n():
    assert _block_reps(3) == _block_reps(150) == _BLOCK_REPS
    assert _block_reps(200) == 48
    assert _block_reps(2000) == 4
    assert _block_reps(10_000) == _block_reps(10**7) == 1


# sha256 of the kernel's moments as little-endian float64 bytes.  They pin
# the seeds, the Philox stream, the draw order and the summation order of
# the reduction: a rewrite of any of them that moves one bit fails here.
_MOMENT_DIGESTS = [
    # 130 reps at n = 150 cross two block boundaries, at reps 64 and 128
    ((20260810, (0,), 0, 130, 150),
     "a18bd02c8e80d48883c15cf4ae015477ceb2d8e4f68183a6d86d022bcf94f69c"),
    # a range that starts past 0, inside a grid point's reps
    ((20260810, (3,), 64, 131, 150),
     "4b9c2910aeb1ae6b6bde5d4a41470003138f5d02a4833162c4071bc771a4f61d"),
    # one rep per block at verify's n, on a sampling distribution's path
    ((20260810, (), 0, 3, 10_000),
     "4389c3abfc143baaad7efb5db2841ce755ae866694f5da3d8859c3ff62db414f"),
]


@pytest.mark.parametrize(
    "args, digest", _MOMENT_DIGESTS, ids=["two-boundaries", "offset-range", "n10000"]
)
def test_kernel_moments_are_pinned_bit_for_bit(args, digest):
    _, _, start, stop, _ = args
    moments = _shock_moments(*args)
    assert moments.shape == (3, stop - start)
    assert hashlib.sha256(moments.astype("<f8").tobytes()).hexdigest() == digest


def test_rekeyed_draw_matches_generate_dataset():
    # with zero intercepts, slopes and err_cov, y = eps and d = eta exactly;
    # power-of-two scales make the division back to unit shocks exact
    params = DgpParams(
        beta0=0.0, beta1=0.0, pi0=0.0, pi1=0.0,
        sigma_eps=2.0, sigma_eta=0.5, err_cov=0.0,
    )
    draw = _UnitShocks().draw
    out = np.empty((3, 40))
    for seed in (0, 1, derive_seed(20260810, 3, 65), 2**64 - 1):
        draw(seed, out)
        data = generate_dataset(params, 40, seed)
        assert np.array_equal(out[0], data.z[:, 0])
        assert np.array_equal(out[1], data.y / params.sigma_eps)
        assert np.array_equal(out[2], data.d / params.sigma_eta)


@pytest.mark.parametrize(
    "config",
    [
        _small_config(grid=(0.0, 0.05, 1.0), lambda_values=(0.0, 0.5), reps=70),
        _small_config(
            base_params=aer_calibration(beta1=1.0, stock_c=1.0),
            grid_variable=GridVariable.BETA1,
            grid=(0.0, 2.5),
            reps=70,
        ),
        # zero noise, pi1 = 0: d is constant and the unpenalized ratio degenerate
        _small_config(
            base_params=DgpParams(
                beta0=0.0, beta1=2.0, pi0=0.5, pi1=0.1,
                sigma_eps=0.0, sigma_eta=0.0, err_cov=0.0,
            ),
            grid=(0.0, 0.5),
            lambda_values=(0.0, 0.5),
            reps=3,
        ),
    ],
    ids=["pi1-grid", "stock-c-beta-grid", "degenerate"],
)
def test_kernel_matches_per_dataset_path(config):
    for gi, grid_value in enumerate(config.grid):
        params = config.params_at(grid_value)
        moments = _shock_moments(config.master_seed, (gi,), 0, config.reps, config.n)
        estimates = _ratios(params, config.n, moments, config.lambda_values)
        for rep in range(config.reps):
            data = generate_dataset(
                params, config.n, derive_seed(config.master_seed, gi, rep)
            )
            z = data.z[:, 0]
            numerator = demeaned_cov(data.y, z)
            cov_dz = demeaned_cov(data.d, z)
            for li, lam in enumerate(config.lambda_values):
                try:
                    ref = shifted_ratio(numerator, cov_dz, lam)
                except DegenerateDenominatorError:
                    assert math.isnan(estimates[li, rep])
                    continue
                assert abs(estimates[li, rep] - ref) <= 1e-12 * (abs(ref) + 1)


@pytest.mark.parametrize(
    "n, k",
    [
        pytest.param(30, 1, id="1"),
        pytest.param(30, _BLOCK_REPS, id="64"),
        pytest.param(30, _BLOCK_REPS + 1, id="65"),
        # blocks of 4 reps at n = 2000
        pytest.param(2000, 1, id="n2000-1"),
        pytest.param(2000, 4, id="n2000-4"),
        pytest.param(2000, 5, id="n2000-5"),
    ],
)
def test_raw_rows_do_not_depend_on_the_block_layout(n, k):
    def estimates(reps):
        return run_sweep(_small_config(grid=(0.0, 0.6), n=n, reps=reps)).estimates

    full, short = estimates(150), estimates(k)
    assert short.shape == (full.shape[0], k)
    assert np.array_equal(short, full[:, :k], equal_nan=True)


@pytest.mark.parametrize(
    "bad, got",
    [
        pytest.param(lambda e: e[:5], r"a float64 array of shape \(5, 3\)", id="few-cells"),
        pytest.param(lambda e: e[:, :2], r"a float64 array of shape \(8, 2\)", id="few-reps"),
        pytest.param(lambda e: e.ravel(), r"a float64 array of shape \(24,\)", id="flat"),
        pytest.param(
            lambda e: e.astype(np.float32), r"a float32 array of shape \(8, 3\)", id="float32"
        ),
        pytest.param(lambda e: e.tolist(), r"a list", id="list"),
    ],
)
def test_sweep_result_rejects_estimates_of_the_wrong_shape(bad, got):
    # write_raw_csv writes one row per entry: a short array would truncate the file
    result = run_sweep(_small_config(reps=3))
    assert result.estimates.shape == (8, 3)
    with pytest.raises(
        ValueError,
        match=r"^estimates must be a float64 array of shape \(len\(cells\), reps\) = "
        rf"\(8, 3\), got {got}$",
    ):
        dataclasses.replace(result, estimates=bad(result.estimates))
    assert dataclasses.replace(result, estimates=result.estimates.copy()) == result


def test_sweep_is_deterministic_on_rerun():
    config = _small_config()
    first, second = run_sweep(config), run_sweep(config)
    assert first == second  # the cells; == leaves the estimates out
    assert np.array_equal(first.estimates, second.estimates, equal_nan=True)


def test_mse_decomposition_per_cell():
    # heavy-tailed cells included: weak grid point with no penalty
    config = _small_config(grid=(0.02, 0.5), reps=200)
    result = run_sweep(config)
    for cell in result.cells:
        assert cell.mse == pytest.approx(
            cell.bias**2 + cell.variance, rel=1e-8, abs=1e-12
        )


def test_cell_layout_is_lambda_major():
    config = _small_config()
    result = run_sweep(config)
    expected = [
        (lam, g) for lam in config.lambda_values for g in config.grid
    ]
    assert [(c.lam, c.grid_value) for c in result.cells] == expected
    assert result.n == config.n and result.reps == config.reps


def test_zero_noise_single_rep_mse_is_exactly_zero():
    params = DgpParams(
        beta0=0.0, beta1=2.0, pi0=0.25, pi1=0.1,
        sigma_eps=0.0, sigma_eta=0.0, err_cov=0.0,
    )
    config = SweepConfig(
        base_params=params,
        grid_variable=GridVariable.PI1,
        grid=(0.5,),
        lambda_values=(0.0,),
        n=50,
        reps=1,
        master_seed=5,
    )
    cell = run_sweep(config).cells[0]
    assert cell.mse == 0.0
    assert cell.bias == 0.0
    assert cell.n_degenerate == 0
    assert cell.q50 == 2.0


def test_degenerate_reps_are_counted_and_excluded():
    # zero-noise data with pi1 = 0 makes d constant, so the unpenalized
    # denominator is exactly zero while the penalized one is fine
    params = DgpParams(
        beta0=0.0, beta1=2.0, pi0=0.5, pi1=0.1,
        sigma_eps=0.0, sigma_eta=0.0, err_cov=0.0,
    )
    config = SweepConfig(
        base_params=params,
        grid_variable=GridVariable.PI1,
        grid=(0.0, 0.5),
        lambda_values=(0.0, 0.5),
        n=20,
        reps=5,
        master_seed=3,
    )
    result = run_sweep(config)
    by_key = {(c.lam, c.grid_value): c for c in result.cells}
    degenerate = by_key[(0.0, 0.0)]
    assert degenerate.n_degenerate == 5
    assert math.isnan(degenerate.mse)
    penalized = by_key[(0.5, 0.0)]
    assert penalized.n_degenerate == 0
    assert penalized.q50 == 0.0  # estimate shrunk to zero exactly
    assert penalized.mse == 4.0  # squared bias against beta1 = 2
    clean = by_key[(0.0, 0.5)]
    assert clean.n_degenerate == 0
    assert clean.mse == 0.0


def test_raw_estimates_artifact(tmp_path):
    # zero noise with pi1 = 0 makes every unpenalized rep at grid value 0 degenerate
    zero_noise = DgpParams(
        beta0=0.0, beta1=2.0, pi0=0.5, pi1=0.1,
        sigma_eps=0.0, sigma_eta=0.0, err_cov=0.0,
    )
    for config in (
        _small_config(reps=7),
        _small_config(base_params=zero_noise, grid=(0.0, 0.5), lambda_values=(0.0, 0.5), reps=5),
    ):
        result = run_sweep(config)
        assert result.estimates.shape == (len(result.cells), config.reps)
        # every cell is rebuilt exactly from its row of per-rep estimates
        for cell, row in zip(result.cells, result.estimates):
            values = row[~np.isnan(row)]
            assert cell.n_degenerate == config.reps - values.size
            stored = [cell.mse, cell.bias, cell.variance,
                      cell.q05, cell.q25, cell.q50, cell.q75, cell.q95]
            if values.size == 0:
                assert all(math.isnan(v) for v in stored)
                continue
            errors = values - config.params_at(cell.grid_value).beta1
            bias = float(errors.mean())
            assert stored == [
                float(np.mean(errors**2)),
                bias,
                float(np.mean((errors - bias) ** 2)),
                *np.quantile(values, [0.05, 0.25, 0.5, 0.75, 0.95]).tolist(),
            ]

        raw = tmp_path / "raw.csv"
        write_raw_csv(result, raw)
        with raw.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["grid_value", "lambda", "rep", "beta1_hat", "degenerate"]
        assert len(rows) == len(config.grid) * len(config.lambda_values) * config.reps
        # rows follow the cells, reps in order within each
        for i, row in enumerate(rows):
            cell_index, rep = divmod(i, config.reps)
            cell, value = result.cells[cell_index], result.estimates[cell_index, rep]
            assert float(row["grid_value"]) == cell.grid_value
            assert float(row["lambda"]) == cell.lam
            assert int(row["rep"]) == rep
            assert row["degenerate"] == ("1" if math.isnan(value) else "0")
            assert row["beta1_hat"] == repr(float(value))  # nan for a degenerate rep
    assert result.cells[0].n_degenerate == config.reps


def test_estimator_consistency_in_n():
    # fixed nonzero first stage and constant penalty: errors shrink with n
    params = aer_calibration(beta1=1.0)
    params = DgpParams(
        beta0=params.beta0, beta1=1.0, pi0=params.pi0, pi1=0.5,
        sigma_eps=1.0, sigma_eta=1.0, err_cov=-0.67,
    )
    schedule = PenaltySchedule(PenaltyRate.CONSTANT, 2.0)
    small = collect_sampling_distribution(params, schedule, 100, 500, 17)
    big = collect_sampling_distribution(params, schedule, 10_000, 500, 18)
    median_small = float(np.median(np.abs(small))) / math.sqrt(100)
    median_big = float(np.median(np.abs(big))) / math.sqrt(10_000)
    assert median_big < median_small


_ZERO_NOISE = DgpParams(
    beta0=0.0, beta1=2.0, pi0=0.5, pi1=0.0,
    sigma_eps=0.0, sigma_eta=0.0, err_cov=0.0,
)


@pytest.mark.parametrize("n", [200, 2000], ids=["n200", "n2000"])
@pytest.mark.parametrize(
    "params, schedule",
    [
        (aer_calibration(beta1=1.0), PenaltySchedule(PenaltyRate.CONSTANT, 0.0)),
        (aer_calibration(beta1=1.0), PenaltySchedule(PenaltyRate.SQRT_N, 0.3)),
        (aer_calibration(beta1=1.0), PenaltySchedule(PenaltyRate.LINEAR_N, 1.0)),
        # centered on zero: the drifting first stage
        (
            aer_calibration(beta1=1.0, stock_c=1.0),
            PenaltySchedule(PenaltyRate.LINEAR_N, 1.0),
        ),
        # d is constant: every unpenalized rep is degenerate and dropped
        (_ZERO_NOISE, PenaltySchedule(PenaltyRate.CONSTANT, 0.0)),
        (_ZERO_NOISE, PenaltySchedule(PenaltyRate.CONSTANT, 0.5)),
    ],
    ids=[
        "pi1-constant", "pi1-sqrt_n", "pi1-linear_n", "stock_c-linear_n",
        "zero-noise-unpenalized", "zero-noise-penalized",
    ],
)
def test_collect_matches_per_dataset_fit(params, schedule, n):
    # two full blocks and a partial one
    reps = 2 * _block_reps(n) + 3
    samples = collect_sampling_distribution(params, schedule, n, reps, 23)
    center = 0.0 if params.stock_c is not None else params.beta1
    expected = []
    for rep in range(reps):
        data = generate_dataset(params, n, derive_seed(23, rep))
        try:
            expected.append(fit_ridge_iv(data, schedule).beta1_hat)
        except DegenerateDenominatorError:
            pass
    if params is _ZERO_NOISE:
        assert len(expected) == (0 if schedule.lambda0 == 0.0 else reps)
    assert samples.shape == (len(expected),)
    root_n = math.sqrt(n)
    for value, ref in zip(samples, expected):
        # the bound on beta1_hat, scaled as the samples are
        assert abs(value - root_n * (ref - center)) <= root_n * 1e-12 * (abs(ref) + 1)


@pytest.mark.parametrize(
    "field, value, cls",
    [
        ("grid_variable", "pi1", "GridVariable"),
        ("grid_variable", "beta1", "GridVariable"),
        ("grid_variable", None, "GridVariable"),
        ("base_params", None, "DgpParams"),
        ("base_params", {"pi1": 0.1}, "DgpParams"),
    ],
    ids=["pi1-string", "beta1-string", "grid_variable-None", "base_params-None", "dict"],
)
def test_sweep_config_rejects_wrongly_typed_fields(field, value, cls):
    # the string "pi1" swept beta1 under a "pi1" label and skipped the stock_c guard
    with pytest.raises(TypeError, match=f"^{field} must be a {cls}, got "):
        _small_config(**{field: value})


@pytest.mark.parametrize(
    "params, schedule, message",
    [
        (None, PenaltySchedule(PenaltyRate.CONSTANT, 0.0), "params must be a DgpParams"),
        (aer_calibration(), None, "schedule must be a PenaltySchedule"),
        (aer_calibration(), 0.0, "schedule must be a PenaltySchedule"),
    ],
    ids=["params-None", "schedule-None", "schedule-number"],
)
def test_collect_rejects_wrongly_typed_arguments_before_the_draw(
    monkeypatch, params, schedule, message
):
    calls = _count_draws(monkeypatch)
    with pytest.raises(TypeError, match=f"^{message}, got "):
        collect_sampling_distribution(params, schedule, 50, 10, 1)
    assert calls == []


def test_collect_validates_reps_and_n():
    params = aer_calibration(beta1=1.0)
    schedule = PenaltySchedule(PenaltyRate.CONSTANT, 0.0)
    with pytest.raises(ValueError, match="reps"):
        collect_sampling_distribution(params, schedule, 50, 0, 1)
    with pytest.raises(ValueError, match="n must be at least 3"):
        collect_sampling_distribution(params, schedule, 2, 5, 1)


def test_collect_rejects_an_overflowing_penalty_before_the_draw(monkeypatch):
    # lambda_n(150) = 1.5e309 would make every shifted ratio 0: a constant sample
    calls = _count_draws(monkeypatch)
    schedule = PenaltySchedule(PenaltyRate.LINEAR_N, 1e307)
    with pytest.raises(ValueError, match=r"lambda_n\(150\) must be finite"):
        collect_sampling_distribution(aer_calibration(beta1=1.0), schedule, 150, 10, 1)
    assert calls == []


def _count_draws(monkeypatch):
    """Patch ``_shock_moments`` to record its arguments; returns the record.

    The draws run on one worker: a forked worker's calls would not reach
    this process's record.
    """
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    calls = []
    shock_moments = montecarlo._shock_moments

    def counted(*args):
        calls.append(args)
        return shock_moments(*args)

    monkeypatch.setattr(montecarlo, "_shock_moments", counted)
    return calls


_SCHEDULE = PenaltySchedule(PenaltyRate.CONSTANT, 0.0)
# each library entry point with its integer arguments, and its seed's name
_ENTRY_POINTS = {
    "sweep": (
        lambda n, reps, seed: _small_config(n=n, reps=reps, master_seed=seed),
        "master_seed",
    ),
    "collect": (
        lambda n, reps, seed: collect_sampling_distribution(
            aer_calibration(beta1=1.0), _SCHEDULE, n, reps, seed
        ),
        "master_seed",
    ),
    "verify": (
        lambda n, reps, seed: verify_regimes(("sqrtn-bias",), reps, seed, n=n),
        "seed",
    ),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize("field", ["n", "reps", "seed"])
@pytest.mark.parametrize("bad", [2.5, 150.0, True, "50"])
def test_integer_arguments_checked_by_name(monkeypatch, entry, field, bad):
    # these failed deep inside the draw, with errors that named no argument
    calls = _count_draws(monkeypatch)
    call, seed_name = _ENTRY_POINTS[entry]
    args = {"n": 50, "reps": 10, "seed": 1, field: bad}
    name = seed_name if field == "seed" else field
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        call(**args)
    assert calls == []


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_negative_seed_rejected_by_name(monkeypatch, entry):
    calls = _count_draws(monkeypatch)
    call, seed_name = _ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{seed_name} must be at least 0, got -1"):
        call(n=50, reps=10, seed=-1)
    assert calls == []


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_numpy_integer_arguments_accepted(entry):
    call, _ = _ENTRY_POINTS[entry]
    result = call(n=np.int64(50), reps=np.int32(10), seed=np.uint64(2**64 - 1))
    expected = call(n=50, reps=10, seed=2**64 - 1)
    if entry == "sweep":
        assert type(result.master_seed) is int
        result, expected = run_sweep(result), run_sweep(expected)
    if entry == "collect":
        assert np.array_equal(result, expected)
    else:
        assert result == expected


def test_weak_instrument_check_draws_once(monkeypatch):
    calls = _count_draws(monkeypatch)
    [(ok, lines)] = verify_regimes(("weak-instrument",), 500, 9, n=1000)
    assert calls == [(9, (), 0, 500, 1000)]
    assert len(lines) == 5
    # the same values as one collection per schedule
    params = dataclasses.replace(aer_calibration(beta1=1.0, stock_c=1.0), pi1=0.0)
    raw = collect_sampling_distribution(
        params, PenaltySchedule(PenaltyRate.CONSTANT, 0.0), 1000, 500, 9
    )
    assert f"median {cauchy_diagnostics(raw).median:.3g}," in lines[1]


@pytest.mark.parametrize(
    "regimes",
    [
        montecarlo.VERIFY_REGIMES,
        montecarlo.VERIFY_REGIMES[::-1],
        ("weak-instrument", "strong-variance"),
    ],
    ids=["all", "reversed", "subset"],
)
def test_verify_regimes_share_one_draw(monkeypatch, regimes):
    calls = _count_draws(monkeypatch)
    results = verify_regimes(regimes, 500, 31, n=1000)
    assert calls == [(31, (), 0, 500, 1000)]
    assert len(results) == len(regimes)
    for regime, result in zip(regimes, results):
        assert result[1][0].startswith(f"[{regime}] ")
        assert verify_regimes((regime,), 500, 31, n=1000) == [result]


def test_unknown_regime_rejected(monkeypatch):
    calls = _count_draws(monkeypatch)
    for regimes in (("bogus",), ("strong-variance", "sqrtn-bias", "bogus")):
        with pytest.raises(ValueError, match="unknown regime 'bogus'"):
            verify_regimes(regimes, 10, 1)
    assert calls == []


@pytest.mark.parametrize(
    "regimes, message",
    [
        ("strong-variance", "regimes must be a sequence of regime names"),
        (("strong-variance", "strong-variance"), "regimes must not repeat a regime"),
        (["sqrtn-bias", "strong-variance", "sqrtn-bias"], "regimes must not repeat a regime"),
    ],
    ids=["bare-string", "repeated", "repeated-apart"],
)
def test_verify_rejects_what_the_cli_rejects(monkeypatch, regimes, message):
    # a bare string was read as the regimes 's', 't', ...; a repeat ran twice
    calls = _count_draws(monkeypatch)
    with pytest.raises(ValueError, match=f"^{message}"):
        verify_regimes(regimes, 10, 1, n=100)
    assert calls == []


@pytest.mark.parametrize("regime", montecarlo.VERIFY_REGIMES)
def test_verify_floors_checked_before_the_draw(monkeypatch, regime):
    # one rep has no sample variance: the bias check printed |dev| = nan
    calls = _count_draws(monkeypatch)
    least = MIN_TAIL_SAMPLES if regime == "weak-instrument" else 2
    for reps in (1, least - 1):
        with pytest.raises(ValueError, match=f"reps must be at least {least}"):
            verify_regimes((regime,), reps, 1, n=100)
    with pytest.raises(ValueError, match="n must be at least 3"):
        verify_regimes((regime,), least, 1, n=2)
    with pytest.raises(ValueError, match="regimes must be non-empty"):
        verify_regimes((), least, 1, n=100)
    assert calls == []


def test_heavy_tails_appear_only_without_penalty():
    params = aer_calibration(beta1=1.0, stock_c=1.0)
    raw = collect_sampling_distribution(
        params, PenaltySchedule(PenaltyRate.CONSTANT, 0.0), 2500, 600, 77
    )
    ridged = collect_sampling_distribution(
        params, PenaltySchedule(PenaltyRate.LINEAR_N, 1.0), 2500, 600, 77
    )
    assert cauchy_diagnostics(raw).tail_index_flag
    assert not cauchy_diagnostics(ridged).tail_index_flag

import csv
import dataclasses
import hashlib
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgeiv.asymptotics import MIN_TAIL_SAMPLES, cauchy_diagnostics
from ridgeiv.dgp import (
    _BLOCK_REPS,
    DgpParams,
    _UnitShocks,
    _block_reps,
    _unit_shocks,
    _z_covariances,
    aer_calibration,
    generate_dataset,
)
from ridgeiv.estimators import (
    DegenerateDenominatorError,
    Estimate,
    PenaltyRate,
    PenaltySchedule,
    demeaned_cov,
    fit_ridge_iv,
    shifted_ratio,
)
import ridgeiv.asymptotics as asymptotics
import ridgeiv._fork as _fork
import ridgeiv.montecarlo as montecarlo
from ridgeiv.cli import write_raw_csv
from ridgeiv.montecarlo import (
    GridVariable,
    SweepCell,
    SweepConfig,
    _aggregate_rows,
    _derive_seeds,
    _draw_moments,
    _scaled_samples,
    _shock_moments,
    collect_sampling_distribution,
    derive_seed,
    run_sweep,
)
from ridgeiv.verify import VERIFY_REGIMES, verify_min_reps, verify_regimes
from support import _exact_moments, _ks_rejects, _names_a_field


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


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((-1,), ValueError, r"^master_seed must be at least 0, got -1$"),
        ((1.5,), TypeError, r"^master_seed must be an integer, got 1\.5$"),
        ((True,), TypeError, r"^master_seed must be an integer, got True$"),
        ((1, -2), ValueError, r"^path\[0\] must be at least 0, got -2$"),
        ((1, 0, 2.5), TypeError, r"^path\[1\] must be an integer, got 2\.5$"),
    ],
    ids=["negative-master", "float-master", "bool-master", "negative-path", "float-path"],
)
def test_derive_seed_names_a_bad_argument(args, error, message):
    # numpy raised "expected non-negative integer", or its own TypeError
    with pytest.raises(error, match=message):
        derive_seed(*args)


def test_derive_seed_takes_numpy_integers():
    assert derive_seed(np.uint64(7), np.int64(3)) == derive_seed(7, 3)


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


# The numpy layers under every sha256 pin, word for word: SeedSequence (through
# derive_seed), the Philox bit stream at key [k, 0], and the float64 bits of
# Generator.standard_normal on it.  NEP 19 keeps a bit generator's stream
# fixed, but a feature release may change what a Generator method returns;
# if a layer moves, this names it while every digest test fails beside it.
# The keys go in as uint64 arrays: numpy 2.4.6 casts the list [2**64 - 1, 0]
# through float and keys Philox at 0, with a RuntimeWarning.
_CANARY_KEYS = (0, 20260810, 2**64 - 1)
_CANARY_SEEDS = {
    (20260810,): 0xA998C6E5AE341311,
    (20260810, 0, 0): 0x49BB72AD231EEB9E,
    (20260810, 3, 129): 0x083048B266A56F7A,
}
_CANARY_WORDS = (
    (0x02F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2, 0x1C8667A55D902E79),
    (0x5BDE4EDAB2E9A257, 0xC9C5F0FEEA41F67C, 0x77917F89C07D9711),
    (0x3C2521C58DDE5BFB, 0xB7A1AD5DAE1306D7, 0x6942EAE9FD2FEB84),
)
_CANARY_NORMALS = (
    (0x3FC463CB3872ECBD, 0xBFFC6313809C831C, 0x3FF5396485E717B0),
    (0x3FF18CE405CF9F59, 0x3FDD7B5D48410969, 0xBFDE7BACC37D78A5),
    (0xC006263D495CD1D9, 0x3FFAD8C353429341, 0xBFDCF161705B3E36),
)


def test_numpys_seed_philox_and_normal_streams_are_pinned():
    numpy = f"numpy {np.__version__}"
    seeds = {path: derive_seed(*path) for path in _CANARY_SEEDS}
    assert seeds == _CANARY_SEEDS, f"the SeedSequence layer of derive_seed moved under {numpy}"
    for k, words, normals in zip(_CANARY_KEYS, _CANARY_WORDS, _CANARY_NORMALS):
        raw = np.random.Philox(key=np.array([k, 0], dtype=np.uint64)).random_raw(3)
        assert tuple(raw.tolist()) == words, f"the Philox bit stream at key {k} moved under {numpy}"
        drawn = np.random.Generator(np.random.Philox(key=k)).standard_normal(3)
        assert tuple(drawn.view(np.uint64).tolist()) == normals, (
            f"Generator.standard_normal over Philox at key {k} moved under {numpy}"
        )


# sha256 of the kernel's moments as little-endian float64 bytes.  They pin
# the seeds, the Philox stream, the draw order and the summation order of
# the reduction: a rewrite of any of them that moves one bit fails here.
_MOMENT_DIGESTS = [
    # 130 reps at n = 150 cross two block boundaries, at reps 64 and 128
    ((20260810, (0,), 0, 130, 150),
     "43a155f9668802a4397637ec2abf70221c401aab573ca0d6b9a92c35df7e8c1a"),
    # a range that starts past 0, inside a grid point's reps
    ((20260810, (3,), 64, 131, 150),
     "6d322416c5c69061e1031402a8ef65ae23234a3e692cc1b48802224bd8da360e"),
    # one rep per block at verify's n, on a sampling distribution's path
    ((20260810, (), 0, 3, 10_000),
     "f83220ca7d9f8b0280028d30c9d2b6dda0074a6056599f6ae6209a043f6c2bc7"),
]


@pytest.mark.parametrize(
    "args, digest", _MOMENT_DIGESTS, ids=["two-boundaries", "offset-range", "n10000"]
)
def test_kernel_moments_are_pinned_bit_for_bit(args, digest):
    _, _, start, stop, _ = args
    moments = _shock_moments(*args)
    assert moments.shape == (3, stop - start)
    assert hashlib.sha256(moments.astype("<f8").tobytes()).hexdigest() == digest


def _exact_cov(x, z):
    """sum(x z) / n - sum(x) sum(z) / n**2 of two float rows, as a Fraction.

    Every float is an integer over a power of two, so on their largest
    denominator the sums are exact Python ints.
    """
    n = len(x)
    ratios = [value.as_integer_ratio() for value in x.tolist() + z.tolist()]
    scale = max(denominator for _, denominator in ratios)
    ints = [numerator * (scale // denominator) for numerator, denominator in ratios]
    xs, zs = ints[:n], ints[n:]
    sum_xz = sum(a * b for a, b in zip(xs, zs))
    return Fraction(n * sum_xz - sum(xs) * sum(zs), (n * scale) ** 2)


@pytest.mark.parametrize("n, reps", [(150, 16), (10_000, 4)])
def test_kernel_moments_match_exact_arithmetic(n, reps):
    # the one-pass form mean(x z) - mean(x) mean(z) can cancel, and einsum
    # accumulates its dot products plainly; scaled by sqrt(Var x Var z), the
    # error measured 6e-16 at n = 150 and 3e-15 at n = 10^4
    moments = _shock_moments(20261019, (2,), 0, reps, n)
    draw = _UnitShocks().draw
    shocks = np.empty((3, n))
    for rep in range(reps):
        draw(derive_seed(20261019, 2, rep), shocks)
        z = shocks[0]
        for row, x in enumerate(shocks):
            error = abs(Fraction(moments[row, rep]) - _exact_cov(x, z))
            assert float(error) <= 1e-14 * math.sqrt(x.var() * z.var())


@pytest.mark.parametrize(
    "n, reps, exact_reps", [(150, 40_000, 400_000), (10_000, 1_000, 100_000)], ids=["150", "10000"]
)
def test_kernel_moments_follow_their_exact_law(n, reps, exact_reps):
    # a sampler of the moments' joint law that shares nothing with the
    # kernel; at n = 150 the test has the power to see Var z formed with
    # 1 / (n - 1), a shift of 0.06 of its sd
    moments = _draw_moments(2026, [()], reps, n)[:, 0]
    exact = _exact_moments(n, exact_reps, np.random.default_rng(2027))
    for row, (kernel, law) in enumerate(zip(moments, exact)):
        assert not _ks_rejects(kernel, law, 1e-3), ("Var z", "Cov[e,z]", "Cov[h,z]")[row]


@pytest.mark.parametrize("n", [149, 150, 151, 10_001])
def test_a_reps_moments_do_not_depend_on_where_it_sits_in_memory(n):
    # rows sit 3 * n * 8 bytes apart, so a row's offset mod 64 moves with the
    # rep's place in its block and with where a task's rep range starts
    size = _block_reps(n)
    starts = (0, 1, 5, 17)
    length = size + 2  # crosses a block boundary
    alone = np.concatenate(
        [_shock_moments(20261019, (4,), r, r + 1, n) for r in range(starts[-1] + length)],
        axis=1,
    )
    for start in starts:
        moments = _shock_moments(20261019, (4,), start, start + length, n)
        assert np.array_equal(moments, alone[:, start : start + length])


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
    # seeds of 2**64 and beyond set the second Philox key word; the dataset
    # keeps n values of z alive, not the whole (3, n) block of shocks
    for seed in (0, 2**64 - 1, 2**64, 2**100 + 7, 2**128 - 1):
        data = generate_dataset(params, 40, seed)
        rows = (data.z[:, 0], data.y / params.sigma_eps, data.d / params.sigma_eta)
        fresh = np.random.Generator(np.random.Philox(key=seed)).standard_normal((3, 40))
        assert np.array_equal(rows, fresh)
        owner = data.z if data.z.base is None else data.z.base
        assert owner.nbytes == 40 * 8


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_a_dirty_generator_draws_as_a_fresh_philox(seed):
    shocks = _UnitShocks()
    shocks._rng.integers(2**32, dtype=np.uint32)  # keeps the other half of a word
    shocks._rng.random()  # leaves half of a 4-word block in the buffer
    state = shocks._bitgen.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] == 2
    out = np.empty((3, 150))
    shocks.draw(seed, out)
    fresh = np.random.Generator(np.random.Philox(key=seed)).standard_normal((3, 150))
    assert np.array_equal(out, fresh)


def test_threads_drawing_at_once_each_get_the_serial_bits():
    # each thread re-keys its own generator: one shared between them would
    # let a thread draw under another's key
    tasks = [(20260810, (t,), 0, 130, 150) for t in range(4)]
    serial = [_shock_moments(*task) for task in tasks]
    drawn = [[] for _ in tasks]
    barrier = threading.Barrier(len(tasks))

    def draw(t):
        barrier.wait()
        for _ in range(5):
            drawn[t].append(_shock_moments(*tasks[t]))

    threads = [threading.Thread(target=draw, args=(t,)) for t in range(len(tasks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for moments, runs in zip(serial, drawn):
        assert len(runs) == 5
        assert all(np.array_equal(run, moments) for run in runs)


def test_a_threads_reused_generator_draws_the_same_moments_after_another_draw():
    task = (20260810, (0,), 0, 130, 150)
    before = _shock_moments(*task)
    shocks = _unit_shocks()
    assert _unit_shocks() is shocks
    shocks._rng.standard_normal(7)  # leaves a partial buffer behind
    assert np.array_equal(_shock_moments(*task), before)


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
        cov_yz, cov_dz = _z_covariances(params, config.n, moments, "params")
        estimates = shifted_ratio(cov_yz, cov_dz, config.lambda_values)
        for rep in range(config.reps):
            data = generate_dataset(
                params, config.n, derive_seed(config.master_seed, gi, rep)
            )
            z = data.z[:, 0]
            numerator = demeaned_cov(data.y, z)
            cov_dz = demeaned_cov(data.d, z)
            for li, lam in enumerate(config.lambda_values):
                # the reference divides on its own, not through shifted_ratio,
                # which the kernel's ratios share
                if cov_dz + lam == 0.0:
                    assert math.isnan(estimates[li, rep])
                    continue
                ref = numerator / (cov_dz + lam)
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


def test_an_overflowing_covariance_is_named_not_counted_degenerate():
    # pi1 * Var z overflows in 15 of grid[1]'s 50 reps; inf / inf was NaN,
    # which the aggregate counted as a zero denominator
    config = SweepConfig(
        base_params=aer_calibration(beta1=1.0),
        grid_variable=GridVariable.PI1,
        grid=(1e300, 1.7e308),
        lambda_values=(0.0,),
        n=150,
        reps=50,
        master_seed=1,
    )
    with pytest.raises(ValueError, match=r"^grid\[1\] must give finite covariances at n = 150"):
        run_sweep(config)
    params = DgpParams(beta0=0.0, beta1=1e308, pi0=0.0, pi1=10.0)
    schedule = PenaltySchedule(PenaltyRate.CONSTANT, 0.0)
    with pytest.raises(ValueError, match=r"^params must give finite covariances at n = 30"):
        collect_sampling_distribution(params, schedule, 30, 20, 1)


def test_an_overflowing_shifted_denominator_is_named():
    # Cov[D,Z] + lambda was inf, so the estimates were 0.0 where they are
    # about Cov[Y,Z] / 1.8e308 away from it
    config = SweepConfig(
        base_params=aer_calibration(beta1=1.0),
        grid_variable=GridVariable.PI1,
        grid=(1e307,),
        lambda_values=(0.0, 1.7e308),
        n=150,
        reps=20,
        master_seed=1,
    )
    with pytest.raises(
        ValueError,
        match=r"^lambda_values\[1\] must give a finite shifted denominator with grid\[0\] at n = 150",
    ):
        run_sweep(config)
    params = DgpParams(beta0=0.0, beta1=1.0, pi0=0.0, pi1=1e308, sigma_eps=0.0, sigma_eta=0.0)
    moments = np.array([[1.0], [0.0], [0.0]])  # Var z, Cov[e,z], Cov[h,z] of one rep
    with pytest.raises(ValueError, match=r"^schedule must give a finite shifted denominator"):
        _scaled_samples(params, 30, moments, (1e308,))


@pytest.mark.parametrize(
    "pi1, message",
    [
        # finite ratios near 1e307, which sqrt(n) scales beyond the float range
        (1e-208, r"^params must give finite samples sqrt\(n\) \* \(beta1_hat - 1\.0\) at n = 150"),
        # ratios beyond the float range
        (1e-209, r"^params at n = 150 must give a finite beta1_hat, got -?inf = "),
    ],
    ids=["scaled", "ratio"],
)
def test_a_sampling_distribution_beyond_the_float_range_is_named(pi1, message):
    # 1 and 17 of the 20 samples were inf, after a numpy warning
    params = DgpParams(
        beta0=0.0, beta1=1.0, pi0=0.0, pi1=pi1, sigma_eps=1e100, sigma_eta=0.0, err_cov=0.0
    )
    schedule = PenaltySchedule(PenaltyRate.CONSTANT, 0.0)
    with pytest.raises(ValueError, match=message):
        collect_sampling_distribution(params, schedule, 150, 20, 1)


# Any finite float; the powers of ten, drawn log-uniformly, reach both ends
# of the float range far more often than uniform bits do
_POWERS = st.integers(-323, 308).map(lambda e: 10.0**e)
_NONNEGATIVE = st.just(0.0) | _POWERS | st.floats(min_value=0.0, allow_infinity=False)
_ANY_FLOAT = (
    _NONNEGATIVE | _POWERS.map(lambda x: -x) | st.floats(allow_nan=False, allow_infinity=False)
)
_FIELD_NAMES = {
    *(f.name for f in dataclasses.fields(DgpParams)),
    *(f.name for f in dataclasses.fields(SweepConfig)),
    *(f.name for f in dataclasses.fields(Estimate)),
    "params", "data", "schedule",
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    fields=st.fixed_dictionaries(
        {
            "beta0": _ANY_FLOAT, "beta1": _ANY_FLOAT, "pi0": _ANY_FLOAT, "pi1": _ANY_FLOAT,
            "sigma_eps": _NONNEGATIVE, "sigma_eta": _NONNEGATIVE, "err_cov": _ANY_FLOAT,
            "stock_c": st.none() | _ANY_FLOAT,
        }
    ),
    grid_variable=st.sampled_from(GridVariable),
    grid=st.lists(_ANY_FLOAT, min_size=1, max_size=3, unique=True).map(sorted),
    lambdas=st.lists(_NONNEGATIVE, min_size=1, max_size=2, unique=True),
    rate=st.sampled_from(PenaltyRate),
    n=st.integers(3, 40),
    reps=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)
def test_every_estimate_is_finite_degenerate_or_named(
    fields, grid_variable, grid, lambdas, rate, n, reps, seed
):
    # One rule for the sweep, the sampling distribution and the fit: a
    # number is finite, or NaN counted as degenerate, or the input is named.
    # pytest turns any numpy warning into a failure.
    try:
        params = DgpParams(**fields)
    except ValueError as exc:
        assert _names_a_field(exc, _FIELD_NAMES), exc
        return
    try:
        config = SweepConfig(params, grid_variable, tuple(grid), tuple(lambdas), n, reps, seed)
        result = run_sweep(config)
    except ValueError as exc:
        assert _names_a_field(exc, _FIELD_NAMES), exc
    else:
        degenerate = np.isnan(result.estimates)
        assert np.isfinite(result.estimates[~degenerate]).all()
        for cell, row in zip(result.cells, degenerate):
            assert cell.n_degenerate == row.sum()
            stats = dataclasses.astuple(cell)[2:-1]  # every field after lam but n_degenerate
            if cell.n_degenerate == reps:
                assert all(math.isnan(value) for value in stats)
            else:
                assert all(math.isfinite(value) for value in stats), cell
    schedule = PenaltySchedule(rate, lambdas[0])
    try:
        samples = collect_sampling_distribution(params, schedule, n, reps, seed)
    except ValueError as exc:
        assert _names_a_field(exc, _FIELD_NAMES), exc
    else:
        assert np.isfinite(samples).all()
    try:
        data = generate_dataset(params, n, seed)
        estimate = fit_ridge_iv(data, schedule)
    except DegenerateDenominatorError:
        pass
    except ValueError as exc:
        assert _names_a_field(exc, _FIELD_NAMES), exc
    else:
        assert all(math.isfinite(value) for value in dataclasses.astuple(estimate))


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324])


def _estimate_rows(reps):
    value = st.one_of(_EDGE_FLOATS, st.floats(width=64))
    row = st.one_of(
        st.just([math.nan] * reps),  # every rep degenerate
        st.lists(value, min_size=reps, max_size=reps),
    )
    return st.lists(row, min_size=1, max_size=6)


def _cell_bits(cell):
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(cell)]


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 12).flatmap(_estimate_rows),
    beta1=st.one_of(st.just(-0.0), st.floats(-1e6, 1e6)),
)
def test_one_pass_aggregate_matches_each_row_bit_for_bit(rows, beta1):
    estimates = np.array(rows, dtype=np.float64)
    true_beta1 = [beta1 * (i + 1) for i in range(len(rows))]
    grid_values = [0.25 * i for i in range(len(rows))]
    lams = [float(i % 2) for i in range(len(rows))]
    with np.errstate(all="ignore"):  # an inf row's mean may be inf - inf
        stats, cells = _aggregate_rows(estimates, true_beta1, grid_values, lams)
        expected = []
        for row, true, grid_value, lam in zip(estimates, true_beta1, grid_values, lams):
            # plain 1-D numpy over the row's non-NaN values
            values = row[~np.isnan(row)]
            stats_1d = [math.nan] * 8
            if values.size:
                errors = values - true
                bias = float(errors.mean())
                variance = float(np.mean((errors - bias) ** 2))
                mse = float(np.mean(errors**2))
                quantiles = np.quantile(values, (0.05, 0.25, 0.5, 0.75, 0.95)).tolist()
                stats_1d = [mse, bias, variance, *quantiles]
            expected.append(SweepCell(grid_value, lam, *stats_1d, row.size - values.size))
    assert [_cell_bits(c) for c in cells] == [_cell_bits(c) for c in expected]
    assert [_cell_bits(c)[2:10] for c in cells] == [
        [v.hex() for v in row] for row in stats.tolist()
    ]


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
    shift = schedule.lambda_n(n) / n
    expected = []
    for rep in range(reps):
        data = generate_dataset(params, n, derive_seed(23, rep))
        # the reference divides on its own, not through shifted_ratio,
        # which the kernel's ratios share
        z = data.z[:, 0]
        numerator, cov_dz = demeaned_cov(data.y, z), demeaned_cov(data.d, z)
        if cov_dz + shift != 0.0:
            expected.append(numerator / (cov_dz + shift))
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


@pytest.mark.parametrize("rate", list(PenaltyRate))
def test_collect_names_an_n_beyond_float_range_before_the_draw(monkeypatch, rate):
    # sqrt(n), lambda_n(n) or lambda_n(n) / n raised an unnamed OverflowError
    calls = _count_draws(monkeypatch)
    schedule = PenaltySchedule(rate, 1.0)
    with pytest.raises(ValueError, match="^n must be finite, got a value too large"):
        collect_sampling_distribution(aer_calibration(beta1=1.0), schedule, 10**400, 10, 1)
    assert calls == []


# beyond the float range, and beyond the largest (3, n) float64 block numpy
# can address; numpy rejected both without a name, after the checks
_UNDRAWABLE_N = {"beyond-float": 10**400, "beyond-intp": 2**62}
_N_ENTRY_POINTS = {
    "generate_dataset": lambda n: generate_dataset(aer_calibration(beta1=1.0), n, 1),
    "SweepConfig": lambda n: _small_config(n=n),
    "collect": lambda n: collect_sampling_distribution(
        aer_calibration(beta1=1.0), PenaltySchedule(PenaltyRate.CONSTANT, 1.0), n, 10, 1
    ),
    "verify": lambda n: verify_regimes(("strong-variance",), 10, 1, n=n),
}


@pytest.mark.parametrize("n", list(_UNDRAWABLE_N.values()), ids=list(_UNDRAWABLE_N))
@pytest.mark.parametrize("entry", list(_N_ENTRY_POINTS))
def test_an_n_that_cannot_be_drawn_is_named_before_the_draw(monkeypatch, entry, n):
    calls = _count_draws(monkeypatch)
    with pytest.raises(ValueError, match=r"^n must be (finite|at most \d+)"):
        _N_ENTRY_POINTS[entry](n)
    assert calls == []


def _count_draws(monkeypatch):
    """Patch ``_shock_moments`` to record its arguments; returns the record.

    The draws run on one worker: a forked worker's calls would not reach
    this process's record.
    """
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 1)
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


@pytest.mark.parametrize("reps", [2**32 + 1, 10**20])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_reps_beyond_the_rep_index_range_are_named_before_the_draw(monkeypatch, entry, reps):
    # a rep's index is hashed as one 32-bit word: the draw raised an unnamed
    # OverflowError, or numpy's "Maximum allowed dimension exceeded"
    calls = _count_draws(monkeypatch)
    call, _ = _ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^reps must be at most 4294967296, .* got {reps}$"):
        call(n=50, reps=reps, seed=1)
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


# The FAIL line of each check rule, as the report prints it.
def test_relative_tolerance_fail_line():
    [(ok, lines)] = verify_regimes(("strong-variance",), 50, 20260810)
    assert not ok
    assert lines[1] == (
        "  variance of sqrt(n)(beta_hat - beta1): predicted 1, empirical 1.12406, "
        "rel dev 12.41% -> FAIL (tolerance 10%)"
    )


def test_std_err_fail_line(monkeypatch):
    monkeypatch.setattr(asymptotics, "sqrtn_bias", lambda params, lambda0: 100.0)
    [(ok, lines)] = verify_regimes(("sqrtn-bias",), 50, 7, n=100)
    assert not ok
    assert lines[1] == (
        "  mean of sqrt(n)(beta_hat - beta1): predicted 100, empirical -0.558301, "
        "|dev| = 798.66 MC std errors -> FAIL (tolerance 3)"
    )


def test_heavy_tail_fail_lines(monkeypatch):
    def flipped(samples):
        diag = cauchy_diagnostics(samples)
        return diag._replace(tail_index_flag=not diag.tail_index_flag)

    monkeypatch.setattr(asymptotics, "cauchy_diagnostics", flipped)
    [(ok, lines)] = verify_regimes(("weak-instrument",), 500, 7, n=100)
    assert not ok
    assert lines[1] == (
        "  unpenalized ratio heavy-tail flag: expected True, got False "
        "(median 7.87, iqr 11.6) -> FAIL"
    )
    assert lines[4] == "  penalized heavy-tail flag: expected False, got True -> FAIL"


@pytest.mark.parametrize(
    "regimes",
    [
        VERIFY_REGIMES,
        VERIFY_REGIMES[::-1],
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


REGIME_REJECTIONS = {
    "bare-string": ("strong-variance", "regimes must be a sequence of regime names"),
    "repeated": (("strong-variance", "strong-variance"), "regimes must not repeat a regime"),
    "repeated-apart": (
        ["sqrtn-bias", "strong-variance", "sqrtn-bias"],
        "regimes must not repeat a regime",
    ),
    "unknown": (("sqrtn-bias", "bogus"), "regimes must contain only"),
    "empty": ((), "regimes must be non-empty"),
}


def _verify_small(regimes):
    return verify_regimes(regimes, 10, 1, n=100)


@pytest.mark.parametrize(
    "check, regimes, message",
    [(_verify_small, *case) for case in REGIME_REJECTIONS.values()]
    + [(verify_min_reps, *case) for case in REGIME_REJECTIONS.values()],
    ids=[*REGIME_REJECTIONS, *(f"{name}-min-reps" for name in REGIME_REJECTIONS)],
)
def test_verify_rejects_what_the_cli_rejects(monkeypatch, check, regimes, message):
    # a bare string was read as the regimes 's', 't', ...; a repeat ran twice.
    # verify_min_reps is the check the CLI makes, so both reject the same inputs.
    calls = _count_draws(monkeypatch)
    with pytest.raises(ValueError, match=f"^{message}"):
        check(regimes)
    assert calls == []


@pytest.mark.parametrize("regime", VERIFY_REGIMES)
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

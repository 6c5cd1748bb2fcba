"""Seeded repetition experiments.

Two kinds of experiment live here: MSE sweeps over a grid of first-stage
slopes or effect sizes (one aggregate row per grid point and penalty
level), and collection of the raw sampling distribution of the scaled
estimator, with the checks (:func:`verify_regimes`) that compare it against
the closed-form limits in :mod:`.asymptotics`.

Every repetition gets its own seed derived deterministically from
``(master_seed, grid index, rep index)``, or ``(master_seed, rep index)``
in a sampling distribution, and the reduction over reps is performed in
rep order, so results are bit-identical for a given config on every run.
Nothing here writes a file: a sweep returns its per-rep estimates.

Neither a sweep nor a sampling distribution builds a dataset.  Each rep
draws the unit shocks (z, e, h) that ``generate_dataset`` draws for its
seed, with eps = sigma_eps * e and eta = sigma_eta * h, and reduces them
to three centered cross-moments: Var z, Cov[e, z] and Cov[h, z].  These are
sufficient for the ratio, because the model is linear in the shocks and
the intercepts drop out of every covariance:

    Cov[D,Z] = pi1 * Var z + eps_loading * sigma_eps * Cov[e,z] + sigma_eta * Cov[h,z]
    Cov[Y,Z] = beta1 * Cov[D,Z] + sigma_eps * Cov[e,z]

with pi1 the slope at the sample size n (``DgpParams.effective_pi1``).
Reps are drawn and reduced in blocks from one re-keyed Philox per grid
point or sampling distribution, with every rep's moments formed on its own
row, so no result depends on the block layout.  The checks of
``verify-asymptotics`` share one such draw: every regime of a run reduces
the same reps, rep i seeded ``derive_seed(seed, i)``, because the unit
shocks do not depend on a design's parameters.
The estimates match the per-dataset path (``demeaned_cov`` or
``fit_ridge_iv`` on ``generate_dataset``) up to last-bit rounding: about
1e-11 relative at most on the default sweeps, where a near-zero
denominator amplifies it.

The ``lambda_values`` of a sweep are denominator shifts at covariance
scale: each estimate is Cov[Y,Z] / (Cov[D,Z] + lambda).  At the sweep's
sample size this is the linear-rate schedule ``lambda_n = lambda * n`` of
:class:`~ridgeiv.estimators.PenaltySchedule`, the regime aggressive enough
to tame a weak first stage.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import operator
from typing import Sequence

import numpy as np

from . import asymptotics
from .dgp import DgpParams, aer_calibration
from .estimators import PenaltyRate, PenaltySchedule

__all__ = [
    "GridVariable",
    "SweepConfig",
    "SweepCell",
    "SweepResult",
    "derive_seed",
    "run_sweep",
    "collect_sampling_distribution",
    "verify_min_reps",
    "verify_regimes",
]

VERIFY_TOLERANCE = 0.10
VERIFY_REGIMES = ("strong-variance", "sqrtn-bias", "weak-instrument")


def _int_at_least(name: str, value: object, least: int) -> int:
    """``value`` as an int, checked against ``least``; numpy integers pass.

    A bool or a non-integer raises a TypeError, and a smaller value a
    ValueError, each naming ``name``.
    """
    try:
        if isinstance(value, bool):  # operator.index accepts bools
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


class GridVariable(enum.Enum):
    """Which structural parameter the sweep varies."""

    PI1 = "pi1"
    BETA1 = "beta1"


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """Full specification of one MSE sweep."""

    base_params: DgpParams
    grid_variable: GridVariable
    grid: tuple[float, ...]
    lambda_values: tuple[float, ...]
    n: int
    reps: int
    master_seed: int

    def __post_init__(self) -> None:
        for name, least in (("n", 3), ("reps", 1), ("master_seed", 0)):
            value = _int_at_least(name, getattr(self, name), least)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        object.__setattr__(
            self, "lambda_values", tuple(float(v) for v in self.lambda_values)
        )
        if not self.grid:
            raise ValueError("grid must be non-empty")
        if not all(math.isfinite(g) for g in self.grid):
            raise ValueError(f"grid values must be finite, got {self.grid}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if not self.lambda_values:
            raise ValueError("lambda_values must be non-empty")
        if not all(math.isfinite(lam) for lam in self.lambda_values):
            raise ValueError(
                f"lambda values must be finite, got {self.lambda_values}"
            )
        if any(lam < 0 for lam in self.lambda_values):
            raise ValueError("lambda values must be nonnegative")
        # cells are looked up by lambda (cells_for_lambda, mse_curve)
        if len(set(self.lambda_values)) < len(self.lambda_values):
            raise ValueError(f"lambda values must be distinct, got {self.lambda_values}")
        if (
            self.grid_variable is GridVariable.PI1
            and self.base_params.stock_c is not None
        ):
            raise ValueError(
                "cannot sweep pi1 while stock_c overrides the first-stage slope"
            )

    def params_at(self, grid_value: float) -> DgpParams:
        field = "pi1" if self.grid_variable is GridVariable.PI1 else "beta1"
        return dataclasses.replace(self.base_params, **{field: grid_value})


@dataclasses.dataclass(frozen=True)
class SweepCell:
    """Monte Carlo aggregates for one (grid value, lambda) pair.

    ``mse``, ``bias`` and ``variance`` describe beta1_hat - beta1 over the
    non-degenerate reps (1/reps convention, so mse = bias^2 + variance);
    the quantiles describe beta1_hat itself.  Reps whose penalized
    denominator was exactly zero are counted in ``n_degenerate`` and
    excluded from the moments.
    """

    grid_value: float
    lam: float
    mse: float
    bias: float
    variance: float
    q05: float
    q25: float
    q50: float
    q75: float
    q95: float
    n_degenerate: int


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Aggregated cells plus the per-rep estimates behind them.

    ``estimates[i, r]`` is beta1_hat for rep r of ``cells[i]``, NaN where
    the rep is degenerate.  ``==`` compares the cells only.
    """

    grid_variable: GridVariable
    n: int
    reps: int
    cells: tuple[SweepCell, ...]
    estimates: np.ndarray = dataclasses.field(compare=False, repr=False)

    def cells_for_lambda(self, lam: float) -> tuple[SweepCell, ...]:
        return tuple(c for c in self.cells if c.lam == lam)

    def mse_curve(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        cells = self.cells_for_lambda(lam)
        return (
            np.array([c.grid_value for c in cells]),
            np.array([c.mse for c in cells]),
        )


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive an independent child seed from a master seed and an index path.

    Distinct paths give statistically independent streams, and the mapping
    is stable across platforms and processes, so work can be farmed out in
    any order without changing a single draw.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# The seeds of one call differ only in their last entropy word, the rep
# index.  numpy computes the pool that the shared words leave behind
# (SeedSequence(master_seed, spawn_key=prefix).pool); the rest of its hash,
# mixing the rep word into that pool and generate_state(1, uint64), is
# restated here over arrays, so all rep seeds come from one pass.  Hash
# constants are Python ints masked to 32 bits: products of numpy uint32
# scalars would warn on overflow.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_XSHIFT = np.uint32(16)


def _hashmix(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of ``value``, and the hash constant after it."""
    value = value ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> _XSHIFT), hash_const


def _derive_seeds(master_seed: int, prefix: tuple[int, ...], count: int) -> np.ndarray:
    """``derive_seed(master_seed, *prefix, i)`` for i in range(count), as uint64.

    Bit-for-bit the same as the scalar path, at a fraction of a
    microsecond per seed instead of a SeedSequence object per call.
    """
    master_seed = operator.index(master_seed)
    prefix = tuple(operator.index(index) for index in prefix)
    # With prefix == () numpy does not pad the run entropy to the pool size
    # as it does when spawning, but a missing word hashes as 0, so the pool
    # is the same.
    pool = np.random.SeedSequence(master_seed, spawn_key=prefix).pool
    # Before the rep word, numpy has made 4 hashmix calls per shared word:
    # 4 to fill the pool, 12 to cross-mix it and 4 per word beyond it.
    shared = max(4, (master_seed.bit_length() + 31) // 32) + sum(
        max(1, (index.bit_length() + 31) // 32) for index in prefix
    )
    hash_const = _INIT_A * pow(_MULT_A, 4 * shared, 2**32) & _MASK32
    out_const = _INIT_B
    reps = np.arange(count, dtype=np.uint32)
    halves = []
    # generate_state(1, uint64) reads pool words 0 and 1, low word first;
    # mixing the rep word into words 2 and 3 would change no output.
    for word in pool[:2].tolist():
        value, hash_const = _hashmix(reps, hash_const, _MULT_A)
        mixed = np.uint32(word * _MIX_MULT_L & _MASK32) - value * np.uint32(_MIX_MULT_R)
        value, out_const = _hashmix(mixed ^ (mixed >> _XSHIFT), out_const, _MULT_B)
        halves.append(value.astype(np.uint64))
    return halves[0] | (halves[1] << np.uint64(32))


# Reps drawn and reduced together: at most _BLOCK_REPS, and at most
# _BLOCK_SAMPLES samples per shock row, so memory does not grow with n.
# Results do not depend on it: every rep is reduced on its own row.
_BLOCK_REPS = 64
_BLOCK_SAMPLES = 64 * 150


def _block_reps(n: int) -> int:
    return max(1, min(_BLOCK_REPS, _BLOCK_SAMPLES // n))


class _UnitShocks:
    """Draws the unit shocks of ``generate_dataset``, one seed at a time.

    ``draw(seed, out)`` fills ``out`` (shape (3, n)) with the rows z,
    eps / sigma_eps and eta / sigma_eta exactly as
    ``generate_dataset(params, n, seed)`` draws them.  One Philox serves
    every call: it is re-keyed to ``key = [seed, 0]`` with counter 0 and an
    empty buffer, the state ``Philox(key=seed)`` starts in, without the
    constructor's cost of seeding from OS entropy.
    """

    def __init__(self) -> None:
        self._bitgen = np.random.Philox(key=0)
        self._rng = np.random.Generator(self._bitgen)
        self._fresh = self._bitgen.state
        self._key = self._fresh["state"]["key"]

    def draw(self, seed: int, out: np.ndarray) -> None:
        self._key[0] = seed
        self._bitgen.state = self._fresh
        self._rng.standard_normal(out=out)


def _shock_moments(
    master_seed: int, path: tuple[int, ...], reps: int, n: int
) -> np.ndarray:
    """Var z, Cov[e, z] and Cov[h, z] per rep, shape (3, reps).

    Rep i draws the shocks of seed ``derive_seed(master_seed, *path, i)``.
    """
    seeds = _derive_seeds(master_seed, path, reps).tolist()
    draw = _UnitShocks().draw
    size = _block_reps(n)
    moments = np.empty((3, reps))
    block = np.empty((min(size, reps), 3, n))
    for start in range(0, reps, size):
        stop = min(start + size, reps)
        shocks = block[: stop - start]
        for seed, out in zip(seeds[start:stop], shocks):
            draw(seed, out)
        shocks -= shocks.mean(axis=2, keepdims=True)
        shocks *= shocks[:, :1, :]  # rows become z*z, e*z, h*z
        moments[:, start:stop] = shocks.mean(axis=2).T
    return moments


def _ratios(
    params: DgpParams, n: int, moments: np.ndarray, shifts: tuple[float, ...]
) -> np.ndarray:
    """Cov[Y,Z] / (Cov[D,Z] + shift) per shift and rep, shape (len(shifts), reps).

    A rep whose shifted denominator is exactly zero is degenerate and gets
    NaN.  No other rep does: its finite numerator is divided by a nonzero
    finite denominator, so ``isnan`` is the degenerate mask.
    """
    s_zz, s_ez, s_hz = moments
    cov_dz = (
        params.effective_pi1(n) * s_zz
        + params.eps_loading * params.sigma_eps * s_ez
        + params.sigma_eta * s_hz
    )
    cov_yz = params.beta1 * cov_dz + params.sigma_eps * s_ez
    denominators = cov_dz + np.array(shifts)[:, None]
    nan = np.full_like(denominators, math.nan)
    return np.divide(cov_yz, denominators, out=nan, where=denominators != 0.0)


def _aggregate(
    estimates: np.ndarray, true_beta1: float, grid_value: float, lam: float
) -> SweepCell:
    values = estimates[~np.isnan(estimates)]
    n_degenerate = estimates.size - values.size
    if values.size == 0:
        return SweepCell(grid_value, lam, *[math.nan] * 8, n_degenerate)
    errors = values - true_beta1
    bias = float(errors.mean())
    variance = float(np.mean((errors - bias) ** 2))
    mse = float(np.mean(errors**2))
    quantiles = np.quantile(values, [0.05, 0.25, 0.5, 0.75, 0.95]).tolist()
    return SweepCell(grid_value, lam, mse, bias, variance, *quantiles, n_degenerate)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full sweep and aggregate MSE/bias/variance per cell.

    Grid points run in order on the calling thread.  Cells are
    lambda-major, and ``SweepResult.estimates`` holds each cell's per-rep
    estimates; nothing is written to disk.
    """
    grid, lambdas = config.grid, config.lambda_values
    # every lambda shares the rep's draws
    estimates = np.empty((len(lambdas), len(grid), config.reps))
    params = [config.params_at(grid_value) for grid_value in grid]
    for gi, point in enumerate(params):
        moments = _shock_moments(config.master_seed, (gi,), config.reps, config.n)
        estimates[:, gi] = _ratios(point, config.n, moments, lambdas)
    cells = tuple(
        _aggregate(estimates[li, gi], params[gi].beta1, grid_value, lam)
        for li, lam in enumerate(lambdas)
        for gi, grid_value in enumerate(grid)
    )
    estimates = estimates.reshape(len(cells), config.reps)
    return SweepResult(config.grid_variable, config.n, config.reps, cells, estimates)


def _scaled_samples(
    params: DgpParams, n: int, moments: np.ndarray, shifts: tuple[float, ...]
) -> list[np.ndarray]:
    """The samples of :func:`collect_sampling_distribution`, one array per shift."""
    center = 0.0 if params.stock_c is not None else params.beta1
    return [
        math.sqrt(n) * (row[~np.isnan(row)] - center)
        for row in _ratios(params, n, moments, shifts)
    ]


def collect_sampling_distribution(
    params: DgpParams,
    schedule: PenaltySchedule,
    n: int,
    reps: int,
    master_seed: int,
) -> np.ndarray:
    """Realizations of the scaled estimator across seeded repetitions.

    Returns sqrt(n) * (beta1_hat - beta1) when the first stage is a fixed
    slope, and sqrt(n) * beta1_hat when ``params.stock_c`` is set (the
    drifting regime, where the estimator is centered near zero, not near
    beta1).  Reps with an exactly-zero denominator are dropped.
    """
    n, reps = _int_at_least("n", n, 3), _int_at_least("reps", reps, 1)
    master_seed = _int_at_least("master_seed", master_seed, 0)
    moments = _shock_moments(master_seed, (), reps, n)
    (samples,) = _scaled_samples(params, n, moments, (schedule.lambda_n(n) / n,))
    return samples


# ---------------------------------------------------------------------------
# verification of the limit theory


def _verify_line(label: str, predicted: float, empirical: float) -> tuple[bool, str]:
    deviation = abs(empirical - predicted) / abs(predicted)
    ok = deviation <= VERIFY_TOLERANCE
    text = (
        f"  {label}: predicted {predicted:.6g}, empirical {empirical:.6g}, "
        f"rel dev {100 * deviation:.2f}% -> {'PASS' if ok else 'FAIL'} "
        f"(tolerance {100 * VERIFY_TOLERANCE:.0f}%)"
    )
    return ok, text


def _regime_checks(regime: str, moments: np.ndarray, n: int) -> list[tuple[bool, str]]:
    """(passed, report line) per check of one regime, from the shared moments."""
    checks: list[tuple[bool, str]] = []
    if regime == "strong-variance":
        params = dataclasses.replace(aer_calibration(beta1=1.0), pi1=1.0)
        (samples,) = _scaled_samples(params, n, moments, (0.0,))
        checks.append(
            _verify_line(
                "variance of sqrt(n)(beta_hat - beta1)",
                asymptotics.v_ridge(params),
                float(np.var(samples)),
            )
        )
    elif regime == "sqrtn-bias":
        params = dataclasses.replace(aer_calibration(beta1=1.0), pi1=1.0)
        lambda0 = 0.5
        shift = PenaltySchedule(PenaltyRate.SQRT_N, lambda0).lambda_n(n) / n
        (samples,) = _scaled_samples(params, n, moments, (shift,))
        predicted = asymptotics.sqrtn_bias(params, lambda0)
        empirical = float(np.mean(samples))
        std_err = float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
        good = abs(empirical - predicted) <= 3.0 * std_err
        checks.append((good, (
            f"  mean of sqrt(n)(beta_hat - beta1): predicted {predicted:.6g}, "
            f"empirical {empirical:.6g}, |dev| = "
            f"{abs(empirical - predicted) / std_err:.2f} MC std errors -> "
            f"{'PASS' if good else 'FAIL'} (tolerance 3)"
        )))
    else:  # weak-instrument
        params = dataclasses.replace(aer_calibration(beta1=1.0, stock_c=1.0), pi1=0.0)
        lambda0 = 1.0
        shifts = (0.0, PenaltySchedule(PenaltyRate.LINEAR_N, lambda0).lambda_n(n) / n)
        raw, ridge = _scaled_samples(params, n, moments, shifts)
        diag = asymptotics.cauchy_diagnostics(raw)
        good = diag.tail_index_flag
        checks.append((good, (
            f"  unpenalized ratio heavy-tail flag: expected True, got "
            f"{diag.tail_index_flag} (median {diag.median:.3g}, "
            f"iqr {diag.iqr:.3g}) -> {'PASS' if good else 'FAIL'}"
        )))
        mean_pred, var_pred = asymptotics.staiger_stock_moments(params, lambda0)
        checks.append(
            _verify_line("mean of sqrt(n) beta_hat", mean_pred, float(np.mean(ridge)))
        )
        checks.append(
            _verify_line("variance of sqrt(n) beta_hat", var_pred, float(np.var(ridge)))
        )
        good = not asymptotics.cauchy_diagnostics(ridge).tail_index_flag
        checks.append((good, (
            f"  penalized heavy-tail flag: expected False, got "
            f"{not good} -> {'PASS' if good else 'FAIL'}"
        )))
    return checks


def verify_min_reps(regimes: Sequence[str]) -> int:
    """Fewest reps :func:`verify_regimes` accepts for these regimes.

    Every check needs a sample variance; the heavy-tail check of
    ``weak-instrument`` needs ``asymptotics.MIN_TAIL_SAMPLES`` samples.
    """
    return asymptotics.MIN_TAIL_SAMPLES if "weak-instrument" in regimes else 2


def verify_regimes(
    regimes: Sequence[str], reps: int, seed: int, n: int = 10_000
) -> list[tuple[bool, list[str]]]:
    """Run each regime's predicted-vs-empirical checks, in the order given.

    Returns (passed, report lines) per regime.  The unit shocks do not
    depend on a design's parameters, so one draw of ``reps`` reps, rep i
    seeded ``derive_seed(seed, i)``, serves every regime, and a regime's
    lines do not depend on which regimes run beside it.  Every name and
    floor is checked before the draw.
    """
    if not regimes:
        raise ValueError("regimes must be non-empty")
    for regime in regimes:
        if regime not in VERIFY_REGIMES:
            raise ValueError(f"unknown regime {regime!r}")
    reps = _int_at_least("reps", reps, verify_min_reps(regimes))
    n, seed = _int_at_least("n", n, 3), _int_at_least("seed", seed, 0)
    moments = _shock_moments(seed, (), reps, n)
    results = []
    for regime in regimes:
        checks = _regime_checks(regime, moments, n)
        header = f"[{regime}] n = {n}, reps = {reps}, seed = {seed}"
        results.append(
            (all(good for good, _ in checks), [header] + [line for _, line in checks])
        )
    return results

"""Seeded repetition experiments.

Two kinds of experiment live here: MSE sweeps over a grid of first-stage
slopes or effect sizes (one aggregate row per grid point and penalty
level), and collection of the raw sampling distribution of the scaled
estimator.  The checks of ``verify-asymptotics``, which compare such a
draw against the closed-form limits in :mod:`.asymptotics`, live in
:mod:`.verify`.

Every repetition gets its own seed derived deterministically from
``(master_seed, grid index, rep index)``, or ``(master_seed, rep index)``
in a sampling distribution, and the reduction over reps is performed in
rep order, so results are bit-identical for a given config on every run
and at every worker count.  Nothing here writes a file: a sweep returns
its per-rep estimates.

The model is :mod:`.dgp`'s alone; this module derives the seeds, splits
the reps into tasks and aggregates.  Neither a sweep nor a sampling
distribution builds a dataset.  A rep's seed goes to
``dgp._unit_moments``, which draws the sample's unit shocks and reduces
them to three moments, and ``dgp._z_covariances`` turns the moments into
Cov[Y,Z] and Cov[D,Z].  Each rep's seed fixes its draws, so they may run
on several processes (:func:`_draw_moments`, through the fork mapper of
:mod:`._fork`) in equal rep ranges of each grid point or sampling
distribution: 8 or more per worker, reps allowing.  The calling process
forms every ratio, aggregate and check; a sweep reduces every cell in
:func:`_aggregate_rows`, one pass for all the rows that keep the same
number of reps.  Its quantiles come from
:func:`~ridgeiv.asymptotics._linear_quantiles`, numpy's "linear" ones bit
for bit, without the numpy.ma import that np.quantile makes.

The estimates match the per-dataset path (``demeaned_cov`` or
``fit_ridge_iv`` on ``generate_dataset``) up to last-bit rounding: at most
1.5e-11 relative on the default sweeps, where a near-zero covariance
amplifies it.  They divide through the fit's
:func:`~ridgeiv.estimators.shifted_ratio`, so each is finite, or NaN for a
degenerate rep, or the call raises a ValueError naming the input.  A
sweep's aggregates and a sampling distribution's scaled samples keep the
same rule: nothing here returns inf.  A record or enum argument of another
type (``params``, ``schedule`` and ``config``, a ``SweepConfig``'s
``base_params`` and ``grid_variable``, a ``SweepResult``'s
``grid_variable``) raises a TypeError naming it before anything of it is
read, through ``dgp._instance``.

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

from . import _fork
from .asymptotics import _linear_quantiles
from .dgp import DgpParams, _finite_real, _finite_result, _instance, _int_at_least, _nonnegative
from .dgp import _sample_size, _unit_moments, _z_covariances
from .estimators import PenaltySchedule, shifted_ratio

__all__ = [
    "GridVariable",
    "SweepConfig",
    "SweepCell",
    "SweepResult",
    "derive_seed",
    "run_sweep",
    "collect_sampling_distribution",
]


class GridVariable(enum.Enum):
    """Which structural parameter the sweep varies; the value is its field name."""

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
        _instance("base_params", self.base_params, DgpParams)
        _instance("grid_variable", self.grid_variable, GridVariable)
        object.__setattr__(self, "n", _sample_size(self.n))
        object.__setattr__(self, "reps", _rep_count(self.reps))
        object.__setattr__(self, "master_seed", _int_at_least("master_seed", self.master_seed, 0))
        for name, check in (("grid", _finite_real), ("lambda_values", _nonnegative)):
            values = tuple(
                check(f"{name}[{i}]", value) for i, value in enumerate(getattr(self, name))
            )
            if not values:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, values)
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        # cells are looked up by lambda (cells_for_lambda, mse_curve)
        if len(set(self.lambda_values)) < len(self.lambda_values):
            raise ValueError(f"lambda_values must be distinct, got {self.lambda_values}")
        if (
            self.grid_variable is GridVariable.PI1
            and self.base_params.stock_c is not None
        ):
            raise ValueError(
                "base_params.stock_c cannot be set while sweeping pi1: "
                "stock_c / sqrt(n) overrides the first-stage slope"
            )

    def params_at(self, grid_value: float) -> DgpParams:
        field = self.grid_variable.value
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

    def __post_init__(self) -> None:
        _instance("grid_variable", self.grid_variable, GridVariable)
        # the raw CSV writes one row per entry, so a short array would
        # silently drop reps or cells
        shape, estimates = (len(self.cells), self.reps), self.estimates
        if not isinstance(estimates, np.ndarray):
            got = f"a {type(estimates).__name__}"
        elif estimates.dtype != np.float64 or estimates.shape != shape:
            got = f"a {estimates.dtype} array of shape {estimates.shape}"
        else:
            return
        raise ValueError(
            f"estimates must be a float64 array of shape (len(cells), reps) = "
            f"{shape}, got {got}"
        )

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
    any order without changing a single draw.  Every argument must be a
    nonnegative integer; anything else raises before numpy sees it, naming
    the argument.
    """
    master_seed = _int_at_least("master_seed", master_seed, 0)
    path = tuple(_int_at_least(f"path[{i}]", index, 0) for i, index in enumerate(path))
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=path)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# The seeds hash a rep's index as one 32-bit word, so reps 0 to 2**32 - 1
# are the most one draw can tell apart.
_MAX_REPS = 2**32


def _rep_count(reps: object, least: int = 1) -> int:
    """``reps`` as a rep count: an int of at least ``least`` and at most ``_MAX_REPS``."""
    reps = _int_at_least("reps", reps, least)
    if reps > _MAX_REPS:
        raise ValueError(
            f"reps must be at most {_MAX_REPS}, one seed per 32-bit rep index, got {reps}"
        )
    return reps


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


def _derive_seeds(
    master_seed: int, prefix: tuple[int, ...], start: int, stop: int
) -> np.ndarray:
    """``derive_seed(master_seed, *prefix, i)`` for i in range(start, stop), as uint64.

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
    reps = np.arange(start, stop, dtype=np.uint32)
    halves = []
    # generate_state(1, uint64) reads pool words 0 and 1, low word first;
    # mixing the rep word into words 2 and 3 would change no output.
    for word in pool[:2].tolist():
        value, hash_const = _hashmix(reps, hash_const, _MULT_A)
        mixed = np.uint32(word * _MIX_MULT_L & _MASK32) - value * np.uint32(_MIX_MULT_R)
        value, out_const = _hashmix(mixed ^ (mixed >> _XSHIFT), out_const, _MULT_B)
        halves.append(value.astype(np.uint64))
    return halves[0] | (halves[1] << np.uint64(32))


def _shock_moments(
    master_seed: int, path: tuple[int, ...], start: int, stop: int, n: int
) -> np.ndarray:
    """Var z, Cov[e, z] and Cov[h, z] per rep of [start, stop), shape (3, stop - start).

    Rep i draws the shocks of seed ``derive_seed(master_seed, *path, i)``,
    so any split of a rep range into sub-ranges gives the same columns.
    """
    return _unit_moments(_derive_seeds(master_seed, path, start, stop).tolist(), n)


# Tasks per worker: each seed path's reps are cut into equal ranges, about
# this many tasks per worker in all, and no path is cut at this many paths
# per worker.  More tasks than workers let a fast CPU's worker claim the tasks
# a slow one would have held; each range costs one more seed pass.
# On a 2-core x86-64 host, verify_regimes over all regimes at 500 reps and
# n = 10^4 on 2 workers, 64 calls per setting in alternated fresh
# processes, in ms:
#
#   ranges per worker   median   quartiles   p90
#   1                   263      253-287     345
#   4                   257      250-268     311
#   8                   260      249-283     314
#   16                  264      253-274     297
#
# Two earlier sets of 32 and 40 calls ranked 4, 8 and 16 differently, each
# within its own quartiles, so 8 is no better than its neighbours; every
# split shortened the tail that one range per worker leaves.  In 10
# alternated pairs of the perfbench verify-asymptotics workload, one range
# per worker was slower than 8 in 8 pairs (median 230 against 211 ms).
_RANGES_PER_WORKER = 8


def _draw_moments(
    master_seed: int, paths: Sequence[tuple[int, ...]], reps: int, n: int
) -> np.ndarray:
    """``_shock_moments`` of reps [0, reps) of each seed path, shape (3, len(paths), reps).

    The tasks run on :func:`~ridgeiv._fork.pool_workers` processes.  numpy
    imports ``numpy.random`` on first use.  A caller that has not drawn
    leaves that to the forked workers, in parallel: 8.3-12.9 ms each
    (median 9.0 ms) in 5 fresh processes on a 2-core x86-64 host.
    Importing it in the caller would add 5.5 MiB to its resident memory.
    """
    workers = _fork.pool_workers(len(paths) * reps, len(paths) * reps * n)
    ranges = 1 if workers == 1 else min(reps, math.ceil(_RANGES_PER_WORKER * workers / len(paths)))
    bounds = [reps * r // ranges for r in range(ranges + 1)]
    spans = list(zip(bounds, bounds[1:]))
    tasks = [(master_seed, path, start, stop, n) for path in paths for start, stop in spans]
    widths = [stop - start for start, stop in spans] * len(paths)
    return _fork.map_tasks(_shock_moments, tasks, widths, 3, workers).reshape(3, len(paths), reps)


_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)
# the statistics of a cell, in SweepCell's field order: all but the grid value, lambda and count
_STATS = tuple(f.name for f in dataclasses.fields(SweepCell))[2:-1]


def _aggregate_rows(
    estimates: np.ndarray,
    true_beta1: Sequence[float],
    grid_values: Sequence[float],
    lams: Sequence[float],
) -> tuple[np.ndarray, tuple[SweepCell, ...]]:
    """The ``SweepCell`` of each row of ``estimates``, with one argument of each sequence per row.

    This is the one place that reduces a row of estimates to a cell.  A
    row's statistics describe its non-NaN values: the MSE, bias and
    variance about its true beta1, then the quantiles.  They are NaN where
    every rep is degenerate.  All of them sit in one array of shape
    (rows, len(_STATS)), in ``SweepCell``'s field order, before any cell is
    built; the array is returned beside the cells, so :func:`run_sweep`
    checks the float range on it once.  The rows that keep the same number of values
    are compacted and reduced together, in one pass along ``axis=1``: each
    row is reduced as its own 1-D array of values would be, so every cell
    has the bits of the 1-D reduction.
    """
    reps = estimates.shape[1]
    degenerate = np.isnan(estimates).sum(axis=1)
    true_beta1 = np.asarray(true_beta1)
    stats = np.full((len(estimates), len(_STATS)), np.nan)
    for n_degenerate in set(degenerate.tolist()) - {reps}:
        rows = np.flatnonzero(degenerate == n_degenerate)
        values = estimates[rows]  # a copy, which the quantiles may reorder
        if n_degenerate:
            values = values[~np.isnan(values)].reshape(len(rows), reps - n_degenerate)
        errors = values - true_beta1[rows, None]
        bias = errors.mean(axis=1)
        mse = np.mean(errors**2, axis=1)
        # in place from here: the caller's resident memory grows with every
        # array of the size of its estimates that is alive at once
        errors -= bias[:, None]
        variance = np.mean(np.square(errors, out=errors), axis=1)
        quantiles = _linear_quantiles(values, _QUANTILES)
        stats[rows] = np.column_stack((mse, bias, variance, quantiles))
    cells = map(SweepCell, grid_values, lams, *stats.T.tolist(), degenerate.tolist())
    return stats, tuple(cells)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full sweep and aggregate MSE/bias/variance per cell.

    Every statistic is finite, or NaN in a cell whose reps are all
    degenerate; a cell whose statistics leave the float range raises a
    ValueError naming its grid entry, with the cell's lambda: the first
    such cell, lambda-major, and its first such field.  The rule is checked
    once, on the array of every cell's statistics from
    :func:`_aggregate_rows`.

    The draws of each grid point are one or more tasks, claimed from a queue
    by up to one forked process per usable CPU when the sweep is large enough
    (:func:`_draw_moments`), else run in order on the calling thread; the
    result is the same bytes either way.  Cells are lambda-major, and
    ``SweepResult.estimates`` holds each cell's per-rep estimates; nothing
    is written to disk.
    """
    _instance("config", config, SweepConfig)
    grid, lambdas, reps, n = config.grid, config.lambda_values, config.reps, config.n
    # every lambda shares the rep's draws
    estimates = np.empty((len(lambdas), len(grid), reps))
    params = [config.params_at(grid_value) for grid_value in grid]
    moments = _draw_moments(config.master_seed, [(gi,) for gi in range(len(grid))], reps, n)
    for gi in range(len(grid)):
        cov_yz, cov_dz = _z_covariances(params[gi], n, moments[:, gi], f"grid[{gi}]")
        estimates[:, gi] = shifted_ratio(
            cov_yz, cov_dz, lambdas, f"grid[{gi}] at n = {n}", "lambda_values[{}]"
        )
    del moments  # kept through the aggregate, it would raise the caller's peak memory
    estimates = estimates.reshape(len(lambdas) * len(grid), reps)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        stats, cells = _aggregate_rows(
            estimates,
            [p.beta1 for p in params] * len(lambdas),
            grid * len(lambdas),
            [lam for lam in lambdas for _ in grid],
        )
    out_of_range = ~np.isfinite(stats)
    out_of_range[[cell.n_degenerate == reps for cell in cells]] = False  # NaN by rule
    if out_of_range.any():
        i, j = np.argwhere(out_of_range)[0].tolist()  # row-major: the cell, then its field
        quantity = f"{_STATS[j]} at lambda = {cells[i].lam!r} and n = {n}"
        got = "{!r}: its estimates spread beyond the float range"
        _finite_result(f"grid[{i % len(grid)}]", quantity, stats[i, j], got)
    return SweepResult(config.grid_variable, n, reps, cells, estimates)


def _scaled_samples(
    params: DgpParams, n: int, moments: np.ndarray, shifts: tuple[float, ...]
) -> list[np.ndarray]:
    """The samples of :func:`collect_sampling_distribution`, one array per shift."""
    center = 0.0 if params.stock_c is not None else params.beta1
    cov_yz, cov_dz = _z_covariances(params, n, moments, "params")
    ratios = shifted_ratio(cov_yz, cov_dz, shifts, f"params at n = {n}", "schedule")
    with np.errstate(over="ignore"):  # an overflow is named below
        samples = [math.sqrt(n) * (row[~np.isnan(row)] - center) for row in ratios]
    quantity = f"samples sqrt(n) * (beta1_hat - {center!r}) at n = {n}"
    for sample in samples:
        _finite_result("params", quantity, sample, "one beyond the float range", plural=True)
    return samples


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
    beta1).  Reps with an exactly-zero denominator are dropped; a sample
    beyond the float range raises a ValueError naming ``params``.
    """
    _instance("params", params, DgpParams)
    _instance("schedule", schedule, PenaltySchedule)
    n, reps = _sample_size(n), _rep_count(reps)
    master_seed = _int_at_least("master_seed", master_seed, 0)
    shift = schedule.lambda_n(n) / n  # raises before the draw if it overflows
    moments = _draw_moments(master_seed, [()], reps, n)[:, 0]
    (samples,) = _scaled_samples(params, n, moments, (shift,))
    return samples

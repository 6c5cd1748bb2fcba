"""Seeded repetition experiments.

Two kinds of experiment live here: MSE sweeps over a grid of first-stage
slopes or effect sizes (one aggregate row per grid point and penalty
level), and collection of the raw sampling distribution of the scaled
estimator, with the checks (:func:`verify_regimes`) that compare it against
the closed-form limits in :mod:`.asymptotics`.

Every repetition gets its own seed derived deterministically from
``(master_seed, grid index, rep index)``, or ``(master_seed, rep index)``
in a sampling distribution, and the reduction over reps is performed in
rep order, so results are bit-identical for a given config on every run
and at every worker count.  Nothing here writes a file: a sweep returns
its per-rep estimates.

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

At n = 150 on one x86-64 core, drawing the normals is about two thirds of
the kernel, re-keying Philox about 14%, deriving the seeds 6%, centering 7%
and the products and means 6%.  Each rep's seed fixes its draws, so they
may run on several processes (:func:`_map_moments`): a sweep hands out one
grid point per task, a sampling distribution or a verify run one contiguous
range of reps per worker.  The calling process forks the workers for the
call with ``os.fork``, gets the moments back in task order through shared
memory, and forms every ratio, aggregate and check.

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
import itertools
import math
import mmap
import operator
import os
import pickle
import signal
import sys
import threading
import traceback
import warnings
from typing import BinaryIO, NoReturn, Sequence

import numpy as np

from . import asymptotics
from .dgp import DgpParams, _finite_real, _int_at_least, aer_calibration
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
        for name, cls in (("base_params", DgpParams), ("grid_variable", GridVariable)):
            value = getattr(self, name)
            if not isinstance(value, cls):
                raise TypeError(f"{name} must be a {cls.__name__}, got {value!r}")
        for name, least in (("n", 3), ("reps", 1), ("master_seed", 0)):
            value = _int_at_least(name, getattr(self, name), least)
            object.__setattr__(self, name, value)
        for name in ("grid", "lambda_values"):
            values = tuple(
                float(_finite_real(f"{name}[{i}]", value))
                for i, value in enumerate(getattr(self, name))
            )
            if not values:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, values)
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
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
    master_seed: int, path: tuple[int, ...], start: int, stop: int, n: int
) -> np.ndarray:
    """Var z, Cov[e, z] and Cov[h, z] per rep of [start, stop), shape (3, stop - start).

    Rep i draws the shocks of seed ``derive_seed(master_seed, *path, i)``,
    so any split of a rep range into sub-ranges gives the same columns.
    """
    seeds = _derive_seeds(master_seed, path, start, stop).tolist()
    reps = stop - start
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
        # rows become z*z, e*z, h*z.  The z rows are copied first: a multiply
        # that reads the array it writes makes numpy check the overlap and
        # buffer its operands, several times the cost of the same products
        # from a copy, which are the same bits.
        shocks *= shocks[:, :1, :].copy()
        moments[:, start:stop] = shocks.mean(axis=2).T
    return moments


# Forking pays only from this many samples (reps x n, summed over a call's
# tasks).  On a 2-core x86-64 Linux host, 2 forked workers against the
# serial path, 10 alternated pairs per size, won:
#
#   samples               3.1e4  6.2e4  9.2e4  1.5e5  2.2e5  3.1e5  4.0e5  6.2e5
#   sweep, n = 150        0      0      2      5      7      10     9      10
#
#   samples               1.0e5  1.5e5  2.0e5  3.0e5  4.0e5  5.0e5
#   rep range, n = 1e4    0      0      4      10     10     10
#
# Two forks, their page faults and their exits cost about 5 ms.  On the
# moments of the default sweep-pi grid (41 x 100 reps, 6.2e5 samples) the
# serial path took 57-68 ms, a fork multiprocessing Pool(2) 90-105 ms and
# the two forked workers 44-48 ms.
_POOL_MIN_SAMPLES = 300_000

_Task = tuple[int, tuple[int, ...], int, int, int]  # _shock_moments' arguments


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so ``taskset`` limits it.

    Every platform with affinity masks has ``os.fork``.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform: run serially
        return 1


def _pool_workers(tasks: int, samples: int) -> int:
    """Processes to draw ``tasks`` tasks of ``samples`` samples in all; 1 is serial.

    Nothing is forked for too little work, for a single task or CPU, in a
    daemonic ``multiprocessing`` process (such as a pool worker, which may
    not start processes), or while another Python thread runs: forking a
    threaded process can leave the child a lock that no thread will release.
    """
    if samples < _POOL_MIN_SAMPLES or threading.active_count() > 1:
        return 1
    # a process that never imported multiprocessing is none of its daemons
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    return min(_usable_cpus(), tasks)


class _WorkerTraceback(Exception):
    """The traceback of an error raised in a draw worker, as text."""


def _draw_share(
    cpu: int,
    tasks: list[_Task],
    columns: list[tuple[int, int]],
    shared: np.ndarray,
    report: BinaryIO,
) -> NoReturn:
    """The life of a forked draw worker: fill its columns of ``shared``, then exit.

    An error, with its traceback, is pickled to ``report`` for the caller to
    raise; an error that does not pickle and unpickle goes as a RuntimeError
    naming it.  The worker never returns into the caller's stack.
    """
    code = 1
    try:
        # Linux may start forked children on one CPU and leave them there
        # for the few milliseconds they live: on a 2-core host both workers
        # of a sweep often shared a CPU, each taking twice its time.  So the
        # worker moves to a CPU of its own, then gets the whole mask back,
        # free to move off a CPU that turns busy.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, cpus)
        for task, (first, last) in zip(tasks, columns):
            shared[:, first:last] = _shock_moments(*task)
        code = 0
    except BaseException as exc:
        text = traceback.format_exc()
        try:
            error = pickle.dumps((exc, text))
            pickle.loads(error)
        except Exception:
            error = pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), text))
        report.write(error)
        report.flush()
    finally:
        os._exit(code)


def _map_moments(tasks: list[_Task], workers: int) -> list[np.ndarray]:
    """``_shock_moments`` of each task, in task order, on ``workers`` processes.

    With more than one worker, the call forks one child per worker.  Each
    child draws a contiguous share of the tasks into one anonymous shared
    ``mmap`` while the caller waits.  The children inherit the tasks, so
    nothing is pickled but an error, which comes back over a pipe and is
    raised here with the child's traceback as its cause.  No child outlives
    the call: on any error, the children still running are killed, and
    every child is reaped.

    numpy imports ``numpy.random`` on first use.  A caller that has not
    drawn leaves that to the children, about 16 ms each and in parallel:
    importing it here would add 5.5 MiB to the caller's resident memory.
    """
    if workers == 1:
        return [_shock_moments(*task) for task in tasks]
    ends = [0, *itertools.accumulate(stop - start for _, _, start, stop, _ in tasks)]
    columns = list(zip(ends, ends[1:]))
    shared = np.frombuffer(mmap.mmap(-1, 3 * 8 * ends[-1]), np.float64).reshape(3, -1)
    shares = [len(tasks) * w // workers for w in range(workers + 1)]
    cpus = sorted(os.sched_getaffinity(0))
    pids: list[int] = []  # forked and not yet reaped
    pipes: list[BinaryIO] = []  # read ends: a child's pickled error, if any
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on any fork beside a native thread, such as
            # the BLAS pool numpy starts; no draw calls BLAS, and
            # _pool_workers has checked that no Python thread runs.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded", DeprecationWarning
            )
            for w, (first, last) in enumerate(zip(shares, shares[1:])):
                read_fd, write_fd = os.pipe()
                pipes.append(open(read_fd, "rb"))
                with open(write_fd, "wb") as report:
                    pid = os.fork()
                    if pid == 0:
                        cpu, share = cpus[w % len(cpus)], slice(first, last)
                        _draw_share(cpu, tasks[share], columns[share], shared, report)
                pids.append(pid)
        for pid, pipe in zip(pids.copy(), pipes):
            error = pipe.read()  # the end of file comes when the child exits
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            if error:
                exc, text = pickle.loads(error)
                raise exc from _WorkerTraceback(text)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"draw worker {pid} exited with code {code}")
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
    return [shared[:, first:last].copy() for first, last in columns]


def _rep_moments(master_seed: int, reps: int, n: int) -> np.ndarray:
    """``_shock_moments(master_seed, (), 0, reps, n)``, one rep range per worker."""
    workers = _pool_workers(reps, reps * n)
    bounds = [reps * w // workers for w in range(workers + 1)]
    tasks = [(master_seed, (), start, stop, n) for start, stop in zip(bounds, bounds[1:])]
    return np.concatenate(_map_moments(tasks, workers), axis=1)


def _ratios(
    params: DgpParams, n: int, moments: np.ndarray, shifts: tuple[float, ...]
) -> np.ndarray:
    """Cov[Y,Z] / (Cov[D,Z] + shift) per shift and rep, shape (len(shifts), reps).

    This is the rule of :func:`~ridgeiv.estimators.shifted_ratio` applied
    per rep: a rep whose shifted denominator is exactly zero is degenerate
    and gets NaN where ``shifted_ratio`` raises.  No other rep does: its
    finite numerator is divided by a nonzero finite denominator, so
    ``isnan`` is the degenerate mask.
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

    Each grid point's draws are one task, run on up to one forked process
    per usable CPU when the sweep is large enough (:func:`_pool_workers`),
    else in order on the calling thread; the result is the same bytes
    either way.  Cells are lambda-major, and
    ``SweepResult.estimates`` holds each cell's per-rep estimates; nothing
    is written to disk.
    """
    grid, lambdas, reps, n = config.grid, config.lambda_values, config.reps, config.n
    # every lambda shares the rep's draws
    estimates = np.empty((len(lambdas), len(grid), reps))
    params = [config.params_at(grid_value) for grid_value in grid]
    tasks = [(config.master_seed, (gi,), 0, reps, n) for gi in range(len(grid))]
    workers = _pool_workers(len(tasks), len(tasks) * reps * n)
    for gi, moments in enumerate(_map_moments(tasks, workers)):
        estimates[:, gi] = _ratios(params[gi], n, moments, lambdas)
    cells = tuple(
        _aggregate(estimates[li, gi], params[gi].beta1, grid_value, lam)
        for li, lam in enumerate(lambdas)
        for gi, grid_value in enumerate(grid)
    )
    estimates = estimates.reshape(len(cells), reps)
    return SweepResult(config.grid_variable, n, reps, cells, estimates)


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
    if not isinstance(params, DgpParams):
        raise TypeError(f"params must be a DgpParams, got {params!r}")
    if not isinstance(schedule, PenaltySchedule):
        raise TypeError(f"schedule must be a PenaltySchedule, got {schedule!r}")
    n, reps = _int_at_least("n", n, 3), _int_at_least("reps", reps, 1)
    master_seed = _int_at_least("master_seed", master_seed, 0)
    shift = schedule.lambda_n(n) / n  # raises before the draw if it overflows
    moments = _rep_moments(master_seed, reps, n)
    (samples,) = _scaled_samples(params, n, moments, (shift,))
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
    floor is checked before the draw; a bare string or a repeat is rejected.
    """
    if isinstance(regimes, str):
        raise ValueError(f"regimes must be a sequence of regime names, got {regimes!r}")
    if not regimes:
        raise ValueError("regimes must be non-empty")
    for regime in regimes:
        if regime not in VERIFY_REGIMES:
            raise ValueError(f"unknown regime {regime!r}")
    if len(set(regimes)) < len(regimes):
        raise ValueError(f"regimes must not repeat a regime, got {list(regimes)}")
    reps = _int_at_least("reps", reps, verify_min_reps(regimes))
    n, seed = _int_at_least("n", n, 3), _int_at_least("seed", seed, 0)
    moments = _rep_moments(seed, reps, n)
    results = []
    for regime in regimes:
        checks = _regime_checks(regime, moments, n)
        header = f"[{regime}] n = {n}, reps = {reps}, seed = {seed}"
        results.append(
            (all(good for good, _ in checks), [header] + [line for _, line in checks])
        )
    return results

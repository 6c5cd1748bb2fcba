"""The fork pool under the draws: any worker count gives the same bytes."""

import dataclasses
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

import ridgeiv._fork as _fork
import ridgeiv.montecarlo as montecarlo
from conftest import assert_no_child_left
from ridgeiv.cli import (
    DEFAULT_SEED,
    default_beta_sweep,
    default_pi_sweep,
    write_raw_csv,
    write_sweep_csv,
)
from ridgeiv.dgp import aer_calibration
from ridgeiv.estimators import PenaltyRate, PenaltySchedule
from ridgeiv.montecarlo import (
    GridVariable,
    SweepConfig,
    collect_sampling_distribution,
    run_sweep,
)
from ridgeiv.verify import VERIFY_REGIMES, verify_regimes

_SWEEP = SweepConfig(
    base_params=aer_calibration(beta1=1.0),
    grid_variable=GridVariable.PI1,
    grid=(0.0, 0.05, 0.6),
    lambda_values=(0.0, 1.0),
    n=40,
    reps=70,
    master_seed=11,
)
_SCHEDULE = PenaltySchedule(PenaltyRate.SQRT_N, 0.5)


def _sweep_bytes(config, tmp_path):
    result = run_sweep(config)
    write_sweep_csv(result, tmp_path / "mse_sweep.csv")
    write_raw_csv(result, tmp_path / "raw_estimates.csv")
    return [(tmp_path / name).read_bytes() for name in ("mse_sweep.csv", "raw_estimates.csv")]


# each entry point, as comparable bytes or values
_ENTRY_POINTS = {
    "sweep": lambda out: _sweep_bytes(_SWEEP, out),
    # one grid point, cut into rep ranges
    "one-point sweep": lambda out: _sweep_bytes(dataclasses.replace(_SWEEP, grid=(0.05,)), out),
    "collect": lambda _: collect_sampling_distribution(
        aer_calibration(beta1=1.0), _SCHEDULE, 40, 7, 3
    ).tobytes(),
    "verify": lambda _: verify_regimes(VERIFY_REGIMES, 500, 402, n=60),
}


@pytest.fixture
def draw_pids(monkeypatch, tmp_path):
    """Force a pool of ``workers`` on any work; returns a reader of the draws' PIDs."""
    log = tmp_path / "pids"
    shock_moments = montecarlo._shock_moments

    def logged(*task):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return shock_moments(*task)

    monkeypatch.setattr(montecarlo, "_shock_moments", logged)
    monkeypatch.setattr(_fork, "_POOL_MIN_SAMPLES", 0)

    def run(entry, workers, out):
        monkeypatch.setattr(_fork, "_usable_cpus", lambda: workers)
        log.write_text("")
        out.mkdir()
        value = _ENTRY_POINTS[entry](out)
        return value, set(map(int, log.read_text().split()))

    return run


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_worker_count_gives_the_serial_bytes(draw_pids, tmp_path, entry):
    serial, pids = draw_pids(entry, 1, tmp_path / "w1")
    assert pids == {os.getpid()}
    for workers in (2, 3):
        pooled, pids = draw_pids(entry, workers, tmp_path / f"w{workers}")
        assert pooled == serial
        # the draws ran in the pool's processes, not in this one
        assert pids and os.getpid() not in pids
        assert multiprocessing.active_children() == []
        assert_no_child_left()


def test_no_pool_beside_a_live_thread(draw_pids, tmp_path):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        _, pids = draw_pids("collect", 2, tmp_path / "w2")
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert pids == {os.getpid()}


def test_small_work_stays_serial(monkeypatch):
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    reps, n = 10, 50
    assert reps * n < _fork._POOL_MIN_SAMPLES
    assert _fork.pool_workers(reps, reps * n) == 1
    assert _fork.pool_workers(1, 10**9) == 1  # one task
    assert _fork.pool_workers(reps, 10**9) == 2


def test_without_affinity_masks_the_draws_stay_serial(monkeypatch):
    # macOS has no os.sched_getaffinity; ridgeiv then counts one usable CPU
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _fork._usable_cpus() == 1
    assert _fork.pool_workers(4, 10 * _fork._POOL_MIN_SAMPLES) == 1


def _exit_with_pool_workers():
    sys.exit(_fork.pool_workers(2, 10**6))


@pytest.mark.parametrize(
    "daemon, workers", [(True, 1), (False, 2)], ids=["daemonic", "not-daemonic"]
)
def test_a_daemonic_process_forks_no_workers(monkeypatch, daemon, workers):
    # a pool worker is daemonic: a pool on W CPUs would fork W**2 draw workers
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    context = multiprocessing.get_context("fork")
    process = context.Process(target=_exit_with_pool_workers, daemon=daemon)
    process.start()
    process.join(timeout=60)
    assert process.exitcode == workers


def _two_rows(first, width):
    """A stand-in task: 2 rows of ``width`` columns, none of them a draw."""
    return np.sqrt(np.arange(first, first + 2 * width, dtype=np.float64)).reshape(2, width)


def test_the_mapper_gives_the_serial_bytes_for_any_row_count():
    tasks = [(0, 1), (10, 3), (20, 2), (30, 4), (40, 1)]
    widths = [width for _, width in tasks]
    serial = _fork.map_tasks(_two_rows, tasks, widths, 2, 1)
    assert serial.shape == (2, sum(widths))
    pooled = _fork.map_tasks(_two_rows, tasks, widths, 2, 2)
    assert pooled.dtype == np.float64 and pooled.shape == serial.shape
    assert pooled.tobytes() == serial.tobytes()
    assert_no_child_left()


def test_an_error_in_a_task_reaches_the_caller(monkeypatch):
    def fail(master_seed, path, start, stop, n):
        raise RuntimeError(f"draw of reps {start}-{stop} failed")

    monkeypatch.setattr(montecarlo, "_shock_moments", fail)
    monkeypatch.setattr(_fork, "_POOL_MIN_SAMPLES", 0)
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=r"draw of reps \d+-\d+ failed"):
        collect_sampling_distribution(aer_calibration(beta1=1.0), _SCHEDULE, 40, 8, 3)
    assert multiprocessing.active_children() == []
    assert_no_child_left()


def _collect_bytes(_=None):
    return collect_sampling_distribution(aer_calibration(beta1=1.0), _SCHEDULE, 40, 7, 3).tobytes()


def test_a_pool_worker_draws_serially(monkeypatch):
    # a pool on W CPUs would fork W**2 draw workers, and terminate() would orphan them
    monkeypatch.setattr(_fork, "_POOL_MIN_SAMPLES", 0)
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        (inner,) = pool.map(_collect_bytes, [None])
        pool.close()
        pool.join()
    assert inner == _collect_bytes()
    assert multiprocessing.active_children() == []
    assert_no_child_left()


@pytest.fixture
def map_calls(monkeypatch):
    """Two usable CPUs; returns the (tasks, workers) of each ``_fork.map_tasks`` call."""
    calls = []
    map_tasks = _fork.map_tasks

    def recorded(function, tasks, widths, rows, workers):
        calls.append((tasks, workers))
        return map_tasks(function, tasks, widths, rows, workers)

    monkeypatch.setattr(_fork, "map_tasks", recorded)
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    return calls


# The benchmark's workloads keep their split: a default sweep has enough grid
# points for two workers, so each point stays one task.
@pytest.mark.parametrize("preset", [default_pi_sweep, default_beta_sweep])
def test_a_default_sweep_makes_one_task_per_grid_point(map_calls, preset):
    config = preset(reps=100)
    run_sweep(config)
    tasks = [(config.master_seed, (gi,), 0, 100, 150) for gi in range(len(config.grid))]
    assert map_calls == [(tasks, 2)]


def test_verify_makes_8_equal_rep_ranges_per_worker(map_calls):
    verify_regimes(VERIFY_REGIMES, 500, DEFAULT_SEED)
    bounds = [500 * r // 16 for r in range(17)]
    tasks = [(DEFAULT_SEED, (), start, stop, 10_000) for start, stop in zip(bounds, bounds[1:])]
    assert map_calls == [(tasks, 2)]

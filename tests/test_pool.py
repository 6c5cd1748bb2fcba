"""The fork pool under the draws: any worker count gives the same bytes."""

import multiprocessing
import os
import threading

import pytest

import ridgeiv.montecarlo as montecarlo
from ridgeiv.cli import write_raw_csv, write_sweep_csv
from ridgeiv.dgp import aer_calibration
from ridgeiv.estimators import PenaltyRate, PenaltySchedule
from ridgeiv.montecarlo import (
    GridVariable,
    SweepConfig,
    collect_sampling_distribution,
    run_sweep,
    verify_regimes,
)

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


def _sweep_bytes(tmp_path):
    result = run_sweep(_SWEEP)
    write_sweep_csv(result, tmp_path / "mse_sweep.csv")
    write_raw_csv(result, tmp_path / "raw_estimates.csv")
    return [(tmp_path / name).read_bytes() for name in ("mse_sweep.csv", "raw_estimates.csv")]


# each entry point, as comparable bytes or values
_ENTRY_POINTS = {
    "sweep": _sweep_bytes,
    "collect": lambda _: collect_sampling_distribution(
        aer_calibration(beta1=1.0), _SCHEDULE, 40, 7, 3
    ).tobytes(),
    "verify": lambda _: verify_regimes(montecarlo.VERIFY_REGIMES, 500, 402, n=60),
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
    monkeypatch.setattr(montecarlo, "_POOL_MIN_SAMPLES", 0)

    def run(entry, workers, out):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
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
        with pytest.raises(ChildProcessError):  # no child of any kind is left
            os.waitpid(-1, os.WNOHANG)


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
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    reps, n = 10, 50
    assert reps * n < montecarlo._POOL_MIN_SAMPLES
    assert montecarlo._pool_workers(reps, reps * n) == 1
    assert montecarlo._pool_workers(1, 10**9) == 1  # one task
    assert montecarlo._pool_workers(reps, 10**9) == 2


def test_an_error_in_a_task_reaches_the_caller(monkeypatch):
    def fail(master_seed, path, start, stop, n):
        raise RuntimeError(f"draw of reps {start}-{stop} failed")

    monkeypatch.setattr(montecarlo, "_shock_moments", fail)
    monkeypatch.setattr(montecarlo, "_POOL_MIN_SAMPLES", 0)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=r"draw of reps \d+-\d+ failed"):
        collect_sampling_distribution(aer_calibration(beta1=1.0), _SCHEDULE, 40, 8, 3)
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no child of any kind is left
        os.waitpid(-1, os.WNOHANG)


def _collect_bytes(_=None):
    return collect_sampling_distribution(aer_calibration(beta1=1.0), _SCHEDULE, 40, 7, 3).tobytes()


def test_a_pool_worker_draws_serially(monkeypatch):
    # a daemonic process, such as a pool worker, may not start processes
    monkeypatch.setattr(montecarlo, "_POOL_MIN_SAMPLES", 0)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        (inner,) = pool.map(_collect_bytes, [None])
        pool.close()
        pool.join()
    assert inner == _collect_bytes()
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no child of any kind is left
        os.waitpid(-1, os.WNOHANG)

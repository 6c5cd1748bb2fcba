"""Errors around the forked draw workers reach the caller; no worker outlives a call."""

import os
import signal
import time

import numpy as np
import pytest

import ridgeiv._fork as _fork
import ridgeiv.montecarlo as montecarlo
from conftest import assert_no_child_left
from ridgeiv.dgp import aer_calibration
from ridgeiv.estimators import PenaltyRate, PenaltySchedule
from ridgeiv.montecarlo import (
    GridVariable,
    SweepConfig,
    collect_sampling_distribution,
    run_sweep,
)

_SCHEDULE = PenaltySchedule(PenaltyRate.SQRT_N, 0.5)
_PARAMS = aer_calibration(beta1=1.0)
_SWEEP = SweepConfig(
    base_params=_PARAMS,
    grid_variable=GridVariable.PI1,
    grid=(0.0, 0.05, 0.6),
    lambda_values=(0.0, 1.0),
    n=40,
    reps=20,
    master_seed=11,
)
# on 2 workers, the collection's 8 reps are 8 tasks and each grid point of
# the sweep is 6 rep ranges; some worker claims the tasks past rep 0 of the
# collection and the ranges of grid point 1 of the sweep from the task queue
_ENTRY_POINTS = {
    "collect": (
        lambda: collect_sampling_distribution(_PARAMS, _SCHEDULE, 40, 8, 3),
        lambda path, start: start > 0,
    ),
    "sweep": (lambda: run_sweep(_SWEEP), lambda path, start: path == (1,)),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_an_error_in_one_share_reaches_the_caller(monkeypatch, two_workers, entry):
    call, in_second_share = _ENTRY_POINTS[entry]
    shock_moments = montecarlo._shock_moments

    def fail_in_second_share(master_seed, path, start, stop, n):
        if in_second_share(path, start):
            raise LookupError(f"no draw for path {path}, reps {start}-{stop}")
        return shock_moments(master_seed, path, start, stop, n)

    monkeypatch.setattr(montecarlo, "_shock_moments", fail_in_second_share)
    message = r"^no draw for path \(\d?,?\), reps \d+-\d+$"
    with pytest.raises(LookupError, match=message) as info:
        call()
    # the caller's serial run raises it, so the traceback passes the task
    assert "fail_in_second_share" in [entry.name for entry in info.traceback]
    assert_no_child_left()


class Unbuildable(Exception):
    """Pickles, but unpickling calls it with one argument."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def test_an_error_that_does_not_unpickle_reaches_the_caller_as_itself(
    monkeypatch, two_workers
):
    def fail(*task):
        raise Unbuildable("lost", "reps")

    monkeypatch.setattr(montecarlo, "_shock_moments", fail)
    # nothing is pickled: the caller's serial run raises it
    with pytest.raises(Unbuildable, match=r"^lost reps$"):
        _ENTRY_POINTS["collect"][0]()
    assert_no_child_left()


def test_an_error_in_a_forked_worker_alone_gives_the_serial_bytes():
    # the caller's run of the tasks raises nothing, so its result is returned
    caller = os.getpid()

    def fail_in_a_child(row, width):
        if os.getpid() != caller:
            raise LookupError("only in a child")
        return np.full((2, width), float(row))

    tasks = [(row, width) for row, width in enumerate((1, 3, 2, 4))]
    widths = [width for _, width in tasks]
    serial = _fork.map_tasks(fail_in_a_child, tasks, widths, 2, 1)
    pooled = _fork.map_tasks(fail_in_a_child, tasks, widths, 2, 2)
    assert pooled.tobytes() == serial.tobytes()
    assert_no_child_left()


def test_a_worker_killed_by_a_signal_is_reported(monkeypatch, two_workers):
    shock_moments = montecarlo._shock_moments

    def die_in_second_share(master_seed, path, start, stop, n):
        if start > 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return shock_moments(master_seed, path, start, stop, n)

    monkeypatch.setattr(montecarlo, "_shock_moments", die_in_second_share)
    with pytest.raises(RuntimeError, match=r"^draw worker \d+ exited with code -9$"):
        _ENTRY_POINTS["collect"][0]()
    assert_no_child_left()


class _Interrupted(Exception):
    pass


def test_an_error_in_the_caller_kills_the_drawing_workers(
    monkeypatch, two_workers, tmp_path
):
    log = tmp_path / "draws"

    def hang(*task):
        with log.open("a") as fh:
            fh.write("started\n")
        time.sleep(60)
        with log.open("a") as fh:
            fh.write("finished\n")

    def interrupt(signum, frame):
        raise _Interrupted

    monkeypatch.setattr(montecarlo, "_shock_moments", hang)
    previous = signal.signal(signal.SIGALRM, interrupt)
    began = time.monotonic()
    try:
        # the caller is waiting on its workers when the alarm raises in it
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(_Interrupted):
            _ENTRY_POINTS["collect"][0]()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - began < 30
    assert log.read_text().split() == ["started", "started"]
    assert_no_child_left()

"""Errors around the forked draw workers reach the caller; no worker outlives a call."""

import os
import signal
import time

import pytest

import ridgeiv.montecarlo as montecarlo
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
# on 2 workers, the second one draws reps 4-8 of the collection and grid
# points 1 and 2 of the sweep
_ENTRY_POINTS = {
    "collect": (
        lambda: collect_sampling_distribution(_PARAMS, _SCHEDULE, 40, 8, 3),
        lambda path, start: start > 0,
    ),
    "sweep": (lambda: run_sweep(_SWEEP), lambda path, start: path == (1,)),
}


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(montecarlo, "_POOL_MIN_SAMPLES", 0)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    # the worker's traceback comes along as the cause
    assert "fail_in_second_share" in str(info.value.__cause__)
    _assert_no_child_left()


class Unbuildable(Exception):
    """Pickles, but unpickling calls it with one argument."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def test_an_error_that_does_not_unpickle_arrives_by_name(monkeypatch, two_workers):
    def fail(*task):
        raise Unbuildable("lost", "reps")

    monkeypatch.setattr(montecarlo, "_shock_moments", fail)
    with pytest.raises(RuntimeError, match=r"^Unbuildable: lost reps$"):
        _ENTRY_POINTS["collect"][0]()
    _assert_no_child_left()


def test_a_worker_killed_by_a_signal_is_reported(monkeypatch, two_workers):
    shock_moments = montecarlo._shock_moments

    def die_in_second_share(master_seed, path, start, stop, n):
        if start > 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return shock_moments(master_seed, path, start, stop, n)

    monkeypatch.setattr(montecarlo, "_shock_moments", die_in_second_share)
    with pytest.raises(RuntimeError, match=r"^draw worker \d+ exited with code -9$"):
        _ENTRY_POINTS["collect"][0]()
    _assert_no_child_left()


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
    _assert_no_child_left()

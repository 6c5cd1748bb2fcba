"""The draw workers claim tasks from one queue, and a call leaves nothing open behind it."""

import collections
import os
import signal
import time

import pytest

import ridgeiv._fork as _fork
import ridgeiv.montecarlo as montecarlo
from conftest import assert_no_child_left
from ridgeiv.dgp import aer_calibration
from ridgeiv.estimators import PenaltyRate, PenaltySchedule
from ridgeiv.montecarlo import GridVariable, SweepConfig, collect_sampling_distribution, run_sweep

_SWEEP = SweepConfig(
    base_params=aer_calibration(beta1=1.0),
    grid_variable=GridVariable.PI1,
    grid=tuple(0.05 * i for i in range(20)),  # 20 tasks
    lambda_values=(0.0, 1.0),
    n=40,
    reps=20,
    master_seed=11,
)
_SCHEDULE = PenaltySchedule(PenaltyRate.SQRT_N, 0.5)


def test_a_slow_worker_does_not_hold_the_other_tasks(monkeypatch, tmp_path):
    serial = run_sweep(_SWEEP)
    log = tmp_path / "draws"
    shock_moments = montecarlo._shock_moments

    def slow_on_task_0(master_seed, path, start, stop, n):
        if path == (0,):
            time.sleep(1.0)
        with log.open("a") as fh:
            fh.write(f"{os.getpid()} {path[0]}\n")
        return shock_moments(master_seed, path, start, stop, n)

    monkeypatch.setattr(montecarlo, "_shock_moments", slow_on_task_0)
    monkeypatch.setattr(_fork, "_POOL_MIN_SAMPLES", 0)
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    pooled = run_sweep(_SWEEP)
    assert pooled == serial
    assert pooled.estimates.tobytes() == serial.estimates.tobytes()
    drawn_by = dict(reversed(line.split()) for line in log.read_text().splitlines())
    assert sorted(map(int, drawn_by)) == list(range(20))
    slow_worker_draws = collections.Counter(drawn_by.values())[drawn_by["0"]]
    assert slow_worker_draws <= 2  # with a fixed half of the tasks each, 10
    assert_no_child_left()


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_pooled_call_leaves_the_open_fds_as_they_were(monkeypatch, two_workers):
    before = _open_fds()
    samples = collect_sampling_distribution(aer_calibration(beta1=1.0), _SCHEDULE, 40, 8, 3)
    assert samples.size == 8
    assert _open_fds() == before

    def fail(master_seed, path, start, stop, n):
        raise LookupError(f"no draw for reps {start}-{stop}")

    monkeypatch.setattr(montecarlo, "_shock_moments", fail)
    with pytest.raises(LookupError, match="no draw for reps"):
        collect_sampling_distribution(aer_calibration(beta1=1.0), _SCHEDULE, 40, 8, 3)
    assert _open_fds() == before
    assert_no_child_left()


# more task records than a pipe holds, so the caller is still writing the
# queue when every worker has died on its first task
_MANY_TASKS = [(3, (i,), 0, 1, 3) for i in range(40_000)]


def test_an_error_outlives_the_broken_queue(monkeypatch):
    def fail(master_seed, path, start, stop, n):
        raise LookupError(f"no draw for path {path}")

    monkeypatch.setattr(montecarlo, "_shock_moments", fail)
    with pytest.raises(LookupError, match=r"^no draw for path \(\d+,\)$"):
        _fork.map_tasks(montecarlo._shock_moments, _MANY_TASKS, [1] * len(_MANY_TASKS), 3, 2)
    assert_no_child_left()


def test_a_killed_worker_outlives_the_broken_queue(monkeypatch):
    def die(*task):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(montecarlo, "_shock_moments", die)
    with pytest.raises(RuntimeError, match=r"^draw worker \d+ exited with code -9$"):
        _fork.map_tasks(montecarlo._shock_moments, _MANY_TASKS, [1] * len(_MANY_TASKS), 3, 2)
    assert_no_child_left()

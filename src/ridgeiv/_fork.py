"""Map tasks over forked worker processes into one shared array.

:func:`map_tasks` calls a function on each task and lays the results, each
a float64 array of the same rows, side by side in task order.  With more
than one worker, the calling process forks the workers for the call with
``os.fork`` and queues every task in a pipe; each worker claims the next
task as soon as it is free, so no worker waits on a slow one's share.  The
caller gets the results back in task order in one shared array, so they do
not depend on which worker ran what.  :func:`pool_workers` picks the
worker count: one, the serial path, unless the work is large enough for
the forks to pay.

Nothing here knows what a task computes: the caller passes the function
and each task's arguments, and states how wide each result is.  Every task
is a pure function of its arguments, so a worker whose task raises just
exits, and the caller runs the tasks again on its own thread, where the
error is raised with its own type, message and traceback.
"""

from __future__ import annotations

import itertools
import mmap
import os
import select
import signal
import struct
import sys
import threading
import warnings
from typing import BinaryIO, Callable, NoReturn, Sequence

import numpy as np

__all__ = ["map_tasks", "pool_workers"]

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
# draws of the default sweep-pi grid (41 x 100 reps, 6.2e5 samples) the
# serial path took 57-68 ms, a fork multiprocessing Pool(2) 90-105 ms and
# the two forked workers 44-48 ms.
_POOL_MIN_SAMPLES = 300_000

_TASK_RECORD = struct.Struct("=I")  # a task's index in the task queue


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so ``taskset`` limits it.

    Every platform with affinity masks has ``os.fork``.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform: run serially
        return 1


def pool_workers(tasks: int, samples: int) -> int:
    """Processes to run ``tasks`` tasks of ``samples`` samples in all; 1 is serial.

    Nothing is forked for too little work, for a single task or CPU, in a
    daemonic ``multiprocessing`` process such as a pool worker (a pool on W
    CPUs would fork W**2 draw workers, and the SIGTERM of its
    ``terminate()`` skips the ``finally`` that reaps them), or while another
    Python thread runs: forking a threaded process can leave the child a
    lock that no thread will release.
    """
    if samples < _POOL_MIN_SAMPLES or threading.active_count() > 1:
        return 1
    # a process that never imported multiprocessing is none of its daemons
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    return min(_usable_cpus(), tasks)


def _serve_tasks(
    queue: tuple[BinaryIO, BinaryIO],
    function: Callable,
    tasks: Sequence[tuple],
    columns: list[tuple[int, int]],
    shared: np.ndarray,
) -> NoReturn:
    """The life of a forked worker: claim tasks from ``queue`` until it ends, then exit.

    ``queue`` holds the unbuffered read and write ends of the task queue.
    The worker closes the write end, then reads one task index at a time and
    writes ``function`` of that task into its columns of ``shared``; the end
    of file ends the work.  An error ends the worker with exit code 1 and
    nothing written: the caller runs the tasks again to raise it.  The
    worker never returns into the caller's stack.
    """
    code = 1
    try:
        reader, writer = queue
        writer.close()
        # a record is never torn: the caller writes whole records, at most
        # select.PIPE_BUF bytes at a time, and a pipe read takes its bytes
        # whole
        while record := reader.read(_TASK_RECORD.size):
            (index,) = _TASK_RECORD.unpack(record)
            first, last = columns[index]
            shared[:, first:last] = function(*tasks[index])
        code = 0
    finally:
        os._exit(code)


def map_tasks(
    function: Callable, tasks: Sequence[tuple], widths: Sequence[int], rows: int, workers: int
) -> np.ndarray:
    """``function(*task)`` of each task side by side, in task order, on ``workers`` processes.

    Each result is a float64 array of shape ``(rows, widths[i])`` for task
    i; the call returns one ``(rows, sum(widths))`` array.  With one worker
    the tasks run in order on the calling thread.

    With more than one, the call forks one child per worker and then writes
    every task's index into one pipe, the task queue.  Each child claims the
    next index as soon as it is free, so a child on a slow CPU runs fewer
    tasks instead of holding the others back.  It writes each result into
    that task's columns of the anonymous shared ``mmap`` that the call
    returns; the columns are fixed by the index, so the result does not
    depend on which child ran what.  The children inherit the function and
    the tasks, so nothing is pickled.  A child whose task raises exits with
    code 1; once every child is reaped, the tasks run again in order on the
    calling thread, so the error is raised here with its own type, message
    and traceback.  If that run raises nothing (the error came from a child
    alone), its result, the same bytes, is returned.  A child ended
    otherwise, as by a signal, raises a RuntimeError naming its exit code.
    No child outlives the call: on any error, the children still running
    are killed, and every child is reaped.  ``function`` must not call
    BLAS, whose threads the children do not inherit.

    The queue is measured to pay.  With fixed strides in its place (worker
    w drawing tasks w, w + W, ...), 8 alternated pairs of the perfbench
    sweeps at 100 reps on a 2-core x86-64 host ran slower: the default
    sweep-pi in 8 of 8 pairs (median 54.9 against 49.5 ms) and sweep-beta
    with --raw --plots in 7 of 8 (85.9 against 82.5 ms).
    """
    if workers == 1:
        return np.concatenate([function(*task) for task in tasks], axis=1)
    ends = [0, *itertools.accumulate(widths)]
    columns = list(zip(ends, ends[1:]))
    shared = np.frombuffer(mmap.mmap(-1, rows * 8 * ends[-1]), np.float64).reshape(rows, -1)
    pids: list[int] = []  # forked and not yet reaped
    failed = False  # a child's task raised
    read_fd, write_fd = os.pipe()
    queue = (open(read_fd, "rb", buffering=0), open(write_fd, "wb", buffering=0))
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on any fork beside a native thread, such as
            # the BLAS pool numpy starts; no task calls BLAS, and
            # pool_workers has checked that no Python thread runs.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded", DeprecationWarning
            )
            for _ in range(workers):
                pid = os.fork()
                if pid == 0:
                    _serve_tasks(queue, function, tasks, columns, shared)
                pids.append(pid)
        # Only the children read the queue, so a write fails with
        # BrokenPipeError once every one of them is gone; each one's exit
        # status then says why.
        queue[0].close()
        records = struct.pack(f"={len(tasks)}I", *range(len(tasks)))
        chunk = select.PIPE_BUF // _TASK_RECORD.size * _TASK_RECORD.size
        try:
            for first in range(0, len(records), chunk):
                queue[1].write(records[first : first + chunk])
        except BrokenPipeError:
            pass
        queue[1].close()  # the children read to the end of file
        for pid in pids.copy():
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids.remove(pid)
            if code == 1:  # a task raised: the serial run below raises it here
                failed = True
            elif code:
                raise RuntimeError(f"draw worker {pid} exited with code {code}")
    finally:
        for end in queue:
            end.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return map_tasks(function, tasks, widths, rows, 1) if failed else shared

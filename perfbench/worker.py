"""One workload process: import ridgeiv from the checkout, call ``run_cli`` repeatedly.

Usage: python3 perfbench/worker.py [--setup-only | --trace | --calibrate] [--until T] [--out DIR]
                                   -- <ridgeiv argv>

The worker validates the config with ``cli.build_config``.  With
``--setup-only`` it then runs a few calibration chunks on one thread and
stops.  Otherwise it calls ``run_cli`` at least once and keeps calling it
while the next call should end before ``T`` (a ``time.perf_counter()``
reading; the clock is system-wide, so the parent sets it).  With ``--out DIR``
call ``i`` writes to ``DIR/c<i>``.  Each call's stdout is captured for the
parent's checks.  With ``--calibrate`` each call is preceded by calibration chunks (see
:func:`calibration_chunk`) on ``RIDGEIV_THREADS`` threads, which take
about a quarter of the previous call's time, so that the parent can tell
how fast the host ran.

The last stdout line is a JSON record with ``ready`` (``time.perf_counter()``
once ridgeiv is imported and the config is validated; the parent turns it
into set-up time), ``cal_s`` (the chunk times of a set-up-only probe),
``calls`` (``wall_s``, ``rc`` and ``stdout`` of each call, and ``cal_s``
and ``cal_chunks`` of the calibration before it),
``peak_rss_mb`` and, with ``--trace``, the per-layer ``trace`` metrics of
the fastest call, each call being traced on its own.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CAL_SHARE = 0.25  # calibration time per call, as a share of the previous call's time
PROBE_CHUNKS = 5  # calibration chunks after a set-up-only probe is ready


def main(argv: list[str]) -> int:
    split = argv.index("--")
    flags, cli_argv = argv[:split], argv[split + 1 :]
    until = float(_option(flags, "--until", "0"))
    out = _option(flags, "--out", None)
    sys.path.insert(0, str(SRC))
    import ridgeiv
    from ridgeiv import cli

    if SRC not in Path(ridgeiv.__file__).resolve().parents:
        print(f"worker: ridgeiv imported from {ridgeiv.__file__}, not {SRC}", file=sys.stderr)
        return 3
    cli.build_config(cli._build_parser().parse_args(_call_argv(cli_argv, out, 0)))
    record: dict = {"ready": time.perf_counter()}
    if "--setup-only" in flags:
        # The first chunk pays for first use; the others time the host.
        record["cal_s"] = [calibration_chunk() for _ in range(PROBE_CHUNKS)][1:]
        print(_json(record))
        return 0

    new_tracer = None
    if "--trace" in flags:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Tracer as new_tracer
    threads = int(os.environ.get("RIDGEIV_THREADS", "1"))
    calls: list[dict] = []
    fastest_trace = None
    while not calls or time.perf_counter() + max(c["wall_s"] for c in calls) <= until:
        cal_s, cal_chunks = 0.0, 0
        if "--calibrate" in flags:
            target = CAL_SHARE * calls[-1]["wall_s"] if calls else 0.0
            while not cal_chunks or cal_s < target:
                cal_s += calibration_chunk(threads)
                cal_chunks += 1
        tracer = new_tracer() if new_tracer else None
        if tracer is not None:
            tracer.install()
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            rc = cli.run_cli(_call_argv(cli_argv, out, len(calls)))
            wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            if fastest_trace is None or wall_s < min(c["wall_s"] for c in calls):
                fastest_trace = tracer.metrics(wall_s)
        calls.append({"wall_s": wall_s, "rc": rc, "stdout": captured.getvalue(),
                      "cal_s": cal_s, "cal_chunks": cal_chunks})
    record["calls"] = calls
    record["peak_rss_mb"] = _peak_rss_mb()
    if fastest_trace is not None:
        record["trace"] = fastest_trace
    import numpy

    record["versions"] = {"ridgeiv": ridgeiv.__version__, "numpy": numpy.__version__}
    print(_json(record))
    return 0


def calibration_chunk(threads: int = 1) -> float:
    """Seconds taken by a frozen copy of ridgeiv's per-rep sweep kernel.

    150 reps of: derive a seed, draw a Philox sample of 150 observations,
    form the two covariances of the ratio, format the ratio as text.  With
    ``threads`` > 1 the reps are split over a thread pool, as ``run_sweep``
    splits a sweep, so they contend for the interpreter lock as it does.  It
    uses no ridgeiv code, so a change to ridgeiv does not move it; its time
    moves with the speed of the host, so the parent divides the workload's
    time by it.
    """
    start = time.perf_counter()
    if threads == 1:
        _calibration_reps(range(150))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_calibration_reps, [range(t, 150, threads) for t in range(threads)]))
    return time.perf_counter() - start


def _calibration_reps(reps: range) -> None:
    import numpy as np

    def cov(x, w):
        x, w = np.asarray(x, dtype=np.float64), np.asarray(w, dtype=np.float64)
        return float(np.mean((x - x.mean()) * (w - w.mean())))

    cells = []
    for rep in reps:
        seed = np.random.SeedSequence(20260810, spawn_key=(rep,)).generate_state(1, np.uint64)[0]
        rng = np.random.Generator(np.random.Philox(key=int(seed)))
        z = rng.standard_normal(150)
        eps = rng.standard_normal(150)
        d = 0.1 + 0.3 * z + 0.5 * eps + rng.standard_normal(150)
        y = 1.0 + d + eps
        cells.append(repr(cov(y, z) / (cov(d, z) + 0.1)))
    ",".join(cells).encode()


def _option(flags: list[str], name: str, default: str | None) -> str | None:
    return flags[flags.index(name) + 1] if name in flags else default


def _call_argv(cli_argv: list[str], out: str | None, index: int) -> list[str]:
    return [*cli_argv, "--out", str(Path(out) / f"c{index}")] if out else list(cli_argv)


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest child, in MiB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _json(record: dict) -> str:
    import json

    return json.dumps(record, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

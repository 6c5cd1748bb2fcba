"""The ridgeiv benchmark: one workload, timed or traced, with output checks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A run starts worker processes (perfbench/worker.py), one at a time, each of
which imports ridgeiv from ``src/`` and calls ``ridgeiv.cli.run_cli`` with
the workload's arguments, repeatedly, for a few seconds.  The workload seed
is passed to ridgeiv as ``--seed``.  Before the timed calls one call at
ridgeiv's default seed is checked against the output recorded in
perfbench/reference/, and a 2-worker workload also runs once on 1 worker as
the byte-for-byte reference for its seed.  Every call at the workload seed
must write the same bytes.

``--trace 0`` prints the end-to-end metrics (see :func:`timed_run`);
``--trace 1`` adds traced calls and prints the per-layer metrics of the
fastest one.  The last stdout line
is the result; the line before it records the environment and every
sample.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402

DEFAULT_SEED = 20260810  # ridgeiv's default master seed; the references use it
BATCH_S = 10.0  # seconds of calls per worker process
PROBES_PER_BATCH = 2  # set-up-only processes before each worker in a timed run
# Seconds worker.calibration_chunk takes at full speed, by thread count: the
# fastest of 60 chunks on each, run alternately on a 2-core x86-64 Linux host
# (Python 3.11, numpy 2.4).
CAL_NOMINAL_S = {1: 0.0143, 2: 0.0265}
WORKER_TIMEOUT_S = 60
RUN_LIMIT_S = 150  # no worker starts or keeps running past this in one run


@dataclasses.dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    threads: int
    reference: str  # perfbench/reference/<reference>: the output at DEFAULT_SEED
    calibrated: bool  # wall_s is divided by the host's slowdown (see timed_run)
    writes: bool = True  # a sweep writes artifacts; verify only prints its report
    # exit codes of a completed call; verify-asymptotics exits 1 on a FAIL verdict
    exit_codes: tuple[int, ...] = (0,)


WORKLOADS = {
    # Per-rep Python overhead: seed, draw, two covariances, ratio; 1 worker.
    "pi-sweep-serial": Workload(
        ("sweep-pi", "--reps", "100"), 1, "pi-sweep-serial.csv", True
    ),
    # The thread pool and the write path (raw CSV, SVGs) on the same kernel.
    "beta-sweep-parallel-raw": Workload(
        ("sweep-beta", "--reps", "100", "--raw", "--plots"), 2, "beta-sweep-parallel-raw.csv",
        True,
    ),
    # Draw-bound n = 10^4 collections through fit_ridge_iv; no sweep, pool or CSV.
    "verify-asymptotics": Workload(
        ("verify-asymptotics", "--regime", "all", "--reps", "500"), 1,
        "verify-asymptotics.txt", False, writes=False, exit_codes=(0, 1),
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict[str, str]:
    units = spans.metric_units()
    units["cli.artifact_bytes"] = "bytes"
    units["trace.overhead_frac"] = "ratio"
    return units


@dataclasses.dataclass
class Call:
    """One ``run_cli`` call: its time, exit code, stdout and artifacts."""

    wall_s: float
    rc: int
    stdout: str
    out_dir: Path | None
    cal_s: float = 0.0  # calibration before the call (--calibrate)
    cal_chunks: int = 0
    ok: bool = True


@dataclasses.dataclass
class Batch:
    """One worker process."""

    ok: bool
    setup_s: float = 0.0
    calls: list[Call] = dataclasses.field(default_factory=list)
    record: dict = dataclasses.field(default_factory=dict)


class Bench:
    """Runs worker processes of one workload and keeps the tallies."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.versions: dict = {}
        self.fail_verdicts = 0  # completed verify calls whose verdict was FAIL
        self.artifact_bytes = 0  # of the last call checked
        self._count = 0
        self._stop = time.perf_counter() + RUN_LIMIT_S

    def batch(self, *, until: float = 0.0, seed: int | None = None,
              threads: int | None = None, mode: str | None = None) -> Batch:
        """One worker process calling ``run_cli`` until ``until`` (at least once).

        ``mode`` is None, "--setup-only", "--trace" or "--calibrate".  A crashed worker
        counts as one failed attempt; otherwise each call is one attempt.
        """
        wl = self.workload
        self._count += 1
        argv = [*wl.argv, "--seed", str(self.seed if seed is None else seed)]
        flags = [mode] if mode else []
        out_dir = None
        if wl.writes and mode != "--setup-only":
            out_dir = WORK / f"w{self._count}"
            flags += ["--out", str(out_dir)]
        flags += ["--until", repr(until)]
        env = dict(os.environ, RIDGEIV_THREADS=str(threads or wl.threads))
        cmd = [sys.executable, str(HERE / "worker.py"), *flags, "--", *argv]
        start = time.perf_counter()
        timeout = min(WORKER_TIMEOUT_S, self._stop - start)
        if timeout <= 0:
            return self._crash(f"no time left: the run is past {RUN_LIMIT_S} s")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return self._crash(f"worker timed out after {timeout:.0f} s")
        try:
            record = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            record = None
        if proc.returncode != 0 or record is None:
            return self._crash(f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        self.versions = record.get("versions", self.versions)
        calls = [
            Call(c["wall_s"], c["rc"], c["stdout"], out_dir / f"c{i}" if out_dir else None,
                 c["cal_s"], c["cal_chunks"])
            for i, c in enumerate(record.get("calls", []))
        ]
        self.attempted += max(len(calls), 1)
        for call in calls:
            if call.rc not in wl.exit_codes:
                self.check(call, [f"exit {call.rc}: {call.stdout.strip()[-300:]}"])
            self.fail_verdicts += call.ok and call.rc != 0
        return Batch(True, record["ready"] - start, calls, record)

    def _crash(self, problem: str) -> Batch:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)
        return Batch(False)

    def check(self, call: Call, problems: list[str]) -> bool:
        """Count a completed call as failed when its output check has problems."""
        if call.ok and problems:
            call.ok = False
            self.failed += 1
            self.problems.extend(problems)
        return call.ok

    def output_signature(self, call: Call) -> object:
        return checks.artifact_digests(call.out_dir) if self.workload.writes else call.stdout

    def content_problems(self, call: Call) -> list[str]:
        wl = self.workload
        if not wl.writes:
            return checks.check_verify_report(call.stdout, call.rc)
        return checks.check_sweep_table(call.out_dir / "mse_sweep.csv", HERE / "reference" / wl.reference)

    def check_calls(self, batch: Batch, expected: object, label: str = "") -> object:
        """Check every call of a batch; each must match ``expected`` (or the first one)."""
        for call in batch.calls:
            self.artifact_bytes = checks.artifact_bytes(call.out_dir)
            if call.ok and self.check(call, self.content_problems(call)):
                signature = self.output_signature(call)
                if expected is None:
                    expected = signature
                self.check(call, [] if signature == expected else
                           [f"{self.name}: {label}output differs from the reference call"])
        return expected

    def reference_check(self) -> None:
        """One call as configured, at the default seed, against the recorded output."""
        wl = self.workload
        batch = self.batch(seed=DEFAULT_SEED)
        reference = HERE / "reference" / wl.reference
        for call in batch.calls:
            if wl.writes:
                problems = checks.compare_to_reference(call.out_dir / "mse_sweep.csv", reference)
            else:
                problems = checks.compare_report(call.stdout, reference.read_text())
                if call.rc != 0:
                    problems.append(f"verify at the default seed exited {call.rc}")
            self.check(call, problems)
        _discard(batch)

    def one_worker_twin(self) -> object:
        """For a multi-worker workload: the same seed on 1 worker, the byte reference."""
        if self.workload.threads == 1:
            return None
        batch = self.batch(threads=1)
        expected = self.check_calls(batch, None, "1-worker ")
        _discard(batch)
        return expected

    def timed_batches(self, seconds: float, expected: object, *, probes: int,
                      mode: str | None = None) -> tuple[list[Batch], list[Batch], object]:
        """Worker batches at the workload seed until ``seconds`` are spent.

        ``probes`` set-up-only processes run before each batch.
        Another batch starts only if one call should still fit; at least one
        runs.  Returns the batches, the probes and the byte reference.
        """
        batches: list[Batch] = []
        setups: list[Batch] = []
        deadline = min(time.perf_counter() + seconds, self._stop)
        while True:
            calls = [c.wall_s for b in batches for c in b.calls]
            if batches and time.perf_counter() + max(calls, default=0.0) > deadline:
                break
            setups += [self.batch(mode="--setup-only") for _ in range(probes)]
            now = time.perf_counter()
            batch = self.batch(until=min(now + BATCH_S, deadline), mode=mode)
            expected = self.check_calls(batch, expected, "traced " if mode == "--trace" else "")
            _discard(batch)
            batches.append(batch)
            if not batch.ok:
                break
        return batches, setups, expected


def _discard(batch: Batch) -> None:
    for call in batch.calls:
        if call.out_dir is not None:
            shutil.rmtree(call.out_dir.parent, ignore_errors=True)
            break


def _good_walls(batches: list[Batch]) -> list[float]:
    return [c.wall_s for b in batches for c in b.calls if c.ok]


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics.

    The host's speed drifts by up to 2x over seconds to minutes, and CPU time
    drifts with it, so two times are calibrated with worker.calibration_chunk:
    a slowdown is the chunks' time over what they take at full speed.
    ``setup_s`` is the median set-up time of the probes divided by the
    slowdown of the chunks each probe runs once it is ready.  ``wall_s`` is
    the mean call: the timed seconds over the calls made; for a calibrated
    workload, chunks run between the calls and it is divided by their
    slowdown.  ``peak_rss_mb`` is the median over the workers.  The raw
    samples are returned too.
    """
    bench.reference_check()
    expected = bench.one_worker_twin()
    calibrated = bench.workload.calibrated
    batches, probes, _ = bench.timed_batches(seconds, expected, probes=PROBES_PER_BATCH,
                                             mode="--calibrate" if calibrated else None)
    calls = [c for b in batches for c in b.calls if c.ok]
    probes = [p for p in probes if p.ok]
    samples: dict = {
        "wall_s": [c.wall_s for c in calls],
        "setup_s": [p.setup_s for p in probes],
        "peak_rss_mb": [b.record["peak_rss_mb"] for b in batches if b.ok],
    }
    if not all(samples.values()):
        return {}, samples
    setup_slowdown = statistics.median(
        statistics.median(p.record["cal_s"]) for p in probes) / CAL_NOMINAL_S[1]
    samples.update(setup_median_raw_s=statistics.median(samples["setup_s"]),
                   setup_host_slowdown=setup_slowdown)
    metrics = {
        "wall_s": statistics.fmean(samples["wall_s"]),
        "setup_s": samples["setup_median_raw_s"] / setup_slowdown,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    if calibrated:
        chunks = sum(c.cal_chunks for c in calls)
        nominal = CAL_NOMINAL_S[bench.workload.threads]
        slowdown = sum(c.cal_s for c in calls) / (chunks * nominal)
        samples.update(host_slowdown=slowdown, calibration_chunks=chunks,
                       wall_mean_raw_s=metrics["wall_s"])
        metrics["wall_s"] /= slowdown
    return metrics, samples


def traced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    bench.reference_check()
    expected = bench.one_worker_twin()
    untraced, _, expected = bench.timed_batches(seconds / 2, expected, probes=0)
    traced, _, _ = bench.timed_batches(seconds / 2, expected, probes=0, mode="--trace")
    plain_walls, traced_walls = _good_walls(untraced), _good_walls(traced)
    metrics: dict = {}
    if plain_walls and traced_walls and all(b.ok for b in traced):
        fastest = min(traced, key=lambda b: min(c.wall_s for c in b.calls))
        metrics = dict(fastest.record["trace"])
        metrics["cli.artifact_bytes"] = bench.artifact_bytes
        metrics["trace.overhead_frac"] = min(traced_walls) / min(plain_walls) - 1.0
    return metrics, {"untraced_wall_s": plain_walls, "traced_wall_s": traced_walls}


def environment(bench: Bench) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():  # git would otherwise search the parent directories
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "workload": bench.name,
        "seed": bench.seed,
        "ridgeiv_threads": bench.workload.threads,
        "loadavg_start": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ridgeiv" / "__init__.py").is_file():
        print(f"perfbench: no ridgeiv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("perfbench: --seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    env = environment(bench)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        run = traced_run if args.trace else timed_run
        values, samples = run(bench, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    env.update(bench.versions)

    units = per_layer_units() if args.trace else END_TO_END
    missing = sorted(set(units) - set(values))
    if missing and not bench.failed:
        bench.problems.append(f"metrics not measured: {', '.join(missing)}")
        bench.failed += 1
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    failed_frac = bench.failed / bench.attempted
    for name in sorted(metrics):
        print(f"{name:48s} {metrics[name]['value']:>16.6g} {metrics[name]['unit']}", file=sys.stderr)
    if "host_slowdown" in samples:
        print(f"{'wall_mean_raw_s':48s} {samples['wall_mean_raw_s']:>16.6g} s "
              f"(host slowdown {samples['host_slowdown']:.3g})", file=sys.stderr)
    if not args.trace:
        print(f"{'calls timed':48s} {len(samples['wall_s']):>16d}", file=sys.stderr)
    print(f"{'failed_frac':48s} {failed_frac:>16.6g} ratio "
          f"({bench.failed} of {bench.attempted} attempts)", file=sys.stderr)
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env, "samples": samples, "failed_frac": failed_frac,
                      "fail_verdicts": bench.fail_verdicts, "problems": bench.problems}))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

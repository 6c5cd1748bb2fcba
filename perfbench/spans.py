"""Spans around the public functions of each ridgeiv layer.

The tracer wraps functions from outside the library: every module binding
of a wrapped function (``from .dgp import generate_dataset`` in
``montecarlo`` and ``cli``, the module globals ``estimators._fit_scalar``
calls) is replaced by one wrapper, and :meth:`Tracer.uninstall` puts the
originals back.  Only the traced worker process installs it; the timed
workers never import this module.

Each thread keeps its own stack of open spans, so spans from sweep worker
threads nest among themselves.  A span opened on a worker thread with an
empty stack is caused by the innermost span open on the main thread (the
``run_sweep`` that fanned the work out), and that parent's self time is its
duration minus the union of the intervals its children cover.
"""

from __future__ import annotations

import array
import functools
import importlib
import math
import pkgutil
import sys
import threading
import time

# layer (the ridgeiv module named for it) -> public functions wrapped there
LAYERS = {
    "montecarlo": ("derive_seed", "run_sweep", "collect_sampling_distribution"),
    "dgp": ("generate_dataset",),
    "estimators": ("demeaned_cov", "shifted_ratio", "fit_ridge_iv"),
    "asymptotics": ("cauchy_diagnostics",),
    "cli": ("build_config", "write_sweep_csv", "emit_plot", "verify_regime"),
}
# Functions called once per rep: the only ones that can reach the 1000 calls
# a p99 needs (10 samples beyond it).
PER_REP = (
    "montecarlo.derive_seed",
    "dgp.generate_dataset",
    "estimators.demeaned_cov",
    "estimators.shifted_ratio",
    "estimators.fit_ridge_iv",
)
P99_MIN_CALLS = 1000
CPU_TIMED = ("montecarlo.run_sweep",)

# per-function statistics and their units
FUNCTION_STATS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_us": "us"}
EXTRA_UNITS = {
    "dgp.generate_dataset.bytes_drawn": "bytes",
    "dgp.generate_dataset.distinct_frac": "ratio",
    "montecarlo.derive_seed.distinct_frac": "ratio",
    "estimators.shifted_ratio.degenerate": "count",
    "montecarlo.run_sweep.cpu_util": "ratio",
}


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


def metric_units() -> dict[str, str]:
    """Every metric :meth:`Tracer.metrics` reports, with its unit."""
    units = {
        f"{span}.{stat}": unit
        for span in span_names()
        for stat, unit in FUNCTION_STATS.items()
    }
    units.update({f"{span}.p99_us": "us" for span in PER_REP})
    units.update(EXTRA_UNITS)
    units["trace.coverage"] = "ratio"
    return units


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class _ThreadStats:
    """Counters one thread owns; merged after the run, so no locks."""

    def __init__(self, names):
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.cpu_s = dict.fromkeys(names, 0.0)
        self.durations = {name: array.array("d") for name in names}
        self.dataset_keys: set = set()
        self.seed_keys: set = set()
        self.bytes_drawn = 0
        self.degenerate = 0


class Tracer:
    def __init__(self) -> None:
        self._names = span_names()
        self._local = threading.local()
        self._all_stats: list[_ThreadStats] = []
        self._lock = threading.Lock()
        self._main_stack: list = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of each layer function across ridgeiv's modules."""
        package = importlib.import_module("ridgeiv")
        modules = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(package.__path__, "ridgeiv.")
        ]
        for span in self._names:
            layer, name = span.split(".")
            original = getattr(sys.modules.get(f"ridgeiv.{layer}"), name, None)
            if original is None:  # moved: take it from whichever module has it
                original = next(
                    (getattr(m, name) for m in modules if callable(getattr(m, name, None))),
                    None,
                )
            if original is None:
                continue  # the function is gone; its counts stay zero
            wrapper = self._wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        self._local.stack = self._main_stack

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            if not hasattr(local, "stack"):
                local.stack = []
            local.stats = _ThreadStats(self._names)
            with self._lock:
                self._all_stats.append(local.stats)
            return local.stack, local.stats

    def _wrap(self, span: str, fn):
        main_stack = self._main_stack
        timed_cpu = span in CPU_TIMED
        clock = time.perf_counter
        cpu_clock = time.process_time

        if span == "dgp.generate_dataset":

            def count(stats, args, kwargs, failed):
                n = _arg(args, kwargs, 1, "n")
                stats.bytes_drawn += 3 * n * 8
                stats.dataset_keys.add(
                    (_arg(args, kwargs, 0, "params"), n, _arg(args, kwargs, 2, "seed"))
                )

        elif span == "montecarlo.derive_seed":

            def count(stats, args, kwargs, failed):
                stats.seed_keys.add(args + tuple(sorted(kwargs.items())))

        elif span == "estimators.shifted_ratio":

            def count(stats, args, kwargs, failed):
                if isinstance(failed, ArithmeticError):
                    stats.degenerate += 1

        else:
            count = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, stats = self._thread_state()
            if stack:
                parent, cross = stack[-1], False
            elif stack is not main_stack and main_stack:
                parent, cross = main_stack[-1], True
            else:
                parent, cross = None, False
            # frame: [summed same-thread child time, cross-thread child intervals]
            frame = [0.0, None]
            stack.append(frame)
            failed = None
            cpu0 = cpu_clock() if timed_cpu else 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                failed = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                covered = frame[0]
                if frame[1]:
                    covered += _union_length(frame[1], start, end)
                stats.calls[span] += 1
                stats.self_s[span] += max(duration - covered, 0.0)
                stats.durations[span].append(duration)
                if timed_cpu:
                    stats.cpu_s[span] += cpu_clock() - cpu0
                if count is not None:
                    count(stats, args, kwargs, failed)
                if parent is not None:
                    if cross:
                        if parent[1] is None:
                            with self._lock:
                                if parent[1] is None:
                                    parent[1] = array.array("d")
                        parent[1].extend((start, end))
                    else:
                        parent[0] += duration

        return wrapper

    # -- reporting --------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded; ``wall_s`` is the run's wall."""
        out: dict[str, float] = {}
        total_self = 0.0
        for span in self._names:
            calls = sum(s.calls[span] for s in self._all_stats)
            durations = sorted(d for s in self._all_stats for d in s.durations[span])
            self_s = sum(s.self_s[span] for s in self._all_stats)
            total_self += self_s
            out[f"{span}.calls"] = calls
            out[f"{span}.busy_s"] = math.fsum(durations)
            out[f"{span}.self_s"] = self_s
            out[f"{span}.p50_us"] = _quantile(durations, 0.50) * 1e6
            if span in PER_REP:
                enough = calls >= P99_MIN_CALLS
                out[f"{span}.p99_us"] = _quantile(durations, 0.99) * 1e6 if enough else 0.0
        stats = self._all_stats
        calls = out["dgp.generate_dataset.calls"]
        distinct = len(set().union(*(s.dataset_keys for s in stats)))
        out["dgp.generate_dataset.bytes_drawn"] = sum(s.bytes_drawn for s in stats)
        out["dgp.generate_dataset.distinct_frac"] = distinct / calls if calls else 0.0
        calls = out["montecarlo.derive_seed.calls"]
        distinct = len(set().union(*(s.seed_keys for s in stats)))
        out["montecarlo.derive_seed.distinct_frac"] = distinct / calls if calls else 0.0
        out["estimators.shifted_ratio.degenerate"] = sum(s.degenerate for s in stats)
        busy = out["montecarlo.run_sweep.busy_s"]
        cpu = sum(s.cpu_s["montecarlo.run_sweep"] for s in stats)
        out["montecarlo.run_sweep.cpu_util"] = cpu / busy if busy else 0.0
        out["trace.coverage"] = total_self / wall_s
        return out


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default) of a sorted list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _union_length(flat: array.array, start: float, end: float) -> float:
    """Length of the union of (start, end) pairs in ``flat``, clipped to a span."""
    intervals = sorted(zip(flat[::2], flat[1::2]))
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total

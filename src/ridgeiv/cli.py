"""Command-line experiment runner: JSON config in, CSV and SVG artifacts out.

Subcommands
-----------
sweep-pi
    MSE sweep over the first-stage slope (defaults: 41 points on [0, 1],
    penalties {0, 4, 10}, n = 150).
sweep-beta
    MSE sweep over the effect size (defaults: 40 points on [0, 3.475],
    penalties {0, 0.8, 3.0}, n = 150).
verify-asymptotics
    Compare predicted limiting moments against Monte Carlo and print a
    PASS/FAIL line per check at 10% tolerance.
single-run
    Fit one simulated dataset and print the estimate as JSON.

Each subcommand reads only its own top-level config keys; any other key
exits 2, naming the key and the subcommand:

sweep-pi, sweep-beta  params, grid, lambdas, n, reps, seed, output_dir,
                      emit_plots, emit_raw
verify-asymptotics    reps, seed, regimes
single-run            params, n, seed, schedule

Every config value is checked by name; then each flag that is given
overrides its key (``--out`` sets output_dir, ``--plots`` emit_plots,
``--raw`` emit_raw, ``--regime`` regimes).  The library owns every value
rule (``DgpParams``, ``PenaltySchedule``, ``SweepConfig``,
``verify_min_reps``); a rule it rejects exits 2 naming the config key, and
so does a value whose covariances, shifted denominators, estimates, sweep
statistics, data or fitted moments overflow during the run, so a sweep
reports only finite numbers and NaN for degenerate reps.
This module states only what JSON adds: JSON type names, finite numbers
(``NaN`` and ``Infinity`` as JSON writes them), unknown keys, lambdas
distinct as plot names, a ``seed`` below 2**64, at most 10**6
``grid.points`` (checked before the grid is built) and no NUL character in
``output_dir`` (no file system takes one).  A sweep's ``params``
may not set the parameter its grid sets (``pi1`` or ``beta1``) or an
intercept, and no ``params`` may set ``pi1`` beside a non-null ``stock_c``.

Exit codes: 0 success, 2 bad arguments or config, 1 runtime failure or a
failed verification.  Sweeps write ``mse_sweep.csv`` (one column per
``SweepCell`` field; full-precision floats, so parsing the file
reproduces every value exactly), plus ``raw_estimates.csv`` and one SVG
line plot per penalty level when asked; this module writes every artifact.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import enum
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Sequence, get_type_hints

import numpy as np

from .dgp import (
    DgpParams,
    _instance,
    _int_at_least,
    _sample_size,
    aer_calibration,
    generate_dataset,
)
from .estimators import PenaltyRate, PenaltySchedule, fit_ridge_iv
from .montecarlo import GridVariable, SweepCell, SweepConfig, SweepResult, _rep_count, run_sweep
from .verify import VERIFY_REGIMES, verify_min_reps, verify_regimes

__all__ = [
    "Command",
    "ConfigError",
    "ExperimentConfig",
    "run_cli",
    "main",
    "emit_plot",
    "write_sweep_csv",
    "write_raw_csv",
    "read_sweep_csv",
    "default_pi_sweep",
    "default_beta_sweep",
]

DEFAULT_SEED = 20260810
DEFAULT_REPS = 2000

# SweepCell's fields in order; lam, a Python keyword, is written "lambda"
_CELL_NAMES = tuple(f.name for f in dataclasses.fields(SweepCell))
CSV_COLUMNS = tuple("lambda" if name == "lam" else name for name in _CELL_NAMES)


class Command(enum.Enum):
    SWEEP_PI = "sweep-pi"
    SWEEP_BETA = "sweep-beta"
    VERIFY_ASYMPTOTICS = "verify-asymptotics"
    SINGLE_RUN = "single-run"


class ConfigError(ValueError):
    """A config file or flag combination violates the experiment schema."""


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """A validated, dispatchable experiment.

    Each config key of the subcommand sets the field of its name (``grid``
    and ``lambdas`` only shape ``sweep``); a key not given keeps its default.
    """

    command: Command
    sweep: SweepConfig | None = None
    # sweeps
    output_dir: Path = Path("ridgeiv_out")
    emit_plots: bool = False
    emit_raw: bool = False
    # verify-asymptotics
    regimes: tuple[str, ...] = VERIFY_REGIMES
    reps: int = DEFAULT_REPS
    seed: int = DEFAULT_SEED
    # single-run
    params: DgpParams = aer_calibration(beta1=1.0)
    n: int = 150
    schedule: PenaltySchedule = PenaltySchedule(PenaltyRate.CONSTANT, 0.0)


def default_pi_sweep(
    reps: int = DEFAULT_REPS, master_seed: int = DEFAULT_SEED
) -> SweepConfig:
    """First-stage-slope sweep on the AER-calibrated design, unit effect."""
    return SweepConfig(
        base_params=aer_calibration(beta1=1.0),
        grid_variable=GridVariable.PI1,
        grid=tuple(np.linspace(0.0, 1.0, 41)),
        lambda_values=(0.0, 4.0, 10.0),
        n=150,
        reps=reps,
        master_seed=master_seed,
    )


def default_beta_sweep(
    reps: int = DEFAULT_REPS, master_seed: int = DEFAULT_SEED
) -> SweepConfig:
    """Effect-size sweep on the AER-calibrated design."""
    return dataclasses.replace(
        default_pi_sweep(reps, master_seed),
        grid_variable=GridVariable.BETA1,
        grid=tuple(np.linspace(0.0, 3.475, 40)),
        lambda_values=(0.0, 0.8, 3.0),
    )


# ---------------------------------------------------------------------------
# config parsing

# config key -> SweepConfig field
_SWEEP_FIELDS = {
    "params": "base_params", "grid": "grid", "lambdas": "lambda_values",
    "n": "n", "reps": "reps", "seed": "master_seed",
}

_PARAM_KEYS = tuple(f.name for f in dataclasses.fields(DgpParams))

# library argument -> the config key that sets it.  _naming_config_keys names the key
# of the argument a library ValueError starts with (base_params.stock_c -> 'params.stock_c').
_ARG_KEYS = {
    "params": "params",
    "data": "params",  # single-run fits the dataset it draws from params
    **{field: key for key, field in _SWEEP_FIELDS.items()},
    **{name: f"params.{name}" for name in _PARAM_KEYS},
    **{f.name: f"schedule.{f.name}" for f in dataclasses.fields(PenaltySchedule)},
    "regimes": "regimes",
}


# JSON names of the values json.loads returns, and of the types asked for
_JSON_TYPE = {
    bool: "boolean", int: "integer", float: "number", str: "string",
    list: "list", dict: "object", type(None): "null",
}
_EXPECTED = {
    bool: "true or false", int: "an integer", (int, float): "a number",
    str: "a string", list: "a list", dict: "an object",
}


def _check_type(value: Any, types: type | tuple[type, ...], field: str) -> Any:
    # bool is a subclass of int, so only a bool field accepts true or false
    if (isinstance(value, bool) and types is not bool) or not isinstance(value, types):
        raise ConfigError(
            f"config field '{field}' has wrong type "
            f"({_JSON_TYPE[type(value)]}), expected {_EXPECTED[types]}"
        )
    return value


def _finite_number(value: Any, field: str) -> float:
    _check_type(value, (int, float), field)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        # rendered as JSON writes it: NaN, Infinity, -Infinity
        raise ConfigError(
            f"config field '{field}' must be finite, got {json.dumps(number)}"
        )
    return number


def _get_number(
    mapping: dict, key: str, default: float | None = None, prefix: str = ""
) -> float:
    if key not in mapping:
        if default is None:
            raise ConfigError(f"config field '{prefix}{key}' is required")
        return default
    return _finite_number(mapping[key], prefix + key)


def _reject_unknown(mapping: dict, known: Sequence[str], prefix: str, by: str = "") -> None:
    for key in mapping:
        if key not in known:
            raise ConfigError(f"config field '{prefix}{key}' is not recognized{by}")


def _parse_seed(value: Any) -> int:
    seed = _check_type(value, int, "seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("config field 'seed' must be an unsigned 64-bit integer")
    return seed


def _parse_params(raw: Any) -> DgpParams:
    _check_type(raw, dict, "params")
    _reject_unknown(raw, _PARAM_KEYS, "params.")
    kwargs = {
        key: None
        if key == "stock_c" and value is None
        else _finite_number(value, f"params.{key}")
        for key, value in raw.items()
    }
    if "pi1" in kwargs and kwargs.get("stock_c") is not None:
        raise ConfigError(
            "config field 'params.pi1' is not recognized beside a non-null 'params.stock_c'"
        )
    return dataclasses.replace(aer_calibration(beta1=1.0), **kwargs)


def _finite_list(raw: list, field: str) -> tuple[float, ...]:
    return tuple(_finite_number(v, f"{field}[{i}]") for i, v in enumerate(raw))


# A range grid is built whole before any check of its points, so its size is
# capped first: np.linspace would allocate 8 GB for 10^9 points.
_MAX_GRID_POINTS = 10**6


def _parse_grid(raw: Any) -> tuple[float, ...]:
    if isinstance(raw, list):
        return _finite_list(raw, "grid")
    if isinstance(raw, dict):
        _reject_unknown(raw, ("start", "stop", "points"), "grid.")
        start = _get_number(raw, "start", prefix="grid.")
        stop = _get_number(raw, "stop", prefix="grid.")
        if "points" not in raw:
            raise ConfigError("config field 'grid.points' is required")
        points = _int_at_least(
            "grid.points", _check_type(raw["points"], int, "grid.points"), 1
        )
        if points > _MAX_GRID_POINTS:
            raise ConfigError(
                f"config field 'grid.points' must be at most {_MAX_GRID_POINTS}, got {points}"
            )
        if not math.isfinite(stop - start):  # np.linspace steps by stop - start
            raise ConfigError(
                f"config field 'grid' must have a finite stop - start, got {stop!r} - {start!r}"
            )
        return tuple(np.linspace(start, stop, points))
    raise ConfigError(
        "config field 'grid' must be a list of numbers or {start, stop, points}"
    )


def _parse_lambdas(raw: Any) -> tuple[float, ...]:
    lambdas = _finite_list(_check_type(raw, list, "lambdas"), "lambdas")
    # each penalty level names its plot file with format(lam, "g")
    if len({format(lam, "g") for lam in lambdas}) < len(lambdas):
        raise ConfigError(
            f"config field 'lambdas' must not repeat a value to 6 significant digits, "
            f"got {list(lambdas)}"
        )
    return lambdas


def _parse_regimes(raw: Any) -> tuple[str, ...]:
    regimes = tuple(
        _check_type(r, str, f"regimes[{i}]")
        for i, r in enumerate(_check_type(raw, list, "regimes"))
    )
    verify_min_reps(regimes)  # names, repeats and emptiness
    return regimes


def _parse_schedule(raw: Any) -> PenaltySchedule:
    _check_type(raw, dict, "schedule")
    _reject_unknown(raw, ("rate", "lambda0"), "schedule.")
    rate_name = _check_type(raw.get("rate", "constant"), str, "schedule.rate")
    try:
        rate = PenaltyRate(rate_name)
    except ValueError:
        raise ConfigError(
            f"config field 'schedule.rate' must be one of "
            f"{[r.value for r in PenaltyRate]}, got {rate_name!r}"
        ) from None
    return PenaltySchedule(rate, _get_number(raw, "lambda0", 0.0, prefix="schedule."))


def _parse_output_dir(raw: Any) -> Path:
    path = _check_type(raw, str, "output_dir")
    if "\0" in path:  # no file system takes it; os calls raise an unnamed ValueError
        raise ConfigError("config field 'output_dir' must not contain a NUL character")
    return Path(path)


_SWEEPS = (Command.SWEEP_PI, Command.SWEEP_BETA)
_SWITCH = dict(action="store_const", const=True)


class _Key(NamedTuple):
    parse: Callable[[Any], Any]  # raises a ConfigError or a library ValueError
    commands: tuple[Command, ...]  # the subcommands that read the key
    flag: tuple[str, dict[str, Any]] | None = None  # its flag and add_argument options


# Every top-level config key.  A subcommand reads only the keys that list it, and
# has their flags in this order; any other key exits 2.
_KEYS = {
    "params": _Key(_parse_params, (*_SWEEPS, Command.SINGLE_RUN)),
    "grid": _Key(_parse_grid, _SWEEPS),
    "lambdas": _Key(_parse_lambdas, _SWEEPS),
    "n": _Key(lambda raw: _check_type(raw, int, "n"), (*_SWEEPS, Command.SINGLE_RUN)),
    "seed": _Key(_parse_seed, tuple(Command),
                 ("--seed", dict(type=int, help="master seed (u64)"))),
    "reps": _Key(lambda raw: _rep_count(_check_type(raw, int, "reps")),
                 (*_SWEEPS, Command.VERIFY_ASYMPTOTICS),
                 ("--reps", dict(type=int, help="Monte Carlo repetitions"))),
    "output_dir": _Key(_parse_output_dir, _SWEEPS, ("--out", dict(help="output directory"))),
    "emit_plots": _Key(lambda raw: _check_type(raw, bool, "emit_plots"), _SWEEPS,
                       ("--plots", dict(_SWITCH, help="emit one SVG per penalty"))),
    "emit_raw": _Key(lambda raw: _check_type(raw, bool, "emit_raw"), _SWEEPS,
                     ("--raw", dict(_SWITCH, help="persist per-rep estimates"))),
    "regimes": _Key(_parse_regimes, (Command.VERIFY_ASYMPTOTICS,),
                    ("--regime", dict(choices=(*VERIFY_REGIMES, "all"),
                                      help="which limit regime to verify"))),
    "schedule": _Key(_parse_schedule, (Command.SINGLE_RUN,)),
}
_CONFIG_KEYS = {c: tuple(k for k, key in _KEYS.items() if c in key.commands) for c in Command}


def _load_json(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return _check_type(raw, dict, "<top level>")


@contextlib.contextmanager
def _naming_config_keys() -> Iterator[None]:
    """Re-raise a library ValueError as a ConfigError naming its config key.

    The key is that of the argument the message starts with (``_ARG_KEYS``);
    a ValueError that starts with no such argument passes unchanged.
    """
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        name, _, reason = str(exc).partition(" ")
        arg = name.split(".")[0].split("[")[0]
        if arg not in _ARG_KEYS:  # not a value rule
            raise
        key = _ARG_KEYS[arg] + name[len(arg):]
        raise ConfigError(f"config field '{key}' {reason}") from exc


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Validate the config file (if any), then apply the flags that were given.

    Each top-level key must be one the subcommand reads, and each config
    value is checked by name even when a flag overrides it.  A library
    ValueError leaves as a ConfigError naming the config key of the
    argument its message starts with (``_ARG_KEYS``).
    """
    with _naming_config_keys():
        return _resolve_config(args)


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    command = Command(args.command)
    file_cfg = _load_json(Path(args.config)) if args.config else {}
    _reject_unknown(file_cfg, _CONFIG_KEYS[command], "", f" by {command.value}")
    values = {key: _KEYS[key].parse(raw) for key, raw in file_cfg.items()}
    for key, (parse, _, flag) in _KEYS.items():
        given = getattr(args, flag[0][2:], None) if flag else None
        if given is not None:
            if key == "regimes":
                given = list(VERIFY_REGIMES) if given == "all" else [given]
            values[key] = parse(given)

    sweep = None
    if command in _SWEEPS:
        preset = default_pi_sweep() if command is Command.SWEEP_PI else default_beta_sweep()
        swept = preset.grid_variable.value
        for key in file_cfg.get("params", {}):
            if key in (swept, "beta0", "pi0"):
                raise ConfigError(
                    f"config field 'params.{key}' is not recognized by {command.value}: "
                    f"the grid sets {swept}, and no covariance depends on an intercept"
                )
        sweep = dataclasses.replace(
            preset, **{_SWEEP_FIELDS[k]: v for k, v in values.items() if k in _SWEEP_FIELDS}
        )
    config = ExperimentConfig(
        command=command,
        sweep=sweep,
        **{k: v for k, v in values.items() if k not in ("grid", "lambdas")},
    )
    if command is Command.VERIFY_ASYMPTOTICS:
        _rep_count(config.reps, verify_min_reps(config.regimes))
    if command is Command.SINGLE_RUN:
        _sample_size(config.n)
        try:  # a finite lambda0 can still overflow at the run's n
            config.schedule.lambda_n(config.n)
        except ValueError as exc:
            raise ConfigError(
                f"config field 'schedule.lambda0' is invalid at n = {config.n}: {exc}"
            ) from exc
    return config


# ---------------------------------------------------------------------------
# artifacts


def write_sweep_csv(result: SweepResult, path: Path) -> None:
    """Write the aggregate table with full-precision decimal floats."""
    _instance("result", result, SweepResult)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        # csv writes a float as its repr, nan included, and an int as its digits
        writer.writerows([getattr(c, name) for name in _CELL_NAMES] for c in result.cells)


def write_raw_csv(result: SweepResult, path: Path) -> None:
    """Write one row per rep of every cell, in cell order.

    Floats are written as their ``repr``, the shortest text that parses
    back to the same float.  A degenerate rep has beta1_hat ``nan`` and
    degenerate ``1``.
    """
    _instance("result", result, SweepResult)
    rep_texts = [f"{rep}," for rep in range(result.reps)]
    with Path(path).open("w", newline="") as fh:
        fh.write("grid_value,lambda,rep,beta1_hat,degenerate\n")
        # one write per cell: the text in memory is one cell's rows
        for cell, estimates in zip(result.cells, result.estimates):
            prefix = f"{cell.grid_value!r},{cell.lam!r},"
            fh.write("".join([
                f"{prefix}{rep_text}{text},{'1' if text == 'nan' else '0'}\n"
                for rep_text, text in zip(rep_texts, map(repr, estimates.tolist()))
            ]))


def read_sweep_csv(path: Path) -> list[dict[str, float | int]]:
    """Parse a sweep CSV into one dict per row, typed by SweepCell (exact round trip)."""
    types = get_type_hints(SweepCell)
    with Path(path).open(newline="") as fh:
        return [
            {col: types[name](record[col]) for col, name in zip(CSV_COLUMNS, _CELL_NAMES)}
            for record in csv.DictReader(fh)
        ]


_AXIS_LABEL = {
    GridVariable.PI1: "first-stage slope",
    GridVariable.BETA1: "effect size",
}


# The plot's coordinates are ints or text formatted by the caller
def _svg_line(x1: int | str, y1: int | str, x2: int | str, y2: int | str) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"/>'


def _svg_text(
    x: int | str, y: int | str, size: int, text: str, anchor: str = "middle", extra: str = ""
) -> str:
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
        f'font-size="{size}"{extra}>{text}</text>'
    )


def emit_plot(result: SweepResult, lam: float, path: Path) -> None:
    """Write a deterministic SVG line plot of log10 MSE against the grid.

    One polyline plus a circle marker per point; cells whose MSE is zero,
    negative or non-finite are omitted from the curve (log scale).  The
    output is a pure function of ``(result, lam)``, so repeated calls
    produce byte-identical files.
    """
    _instance("result", result, SweepResult)
    cells = result.cells_for_lambda(lam)
    if not cells:
        raise ValueError(f"sweep result has no cells for lambda = {lam!r}")
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 45, 55
    xs = [c.grid_value for c in cells]
    points = [
        (c.grid_value, math.log10(c.mse))
        for c in cells
        if math.isfinite(c.mse) and c.mse > 0.0
    ]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if points:
        y_lo = min(p[1] for p in points)
        y_hi = max(p[1] for p in points)
    else:
        y_lo, y_hi = -1.0, 1.0
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    # half the grid's span, from halves: a finite grid's span can lie beyond
    # the float range, and halving is exact, so the bits are those of the span
    half_span = x_hi / 2 - x_lo / 2

    def sx(x: float) -> float:
        return left + (x / 2 - x_lo / 2) / half_span * (width - left - right)

    def sy(y: float) -> float:
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    lam_text = format(lam, "g")
    xlabel = _AXIS_LABEL[result.grid_variable]
    axis_y, mid_y = height - bottom, f"{(top + height - bottom) / 2:.1f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _svg_text(f"{width / 2:.1f}", 24, 15, f"MSE by {xlabel}, lambda = {lam_text}"),
        _svg_line(left, axis_y, width - right, axis_y),
        _svg_line(left, top, left, axis_y),
    ]
    for i in range(5):
        x = 2 * (x_lo / 2 + half_span * (i / 4))
        px = f"{sx(x):.2f}"
        parts.append(_svg_line(px, axis_y, px, axis_y + 5))
        parts.append(_svg_text(px, axis_y + 20, 12, f"{x:.3g}"))
    tick_lo, tick_hi = math.ceil(y_lo), math.floor(y_hi)
    ticks = [float(t) for t in range(tick_lo, tick_hi + 1)] or [y_lo, y_hi]
    step = max(1, len(ticks) // 8)
    for tick in ticks[::step]:
        py = sy(tick)
        parts.append(_svg_line(left - 5, f"{py:.2f}", left, f"{py:.2f}"))
        parts.append(_svg_text(left - 9, f"{py + 4:.2f}", 12, f"{tick:.3g}", "end"))
    parts.append(_svg_text(f"{(left + width - right) / 2:.1f}", height - 12, 13, xlabel))
    rotate = f' transform="rotate(-90 18 {mid_y})"'
    parts.append(_svg_text(18, mid_y, 13, f"log10 MSE (lambda = {lam_text})", extra=rotate))
    if len(points) >= 2:
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="navy" '
            'stroke-width="1.5"/>'
        )
    for x, y in points:
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="navy"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# dispatch


def _run_sweep_command(config: ExperimentConfig) -> int:
    out = config.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory is not writable: {exc}") from exc
    result = run_sweep(config.sweep)
    csv_path = out / "mse_sweep.csv"
    write_sweep_csv(result, csv_path)
    print(f"wrote {csv_path}")
    if config.emit_raw:
        raw_path = out / "raw_estimates.csv"
        write_raw_csv(result, raw_path)
        print(f"wrote {raw_path}")
    if config.emit_plots:
        for lam in config.sweep.lambda_values:
            svg_path = out / f"mse_lambda_{format(lam, 'g')}.svg"
            emit_plot(result, lam, svg_path)
            print(f"wrote {svg_path}")
    return 0


def _run_verify_command(config: ExperimentConfig) -> int:
    results = verify_regimes(config.regimes, config.reps, config.seed)
    for _, lines in results:
        for line in lines:
            print(line)
    if not all(ok for ok, _ in results):
        print("verification failed: empirical moments outside tolerance")
        return 1
    return 0


def _run_single_command(config: ExperimentConfig) -> int:
    data = generate_dataset(config.params, config.n, config.seed)
    estimate = fit_ridge_iv(data, config.schedule)
    payload = dataclasses.asdict(estimate)
    # JSON has no infinity: an inf std_error (its docstring says where) is null,
    # and any other non-finite value raises rather than print bad JSON
    std_error = estimate.std_error
    payload["std_error"] = std_error if math.isfinite(std_error) else None
    print(json.dumps(payload, indent=2, allow_nan=False))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgeiv",
        description="Penalized instrumental-variable experiments: MSE sweeps, "
        "limit-theory verification, single fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, doc in (
        (Command.SWEEP_PI, "MSE sweep over the first-stage slope"),
        (Command.SWEEP_BETA, "MSE sweep over the effect size"),
        (
            Command.VERIFY_ASYMPTOTICS,
            "check predicted limiting moments against Monte Carlo",
        ),
        (Command.SINGLE_RUN, "fit one simulated dataset"),
    ):
        p = sub.add_parser(command.value, help=doc)
        p.add_argument("--config", help="path to a JSON experiment config")
        for _, commands, flag in _KEYS.values():
            if flag and command in commands:
                p.add_argument(flag[0], **flag[1])
    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, run the experiment, return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # a config value whose covariances or data overflow is named like one
        # that fails a rule
        with _naming_config_keys():
            config = build_config(args)
            if config.sweep is not None:
                return _run_sweep_command(config)
            if config.command is Command.VERIFY_ASYMPTOTICS:
                return _run_verify_command(config)
            return _run_single_command(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surfacing any runtime failure as exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

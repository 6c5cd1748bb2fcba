import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeiv._fork as _fork
import ridgeiv.cli as cli
import ridgeiv.montecarlo as montecarlo
from ridgeiv.cli import (
    emit_plot,
    read_sweep_csv,
    run_cli,
    write_sweep_csv,
)
from ridgeiv.dgp import DgpParams, aer_calibration
from ridgeiv.estimators import PenaltyRate, PenaltySchedule
from ridgeiv.montecarlo import (
    GridVariable,
    SweepCell,
    SweepConfig,
    SweepResult,
    run_sweep,
)
from ridgeiv.verify import VERIFY_REGIMES

SMALL_CONFIG = {
    "grid": {"start": 0.1, "stop": 0.5, "points": 3},
    "lambdas": [0.0, 1.0],
    "n": 40,
    "reps": 25,
    "seed": 5,
}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _record_regimes(ran):
    """A stand-in for ``cli.verify_regimes`` that records the regimes it ran."""

    def fake(regimes, *args, **kwargs):
        ran.extend(regimes)
        return [(True, [])] * len(regimes)

    return fake


def _small_result(reps=20):
    config = SweepConfig(
        base_params=aer_calibration(beta1=1.0),
        grid_variable=GridVariable.PI1,
        grid=(0.1, 0.3, 0.5),
        lambda_values=(0.0, 1.0),
        n=30,
        reps=reps,
        master_seed=11,
    )
    return run_sweep(config)


# ---------------------------------------------------------------------------
# exit codes


def test_missing_subcommand_exits_2(capsys):
    assert run_cli([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert run_cli(["sweep-pi", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, name):
    assert run_cli(["sweep-pi", "--config", str(tmp_path / name)]) == 2
    captured = capsys.readouterr()
    assert "cannot read config file" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "payload, flags", [({"seed": 2**64}, []), ({}, ["--seed", "-1"])], ids=["config", "flag"]
)
def test_seed_outside_u64_exits_2(tmp_path, capsys, payload, flags):
    argv = ["single-run", "--config", _write_config(tmp_path, payload), *flags]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert "config field 'seed' must be an unsigned 64-bit integer" in captured.err
    assert captured.out == ""


def test_unknown_field_named_in_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**SMALL_CONFIG, "lambduh": [1]})
    assert run_cli(["sweep-pi", "--config", cfg]) == 2
    assert "'lambduh'" in capsys.readouterr().err


def test_bad_reps_named_in_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**SMALL_CONFIG, "reps": 0})
    assert run_cli(["sweep-pi", "--config", cfg]) == 2
    assert "'reps'" in capsys.readouterr().err


def test_wrong_type_named_in_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**SMALL_CONFIG, "n": "many"})
    assert run_cli(["sweep-pi", "--config", cfg]) == 2
    assert "'n'" in capsys.readouterr().err


def test_nonincreasing_grid_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**SMALL_CONFIG, "grid": [0.5, 0.1]})
    assert run_cli(["sweep-pi", "--config", cfg]) == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_negative_lambda_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**SMALL_CONFIG, "lambdas": [-1.0]})
    assert run_cli(["sweep-pi", "--config", cfg]) == 2
    capsys.readouterr()


def test_nan_literal_in_json_rejected(tmp_path, capsys):
    # Python's json accepts NaN and Infinity unless told otherwise
    path = tmp_path / "nan.json"
    path.write_text('{"lambdas": [NaN], "reps": 5}')
    out = tmp_path / "out"
    assert run_cli(["sweep-pi", "--config", str(path), "--out", str(out)]) == 2
    assert "NaN" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "override, field",
    [
        ({"lambdas": [0.0, math.inf]}, "'lambdas[1]'"),
        ({"grid": [0.1, math.inf]}, "'grid[1]'"),
        ({"grid": {"start": 0.0, "stop": -math.inf, "points": 3}}, "'grid.stop'"),
        ({"params": {"stock_c": math.inf}}, "'params.stock_c'"),
        ({"lambdas": [0.0, 10**400]}, "'lambdas[1]'"),
    ],
    ids=["lambdas", "grid-list", "grid-range", "params", "lambdas-int"],
)
def test_overflowing_number_named_in_error(tmp_path, capsys, override, field):
    # 1e999 is valid JSON and parses to inf
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**SMALL_CONFIG, **override}).replace("Infinity", "1e999"))
    out = tmp_path / "out"
    assert run_cli(["sweep-beta", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err and "finite" in err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("sweep-pi", '{"lambdas": [0.0, NaN]}', "'lambdas[1]' must be finite, got NaN"),
        ("sweep-pi", '{"params": {"sigma_eps": Infinity}}',
         "'params.sigma_eps' must be finite, got Infinity"),
        ("sweep-beta", '{"grid": {"start": -Infinity, "stop": 1.0, "points": 3}}',
         "'grid.start' must be finite, got -Infinity"),
        ("single-run", '{"schedule": {"rate": "sqrt_n", "lambda0": NaN}}',
         "'schedule.lambda0' must be finite, got NaN"),
        ("single-run", '{"seed": NaN}', "'seed' has wrong type (number), expected an integer"),
    ],
    ids=["lambdas", "params", "grid-range", "schedule", "seed"],
)
def test_non_finite_literal_named_with_its_field(tmp_path, capsys, command, text, message):
    path = tmp_path / "literal.json"
    path.write_text(text)
    assert run_cli([command, "--config", str(path), "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("sweep-pi", {"n": "many"}, "'n' has wrong type (string), expected an integer"),
        ("sweep-pi", {"reps": True}, "'reps' has wrong type (boolean), expected an integer"),
        ("sweep-pi", {"lambdas": [0.0, None]},
         "'lambdas[1]' has wrong type (null), expected a number"),
        ("sweep-pi", {"params": [1.0]}, "'params' has wrong type (list), expected an object"),
        ("sweep-pi", {"lambdas": {"a": 1.0}},
         "'lambdas' has wrong type (object), expected a list"),
        ("sweep-pi", {"output_dir": 1.5},
         "'output_dir' has wrong type (number), expected a string"),
        ("sweep-beta", {"emit_raw": 1},
         "'emit_raw' has wrong type (integer), expected true or false"),
    ],
    ids=["integer", "boolean-for-integer", "number", "object", "list", "string", "boolean"],
)
def test_wrong_type_named_in_json_terms(tmp_path, capsys, command, payload, message):
    cfg = _write_config(tmp_path, payload)
    assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "class" not in captured.err
    assert captured.out == ""


def test_overlong_integer_literal_exits_2(tmp_path, capsys):
    # json raises ValueError, not JSONDecodeError, past 4300 digits
    path = tmp_path / "long.json"
    path.write_text('{"n": 1' + "0" * 5000 + "}")
    assert run_cli(["single-run", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"start": math.inf, "stop": 1.0, "points": 3}, "'grid.start' must be finite"),
        ({"start": 0.0, "points": 3}, "'grid.stop' is required"),
        ({"start": 0.0, "stop": 1.0}, "'grid.points' is required"),
        (
            {"start": -1e308, "stop": 1e308, "points": 3},
            "'grid' must have a finite stop - start, got 1e+308 - -1e+308",
        ),
    ],
    ids=["start", "stop", "points", "span"],
)
def test_grid_range_fields_named_with_their_object(tmp_path, capsys, grid, message):
    path = tmp_path / "grid.json"
    # 1e999 is valid JSON and parses to inf
    path.write_text(json.dumps({**SMALL_CONFIG, "grid": grid}).replace("Infinity", "1e999"))
    assert run_cli(["sweep-pi", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_schedule_lambda0_named_with_its_object(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"schedule": {"rate": "linear_n", "lambda0": 1e999}}')
    assert run_cli(["single-run", "--config", str(path)]) == 2
    assert "'schedule.lambda0' must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, field",
    [
        (
            "sweep-pi",
            {**SMALL_CONFIG, "grid": {"start": 0.0, "stop": 1.0, "points": 3, "step": 1}},
            "grid.step",
        ),
        ("single-run", {"schedule": {"rate": "linear_n", "lamda0": 4}}, "schedule.lamda0"),
    ],
    ids=["grid", "schedule"],
)
def test_unknown_nested_key_is_not_recognized(tmp_path, capsys, command, payload, field):
    # a typo must not fall back to the default (2SLS for a misspelt lambda0)
    cfg = _write_config(tmp_path, payload)
    assert run_cli([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert f"'{field}' is not recognized" in captured.err
    assert captured.out == ""


ACCEPTED_KEYS = {
    "sweep-pi": {
        "params", "grid", "lambdas", "n", "reps", "seed", "output_dir", "emit_plots", "emit_raw",
    },
    "sweep-beta": {
        "params", "grid", "lambdas", "n", "reps", "seed", "output_dir", "emit_plots", "emit_raw",
    },
    "verify-asymptotics": {"reps", "seed", "regimes"},
    "single-run": {"params", "n", "seed", "schedule"},
}

# a valid value of every config key, none of them a default
KEY_VALUES = {
    "params": {"sigma_eta": 0.25, "stock_c": None},
    "grid": [0.1, 0.2],
    "lambdas": [7.0],
    "n": 50,
    "reps": 600,
    "seed": 3,
    "output_dir": "zz",
    "emit_plots": True,
    "emit_raw": True,
    "regimes": ["sqrtn-bias"],
    "schedule": {"rate": "sqrt_n", "lambda0": 0.5},
}

FOREIGN_KEYS = [
    (command, key)
    for command, accepted in ACCEPTED_KEYS.items()
    for key in sorted(set(KEY_VALUES) - accepted)
]


def _build(argv):
    return cli.build_config(cli._build_parser().parse_args(argv))


def test_config_key_table():
    assert {c.value: set(keys) for c, keys in cli._CONFIG_KEYS.items()} == ACCEPTED_KEYS
    assert len(FOREIGN_KEYS) == 19


@pytest.mark.parametrize(
    "command, key",
    FOREIGN_KEYS + [("single-run", "--reps")],
    ids=[f"{c}-{k}" for c, k in FOREIGN_KEYS] + ["single-run---reps"],
)
def test_key_foreign_to_command_exits_2(tmp_path, monkeypatch, capsys, command, key):
    # each of these used to be accepted and then ignored
    monkeypatch.chdir(tmp_path)
    if key == "--reps":
        argv = [command, "--reps", "5"]
    else:
        argv = [command, "--config", _write_config(tmp_path, {key: KEY_VALUES[key]})]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    if key == "--reps":
        assert "--reps" in captured.err
    else:
        assert f"config field '{key}' is not recognized by {command}" in captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"] * (key != "--reps")


@pytest.mark.parametrize("command", list(ACCEPTED_KEYS))
def test_every_accepted_key_reaches_the_config(tmp_path, command):
    payload = {key: KEY_VALUES[key] for key in ACCEPTED_KEYS[command]}
    config = _build([command, "--config", _write_config(tmp_path, payload)])
    params = dataclasses.replace(aer_calibration(beta1=1.0), sigma_eta=0.25)
    if config.sweep is not None:
        assert config.sweep.base_params == params
        assert config.sweep.grid == (0.1, 0.2)
        assert config.sweep.lambda_values == (7.0,)
        assert (config.sweep.n, config.sweep.reps, config.sweep.master_seed) == (50, 600, 3)
        assert (config.output_dir, config.emit_plots, config.emit_raw) == (Path("zz"), True, True)
    elif command == "verify-asymptotics":
        assert (config.regimes, config.reps, config.seed) == (("sqrtn-bias",), 600, 3)
    else:
        assert (config.params, config.n, config.seed) == (params, 50, 3)
        assert config.schedule == PenaltySchedule(PenaltyRate.SQRT_N, 0.5)


@pytest.mark.parametrize(
    "command, payload, flags, field",
    [
        ("verify-asymptotics", {"seed": "abc"}, [], "'seed'"),
        ("verify-asymptotics", {"reps": -3}, [], "'reps'"),
        ("verify-asymptotics", {"regimes": ["bogus"]}, [], "'regimes'"),
        ("verify-asymptotics", {"regimes": []}, [], "'regimes'"),
        ("verify-asymptotics", {"regimes": ["sqrtn-bias", "sqrtn-bias"]}, [], "'regimes'"),
        ("sweep-pi", {"output_dir": 5}, ["--out", "o"], "'output_dir'"),
        ("sweep-pi", {"emit_plots": "yes"}, ["--plots"], "'emit_plots'"),
        ("sweep-beta", {"emit_raw": 1}, ["--raw"], "'emit_raw'"),
    ],
    ids=[
        "seed", "reps", "regimes", "regimes-empty", "regimes-repeated",
        "output_dir", "emit_plots", "emit_raw",
    ],
)
def test_config_value_checked_when_a_flag_overrides_it(
    tmp_path, monkeypatch, capsys, command, payload, flags, field
):
    ran = []
    monkeypatch.setattr(cli, "verify_regimes", _record_regimes(ran))
    monkeypatch.chdir(tmp_path)
    given = {
        "sweep-pi": ["--seed", "1", "--reps", "2"],
        "sweep-beta": ["--seed", "1", "--reps", "2"],
        "verify-asymptotics": ["--seed", "1", "--reps", "200", "--regime", "strong-variance"],
    }[command]
    argv = [command, "--config", _write_config(tmp_path, payload), *given, *flags]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert captured.out == "" and ran == []
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize(
    "flags, expected",
    [
        ([], ("strong-variance",)),
        (["--regime", "all"], VERIFY_REGIMES),
        (["--regime", "sqrtn-bias"], ("sqrtn-bias",)),
    ],
    ids=["config", "all", "one"],
)
def test_given_regime_flag_overrides_config_regimes(tmp_path, monkeypatch, capsys, flags, expected):
    ran = []
    monkeypatch.setattr(cli, "verify_regimes", _record_regimes(ran))
    cfg = _write_config(tmp_path, {"regimes": ["strong-variance"], "reps": 500})
    assert run_cli(["verify-asymptotics", "--config", cfg, *flags]) == 0
    assert tuple(ran) == expected
    capsys.readouterr()


def _readme_text():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


@pytest.mark.parametrize("command", ["sweep-pi", "sweep-beta"])
def test_readme_config_example_is_accepted(tmp_path, command):
    block = re.search(r"```json\n(.*?)```", _readme_text(), re.S).group(1)
    config = _build([command, "--config", _write_config(tmp_path, json.loads(block))])
    assert config.sweep is not None and config.emit_plots
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, swept, other",
    [("sweep-pi", "pi1", "beta1"), ("sweep-beta", "beta1", "pi1")],
)
def test_sweep_params_may_not_set_the_swept_parameter(tmp_path, capsys, command, swept, other):
    # the grid sets the swept parameter at every point, so a value for it does nothing
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, {**SMALL_CONFIG, "params": {swept: 0.5}})
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"config field 'params.{swept}' is not recognized by {command}" in captured.err
    assert captured.out == "" and not out.exists()
    # the parameter the grid leaves alone is still read
    config = _build([command, "--config", _write_config(tmp_path, {"params": {other: 0.5}})])
    assert getattr(config.sweep.base_params, other) == 0.5


@pytest.mark.parametrize("command", ["sweep-pi", "sweep-beta"])
@pytest.mark.parametrize("intercept", ["beta0", "pi0"])
def test_sweep_params_may_not_set_an_intercept(tmp_path, capsys, command, intercept):
    # no covariance depends on an intercept: any value gave the same bytes
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, {**SMALL_CONFIG, "params": {intercept: 1000.0}})
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"config field 'params.{intercept}' is not recognized by {command}" in captured.err
    assert captured.out == "" and not out.exists()


def test_single_run_keeps_the_intercepts(tmp_path):
    # they generate single-run's dataset
    cfg = _write_config(tmp_path, {"params": {"beta0": 1.5, "pi0": -2.0}})
    params = _build(["single-run", "--config", cfg]).params
    assert (params.beta0, params.pi0) == (1.5, -2.0)


@pytest.mark.parametrize("command", ["sweep-beta", "single-run"])
def test_pi1_beside_a_non_null_stock_c_rejected(tmp_path, capsys, command):
    # stock_c / sqrt(n) overrode pi1, so any pi1 gave the same output
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, {"params": {"pi1": 0.5, "stock_c": 1.0}})
    argv = [command, "--config", cfg]
    if command == "sweep-beta":
        argv += ["--out", str(out)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert (
        "config field 'params.pi1' is not recognized beside a non-null 'params.stock_c'"
        in captured.err
    )
    assert captured.out == "" and not out.exists()
    # beside a null stock_c, pi1 is the slope
    cfg = _write_config(tmp_path, {"params": {"pi1": 0.5, "stock_c": None}})
    config = _build([command, "--config", cfg])
    assert (config.sweep.base_params if config.sweep else config.params).pi1 == 0.5


@pytest.mark.parametrize(
    "lambdas",
    [[4.0, 4.0], [0.0, 4.0, 1.0, 4.0], [1.0000001, 1.0000002]],
    ids=["repeated", "repeated-apart", "same-plot-name"],
)
def test_repeated_lambdas_rejected(tmp_path, capsys, lambdas):
    # cells and plot files are keyed by lambda; a repeat wrote duplicate rows
    # and one SVG over another
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, {**SMALL_CONFIG, "lambdas": lambdas})
    assert run_cli(["sweep-pi", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config field 'lambdas' must not repeat" in captured.err
    assert captured.out == "" and not out.exists()


def test_nearby_lambdas_with_distinct_plot_names_accepted(tmp_path):
    cfg = _write_config(tmp_path, {**SMALL_CONFIG, "lambdas": [1.00001, 1.00002]})
    assert _build(["sweep-pi", "--config", cfg]).sweep.lambda_values == (1.00001, 1.00002)


def test_readme_key_table_matches_the_schema():
    subparsers = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    documented = {}
    for line in _readme_text().splitlines():
        cells = line.split(" | ")
        if len(cells) == 3 and line.startswith("| `"):
            for command in re.findall(r"`([a-z-]+)`", cells[0]):
                documented[command] = (
                    set(re.findall(r"`(\w+)`", cells[1])),
                    set(re.findall(r"`(--[a-z]+)`", cells[2])),
                )
    flags = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, p in subparsers.choices.items()
    }
    assert documented == {c: (ACCEPTED_KEYS[c], flags[c]) for c in ACCEPTED_KEYS}


def test_bad_grid_type_message_shows_the_range_keys(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**SMALL_CONFIG, "grid": "x"})
    assert run_cli(["sweep-pi", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "{start, stop, points}" in err and "{{" not in err


def test_removed_z_dist_field_is_not_recognized(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {**SMALL_CONFIG, "params": {"z_dist": "standard_normal"}}
    )
    assert run_cli(["sweep-pi", "--config", cfg]) == 2
    assert "'params.z_dist' is not recognized" in capsys.readouterr().err


def test_bad_params_field_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**SMALL_CONFIG, "params": {"sigma_eps": -1.0}})
    assert run_cli(["sweep-pi", "--config", cfg]) == 2
    assert "params" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("sweep-pi", {"lambdas": [-1.0]}, "'lambdas[0]' must be nonnegative, got -1.0"),
        ("sweep-pi", {"params": {"stock_c": 1.0}},
         "'params.stock_c' cannot be set while sweeping pi1"),
        ("sweep-beta", {"params": {"sigma_eps": -1}},
         "'params.sigma_eps' must be nonnegative, got -1.0"),
        ("single-run", {"params": {"sigma_eps": 0, "err_cov": 0.5}},
         "'params.err_cov' must be 0 when sigma_eps is 0"),
        ("single-run", {"params": {"sigma_eps": 1e-200, "err_cov": 0.5}},
         "'params.sigma_eps' must give a finite eps_loading"),
        ("sweep-beta", {"params": {"sigma_eps": 1e-200, "err_cov": 0.5}},
         "'params.sigma_eps' must give a finite eps_loading"),
        ("sweep-pi", {"grid": [0.5, 0.1]}, "'grid' must be strictly increasing"),
        ("single-run", {"schedule": {"lambda0": -1}},
         "'schedule.lambda0' must be nonnegative, got -1.0"),
    ],
    ids=[
        "lambdas", "stock_c", "sigma_eps", "err_cov", "eps_loading-single-run",
        "eps_loading-sweep", "grid", "lambda0",
    ],
)
def test_library_rule_named_with_its_config_key(tmp_path, capsys, command, payload, message):
    # the library states the rule under its argument's name (lambda_values[0],
    # base_params.stock_c, sigma_eps); the message names the config key
    out = tmp_path / "out"
    argv = [command, "--config", _write_config(tmp_path, payload)]
    if command != "single-run":
        argv += ["--out", str(out)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: config field {message}")
    assert captured.out == "" and not out.exists()


def test_every_library_argument_the_cli_sets_has_a_config_key():
    # a library field added later must not surface under its internal name
    arguments = [
        *(f.name for f in dataclasses.fields(SweepConfig) if f.name != "grid_variable"),
        *(f.name for f in dataclasses.fields(DgpParams)),
        *(f.name for f in dataclasses.fields(PenaltySchedule)),
    ]
    assert set(arguments) <= set(cli._ARG_KEYS)
    for argument in arguments:
        assert cli._ARG_KEYS[argument].split(".")[0] in cli._KEYS


def test_a_value_error_that_names_no_argument_leaves_unchanged():
    # only a library rule stated under an argument's name becomes a ConfigError
    error = ValueError("sweep result has no cells for lambda = 1.0")
    with pytest.raises(ValueError) as caught, cli._naming_config_keys():
        raise error
    assert caught.value is error


def test_unwritable_output_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = _write_config(tmp_path, SMALL_CONFIG)
    code = run_cli(
        ["sweep-pi", "--config", cfg, "--out", str(blocker / "sub")]
    )
    assert code == 2
    assert "not writable" in capsys.readouterr().err


@pytest.mark.parametrize("given_by", ["config", "flag"])
def test_nul_in_output_dir_exits_2(tmp_path, capsys, given_by):
    if given_by == "config":
        argv = ["--config", _write_config(tmp_path, {"output_dir": "a\u0000b", "reps": 2})]
    else:
        argv = ["--config", _write_config(tmp_path, SMALL_CONFIG), "--out", "a\0b"]
    assert run_cli(["sweep-pi", *argv]) == 2
    err = capsys.readouterr().err
    assert "config field 'output_dir' must not contain a NUL character" in err


@pytest.mark.parametrize("points", [10**9, 10**20])
def test_grid_points_above_the_cap_exit_2_before_the_grid_is_built(
    tmp_path, monkeypatch, capsys, points
):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    cfg = _write_config(tmp_path, {"grid": {"start": 0, "stop": 1, "points": points}})
    assert run_cli(["sweep-pi", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert (
        f"config field 'grid.points' must be at most 1000000, got {points}"
        in capsys.readouterr().err
    )


def test_grid_points_at_the_cap_accepted():
    assert cli._MAX_GRID_POINTS == 10**6
    grid = cli._parse_grid({"start": 0, "stop": 1, "points": cli._MAX_GRID_POINTS})
    assert len(grid) == cli._MAX_GRID_POINTS and grid[-1] == 1.0
    with pytest.raises(cli.ConfigError, match="'grid.points' must be at most"):
        cli._parse_grid({"start": 0, "stop": 1, "points": cli._MAX_GRID_POINTS + 1})


def test_runtime_failure_exits_1(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(cli, "run_sweep", explode)
    cfg = _write_config(tmp_path, SMALL_CONFIG)
    assert run_cli(["sweep-pi", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "injected failure" in capsys.readouterr().err


def test_a_failure_while_building_the_config_exits_1(monkeypatch, capsys):
    def explode(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_resolve_config", explode)
    assert run_cli(["single-run"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: boom\n" and captured.out == ""


# ---------------------------------------------------------------------------
# sweep artifacts


def test_sweep_end_to_end(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "out"
    code = run_cli(
        ["sweep-pi", "--config", cfg, "--out", str(out), "--plots", "--raw"]
    )
    assert code == 0
    capsys.readouterr()
    assert (out / "mse_sweep.csv").exists()
    assert (out / "raw_estimates.csv").exists()
    for lam in ("0", "1"):
        svg = out / f"mse_lambda_{lam}.svg"
        assert svg.exists()
        ET.parse(svg)  # valid XML
    rows = read_sweep_csv(out / "mse_sweep.csv")
    assert len(rows) == 3 * 2
    assert all(r["n_degenerate"] == 0 for r in rows)


# sha256 of every artifact of perfbench's two sweep workloads.  Any change to
# their bytes, a last-bit one included, must re-pin these and say so.
_SWEEP_DIGESTS = {
    ("sweep-pi", "--reps", "100"): {
        "mse_sweep.csv": "b2eb0ce2fdfc8a458490149e1113aaaef04038d3cfc74a61b0f6aca1bc914d9a",
    },
    ("sweep-beta", "--reps", "100", "--raw", "--plots"): {
        "mse_lambda_0.8.svg": "51e0dbd34c1b0a662b70a8a403b2e1033b07b42844d5a0c42758a3a30caedbda",
        "mse_lambda_0.svg": "b0ae2b4d288ae01495822b15ba0dbda335a0df239d45816bcaeedd56c329144b",
        "mse_lambda_3.svg": "bbd4b9e75acf55f5c942f64ebd4133033f136c780450371bf3d7985a1df210f2",
        "mse_sweep.csv": "395182df6ccee2b358884ca454ec3795426843daa71c4a0a04055db140859fe2",
        "raw_estimates.csv": "fbb4f7db7c46da8f752678d9b735e145151f9f0d48ace644b8e26db882526b09",
    },
}


@pytest.mark.parametrize("argv", list(_SWEEP_DIGESTS), ids=["sweep-pi", "sweep-beta-raw-plots"])
@pytest.mark.parametrize("workers", ["serial", "two_workers"])
def test_benchmarked_sweeps_keep_their_bytes(
    tmp_path, monkeypatch, capsys, request, argv, workers
):
    if workers == "serial":
        monkeypatch.setattr(_fork, "_usable_cpus", lambda: 1)
    else:
        request.getfixturevalue("two_workers")
    assert run_cli([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == _SWEEP_DIGESTS[argv]


def test_csv_round_trip_is_exact(tmp_path):
    # sigma_eps = sigma_eta = 0 and pi1 = 0: every lambda = 0 rep is degenerate
    noiseless = dataclasses.replace(
        aer_calibration(beta1=1.0), sigma_eps=0.0, sigma_eta=0.0, err_cov=0.0
    )
    degenerate = run_sweep(SweepConfig(noiseless, GridVariable.PI1, (0.0, 0.5), (0.0,), 30, 3, 1))
    assert degenerate.cells[0].n_degenerate == 3 and math.isnan(degenerate.cells[0].mse)
    for result in (_small_result(), degenerate):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        rows = read_sweep_csv(path)
        assert len(rows) == len(result.cells)
        for row, cell in zip(rows, result.cells):
            assert list(row) == list(cli.CSV_COLUMNS)
            for column, field in zip(cli.CSV_COLUMNS, dataclasses.fields(SweepCell)):
                value = getattr(cell, field.name)
                assert type(row[column]) is type(value)
                assert row[column] == value or (math.isnan(row[column]) and math.isnan(value))


def test_csv_columns_are_the_sweep_cell_fields():
    # SweepCell is the one schema of the sweep table; lam is a Python keyword
    pairs = list(zip(dataclasses.fields(SweepCell), cli.CSV_COLUMNS, strict=True))
    assert [(f.name, column) for f, column in pairs if f.name != column] == [("lam", "lambda")]


def test_readme_column_lists_match_the_writers(tmp_path):
    text = " ".join(_readme_text().split())
    documented = {
        name: re.search(rf"`{name}` with columns `([^`]*)`", text).group(1).split(", ")
        for name in ("mse_sweep.csv", "raw_estimates.csv")
    }
    raw_path = tmp_path / "raw.csv"
    cli.write_raw_csv(_small_result(reps=2), raw_path)
    assert documented == {
        "mse_sweep.csv": list(cli.CSV_COLUMNS),
        "raw_estimates.csv": raw_path.read_text().splitlines()[0].split(","),
    }


def _hand_result(grid, lambdas, estimates):
    """A SweepResult with these estimates; the raw writer reads no aggregate."""
    cells = tuple(
        SweepCell(grid_value, lam, *[math.nan] * 8, 0) for lam in lambdas for grid_value in grid
    )
    return SweepResult(GridVariable.PI1, 30, estimates.shape[1], cells, estimates)


def _csv_module_rendering(result):
    """The raw table as csv.writer renders it: floats as repr, 1 where NaN."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["grid_value", "lambda", "rep", "beta1_hat", "degenerate"])
    for cell, row in zip(result.cells, result.estimates):
        writer.writerows(
            [repr(cell.grid_value), repr(cell.lam), rep, value, int(math.isnan(value))]
            for rep, value in enumerate(row.tolist())
        )
    return buffer.getvalue().encode()


def test_raw_csv_matches_the_csv_module_on_edge_floats(tmp_path):
    edges = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, 2.0])
    estimates = np.stack([np.roll(edges, k) for k in range(4)])
    result = _hand_result((-0.0, 1e-300), (0.0, 2.5e10), estimates)
    path = tmp_path / "raw.csv"
    cli.write_raw_csv(result, path)
    assert path.read_bytes() == _csv_module_rendering(result)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 4 * 8
    assert lines[1:3] == ["-0.0,0.0,0,nan,1", "-0.0,0.0,1,inf,0"]
    assert lines[-1] == "1e-300,25000000000.0,7,5e-324,0"


@given(
    st.lists(st.floats(), min_size=1, max_size=8),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
def test_raw_csv_parses_back_bit_for_bit(tmp_path_factory, values, grid_value, lam):
    estimates = np.array([values, values[::-1]])
    result = _hand_result((grid_value,), (lam, lam + 1.0), estimates)
    path = tmp_path_factory.getbasetemp() / "raw_property.csv"
    cli.write_raw_csv(result, path)
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == estimates.size
    for i, row in enumerate(rows):
        cell_index, rep = divmod(i, len(values))
        cell, value = result.cells[cell_index], float(estimates[cell_index, rep])
        assert float(row["grid_value"]).hex() == cell.grid_value.hex()
        assert float(row["lambda"]).hex() == cell.lam.hex()
        assert int(row["rep"]) == rep
        # hex() tells -0.0 from 0.0 and reads "nan" for every NaN
        assert float(row["beta1_hat"]).hex() == value.hex()
        assert row["degenerate"] == ("1" if math.isnan(value) else "0")


def test_flag_overrides_config_seed(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["sweep-pi", "--config", cfg, "--out", str(out_a)]) == 0
    assert run_cli(
        ["sweep-pi", "--config", cfg, "--out", str(out_b), "--seed", "999"]
    ) == 0
    capsys.readouterr()
    assert (out_a / "mse_sweep.csv").read_bytes() != (out_b / "mse_sweep.csv").read_bytes()


def test_sweep_beta_defaults_configurable(tmp_path, capsys):
    out = tmp_path / "beta"
    code = run_cli(
        ["sweep-beta", "--reps", "5", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    rows = read_sweep_csv(out / "mse_sweep.csv")
    lambdas = sorted({r["lambda"] for r in rows})
    assert lambdas == [0.0, 0.8, 3.0]
    grid = sorted({r["grid_value"] for r in rows})
    assert len(grid) == 40
    assert grid[0] == 0.0 and grid[-1] == 3.475


# ---------------------------------------------------------------------------
# plots


def test_emit_plot_is_deterministic(tmp_path):
    result = _small_result()
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(result, 1.0, a)
    emit_plot(result, 1.0, b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "lambda = 1" in text
    assert "<polyline" in text


def test_emit_plot_single_point_marker(tmp_path):
    config = SweepConfig(
        base_params=aer_calibration(beta1=1.0),
        grid_variable=GridVariable.PI1,
        grid=(0.3,),
        lambda_values=(0.5,),
        n=25,
        reps=10,
        master_seed=4,
    )
    path = tmp_path / "point.svg"
    emit_plot(run_sweep(config), 0.5, path)
    root = ET.parse(path).getroot()
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    assert len(circles) == 1
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert polylines == []


def test_emit_plot_with_no_finite_mse_draws_no_curve(tmp_path):
    # no noise and no first stage: every unpenalized denominator is exactly 0
    config = SweepConfig(
        base_params=DgpParams(
            beta0=0.0, beta1=1.0, pi0=0.0, pi1=0.0, sigma_eps=0.0, sigma_eta=0.0
        ),
        grid_variable=GridVariable.PI1,
        grid=(0.0,),
        lambda_values=(0.0,),
        n=25,
        reps=10,
        master_seed=4,
    )
    result = run_sweep(config)
    assert math.isnan(result.cells[0].mse)
    path = tmp_path / "empty.svg"
    emit_plot(result, 0.0, path)
    root = ET.parse(path).getroot()
    assert root.findall(".//{http://www.w3.org/2000/svg}polyline") == []
    assert root.findall(".//{http://www.w3.org/2000/svg}circle") == []


def test_emit_plot_unknown_lambda(tmp_path):
    with pytest.raises(ValueError, match="no cells"):
        emit_plot(_small_result(), 42.0, tmp_path / "x.svg")


def test_emit_plot_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        emit_plot(_small_result(), 1.0, tmp_path / "missing" / "x.svg")


def _plot_result(grid_variable, grid, mses):
    """A SweepResult whose lambda = 1 cells have these MSEs; emit_plot reads no other field."""
    cells = tuple(SweepCell(g, 1.0, mse, *[math.nan] * 7, 0) for g, mse in zip(grid, mses))
    return SweepResult(grid_variable, 30, 1, cells, np.zeros((len(cells), 1)))


# sha256 of the plot of each edge case.  Any change to their bytes must re-pin
# these and say so.
_EDGE_PLOTS = {
    "single-point": (
        (GridVariable.PI1, (0.3,), (0.02,)),
        "09d52154bee4f42c3f3c55c7a71a7fdbd7b17acc264a0086957dfe6288638ead",
    ),
    "no-finite-mse": (
        (GridVariable.PI1, (0.0, 0.5), (math.nan, 0.0)),
        "386e9b1d3c0f043edc78e1ea0d32b27317778f8f70448492ac970dab53d20f1d",
    ),
    "constant-mse": (
        (GridVariable.PI1, (0.1, 0.3, 0.5), (0.25, 0.25, 0.25)),
        "800de7c8db3972141040d697826a6a1e9b479353593491848a1b4f970ae1f99a",
    ),
    "span-beyond-the-float-range": (
        (GridVariable.PI1, (-1.7e308, 0.0, 1.7e308), (1.0, 10.0, 1e-3)),
        "d06ff9c0a56f3fee6ef751dbe526e335d55f885d82a4e6ac6f6b70025f4b6b68",
    ),
    "beta1-axis": (
        (GridVariable.BETA1, (0.0, 1.0, 2.0, 3.475), (0.5, 1e-6, 3.0, 1e12)),
        "cc720145b4234e466d64ce2a07a8b13be480240f0bcc1eeb211066d816f42faf",
    ),
}


@pytest.mark.parametrize("case", list(_EDGE_PLOTS))
def test_edge_case_plots_keep_their_bytes(tmp_path, case):
    fields, digest = _EDGE_PLOTS[case]
    path = tmp_path / "plot.svg"
    emit_plot(_plot_result(*fields), 1.0, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _plotted_xs(path):
    """Every x coordinate of an SVG plot: attributes and polyline points."""
    xs = []
    for element in ET.parse(path).getroot().iter():
        xs += [float(element.get(name)) for name in ("x", "x1", "x2", "cx") if element.get(name)]
        if element.get("points"):
            xs += [float(point.split(",")[0]) for point in element.get("points").split()]
    return xs


def _assert_plot_inside(path):
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    xs = _plotted_xs(path)
    assert xs and all(0 <= x <= 640 for x in xs)


def test_a_plot_over_a_span_beyond_the_float_range_stays_inside(tmp_path, capsys):
    # the span 2e308 overflowed: every x coordinate read "nan", a tick "inf"
    out = tmp_path / "out"
    payload = {"grid": [-1e308, 1e308], "reps": 5, "lambdas": [0.0], "output_dir": str(out)}
    assert run_cli(["sweep-pi", "--plots", "--config", _write_config(tmp_path, payload)]) == 0
    capsys.readouterr()
    _assert_plot_inside(out / "mse_lambda_0.svg")


def test_plotted_points_over_a_span_beyond_the_float_range_stay_inside(tmp_path):
    result = _small_result()
    moved = {0.1: -1e308, 0.3: 0.0, 0.5: 1e308}
    cells = tuple(dataclasses.replace(c, grid_value=moved[c.grid_value]) for c in result.cells)
    path = tmp_path / "wide.svg"
    emit_plot(dataclasses.replace(result, cells=cells), 1.0, path)
    circles = ET.parse(path).getroot().findall(".//{http://www.w3.org/2000/svg}circle")
    assert [float(c.get("cx")) for c in circles] == [70.0, 345.0, 620.0]
    _assert_plot_inside(path)


# ---------------------------------------------------------------------------
# other subcommands


def test_single_run_prints_estimate(capsys):
    assert run_cli(["single-run", "--seed", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 150
    assert payload["lambda_n"] == 0.0
    assert math.isfinite(payload["beta1_hat"])
    assert payload["beta1_hat"] == payload["numerator"] / payload["denominator"]
    assert set(payload) >= {
        "beta1_hat", "numerator", "denominator", "lambda_n", "n",
        "pi1_hat", "sigma_eta_hat", "sigma_red_hat", "sigma_eps_hat", "sigma_z_hat",
        "std_error",
    }


# single-run's stdout for a few seeds, schedules and designs, pinned by sha256
_PINNED_RUNS = {
    "default": ({"seed": 11}, "30a8656f0cfb41ad7c9d8c06001f46679f5c522c0960ae33305020ca7fcfeaef"),
    "sqrt_n": (
        {"seed": 3, "schedule": {"rate": "sqrt_n", "lambda0": 0.5}},
        "41f4e0468a922910046b4f0f77c5e9da0d26833afe553593ce62bc1a5388b26f",
    ),
    "linear_n": (
        {"seed": 5, "n": 60, "schedule": {"rate": "linear_n", "lambda0": 1.0}},
        "30d28d0ce0c5dda4cd69d7701f964398aa55f332981d3ec6c135a1e93a56b370",
    ),
    "drifting": (
        {"seed": 2, "n": 400, "params": {"stock_c": 1.0},
         "schedule": {"rate": "linear_n", "lambda0": 0.1}},
        "9db753e895736e9f0f34f823308a46346eb0eed65bfa82ae3189b3e1ee89f6a5",
    ),
    "no-first-stage": (
        {"seed": 4, "params": {"pi1": 0.0}, "schedule": {"rate": "constant", "lambda0": 4.0}},
        "5c3b7c12a2d48ed6e0970e8c76181f6f32319c502a1d8806807be80dd268afa5",
    ),
}


@pytest.mark.parametrize("case", list(_PINNED_RUNS))
def test_single_run_keeps_its_bytes(tmp_path, capsys, case):
    payload, digest = _PINNED_RUNS[case]
    assert run_cli(["single-run", "--config", _write_config(tmp_path, payload)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_module_entry_point_runs(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "ridgeiv.cli", "single-run", "--seed", "1"],
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert math.isfinite(json.loads(proc.stdout)["beta1_hat"])


def test_single_run_with_schedule_config(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"schedule": {"rate": "linear_n", "lambda0": 1.0}, "n": 60, "seed": 11},
    )
    assert run_cli(["single-run", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 60
    assert payload["lambda_n"] == 60.0


def test_single_run_schedule_without_lambda0_is_unpenalized(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"schedule": {"rate": "linear_n"}, "n": 60})
    assert run_cli(["single-run", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["lambda_n"] == 0.0


# a noisy outcome beside a first stage of at most 1e-150: Cov[Y,Z] is near
# 1e99 and Cov[D,Z] near the grid value
_TINY_DENOMINATOR = {
    "params": {"sigma_eps": 1e100, "sigma_eta": 0, "err_cov": 0},
    "lambdas": [0.0], "n": 150, "reps": 5,
}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        (
            "sweep-pi",
            {"grid": [1e300, 1.7e308], "lambdas": [0.0], "n": 150, "reps": 50, "seed": 1},
            "config field 'grid[1]' must give finite covariances at n = 150",
        ),
        (
            "single-run",
            {"params": {"beta0": 1e308, "pi0": 1e308, "pi1": 1e200}, "n": 50},
            "config field 'params' must give finite data at n = 50",
        ),
        (
            "sweep-pi",
            {"grid": [1e307], "lambdas": [0.0, 1.7e308], "n": 150, "reps": 20, "seed": 1},
            "config field 'lambdas[1]' must give a finite shifted denominator with grid[0]",
        ),
        (
            "single-run",
            {"params": {"beta0": 1e308, "beta1": 0}, "n": 50},
            "config field 'params' must give a finite beta1_hat, got nan",
        ),
        (
            "sweep-pi",
            {**_TINY_DENOMINATOR, "grid": [1e-300]},
            "config field 'grid[0]' at n = 150 must give a finite beta1_hat, got ",
        ),
        (
            "sweep-pi",
            {**_TINY_DENOMINATOR, "grid": [1e-150]},
            "config field 'grid[0]' must give a finite mse at lambda = 0.0 and n = 150, got inf",
        ),
    ],
    ids=["sweep", "dataset", "shifted-denominator", "covariance", "quotient", "aggregate"],
)
def test_an_overflow_in_the_run_names_its_config_key(tmp_path, capsys, command, payload, message):
    # before, the sweep wrote the overflowing reps as degenerate, an
    # overflowing denominator's estimates as 0.0, an overflowing quotient as
    # an mse of inf beside nan statistics, or finite estimates with an mse of
    # inf, and exited 0; single-run exited 1 blaming y, or printing a
    # non-finite value as JSON.  A numpy warning would fail the test.
    out = tmp_path / "out"
    argv = [command, "--config", _write_config(tmp_path, payload)]
    if command != "single-run":
        argv += ["--out", str(out)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}")
    assert captured.out == ""
    assert list(out.glob("*")) == []


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def test_single_run_prints_an_infinite_std_error_as_null(tmp_path, capsys):
    # no first stage and no noise: pi1_hat is exactly 0, so std_error is inf
    cfg = _write_config(
        tmp_path,
        {
            "params": {"pi0": 0.0, "pi1": 0.0, "sigma_eta": 0.0, "sigma_eps": 0.0, "err_cov": 0.0},
            "schedule": {"rate": "constant", "lambda0": 1.0},
            "n": 50,
        },
    )
    assert run_cli(["single-run", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_not_json)
    assert payload["pi1_hat"] == 0.0
    assert payload["std_error"] is None


@pytest.mark.parametrize(
    "payload, message",
    [
        # lambda_n(150) = 1.5e309 would print "lambda_n": Infinity, which is not JSON
        ({"schedule": {"rate": "linear_n", "lambda0": 1e307}}, "lambda_n(150) must be finite"),
    ],
    ids=["lambda0"],
)
def test_single_run_overflowing_penalty_rejected(tmp_path, capsys, payload, message):
    cfg = _write_config(tmp_path, payload)
    assert run_cli(["single-run", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'schedule.lambda0' is invalid at n = " in captured.err
    assert message in captured.err


@pytest.mark.parametrize("n", [10**400, 2**62], ids=["beyond-float", "beyond-intp"])
@pytest.mark.parametrize(
    "command, rate",
    [("sweep-pi", None), ("single-run", "constant"), ("single-run", "linear_n")],
    ids=["sweep-pi", "single-run", "single-run-linear_n"],
)
def test_an_n_that_cannot_be_drawn_exits_2(tmp_path, capsys, command, rate, n):
    # n is checked before the penalty that depends on it, so a growing rate
    # names n as a constant rate does
    payload = {"n": n, "output_dir": str(tmp_path / "out")}
    if command == "single-run":
        payload = {"n": n, "schedule": {"rate": rate, "lambda0": 1.0}}
    assert run_cli([command, "--config", _write_config(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"config field 'n' must be (finite|at most \d+)", captured.err)


@pytest.mark.parametrize("reps", [2**32 + 1, 10**20])
@pytest.mark.parametrize("command", ["sweep-pi", "verify-asymptotics"])
def test_reps_beyond_the_rep_index_range_exit_2(tmp_path, capsys, command, reps):
    # sweep-pi exited 1 with numpy's unnamed "Maximum allowed dimension exceeded"
    payload = {"reps": reps}
    if command == "sweep-pi":
        payload["output_dir"] = str(tmp_path / "out")
    assert run_cli([command, "--config", _write_config(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config field 'reps' must be at most 4294967296" in captured.err
    assert not (tmp_path / "out").exists()


def test_single_run_bad_schedule_rate(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"schedule": {"rate": "cubic"}})
    assert run_cli(["single-run", "--config", cfg]) == 2
    assert "schedule.rate" in capsys.readouterr().err


def test_single_run_tiny_n_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"n": 2})
    assert run_cli(["single-run", "--config", cfg]) == 2
    assert "'n'" in capsys.readouterr().err


def test_verify_strong_variance_passes(capsys):
    code = run_cli(
        [
            "verify-asymptotics",
            "--regime", "strong-variance",
            "--reps", "600",
            "--seed", "20260810",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_weak_instrument_needs_enough_reps(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "verify_regimes", _record_regimes(ran))
    for argv in (
        ["verify-asymptotics", "--regime", "weak-instrument", "--reps", "100"],
        ["verify-asymptotics", "--reps", "100"],
        ["verify-asymptotics", "--config", _write_config(tmp_path, {"reps": 499})],
    ):
        assert run_cli(argv) == 2
        assert "'reps'" in capsys.readouterr().err
    assert ran == []
    accepted = [("strong-variance", "100"), ("sqrtn-bias", "100"), ("weak-instrument", "500")]
    for regime, reps in accepted:
        assert run_cli(["verify-asymptotics", "--regime", regime, "--reps", reps]) == 0
    assert ran == [regime for regime, _ in accepted]


@pytest.mark.parametrize("regime", VERIFY_REGIMES[:2])
def test_verify_needs_two_reps(monkeypatch, capsys, regime):
    # a one-rep sample has no sample variance: the bias check printed nan
    ran = []
    monkeypatch.setattr(cli, "verify_regimes", _record_regimes(ran))
    assert run_cli(["verify-asymptotics", "--regime", regime, "--reps", "1"]) == 2
    captured = capsys.readouterr()
    assert "config field 'reps' must be at least 2" in captured.err
    assert captured.out == "" and ran == []
    assert run_cli(["verify-asymptotics", "--regime", regime, "--reps", "2"]) == 0
    assert ran == [regime]


def test_verify_report_matches_reference(monkeypatch, capsys):
    # one worker, so the draw runs in this process, where it is recorded
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 1)
    draws = []
    shock_moments = montecarlo._shock_moments
    monkeypatch.setattr(
        montecarlo, "_shock_moments", lambda *a: draws.append(a) or shock_moments(*a)
    )
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
    expected = (reference / "verify-asymptotics.txt").read_text()
    assert run_cli(["verify-asymptotics", "--reps", "500"]) == 0
    assert capsys.readouterr().out == expected
    # every regime reduces the one draw
    assert draws == [(20260810, (), 0, 500, 10_000)]


def test_verify_unknown_regime_exits_2(capsys):
    assert run_cli(["verify-asymptotics", "--regime", "bogus"]) == 2
    capsys.readouterr()


def test_verify_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "verify_regimes", lambda regimes, *a, **k: [(False, ["  forced FAIL"])] * len(regimes)
    )
    assert run_cli(["verify-asymptotics", "--regime", "strong-variance"]) == 1
    out = capsys.readouterr()
    assert "verification failed" in out.out

"""Tests of the benchmark's tracer and output checks, at a small size.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from ridgeiv import cli, estimators, montecarlo  # noqa: E402

SWEEP = {"grid": {"start": 0.0, "stop": 1.0, "points": 3}, "lambdas": [0.0, 4.0], "reps": 20}
VERIFY = {"regimes": ["strong-variance", "sqrtn-bias"], "reps": 10}
EXACT = ("bytes_drawn", "distinct_frac", "degenerate")


def _run(tmp_path: Path, name: str, config: dict, traced: bool) -> tuple[dict, int]:
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / name
    command = "sweep-pi" if "grid" in config else "verify-asymptotics"
    argv = [command, "--config", str(cfg)]
    if command == "sweep-pi":
        argv += ["--out", str(out), "--raw", "--plots"]
    tracer = spans.Tracer()
    if traced:
        tracer.install()
    try:
        assert cli.run_cli(argv) in (0, 1)
    finally:
        tracer.uninstall()
    return tracer.metrics(1.0), checks.artifact_bytes(out)


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k.endswith(EXACT)}


@pytest.mark.parametrize("config", [SWEEP, VERIFY], ids=["sweep", "verify"])
def test_counts_repeat_exactly(tmp_path, config):
    first, bytes_first = _run(tmp_path / "a", "run", config, traced=True)
    second, bytes_second = _run(tmp_path / "b", "run", config, traced=True)
    assert _counts(first) == _counts(second)
    assert bytes_first == bytes_second


def test_sweep_counts_match_the_config(tmp_path):
    metrics, artifact_bytes = _run(tmp_path, "run", SWEEP, traced=True)
    reps = 3 * 20
    assert metrics["dgp.generate_dataset.calls"] == reps
    assert metrics["dgp.generate_dataset.bytes_drawn"] == reps * 3 * 150 * 8
    assert metrics["estimators.demeaned_cov.calls"] == 2 * reps
    assert metrics["estimators.shifted_ratio.calls"] == 2 * reps
    assert metrics["montecarlo.derive_seed.distinct_frac"] == 1.0
    assert metrics["cli.emit_plot.calls"] == 2
    assert artifact_bytes > 0


def test_verify_counts_shared_datasets(tmp_path):
    # Both regimes collect pi1 = 1 samples from the same seeds.
    metrics, _ = _run(tmp_path, "run", VERIFY, traced=True)
    assert metrics["dgp.generate_dataset.calls"] == 20
    assert metrics["dgp.generate_dataset.distinct_frac"] == 0.5
    assert metrics["montecarlo.derive_seed.distinct_frac"] == 0.5
    assert metrics["cli.verify_regime.calls"] == 2


def test_tracing_changes_no_artifact(tmp_path):
    originals = (montecarlo.generate_dataset, estimators.demeaned_cov, cli.run_sweep)
    _run(tmp_path / "plain", "run", SWEEP, traced=False)
    _run(tmp_path / "traced", "run", SWEEP, traced=True)
    assert checks.artifact_digests(tmp_path / "plain" / "run") == checks.artifact_digests(
        tmp_path / "traced" / "run"
    )
    assert (montecarlo.generate_dataset, estimators.demeaned_cov, cli.run_sweep) == originals


def test_worker_threads_nest_under_run_sweep(tmp_path, monkeypatch):
    serial, _ = _run(tmp_path / "one", "run", SWEEP, traced=True)
    monkeypatch.setenv("RIDGEIV_THREADS", "2")
    pooled, _ = _run(tmp_path / "two", "run", SWEEP, traced=True)
    assert _counts(pooled) == _counts(serial)
    # Worker-thread spans are run_sweep's children, so they leave its self time.
    assert pooled["montecarlo.run_sweep.self_s"] < pooled["montecarlo.run_sweep.busy_s"]


def test_degenerate_ratio_is_counted():
    tracer = spans.Tracer()
    with tracer:
        with pytest.raises(estimators.DegenerateDenominatorError):
            estimators.shifted_ratio(1.0, 0.0, 0.0)
    assert tracer.metrics(1.0)["estimators.shifted_ratio.degenerate"] == 1


def test_report_numbers_may_move_one_unit_in_the_last_digit():
    reference = "  variance: predicted 1, empirical 0.929737, rel dev 7.03% -> PASS\n"
    assert checks.compare_report(reference, reference) == []
    assert checks.compare_report(reference.replace("0.929737", "0.929738"), reference) == []
    assert checks.compare_report(reference.replace("7.03", "7.02"), reference) == []
    assert checks.compare_report(reference.replace("0.929737", "0.929739"), reference)
    assert checks.compare_report(reference.replace("PASS", "FAIL"), reference)

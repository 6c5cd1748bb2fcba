"""Output checks for benchmark runs: sweep tables, verify reports, artifacts."""

from __future__ import annotations

import csv
import decimal
import hashlib
import math
import re
from pathlib import Path

# Relative tolerance against the recorded reference tables.  The largest
# measured last-bit change of a single estimate from a kernel rewrite is
# 1.2e-12 (near pi1 = 0, where the denominator is tiny); 1e-9 leaves three
# orders of margin for that, while a change of draw order or stream moves a
# cell by about 1/sqrt(reps) ~ 1e-1 at 100 reps and fails by eight orders.  Bias and the
# quantiles can sit near zero while the estimates they summarize do not, so
# their tolerance is scaled by |reference| + the cell's RMS error.
RTOL = 1e-9
EXACT_COLUMNS = ("grid_value", "lambda", "n_degenerate")
VERIFY_CHECKS = 6  # strong-variance 1, sqrtn-bias 1, weak-instrument 4


def read_table(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _paired_rows(path: Path, reference: Path) -> tuple[list[str], list[tuple[dict, dict]], list[str]]:
    header, rows = read_table(path)
    ref_header, ref_rows = read_table(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return header, [], [f"{path.name}: {len(header)} columns x {len(rows)} rows, expected "
                             f"{len(ref_header)} x {len(ref_rows)}"]
    return header, list(zip(rows, ref_rows)), []


def compare_to_reference(path: Path, reference: Path) -> list[str]:
    """Differences of a sweep table from the recorded one (empty when it matches)."""
    header, pairs, problems = _paired_rows(path, reference)
    for i, (row, ref) in enumerate(pairs):
        scale = math.sqrt(abs(float(ref["mse"])))
        for name in header:
            if name in EXACT_COLUMNS:
                ok = row[name] == ref[name]
            else:
                got, want = float(row[name]), float(ref[name])
                ok = (math.isnan(got) and math.isnan(want)) or abs(got - want) <= RTOL * (
                    abs(want) + scale
                )
            if not ok:
                problems.append(f"row {i} {name}: {row[name]} != reference {ref[name]}")
    return problems


def check_sweep_table(path: Path, reference: Path) -> list[str]:
    """Checks that hold for any seed: the reference's grid, and consistent cells."""
    header, pairs, problems = _paired_rows(path, reference)
    for i, (row, ref) in enumerate(pairs):
        if (row["grid_value"], row["lambda"]) != (ref["grid_value"], ref["lambda"]):
            problems.append(f"row {i}: grid point or lambda differs from the reference")
        values = {name: float(row[name]) for name in header if name != "n_degenerate"}
        if not all(math.isfinite(v) for v in values.values()):
            problems.append(f"row {i}: non-finite value")
            continue
        mse, bias, variance = values["mse"], values["bias"], values["variance"]
        if variance < 0 or abs(mse - (bias * bias + variance)) > RTOL * mse:
            problems.append(f"row {i}: mse != bias^2 + variance")
        quantiles = [values[q] for q in ("q05", "q25", "q50", "q75", "q95")]
        if quantiles != sorted(quantiles):
            problems.append(f"row {i}: quantiles out of order")
    return problems


def check_verify_report(stdout: str, rc: int) -> list[str]:
    """verify-asymptotics printed every check, and its exit code matches them.

    A FAIL line is the program's verdict on a Monte Carlo sample, not an
    error: at 2000 reps some seeds miss a 10% tolerance.  Callers that need
    every check to pass test ``rc == 0`` on top of this.
    """
    lines = stdout.splitlines()
    passed = sum("-> PASS" in line for line in lines)
    failed = sum("-> FAIL" in line for line in lines)
    problems = []
    if passed + failed != VERIFY_CHECKS:
        problems.append(f"verify report: {passed + failed} check lines, expected {VERIFY_CHECKS}")
    if (rc == 0) != (failed == 0):
        problems.append(f"verify report: exit {rc} with {failed} FAIL lines")
    return problems


_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def compare_report(text: str, reference: str) -> list[str]:
    """Differences of a verify report from the recorded one (empty when it matches).

    The words must be equal.  Each number may differ from the reference by
    one unit in the last digit the reference printed, so a last-bit change
    of an estimate that happens to sit on a rounding boundary still passes.
    """
    got, want = _NUMBER.split(text), _NUMBER.split(reference)
    got_numbers, want_numbers = _NUMBER.findall(text), _NUMBER.findall(reference)
    if got != want or len(got_numbers) != len(want_numbers):
        return ["verify report: its text differs from the reference report"]
    problems = []
    for g, w in zip(got_numbers, want_numbers):
        unit = decimal.Decimal(1).scaleb(decimal.Decimal(w).as_tuple().exponent)
        if abs(decimal.Decimal(g) - decimal.Decimal(w)) > unit:
            problems.append(f"verify report: {g} != reference {w}")
    return problems


def artifact_digests(out_dir: Path | None) -> dict[str, str]:
    """sha256 of every file a run wrote, by name."""
    if out_dir is None or not out_dir.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def artifact_bytes(out_dir: Path | None) -> int:
    if out_dir is None or not out_dir.is_dir():
        return 0
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())

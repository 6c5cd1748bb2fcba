"""The checks of ``verify-asymptotics``: Monte Carlo against the limit theory.

Each regime compares the scaled estimator's sampling distribution with a
closed-form limit from :mod:`.asymptotics`: the variance under a strong
first stage, the sqrt(n)-scale bias of a SQRT_N penalty, and the mean,
variance and tails under the drifting first stage of Staiger and Stock
(1997).  Every regime of a run reduces the same draw of
:mod:`.montecarlo`'s kernel, rep i seeded ``derive_seed(seed, i)``,
because the unit shocks do not depend on a design's parameters.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from . import asymptotics
from .dgp import _int_at_least, _sample_size, aer_calibration
from .estimators import PenaltyRate, PenaltySchedule
from .montecarlo import _draw_moments, _rep_count, _scaled_samples

__all__ = ["VERIFY_REGIMES", "VERIFY_TOLERANCE", "verify_min_reps", "verify_regimes"]

VERIFY_TOLERANCE = 0.10
VERIFY_REGIMES = ("strong-variance", "sqrtn-bias", "weak-instrument")

# The limit designs: a strong first stage, and the drifting first stage
# pi1 = stock_c / sqrt(n) of Staiger and Stock (1997).
_STRONG = dataclasses.replace(aer_calibration(beta1=1.0), pi1=1.0)
_DRIFTING = dataclasses.replace(aer_calibration(beta1=1.0, stock_c=1.0), pi1=0.0)


def _relative_check(label: str, predicted: float, empirical: float) -> tuple[bool, str]:
    deviation = abs(empirical - predicted) / abs(predicted)
    ok = deviation <= VERIFY_TOLERANCE
    return ok, (
        f"  {label}: predicted {predicted:.6g}, empirical {empirical:.6g}, "
        f"rel dev {100 * deviation:.2f}% -> {'PASS' if ok else 'FAIL'} "
        f"(tolerance {100 * VERIFY_TOLERANCE:.0f}%)"
    )


def _std_err_check(label: str, predicted: float, samples: np.ndarray) -> tuple[bool, str]:
    empirical = float(np.mean(samples))
    std_err = float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
    ok = abs(empirical - predicted) <= 3.0 * std_err
    return ok, (
        f"  {label}: predicted {predicted:.6g}, empirical {empirical:.6g}, |dev| = "
        f"{abs(empirical - predicted) / std_err:.2f} MC std errors -> "
        f"{'PASS' if ok else 'FAIL'} (tolerance 3)"
    )


def _tail_check(label: str, samples: np.ndarray, expected: bool, spread: bool) -> tuple[bool, str]:
    """The heavy-tail flag against ``expected``; ``spread`` adds the median and IQR."""
    diag = asymptotics.cauchy_diagnostics(samples)
    ok = diag.tail_index_flag == expected
    shown = f" (median {diag.median:.3g}, iqr {diag.iqr:.3g})" if spread else ""
    return ok, (
        f"  {label} heavy-tail flag: expected {expected}, got "
        f"{diag.tail_index_flag}{shown} -> {'PASS' if ok else 'FAIL'}"
    )


def _regime_checks(regime: str, moments: np.ndarray, n: int) -> list[tuple[bool, str]]:
    """(passed, report line) per check of one regime, from the shared moments."""
    if regime == "strong-variance":
        (samples,) = _scaled_samples(_STRONG, n, moments, (0.0,))
        label, predicted = "variance of sqrt(n)(beta_hat - beta1)", asymptotics.v_ridge(_STRONG)
        return [_relative_check(label, predicted, float(np.var(samples)))]
    if regime == "sqrtn-bias":
        schedule = PenaltySchedule(PenaltyRate.SQRT_N, 0.5)
        (samples,) = _scaled_samples(_STRONG, n, moments, (schedule.lambda_n(n) / n,))
        predicted = asymptotics.sqrtn_bias(_STRONG, schedule.lambda0)
        return [_std_err_check("mean of sqrt(n)(beta_hat - beta1)", predicted, samples)]
    # weak-instrument
    schedule = PenaltySchedule(PenaltyRate.LINEAR_N, 1.0)
    raw, ridge = _scaled_samples(_DRIFTING, n, moments, (0.0, schedule.lambda_n(n) / n))
    mean, variance = asymptotics.staiger_stock_moments(_DRIFTING, schedule.lambda0)
    return [
        _tail_check("unpenalized ratio", raw, True, spread=True),
        _relative_check("mean of sqrt(n) beta_hat", mean, float(np.mean(ridge))),
        _relative_check("variance of sqrt(n) beta_hat", variance, float(np.var(ridge))),
        _tail_check("penalized", ridge, False, spread=False),
    ]


def verify_min_reps(regimes: Sequence[str]) -> int:
    """Fewest reps :func:`verify_regimes` accepts for these regimes.

    ``regimes`` must be a non-empty sequence of distinct names from
    ``VERIFY_REGIMES``; a bare string, an unknown name or a repeat raises a
    ValueError.  Every check needs a sample variance; the heavy-tail check
    of ``weak-instrument`` needs ``asymptotics.MIN_TAIL_SAMPLES`` samples.
    """
    if isinstance(regimes, str):
        raise ValueError(f"regimes must be a sequence of regime names, got {regimes!r}")
    if not regimes:
        raise ValueError("regimes must be non-empty")
    for regime in regimes:
        if regime not in VERIFY_REGIMES:
            raise ValueError(
                f"regimes must contain only {VERIFY_REGIMES}, got unknown regime {regime!r}"
            )
    if len(set(regimes)) < len(regimes):
        raise ValueError(f"regimes must not repeat a regime, got {list(regimes)}")
    return asymptotics.MIN_TAIL_SAMPLES if "weak-instrument" in regimes else 2


def verify_regimes(
    regimes: Sequence[str], reps: int, seed: int, n: int = 10_000
) -> list[tuple[bool, list[str]]]:
    """Run each regime's predicted-vs-empirical checks, in the order given.

    Returns (passed, report lines) per regime.  The unit shocks do not
    depend on a design's parameters, so one draw of ``reps`` reps, rep i
    seeded ``derive_seed(seed, i)``, serves every regime, and a regime's
    lines do not depend on which regimes run beside it.  The regimes
    (:func:`verify_min_reps`) and every floor are checked before the draw.
    """
    reps = _rep_count(reps, verify_min_reps(regimes))
    n, seed = _sample_size(n), _int_at_least("seed", seed, 0)
    moments = _draw_moments(seed, [()], reps, n)[:, 0]
    results = []
    for regime in regimes:
        checks = _regime_checks(regime, moments, n)
        header = f"[{regime}] n = {n}, reps = {reps}, seed = {seed}"
        results.append(
            (all(good for good, _ in checks), [header] + [line for _, line in checks])
        )
    return results

"""Record the reference outputs at ridgeiv's default seed, on 1 worker.

Usage: python3 perfbench/record_reference.py

Writes each sweep's ``mse_sweep.csv`` and the verify-asymptotics report to
perfbench/reference/.  Run this only when a change to ridgeiv is meant to
change these values, or when a workload's size changes; say so, with the
largest relative difference, in CHANGES.md.
"""

from __future__ import annotations

import shutil
import sys

from run import DEFAULT_SEED, HERE, WORK, WORKLOADS, Bench


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        for name, workload in WORKLOADS.items():
            batch = Bench(name, DEFAULT_SEED).batch(threads=1)
            if not batch.ok or batch.calls[0].rc != 0:
                print(f"{name}: run failed", file=sys.stderr)
                return 1
            target = HERE / "reference" / workload.reference
            target.parent.mkdir(exist_ok=True)
            if workload.writes:
                shutil.copyfile(batch.calls[0].out_dir / "mse_sweep.csv", target)
            else:
                target.write_text(batch.calls[0].stdout)
            print(f"wrote {target}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

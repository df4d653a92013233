"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at the tiny sizes, untraced (run.ROUNDS rounds) and
traced (one round), and requires every check to pass, every layer the
workload reaches to report a non-zero value, and the unattributed share of
traced time to stay at or below 0.10.  Then it corrupts one recorded digest and requires the run to
count that job as failed.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import os
import sys

import run
import workloads

MAX_UNATTRIBUTED = 0.10


def main() -> int:
    os.chdir(run.ROOT)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    expected = run.load_expected()
    errors = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            report = run.run_workload(name, 1, 0, trace, "tiny", expected)
            print("\n".join(run.summary_lines(report)))
            if report["failed"]:
                errors.append(f"{name} trace {int(trace)}: {report['failures']}")
            if not trace:
                continue
            layers = report["layers"]
            for metric in workloads.REACHES[name]:
                if not layers.get(metric):
                    errors.append(f"{name}: {metric} is missing or zero")
            if layers["trace.unattributed_share"] > MAX_UNATTRIBUTED:
                errors.append(f"{name}: unattributed share "
                              f"{layers['trace.unattributed_share']:.3f}")

    victim = workloads.round_jobs("census-fit", 1, "tiny")[-1]
    corrupted = dict(expected)
    corrupted[victim.key] = dict(expected[victim.key], sha256="0" * 64)
    report = run.run_workload("census-fit", 1, 0, False, "tiny", corrupted)
    wrong = [f for f in report["failures"] if f["job"] == victim.key]
    if not (report["e2e"]["fail_ratio"] > 0 and wrong):
        errors.append(f"a corrupted digest for `{victim.key}` was not counted as a failure")

    for error in errors:
        print(f"SELFTEST FAILED: {error}", file=sys.stderr)
    if not errors:
        print("selftest passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

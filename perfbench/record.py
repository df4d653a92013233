"""Record the exit code and output digest of every job any seed can produce.

    python3 perfbench/record.py

Runs each job of every workload pool, at every size, once through the CLI
and writes perfbench/expected.json.  The benchmark compares each job it runs
against these values, so re-record only when an output is meant to change,
and say why in the change that does it.
"""

from __future__ import annotations

import json
import os
import sys

import jobs
import workloads
from run import EXPECTED, OUT_DIR, ROOT


def main() -> int:
    os.chdir(ROOT)
    work = os.path.join(OUT_DIR, "work")
    os.makedirs(work, exist_ok=True)
    env = jobs.job_env(ROOT)
    expected = {}
    for size in workloads.SIZES:
        for job in workloads.pool(size):
            result = jobs.spawn(jobs.cli_argv(job), env, work)
            if b"Traceback" in result.stderr:
                print(f"{job.key}: traceback\n{result.stderr.decode()}", file=sys.stderr)
                return 1
            expected[job.key] = jobs.record(job, result)
            print(f"{expected[job.key]['exit']} {result.wall_s:6.2f}s {job.key}")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

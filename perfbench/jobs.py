"""Run one job in a fresh process and check what it produced.

Each job is spawned directly and reaped with wait4, so its wall time, its
own user+sys CPU seconds and its peak RSS are measured exactly, without
counting any other process.  Output goes to files in the benchmark's work
directory and is read back for the checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass

JOB_TIMEOUT_S = 150


@dataclass
class Result:
    exit: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: bytes
    stderr: bytes


def spawn(argv: "list[str]", env: dict, work_dir: str) -> Result:
    """Run argv to completion with stdout and stderr captured to files."""
    out_path = os.path.join(work_dir, "stdout")
    err_path = os.path.join(work_dir, "stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    watchdog = threading.Timer(JOB_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Result(os.waitstatus_to_exitcode(status), wall,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  stdout, stderr)


def cli_argv(job) -> "list[str]":
    return [sys.executable, "-m", "catstats.cli", *job.argv]


def replay_argv(job, trace_path: str, job_id: str, bench_dir: str) -> "list[str]":
    return [sys.executable, os.path.join(bench_dir, "replay.py"), trace_path, job_id,
            *job.argv]


def judged_bytes(job, result: Result) -> bytes:
    """The job's output file if it writes one, else its stdout."""
    if job.out is None:
        return result.stdout
    with open(job.out, "rb") as fh:
        return fh.read()


def job_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CATSTATS_OUT_DIR", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def problems(job, result: Result, expected: dict) -> "list[str]":
    """Every way the job's result differs from what it must be."""
    want = expected.get(job.key)
    if want is None:
        return [f"no recorded expectation for `{job.key}`"]
    try:
        output = judged_bytes(job, result)
    except OSError as exc:
        return [f"cannot read {job.out}: {exc}"]
    found = []
    if result.exit != want["exit"]:
        found.append(f"exit {result.exit}, recorded {want['exit']}")
    if b"Traceback" in result.stderr:
        found.append("traceback on stderr")
    if hashlib.sha256(output).hexdigest() != want["sha256"]:
        found.append("output digest differs from the recorded one")
    if job.check is not None:
        try:
            error = job.check(json.loads(output))
        except (ValueError, KeyError, TypeError) as exc:
            error = f"output does not parse for its check: {exc!r}"
        if error:
            found.append(error)
    return found


def record(job, result: Result) -> dict:
    """The expectation a correct run of the job must reproduce."""
    return {"exit": result.exit,
            "sha256": hashlib.sha256(judged_bytes(job, result)).hexdigest()}

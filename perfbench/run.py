"""Outside-in benchmark of the catstats CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Closed loop, one client: the benchmark runs the workload's round of CLI jobs
one after another, each a fresh `python -m catstats.cli` process, and starts
the next job only when the previous one has ended.  It repeats the round for
about S seconds (a round is not started when the last one says it would end
past S; an untraced run makes at least ROUNDS rounds, a traced run one).

--trace 0 measures what a user pays: the median round's wall and CPU
seconds and the median set-up of a fresh process, all three in seconds at
the reference speed (see REFERENCE_S below), the peak RSS of any job, and
the share of jobs that pass their checks.
--trace 1 runs each round twice, untraced and then as a traced replay (see
replay.py), and reports the per-layer self times and counters.

Every job's exit code, output digest and invariants are checked.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
the metrics named in BENCHMARK.json; a result file with the environment, the
per-job timing table and (traced) the spans goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import platform
import statistics
import subprocess
import sys
import time

import jobs
import spans as spanlib
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = ".bench_out"
ROUNDS = 5
# An untraced run starts a set-up probe before every round, and follows
# every set-up probe and every job with a reference probe: a fresh
# interpreter running REFERENCE_CODE, pure Python that uses nothing from
# catstats.  The shared machine runs the whole CPU up to
# 1.7x slower for stretches that can outlast a run, so every job's times are
# scaled by REFERENCE_S / (mean of the reference probes just before and just
# after it), and every set-up probe's by REFERENCE_S / (the reference probe
# after it): seconds at the speed at which a reference probe takes
# REFERENCE_S, about that of a 2-vCPU VM under Python 3.11.7 with no
# interference.
REFERENCE_S = 0.100
# exact rational arithmetic as in the evaluators, and a table keyed by
# permutations as in the brute-force and split engines: with the table, the
# probe's slowdowns follow the jobs' more closely than with arithmetic alone
REFERENCE_CODE = ("from fractions import Fraction\n"
                  "from itertools import permutations\n"
                  "row = [Fraction(1)]\n"
                  "for n in range(1, 80):\n"
                  "    row = [Fraction(1)] + [a + b / n for a, b in zip(row, row[1:])]"
                  " + [Fraction(1, n)]\n"
                  "descents = {p: sum(a > b for a, b in zip(p, p[1:]))\n"
                  "            for p in permutations(range(8))}\n"
                  "assert len(descents) == 40320\n")
SETUP_CODE = ("import catstats.cli\n"
              "from catstats.funcrec import builtin_families, builtin_spec\n"
              "for key in builtin_families():\n"
              "    builtin_spec(*key)\n")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(samples: "list[float]"):
    """(p, value) for the highest percentile with at least ten samples above
    it (nearest rank), or None when there are not enough samples."""
    n = len(samples)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(samples)[max(math.ceil(p * n / 100), 1) - 1]


class Run:
    """One benchmark run of one workload: rounds, checks and the tallies."""

    def __init__(self, workload: str, seed: int, size: str, expected: dict):
        self.workload = workload
        self.jobs = workloads.round_jobs(workload, seed, size)
        self.expected = expected
        self.env = jobs.job_env(ROOT)
        self.work = os.path.join(OUT_DIR, "work")
        os.makedirs(self.work, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.failures: "list[dict]" = []
        self.per_job: "dict[str, dict]" = {}
        self.spans: "list[dict]" = []

    def _tally(self, key: str, mode: str, found: "list[str]") -> None:
        self.attempted += 1
        self.failed += bool(found)
        self.failures += [{"job": key, "mode": mode, "problem": p} for p in found]

    def _spawn(self, job, argv):
        if job.out is not None and os.path.exists(job.out):
            os.remove(job.out)
        return jobs.spawn(argv, self.env, self.work)

    def setup_probe(self) -> float:
        """Wall seconds of a fresh process that imports the CLI and builds
        every catalog spec."""
        result = jobs.spawn([sys.executable, "-c", SETUP_CODE], self.env, self.work)
        found = []
        if result.exit != 0 or result.stderr:
            found.append(f"exit {result.exit}: {result.stderr[-300:]!r}")
        self._tally("setup probe", "setup", found)
        return result.wall_s

    def reference_probe(self) -> float:
        """Wall seconds of a fresh process that runs REFERENCE_CODE."""
        result = jobs.spawn([sys.executable, "-c", REFERENCE_CODE], self.env, self.work)
        found = []
        if result.exit != 0 or result.stderr:
            found.append(f"exit {result.exit}: {result.stderr[-300:]!r}")
        self._tally("reference probe", "reference", found)
        return result.wall_s

    def cli_round(self, refs: "list[float] | None") -> dict:
        """Run the round untraced; returns its wall and CPU seconds, as
        measured and at reference speed.  With `refs` (the reference probes
        so far, the last one just made), every job is followed by a reference
        probe, and its times are scaled by REFERENCE_S over the mean of the
        probes just before and just after it.  Without, nothing is scaled."""
        out = {"wall_s": 0.0, "cpu_s": 0.0, "ref_wall_s": 0.0, "ref_cpu_s": 0.0}
        for job in self.jobs:
            result = self._spawn(job, jobs.cli_argv(job))
            speed = 1.0
            if refs is not None:
                refs.append(self.reference_probe())
                speed = REFERENCE_S / statistics.mean(refs[-2:])
            self._tally(job.key, "cli", jobs.problems(job, result, self.expected))
            row = self.per_job.setdefault(job.key, {"exit": result.exit, "wall_s": [],
                                                    "ref_wall_s": [], "cpu_s": [],
                                                    "rss_mib": [], "traced_wall_s": []})
            row["wall_s"].append(result.wall_s)
            row["ref_wall_s"].append(result.wall_s * speed)
            row["cpu_s"].append(result.cpu_s)
            row["rss_mib"].append(result.rss_mib)
            out["wall_s"] += result.wall_s
            out["cpu_s"] += result.cpu_s
            out["ref_wall_s"] += result.wall_s * speed
            out["ref_cpu_s"] += result.cpu_s * speed
        return out

    def traced_round(self, index: int) -> dict:
        """Replay the round traced; returns its wall seconds, in-process job
        seconds, seconds inside spans, layer self times and counters."""
        trace_path = os.path.join(self.work, "trace.json")
        out = {"wall_s": 0.0, "job_s": 0.0, "covered_s": 0.0, "layers": {}, "counters": {}}
        for j, job in enumerate(self.jobs):
            if os.path.exists(trace_path):
                os.remove(trace_path)
            result = self._spawn(job, jobs.replay_argv(job, trace_path, f"round{index}.job{j}",
                                                       BENCH_DIR))
            found = jobs.problems(job, result, self.expected)
            self.per_job[job.key]["traced_wall_s"].append(result.wall_s)
            out["wall_s"] += result.wall_s
            try:
                with open(trace_path, encoding="utf-8") as fh:
                    trace = json.load(fh)
            except (OSError, ValueError) as exc:
                self._tally(job.key, "traced", found + [f"no trace written: {exc}"])
                continue
            self._tally(job.key, "traced", found)
            self.spans += trace["spans"]
            out["job_s"] += trace["job_s"]
            out["covered_s"] += spanlib.covered(trace["spans"])
            layers, counters = out["layers"], out["counters"]
            for name, t in spanlib.self_times(trace["spans"]).items():
                layers[name] = layers.get(name, 0.0) + t
            for name, v in trace["counters"].items():
                merge = max if name == "funcrec.max_coeff_bits" else operator.add
                counters[name] = merge(counters.get(name, 0), v)
        return out

    def job_table(self) -> dict:
        table = {}
        for key, row in self.per_job.items():
            table[key] = {
                "exit": row["exit"],
                "samples": len(row["wall_s"]),
                "wall_s_min": min(row["wall_s"]),
                "wall_s_median": statistics.median(row["wall_s"]),
                "wall_s_median_at_reference": statistics.median(row["ref_wall_s"]),
                "cpu_s_min": min(row["cpu_s"]),
                "cpu_s_median": statistics.median(row["cpu_s"]),
                "peak_rss_mib": max(row["rss_mib"]),
                "wall_s_samples": row["wall_s"],
            }
            if row["traced_wall_s"]:
                table[key]["traced_wall_s_median"] = statistics.median(row["traced_wall_s"])
        return table


def layer_metrics(walls: "list[float]", traced: "list[dict]") -> dict:
    """Per-layer metrics, each the median over traced rounds of the round's
    total (self seconds for spans, exact counts for counters)."""
    med = statistics.median
    out = {}
    names = sorted({n for r in traced for n in r["layers"]})
    for name in names:
        out[f"{name}_s"] = med([r["layers"].get(name, 0.0) for r in traced])
    counts = sorted({n for r in traced for n in r["counters"]})
    for name in counts:
        out[name] = med([r["counters"].get(name, 0) for r in traced])
    found = [r["counters"].get("guessing.fits_found", 0) for r in traced]
    tried = [r["counters"].get("guessing.fits_attempted", 0) for r in traced]
    out["guessing.found_ratio"] = sum(found) / sum(tried) if sum(tried) else 0.0
    out["trace.unattributed_share"] = med(
        [(r["job_s"] - r["covered_s"]) / r["job_s"] for r in traced if r["job_s"]])
    out["trace.overhead_s"] = med([r["wall_s"] for r in traced]) - med(walls)
    return out


def environment(seed: int, workload: str) -> dict:
    """Where and on what the run happened."""
    lines = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # else git would find an enclosing repo
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "commit": commit,
        "seed": seed,
        "seed_used": workload not in workloads.UNSEEDED,
        "src_lines": lines,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", expected: "dict | None" = None) -> dict:
    """Run one workload for about `seconds`; returns the full report."""
    run = Run(workload, seed, size, load_expected() if expected is None else expected)
    if not trace:
        run.setup_probe()  # warm-up: the first import in a checkout compiles bytecode
    setup, setup_speed, refs, rounds, traced = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if not trace:
            setup.append(run.setup_probe())
            refs.append(run.reference_probe())
            setup_speed.append(REFERENCE_S / refs[-1])
        rounds.append(run.cli_round(None if trace else refs))
        if trace:
            traced.append(run.traced_round(len(traced)))
        last = time.perf_counter() - t0
        if ((trace or len(rounds) >= ROUNDS)
                and time.perf_counter() - start + last > seconds):
            break
    med = statistics.median
    walls = [r["wall_s"] for r in rounds]
    round_wall = [r["ref_wall_s"] for r in rounds]
    table = run.job_table()
    report = {
        "workload": workload,
        "size": size,
        "trace": trace,
        "environment": environment(seed, workload),
        "rounds": len(walls),
        "round_wall_s": round_wall,
        "round_cpu_s": [r["ref_cpu_s"] for r in rounds],
        "measured_round_wall_s": walls,
        "measured_round_cpu_s": [r["cpu_s"] for r in rounds],
        "setup_probe_s": setup,
        "setup_probe_speed": setup_speed,
        "reference_probe_s": refs,
        "jobs_per_round": [j.key for j in run.jobs],
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "e2e": {
            "wall_s": med(round_wall),
            "cpu_s": med([r["ref_cpu_s"] for r in rounds]),
            "peak_rss_mib": max(row["peak_rss_mib"] for row in table.values()),
            "ok_ratio": 1 - run.failed / run.attempted,
            "fail_ratio": run.failed / run.attempted,
        },
        "round_wall_s_tail": tail_percentile(round_wall),
        "jobs": table,
    }
    if setup:
        report["e2e"]["setup_s"] = med([t * f for t, f in zip(setup, setup_speed)])
    if trace:
        report["layers"] = layer_metrics(walls, traced)
        report["spans"] = run.spans
    return report


def summary_lines(report: dict) -> "list[str]":
    e = report["e2e"]
    med = statistics.median
    tail = report["round_wall_s_tail"]
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                 else "no percentile has ten rounds above it")
    at = "at reference speed" if report["reference_probe_s"] else "as measured"
    lines = [
        f"{report['workload']} (seed {report['environment']['seed']}"
        f"{'' if report['environment']['seed_used'] else ', unused'}, size {report['size']}, "
        f"trace {int(report['trace'])}): {report['rounds']} rounds of "
        f"{len(report['jobs_per_round'])} jobs",
        f"  wall_s        {e['wall_s']:.4f} s    median of {report['rounds']} rounds, {at}; "
        f"{tail_text}; measured median {med(report['measured_round_wall_s']):.4f} s",
        f"  cpu_s         {e['cpu_s']:.4f} s    median of {report['rounds']} rounds, {at}; "
        f"measured median {med(report['measured_round_cpu_s']):.4f} s",
    ]
    if report["reference_probe_s"]:
        lines += [
            f"  setup_s       {e['setup_s']:.4f} s    median of {len(report['setup_probe_s'])} "
            f"probes, {at}; measured median {med(report['setup_probe_s']):.4f} s",
            f"  reference     {med(report['reference_probe_s']):.4f} s    median of "
            f"{len(report['reference_probe_s'])} probes; {REFERENCE_S} s at reference speed",
        ]
    lines += [
        f"  peak_rss_mib  {e['peak_rss_mib']:.2f} MiB",
        f"  fail_ratio    {e['fail_ratio']:.4f}      "
        f"{report['failed']} of {report['attempted']} jobs",
    ]
    for name, value in sorted(report.get("layers", {}).items()):
        lines.append(f"  {name:30s} {value:.6g}")
    for f in report["failures"][:20]:
        lines.append(f"  FAILED [{f['mode']}] {f['job']}: {f['problem']}")
    return lines


def metric_block(report: dict, spec: "list[dict]") -> dict:
    if report["trace"]:
        # a layer the workload never reaches reads 0
        return {m["name"]: {"value": report["layers"].get(m["name"], 0.0), "unit": m["unit"]}
                for m in spec}
    return {m["name"]: {"value": report["e2e"][m["name"]], "unit": m["unit"]} for m in spec}


def write_result(report: dict) -> str:
    env = report["environment"]
    name = (f"{report['workload']}-seed{env['seed']}-{report['size']}"
            f"-trace{int(report['trace'])}.json")
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "catstats", "cli.py")):
        print(f"error: no catstats source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = write_result(report)
        print("\n".join(summary_lines(report)))
        print(f"  result: {path}")
        block = metric_block(report, spec)
        if len(names) > 1:
            block = {f"{name}/{k}": v for k, v in block.items()}
        metrics.update(block)
        correct = correct and report["failed"] == 0
        attempted += report["attempted"]
        failed += report["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

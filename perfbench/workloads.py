"""The benchmark's workloads: seeded argv lists for one round of each.

A round is the list of CLI jobs one researcher session would run; a
benchmark run repeats the same round, one job at a time, each job a fresh
`python -m catstats.cli` process.  The seed only picks from fixed pools
whose members cost about the same, so runs with different seeds measure
comparable work.  The program only ever sees argv.

Every job carries the output check that goes with it: exit code and output
digest against the recorded values (see record.py), plus, where the result
has a property known independently of the code under test, that invariant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

WORK_DIR = ".bench_out/work"

SIZES = {
    "full": {"abnormal_n": 80, "wide_n3": 20, "wide_n2": 40, "census_k": 9,
             "average_n": 80, "oracle_n": 7, "census123_k": 6, "census123_n": 9},
    "tiny": {"abnormal_n": 70, "wide_n3": 8, "wide_n2": 15, "census_k": 6,
             "average_n": 80, "oracle_n": 5, "census123_k": 4, "census123_n": 7},
}

# the av132 catalytic statistics: 123, 213 and 312 cost within 10% of each
# other, while 231 (substituting into n - k) costs 1.3x and 321 (into both
# sides) 1.7x as much, so seeded draws take only from the first three, and
# abnormal-deep runs 321 in every round: the round's cost then does not
# depend on the seed
LIGHT = ("123", "213", "312")
HEAVY = "321"
# the length-4 patterns avoiding 132: every one has an A_p to fit
FIT_POOL = ("1234", "2134", "2314", "2341", "3124", "3214", "3241",
            "3412", "3421", "4123", "4213", "4231", "4312", "4321")
FIT_KINDS = ("closed-form", "algebraic", "p-recursive")
CATALOG_SIZE = 9


@dataclass(frozen=True)
class Job:
    argv: "tuple[str, ...]"
    out: "str | None" = None  # the file the job writes; else stdout is checked
    # invariant on the parsed JSON output; returns an error message or None
    check: "Optional[Callable[[dict], Optional[str]]]" = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# -- independent invariants --------------------------------------------------


def partitions(k: int) -> int:
    """p(k) by Euler's pentagonal number recurrence."""
    p = [1]
    for n in range(1, k + 1):
        total, j = 0, 1
        while True:
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g > n:
                    break
                total += (-1) ** (j + 1) * p[n - g]
            if j * (3 * j - 1) // 2 > n:
                break
            j += 1
        p.append(total)
    return p[k]


def _census_is_partition_count(k: int):
    def check(obj):
        got = obj["census"]["class_count"]
        want = partitions(k)
        if got != want or len(obj["census"]["classes"]) != want:
            return f"av132 census at k = {k}: {got} classes, p({k}) = {want}"
        return None
    return check


def _oracle_all_match(obj):
    statuses = [c["status"] for c in obj["checks"]]
    if len(statuses) != CATALOG_SIZE or set(statuses) != {"ok"} or obj["failures"]:
        return f"oracle: {statuses} with failures {obj['failures']}"
    return None


def _verdict_abnormal(obj):
    verdict = obj["report"]["verdict"]
    return None if verdict == "abnormal" else f"verdict {verdict}, expected abnormal"


def _control_is_normal(obj):
    limits = {e["r"]: e["limit_estimate"] for e in obj["report"]["evidence"]}
    if abs(limits[3]) > 1e-6 or abs(limits[4] - 3) > 1e-6:
        return f"binomial control limits {limits[3]}, {limits[4]}; expected 0 and 3"
    if obj["report"]["verdict"] != "inconclusive":
        return f"binomial control verdict {obj['report']['verdict']}"
    return None


# -- job builders ------------------------------------------------------------


def _abnormal(family, stat, z, check):
    return Job(("abnormal", "--family", family, "--stat", stat,
                "--n-max", str(z["abnormal_n"]), "--r", "4", "--format", "json"),
               check=check)


def _wide(family, stat, n):
    return Job(("moments", "--family", family, "--stat", stat, "--max-n", str(n),
                "--mode", "truncated", "--r", "8", "--format", "json"))


def _fit(pattern, kind, z):
    path = f"{WORK_DIR}/A{pattern}.json"
    return [
        Job(("average", "--pattern", pattern, "--max-n", str(z["average_n"]),
             "--format", "json", "--out", path), out=path),
        Job(("guess", "--kind", kind, "--input", path, "--format", "json")),
    ]


def _census132(z):
    k = z["census_k"]
    return Job(("census", "--family", "av132", "--k", str(k), "--format", "json"),
               check=_census_is_partition_count(k))


# -- the workloads -----------------------------------------------------------


def abnormal_deep(rng: random.Random, z: dict) -> "list[Job]":
    """Truncated evaluator in depth: small basis, bigints growing with n."""
    picks = [rng.choice(LIGHT), HEAVY]
    return ([_abnormal("av123", "213", z, _verdict_abnormal)]
            + [_abnormal("av132", s, z, _verdict_abnormal) for s in picks]
            + [_abnormal("synthetic", "binomial", z, _control_is_normal)])


def moments_wide(rng: random.Random, z: dict) -> "list[Job]":
    """Truncated evaluator in width: cap 8, small integers, large bases."""
    return [_wide("av123", "213", z["wide_n3"]),
            _wide("av132", rng.choice(LIGHT), z["wide_n2"])]


def census_fit(rng: random.Random, z: dict) -> "list[Job]":
    """Split-system census, then average -> file -> guess pipelines."""
    patterns = rng.sample(FIT_POOL, len(FIT_KINDS))
    kinds = rng.sample(FIT_KINDS, len(FIT_KINDS))
    jobs = [_census132(z)]
    for pattern, kind in zip(patterns, kinds):
        jobs += _fit(pattern, kind, z)
    return jobs


def oracle_brute(rng: random.Random, z: dict) -> "list[Job]":
    """Brute-force oracle and av123 census; inputs are fixed, the seed unused."""
    return [
        Job(("oracle", "verify", "--max-n", str(z["oracle_n"]), "--format", "json"),
            check=_oracle_all_match),
        Job(("census", "--family", "av123", "--k", str(z["census123_k"]),
             "--max-n", str(z["census123_n"]), "--format", "json")),
    ]


WORKLOADS = {
    "abnormal-deep": abnormal_deep,
    "moments-wide": moments_wide,
    "census-fit": census_fit,
    "oracle-brute": oracle_brute,
}
UNSEEDED = {"oracle-brute"}

# the per-layer metrics each workload must report non-zero (see README.md)
_CLI = ["cli.import_s", "cli.parse_s", "cli.render_s"]
_TRUNCATED = ["funcrec.spec_build_s", "funcrec.eval_truncated_s", "funcrec.max_coeff_bits",
              "funcrec.coeffs_out", "moments.table_s", "moments.rows"]
REACHES = {
    "abnormal-deep": _CLI + _TRUNCATED + ["abnormality.analyze_s", "abnormality.control_s"],
    "moments-wide": _CLI + _TRUNCATED,
    "census-fit": _CLI + ["splits.census132_s", "splits.closure_size", "splits.average_s",
                          "perms.enumerate_s", "perms.avoiders_walked",
                          "guessing.closed_form_s", "guessing.algebraic_s",
                          "guessing.p_recursive_s", "guessing.found_ratio", "seqio.write_s",
                          "seqio.load_s", "seqio.bytes"],
    "oracle-brute": _CLI + ["funcrec.spec_build_s", "funcrec.eval_full_s",
                            "splits.census123_s", "perms.enumerate_s", "perms.brute_weight_s",
                            "perms.brute_sigma_s", "perms.avoiders_walked"],
}


def round_jobs(workload: str, seed: int, size: str = "full") -> "list[Job]":
    return WORKLOADS[workload](random.Random(seed), SIZES[size])


def pool(size: str) -> "list[Job]":
    """Every job any seed can produce, in an order that runs each file's
    writer before its reader."""
    z = SIZES[size]
    jobs = [_abnormal("av123", "213", z, None)]
    jobs += [_abnormal("av132", s, z, None) for s in (*LIGHT, HEAVY)]
    jobs += [_abnormal("synthetic", "binomial", z, None)]
    jobs += [_wide("av123", "213", z["wide_n3"])]
    jobs += [_wide("av132", s, z["wide_n2"]) for s in LIGHT]
    jobs += [_census132(z)]
    for pattern in FIT_POOL:
        for i, kind in enumerate(FIT_KINDS):
            jobs += _fit(pattern, kind, z)[i > 0:]
    jobs += oracle_brute(random.Random(0), z)
    return jobs

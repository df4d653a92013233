"""Command-line front end.

Subcommands:
  wenum     weight enumerator polynomials from the functional recurrences
  moments   exact moment tables (factorial, raw, central, standardized)
  average   summed pattern counts A_p(n) over the 132-avoiding family
  census    equality classes of the A_p sequences at pattern length k
  guess     fit a recurrence, algebraic equation, or closed form to a sequence file
  abnormal  asymptotic-abnormality report for a catalog statistic
  oracle    brute-force cross-checks of the recurrence catalog

Exit codes: 0 success, 1 internal invariant failure, 2 usage error,
3 guess found nothing within bounds.

Outputs are byte-stable for a fixed configuration.  Files are written
atomically; exact rationals appear as "num/den" strings, floats only in
clearly labeled rendering fields.  A relative --out path is resolved inside
$CATSTATS_OUT_DIR when that is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .abnormality import (
    DEFAULT_EPSILON,
    DEFAULT_N,
    DEFAULT_ORDER,
    DEFAULT_R,
    DEFAULT_TAU_KURT,
    DEFAULT_TAU_SKEW,
    analyze,
)
from .errors import UsageError
from .funcrec import builtin_spec, eval_full, eval_truncated, verify_catalog
from .guessing import (
    DEFAULT_DEGREE, DEFAULT_HOLDOUT, DEFAULT_MAX_DEG_Y, DEFAULT_MAX_DEG_Z, DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_ORDER, fit_closed_form, guess_algebraic, guess_p_recursive,
)
from .moments import moments_from_full, moments_from_truncated
from .perms import DEFAULT_ORACLE_LIMIT, format_perm, parse_perm
from .seqio import SequenceFile, atomic_write_text, load_sequence, sequence_file
from .splits import (
    DEFAULT_CENSUS_MAX_N, DEFAULT_PREFIX_LEN, AverageEngine, bona_census_123, bona_census_132,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3


# -- output ----------------------------------------------------------------


def _finish(args, config: dict, body) -> int:
    """Render a command's body under its config echo and write it out.

    In JSON the body's keys follow the echo's, except that a sequence file
    keeps its own keys first and carries the echo after them.  Otherwise the
    body is the lines under the "# catstats" header line.  The text goes to
    stdout, or atomically to --out, resolved inside $CATSTATS_OUT_DIR when
    that is set.
    """
    if args.format == "json":
        echo = {"tool": "catstats", "version": __version__, "subcommand": args.cmd,
                "config": config}
        if isinstance(body, SequenceFile):
            obj = body._replace(extra=echo).to_json_obj()
        else:
            obj = {**echo, **body}
        text = json.dumps(obj, indent=2) + "\n"
    else:
        pairs = " ".join(f"{k}={v}" for k, v in config.items())
        text = "\n".join([f"# catstats {__version__} {args.cmd} {pairs}", *body]) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return EXIT_OK
    dest = os.path.join(os.environ.get("CATSTATS_OUT_DIR", ""), args.out)
    try:
        atomic_write_text(dest, text)
    except OSError as exc:
        raise UsageError(f"cannot write {dest}: {exc.strerror or exc}") from None
    print(f"wrote {dest}", file=sys.stderr)
    return EXIT_OK


# -- wenum -----------------------------------------------------------------


def cmd_wenum(args) -> int:
    spec = builtin_spec(args.family, args.stat)
    kept = list(spec.variables)
    if args.vars is not None:
        kept = [v.strip() for v in args.vars.split(",") if v.strip()]
        if not kept:
            raise UsageError(
                f"--vars names no variable; {spec.label} has {list(spec.variables)}"
            )
        unknown = [v for v in kept if v not in spec.variables]
        if unknown:
            raise UsageError(
                f"unknown variables {unknown}; {spec.label} has {list(spec.variables)}"
            )
        repeated = sorted({v for v in kept if kept.count(v) > 1})
        if repeated:
            raise UsageError(f"--vars names {repeated} more than once")
    values = eval_full(spec, args.n).values
    if args.vars is not None:  # the polynomial keeps the spec's variable order
        values = [p.project([v for v in spec.variables if v in kept]) for p in values]
    config = {
        "family": args.family,
        "stat": args.stat,
        "n": args.n,
        "vars": ",".join(kept),
    }
    if args.format == "json":
        body = {"variables": kept, "rows": [{"n": n, "poly": str(p)} for n, p in enumerate(values)]}
    elif args.format == "csv":
        body = ["n,poly"] + [f'{n},"{p}"' for n, p in enumerate(values)]
    else:
        head = ",".join(kept)
        body = [f"P_{n}({head}) = {p}" for n, p in enumerate(values)]
    return _finish(args, config, body)


# -- moments ---------------------------------------------------------------


def cmd_moments(args) -> int:
    spec = builtin_spec(args.family, args.stat)
    least = 0 if args.mode == "full" else 1  # truncated mode evaluates to cap r
    if args.r < least:
        raise UsageError(f"moment order r must be >= {least}, got r = {args.r}")
    if args.mode == "full":
        table = moments_from_full(eval_full(spec, args.max_n), r_max=args.r)
    else:
        table = moments_from_truncated(eval_truncated(spec, args.max_n, cap=args.r))
    config = {
        "family": args.family,
        "stat": args.stat,
        "max_n": args.max_n,
        "r": args.r,
        "mode": args.mode,
    }
    if args.format == "json":
        return _finish(args, config, {"table": table.to_json_obj()})
    if args.format == "csv":
        return _finish(args, config, [",".join(rec) for rec in table.csv_rows()])
    body = []
    for row in table.rows:
        cols = [f"n={row.n}", f"mass={row.f[0]}"]
        if args.r >= 1:
            cols.append(f"mean={row.m[1]}")
        if args.r >= 2:
            cols.append(f"variance={row.M[2]}")
        if row.alpha is not None:
            for r in range(3, args.r + 1):
                cols.append(f"alpha{r}={row.alpha.float_value[r]:.6g}")
        elif row.note:
            cols.append(f"({row.note})")
        body.append("  ".join(cols))
    return _finish(args, config, body)


# -- average ---------------------------------------------------------------


def cmd_average(args) -> int:
    patterns = [parse_perm(p) for p in args.pattern]
    engine = AverageEngine(args.max_n)
    seqs = [(format_perm(p), engine.sequence(p)) for p in patterns]
    config = {
        "family": "av132",
        "patterns": ",".join(name for name, _ in seqs),
        "max_n": args.max_n,
    }
    if args.format == "json":
        files = [sequence_file(f"av132:total:{name}", values) for name, values in seqs]
        body = files[0] if len(files) == 1 else {"sequences": [f.to_json_obj() for f in files]}
    elif args.format == "csv":
        body = ["n," + ",".join(f"A_{name}" for name, _ in seqs)]
        body += [
            f"{n}," + ",".join(str(values[n]) for _, values in seqs)
            for n in range(args.max_n + 1)
        ]
    else:
        body = [
            f"A_{name}(0..{args.max_n}) = " + ", ".join(str(v) for v in values)
            for name, values in seqs
        ]
    return _finish(args, config, body)


# -- census ----------------------------------------------------------------


def cmd_census(args) -> int:
    config = {"family": args.family, "k": args.k}
    if args.family == "av132":
        if args.max_n is not None:
            raise UsageError("--max-n applies to --family av123; av132 takes --prefix-len")
        config["prefix_len"] = DEFAULT_PREFIX_LEN if args.prefix_len is None else args.prefix_len
        result = bona_census_132(args.k, prefix_len=config["prefix_len"])
    else:
        if args.prefix_len is not None:
            raise UsageError("--prefix-len applies to --family av132; av123 takes --max-n")
        config["max_n"] = DEFAULT_CENSUS_MAX_N if args.max_n is None else args.max_n
        result = bona_census_123(args.k, n_max=config["max_n"])
    if args.format == "json":
        return _finish(args, config, {"census": result.to_json_obj()})
    body = [f"{result.class_count} classes at k = {args.k} ({args.family})"]
    for i, cls in enumerate(result.classes, start=1):
        members = " ".join(format_perm(p) for p in cls.patterns)
        body.append(f"class {i} (size {cls.size}): {members}")
        shown = ", ".join(str(v) for v in cls.prefix[:12])
        body.append(f"  prefix: {shown}, ...")
    body.append(f"note: {result.caveat}")
    return _finish(args, config, body)


# -- guess -----------------------------------------------------------------


def cmd_guess(args) -> int:
    seq = load_sequence(args.input)
    values = list(seq.values)
    offset = seq.offset
    notes = []
    config = {
        "kind": args.kind,
        "input": args.input,
        "name": seq.name,
        "offset": offset,
        "holdout": args.holdout,
    }
    if args.kind == "p-recursive":
        config["max_order"] = args.max_order
        config["max_degree"] = args.max_degree
        fit = guess_p_recursive(
            values,
            offset=offset,
            max_order=args.max_order,
            max_degree=args.max_degree,
            holdout=args.holdout,
        )
        missing = f"no recurrence of order <= {args.max_order}, degree <= {args.max_degree}"
    elif args.kind == "algebraic":
        if offset != 0:
            raise UsageError(
                "algebraic fitting treats the values as series coefficients "
                f"a_0, a_1, ...; {seq.name} starts at offset {offset}"
            )
        config["max_deg_y"] = args.max_deg_y
        config["max_deg_z"] = args.max_deg_z
        fit = guess_algebraic(
            values,
            max_deg_y=args.max_deg_y,
            max_deg_z=args.max_deg_z,
            holdout=args.holdout,
        )
        missing = (
            f"no algebraic equation with deg_y <= {args.max_deg_y}, deg_z <= {args.max_deg_z}"
        )
    else:
        config["degree"] = args.degree
        if offset == 0:
            values = values[1:]
            offset = 1
            notes.append(
                "fit starts at n = 1; the n = 0 term is outside the c(n-1) basis"
            )
        fit = fit_closed_form(
            values, offset=offset, degree=args.degree, holdout=args.holdout
        )
        missing = (
            f"no closed form of degree <= {args.degree} over "
            "{n^i 4^n, n^i c(n), n^i c(n-1), n^i}"
        )
    if fit is None:
        print(f"{missing} fits {seq.name}", file=sys.stderr)
        return EXIT_NOT_FOUND
    result = fit.to_json_obj()
    if args.format == "json":
        body = {"result": result, "verified_terms": len(values)}
        if notes:
            body["notes"] = notes
        return _finish(args, config, body)
    body = [
        result.get("solved") or result["rendering"],
        f"verified on all {len(values)} terms ({args.holdout} held out)",
    ]
    body += [f"note: {note}" for note in notes]
    return _finish(args, config, body)


# -- abnormal --------------------------------------------------------------


def cmd_abnormal(args) -> int:
    report = analyze(
        args.family, args.stat, args.n_max, args.r,
        tau_skew=args.tau_skew, tau_kurt=args.tau_kurt, epsilon=args.epsilon, order=args.order,
    )
    config = {
        "family": args.family,
        "stat": args.stat,
        "n_max": args.n_max,
        "r": args.r,
    }
    if args.format == "json":
        return _finish(args, config, {"report": report.to_json_obj()})
    body = [
        f"verdict: {report.verdict}",
        f"criterion: {report.criterion}",
        f"checkpoints: {', '.join(str(n) for n in report.checkpoints)}",
    ]
    for ev in report.evidence:
        samples = "  ".join(f"{s.n}: {s.value:+.6f}" for s in ev.samples)
        body.append(
            f"r={ev.r}  reference={ev.reference}  limit={ev.limit:+.6f}  "
            f"metric={ev.metric:.3g}"
        )
        body.append(f"  alpha samples: {samples}")
    return _finish(args, config, body)


# -- oracle ----------------------------------------------------------------


def cmd_oracle(args) -> int:
    checks = verify_catalog(args.max_n, args.limit)
    config = {"max_n": args.max_n, "limit": args.limit}
    ok = [label for label, bad in checks.items() if bad is None]
    failures = [(label, *bad) for label, bad in checks.items() if bad is not None]
    if args.format == "json":
        body = {
            "checks": [{"spec": label, "max_n": args.max_n, "status": "ok"} for label in ok],
            "failures": [
                {"spec": label, "n": n, "engine": str(eng), "brute_force": str(bf)}
                for label, n, eng, bf in failures
            ],
        }
    else:
        body = [f"{label:12s} n <= {args.max_n}  ok" for label in ok]
        for label, n, eng, bf in failures:
            body.append(f"{label:12s} MISMATCH at n = {n}")
            body.append(f"  engine:      {eng}")
            body.append(f"  brute force: {bf}")
        if not failures:
            body.append(f"all {len(ok)} catalog specs match brute force")
    _finish(args, config, body)
    if failures:
        print("oracle mismatch: the recurrence engine disagrees with brute force",
              file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


# -- parser ----------------------------------------------------------------


def _add_common(p, formats=("text", "json", "csv")) -> None:
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", help="write to this file (atomic) instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="catstats",
        description="Exact pattern statistics on 132- and 123-avoiding permutations.",
    )
    ap.add_argument("--version", action="version", version=f"catstats {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("wenum", help="weight enumerator polynomials P_0..P_n")
    p.add_argument("--family", required=True, choices=["av132", "av123"])
    p.add_argument("--stat", required=True, help="pattern whose count t tracks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--vars",
        help="comma-separated variables to keep (others set to 1); "
        "default keeps the full joint enumerator",
    )
    _add_common(p)
    p.set_defaults(fn=cmd_wenum)

    p = sub.add_parser("moments", help="exact moment table of a catalog statistic")
    p.add_argument("--family", required=True, choices=["av132", "av123"])
    p.add_argument("--stat", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--r", type=int, default=4, help="highest moment order")
    p.add_argument("--mode", choices=["truncated", "full"], default="truncated")
    _add_common(p)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("average", help="summed pattern counts A_p(n) on av132")
    p.add_argument("--pattern", action="append", required=True,
                   help="pattern like 213; repeat for several")
    p.add_argument("--max-n", type=int, default=30)
    _add_common(p)
    p.set_defaults(fn=cmd_average)

    p = sub.add_parser("census", help="equality classes of A_p at pattern length k")
    p.add_argument("--family", choices=["av132", "av123"], default="av132")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prefix-len", type=int, help="av132 only: sequence prefix length "
                   f"used for classing (default {DEFAULT_PREFIX_LEN})")
    p.add_argument("--max-n", type=int, help="av123 only: brute-force range for classing "
                   f"(default {DEFAULT_CENSUS_MAX_N})")
    _add_common(p, formats=("text", "json"))
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("guess", help="fit an equation to a sequence file")
    p.add_argument("--kind", required=True,
                   choices=["p-recursive", "algebraic", "closed-form"])
    p.add_argument("--input", required=True, help="sequence JSON file")
    p.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    p.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    p.add_argument("--max-deg-y", type=int, default=DEFAULT_MAX_DEG_Y)
    p.add_argument("--max-deg-z", type=int, default=DEFAULT_MAX_DEG_Z)
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE,
                   help="closed-form: highest power of n in the basis")
    p.add_argument("--holdout", type=int, default=DEFAULT_HOLDOUT)
    _add_common(p, formats=("text", "json"))
    p.set_defaults(fn=cmd_guess)

    p = sub.add_parser("abnormal", help="asymptotic-abnormality report")
    p.add_argument("--family", required=True,
                   choices=["av132", "av123", "synthetic"])
    p.add_argument("--stat", required=True,
                   help="catalog statistic, or 'binomial' for the synthetic control")
    p.add_argument("--n-max", type=int, default=DEFAULT_N)
    p.add_argument("--r", type=int, default=DEFAULT_R)
    p.add_argument("--tau-skew", type=float, default=DEFAULT_TAU_SKEW)
    p.add_argument("--tau-kurt", type=float, default=DEFAULT_TAU_KURT)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                   help="depth of the 1/n-power elimination")
    _add_common(p, formats=("text", "json"))
    p.set_defaults(fn=cmd_abnormal)

    p = sub.add_parser("oracle", help="cross-check the catalog against brute force")
    p.add_argument("action", choices=["verify"])
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--limit", type=int, default=DEFAULT_ORACLE_LIMIT,
                   help="hard cap on brute-force length")
    _add_common(p, formats=("text", "json"))
    p.set_defaults(fn=cmd_oracle)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

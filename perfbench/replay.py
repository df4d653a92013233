"""Traced replay of one catstats CLI job, in a fresh process.

    PYTHONPATH=src python3 perfbench/replay.py TRACE_FILE JOB_ID ARGV...

Runs `catstats.cli.main(ARGV)` with a span around every public call the
command makes into a layer (spec build, evaluators, moment tables,
abnormality analysis, census and average engines, brute-force enumeration,
fitters, sequence files, JSON rendering).  Nothing in the package changes:
the wrappers replace the package's own references to those functions for
the life of this process only.  Output and exit code are the CLI's own, so
they are checked exactly like an untraced job's.

At exit it writes TRACE_FILE, one JSON object: the job's seconds from just
before the package import to the end of the command, the spans, and exact
counters read from the traced calls' arguments and results.
"""

from __future__ import annotations

import json
import os
import sys
import time

from spans import Tracer

DUMPS = json.dumps


def _bits(c) -> int:
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def _add(counters: dict, name: str, value) -> None:
    counters[name] = counters.get(name, 0) + value


def _series_counts(counters, result, args):
    coeffs = [c for s in result.values for c in s.coeffs if c]
    _add(counters, "funcrec.coeffs_out", len(coeffs))
    bits = max((_bits(c) for c in coeffs), default=0)
    counters["funcrec.max_coeff_bits"] = max(counters.get("funcrec.max_coeff_bits", 0), bits)


def _fit_counts(counters, result, args):
    _add(counters, "guessing.fits_attempted", 1)
    _add(counters, "guessing.fits_found", result is not None)


def _write_bytes(counters, result, args):
    _add(counters, "seqio.bytes", len(args[1].encode("utf-8")))


def _read_bytes(counters, result, args):
    _add(counters, "seqio.bytes", os.path.getsize(args[0]))


def targets():
    """(span name, owner, attribute, counter hook, enclosing span name).

    A call made inside a span of the enclosing name gets no span of its own.
    """
    from catstats import abnormality, cli, funcrec, guessing, moments, perms, seqio, splits
    render = [(cls, "to_json_obj") for cls in (
        moments.MomentTable, abnormality.AbnormalityReport,
        splits.CensusResult, seqio.SequenceFile)] + [(json, "dumps")]
    return [
        ("cli.parse", cli, "build_parser", None, None),
        ("funcrec.spec_build", funcrec, "builtin_spec", None, None),
        ("funcrec.eval_truncated", funcrec, "eval_truncated", _series_counts, None),
        ("funcrec.eval_full", funcrec, "eval_full", None, None),
        ("moments.table", moments, "moments_from_truncated",
         lambda c, r, a: _add(c, "moments.rows", len(r.rows)), None),
        ("abnormality.analyze", abnormality, "analyze_table", None, None),
        ("abnormality.control", abnormality, "binomial_control_table", None, None),
        ("splits.census132", splits, "bona_census_132", None, None),
        ("splits.census123", splits, "bona_census_123", None, None),
        # the census asks the engine for every pattern; that is census time
        ("splits.average", splits.AverageEngine, "sequence", None, "splits.census132"),
        ("perms.enumerate", perms, "enumerate_avoiders",
         lambda c, r, a: _add(c, "perms.avoiders_walked", len(r)), None),
        ("perms.brute_weight", perms, "brute_weight_enum", None, None),
        ("perms.brute_sigma", perms, "brute_sigma_enum", None, None),
        ("guessing.closed_form", guessing, "fit_closed_form", _fit_counts, None),
        ("guessing.algebraic", guessing, "guess_algebraic", _fit_counts, None),
        ("guessing.p_recursive", guessing, "guess_p_recursive", _fit_counts, None),
        ("seqio.write", seqio, "atomic_write_text", _write_bytes, None),
        ("seqio.load", seqio, "load_sequence", _read_bytes, None),
    ] + [("cli.render", owner, attr, None, None) for owner, attr in render]


def install(tracer: Tracer, counters: dict) -> "list":
    """Wrap every target; returns the AverageEngine instances built later."""
    from catstats.splits import AverageEngine

    package = [m for name, m in sys.modules.items() if name.startswith("catstats")]
    for name, owner, attr, hook, quiet in targets():
        original = getattr(owner, attr)

        def wrapper(*args, _f=original, _name=name, _hook=hook, _quiet=quiet, **kwargs):
            if _quiet and tracer.inside(_quiet):
                return _f(*args, **kwargs)
            with tracer.span(_name):
                result = _f(*args, **kwargs)
                if _hook:
                    _hook(counters, result, args)
            return result

        if isinstance(owner, type) or owner is json:
            setattr(owner, attr, wrapper)
            continue
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    engines = []
    engine_init = AverageEngine.__init__

    def init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        engines.append(self)

    AverageEngine.__init__ = init
    return engines


def main(trace_path: str, job: str, argv: "list[str]") -> int:
    start = time.perf_counter()
    tracer = Tracer(job)
    counters: dict = {}
    engines: list = []
    try:
        with tracer.span("cli.import"):
            from catstats import cli
        engines = install(tracer, counters)
        return cli.main(argv)
    finally:
        job_s = time.perf_counter() - start
        sys.stdout.flush()
        if argv[0] == "census":
            counters["splits.closure_size"] = sum(len(e.memo) for e in engines)
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(DUMPS({"job_s": job_s, "spans": tracer.spans, "counters": counters}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))

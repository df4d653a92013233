"""Byte-identity corpus for the command line.

Every case in CORPUS is run in process, from a working directory that holds
only the INPUTS files, and its exit code and the sha256 of its stdout, its
stderr and each file it writes are compared with `tests/golden.json`.

A changed digest is a changed output.  Each one is named in CHANGES.md with
its argv and the reason; re-recording with `tests/record_golden.py` never
fixes an unexplained change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

from catstats.cli import build_parser, main
from catstats.splits import AverageEngine

GOLDEN = Path(__file__).with_name("golden.json")


def _sequence(name: str, values, offset: int = 0) -> str:
    return json.dumps({"name": name, "offset": offset, "values": [str(v) for v in values]})


CATALAN = [comb(2 * n, n) // (n + 1) for n in range(80)]
A2314 = AverageEngine(80).sequence((2, 3, 1, 4))
# the files the corpus reads; paths are relative, since `guess` echoes its
# --input path, so that no digest depends on the working directory's name
INPUTS = {
    "catalan.json": _sequence("catalan", CATALAN),
    "catalan-from-1.json": _sequence("catalan", CATALAN[1:40], offset=1),
    "noise.json": _sequence("noise", [(n * n * n + 7) % 1009 for n in range(40)]),
    # the values and name `average --pattern 2314 --max-n 80` writes: an
    # A_p file of the kind the census-fit benchmark fits
    "A2314.json": _sequence("av132:total:2314", A2314),
    # the same values with the next-to-last term raised by 1, which no fit
    # may pass over
    "A2314-raised.json": _sequence("av132:total:2314", [*A2314[:-2], A2314[-2] + 1, A2314[-1]]),
    # the same values with the last term raised by 1, which only a row past
    # the data's last term can see
    "A2314-last-raised.json": _sequence("av132:total:2314", [*A2314[:-1], A2314[-1] + 1]),
    # the values and name `average --pattern 132 --max-n 80` writes: the
    # zero sequence, since no av132 permutation contains 132
    "zeros.json": _sequence("av132:total:132", AverageEngine(80).sequence((1, 3, 2))),
    # an A_21-named file whose values int() reads but the number grammar
    # refuses
    "underscore.json": _sequence("av132:total:21", ["1_000"] * 40),
    # c(n)/2^n for n <= 80 as "num/den" strings: rational terms, which the
    # fitters scale to integer rows
    "catalan-halved.json": _sequence(
        "catalan/2^n", [Fraction(comb(2 * n, n) // (n + 1), 2**n) for n in range(81)]),
    "broken.json": '{"name": "catalan", "offset": 0, "values": [1, 1, 2',
    "two-line-name.json": _sequence("a\nb", CATALAN[:40]),
    "far.json": _sequence("catalan", CATALAN[:40], offset=10**30),
    "array.json": json.dumps(CATALAN[:40]),
    "out-dir/.keep": "",
}

# Each case is shell words: leading NAME=value words set environment
# variables for that case only, the rest is the argv.  The last group
# covers each UsageError message that cli.py raises itself, then a sample
# of the refusals of the layers below, then argparse's own.
CORPUS = [
    "--help",
    "--version",
    *(f"{cmd} --help" for cmd in
      ("wenum", "moments", "average", "census", "guess", "abnormal", "oracle")),
    # wenum
    "wenum --family av132 --stat 21 --n 4",
    "wenum --family av132 --stat 21 --n 4 --format json",
    "wenum --family av132 --stat 21 --n 4 --format csv",
    "wenum --family av132 --stat 231 --n 4 --vars q",
    "wenum --family av123 --stat 213 --n 4 --vars s2,t --format csv",
    "wenum --family av123 --stat 213 --n 4 --format json --out w.json",
    "CATSTATS_OUT_DIR=out-dir wenum --family av132 --stat 21 --n 3 --out w.txt",
    # moments
    "moments --family av132 --stat 21 --max-n 6",
    "moments --family av132 --stat 21 --max-n 6 --format json",
    "moments --family av132 --stat 21 --max-n 6 --format csv",
    "moments --family av123 --stat 213 --max-n 6 --r 2 --format csv",
    "moments --family av132 --stat 321 --max-n 6 --mode full",
    "moments --family av132 --stat 321 --max-n 6 --mode full --r 3 --format json",
    "moments --family av132 --stat 12 --max-n 5 --mode full --format csv",
    "moments --family av132 --stat 21 --max-n 3 --mode full --r 0",
    "moments --family av132 --stat 21 --max-n 3 --format csv --out m.csv",
    # wide orders: each row's m, M and alpha to r = 8, degenerate rows, and
    # a table that stops below the standardized stage
    "moments --family av123 --stat 213 --max-n 6 --mode truncated --r 8 --format json",
    "moments --family av132 --stat 123 --max-n 10 --r 8 --format csv",
    "moments --family av132 --stat 312 --max-n 8 --r 6",
    "moments --family av132 --stat 132 --max-n 6 --r 8 --format json",
    "moments --family av132 --stat 21 --max-n 5 --mode full --r 1",
    # average
    "average --pattern 213 --max-n 9",
    "average --pattern 213 --max-n 9 --format json",
    "average --pattern 213 --max-n 9 --format csv",
    "average --pattern 213 --pattern 1 --max-n 7",
    "average --pattern 213 --pattern 1 --max-n 7 --format json",
    "average --pattern 213 --pattern 1 --max-n 7 --format csv",
    "average --pattern 12",
    "average --pattern 231 --max-n 9 --format json --out a.json",
    # patterns of more than 255 entries: 1..300 above n_max, where it never
    # occurs, and 260..1 at n_max = 262
    f"average --pattern '{' '.join(map(str, range(1, 301)))}' --max-n 5",
    f"average --pattern '{' '.join(map(str, range(260, 0, -1)))}' --max-n 262",
    # census
    "census --k 3 --prefix-len 12",
    "census --k 3 --prefix-len 12 --format json",
    "census --k 4",
    "census --family av123 --k 3 --max-n 6",
    "census --family av123 --k 3 --max-n 6 --format json",
    "census --family av123 --k 4",
    # the av123 census where k == n_max, where the counted level is the last
    # one walked, at the smallest size, and at n_max 10
    "census --family av123 --k 5 --max-n 5 --format json",
    "census --family av123 --k 5 --max-n 6",
    "census --family av123 --k 1 --max-n 1",
    "census --family av123 --k 6 --max-n 10 --format json",
    "census --k 3 --prefix-len 12 --out c.txt",
    # guess
    "guess --kind p-recursive --input catalan.json",
    "guess --kind p-recursive --input catalan.json --max-order 2 --max-degree 2 --format json",
    "guess --kind algebraic --input catalan.json",
    "guess --kind algebraic --input catalan.json --max-deg-y 2 --max-deg-z 2 --format json",
    "guess --kind closed-form --input catalan.json",
    "guess --kind closed-form --input catalan-from-1.json --degree 1 --format json",
    "guess --kind closed-form --input catalan.json --format json --out g.json",
    "guess --kind p-recursive --input noise.json --max-order 2 --max-degree 2",
    "guess --kind algebraic --input noise.json --max-deg-y 2 --max-deg-z 2",
    "guess --kind closed-form --input noise.json --degree 1",
    *(f"guess --kind {kind} --input A2314.json --format json"
      for kind in ("p-recursive", "algebraic", "closed-form")),
    "guess --kind p-recursive --input catalan-halved.json",
    "guess --kind algebraic --input catalan-halved.json --format json",
    "guess --kind algebraic --input A2314-raised.json",
    "guess --kind algebraic --input A2314-last-raised.json",
    *(f"guess --kind {kind} --input zeros.json"
      for kind in ("p-recursive", "algebraic", "closed-form")),
    # abnormal
    "abnormal --family synthetic --stat binomial --n-max 60",
    "abnormal --family synthetic --stat binomial --n-max 60 --format json",
    "abnormal --family av132 --stat 12 --n-max 60",
    "abnormal --family av132 --stat 21 --n-max 60 --order 1 --format json",
    # oracle
    "oracle verify --max-n 4",
    "oracle verify --max-n 4 --format json",
    "oracle verify --max-n 3 --limit 3 --format json --out o.json",
    # refusals raised in cli.py
    "wenum --family av132 --stat 231 --n 3 --vars=,",
    "wenum --family av132 --stat 231 --n 3 --vars t,u",
    "wenum --family av123 --stat 213 --n 3 --vars s2,t,s2,t",
    "moments --family av123 --stat 213 --max-n 8 --r 0",
    "moments --family av123 --stat 213 --max-n 8 --mode full --r -1",
    "census --family av132 --k 2 --max-n 9",
    "census --family av123 --k 2 --prefix-len 12",
    "census --family av123 --k 3 --max-n 13",
    "guess --kind algebraic --input catalan-from-1.json",
    "moments --family av132 --stat 12 --max-n 3 --out missing/m.txt",
    "oracle verify --max-n 13",
    "oracle verify --max-n 3 --limit 2",
    # refusals raised below the CLI
    "wenum --family av132 --stat 999 --n 3",
    "wenum --family av123 --stat 213 --n 19",
    "moments --family av132 --stat 21 --max-n -1",
    "wenum --family av132 --stat 21 --n -1",
    "average --pattern 11",
    "average --pattern 12 --max-n 1001",
    "average --pattern 12 --max-n -1",
    # patterns that are not ASCII digits
    "average --pattern '1 x' --max-n 5",
    "average --pattern ²1 --max-n 5",
    "census --k 0",
    "census --k 3 --prefix-len 5",
    "census --k 9 --prefix-len 1000",
    "census --family av123 --k 4 --max-n 3",
    "guess --kind p-recursive --input missing.json",
    "guess --kind p-recursive --input broken.json",
    "guess --kind p-recursive --input two-line-name.json",
    "guess --kind p-recursive --input array.json",
    "guess --kind closed-form --input underscore.json",
    "guess --kind closed-form --input far.json",
    "guess --kind p-recursive --input catalan.json --holdout 0",
    "guess --kind algebraic --input catalan.json --max-deg-y 0",
    "abnormal --family synthetic --stat 21",
    "abnormal --family synthetic --stat binomial --n-max 60 --epsilon nan",
    "abnormal --family av132 --stat 21 --n-max 60 --tau-kurt 0",
    "abnormal --family av132 --stat 21 --r 3",
    "abnormal --family av132 --stat 21 --n-max 60 --order 5",
    "abnormal --family av123 --stat 213 --n-max 10",
    # a statistic of variance 0: av132 permutations never contain 132
    "abnormal --family av132 --stat 132 --n-max 50",
    # argparse's own refusals
    "",
    "wenum --family av999 --stat 21 --n 3",
    "census --k 3 --format csv",
    # numbers outside the ASCII grammar, which int() would read as 5 and 10
    "average --pattern 12 --max-n ٥",
    "wenum --family av132 --stat 21 --n 1_0",
]

# Cases run while verify_catalog reports two specs as disagreeing with brute
# force, which no correct engine does: they pin the mismatch rendering.
MISMATCH_TAG = "[mismatch] "
CORPUS += [
    MISMATCH_TAG + "oracle verify --max-n 3",
    MISMATCH_TAG + "oracle verify --max-n 3 --format json",
]


def _fake_verify_catalog(max_n):
    return {
        "av132:21": None,
        "av132:12": (2, "1 + t^2", "2t"),
        "av123:213": (max_n, "t + s1", "t*s1"),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files() -> "set[str]":
    return {os.path.join(root, name) for root, _, names in os.walk(".") for name in names}


def outcome(case: str) -> dict:
    """Run one case in the current directory; its exit code and digests.

    The files the case writes are digested and then removed."""
    words = shlex.split(case.removeprefix(MISMATCH_TAG))
    env = {}
    while words and "=" in words[0] and not words[0].startswith("-"):
        name, value = words.pop(0).split("=", 1)
        env[name] = value
    before = _files()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, env))
        if case.startswith(MISMATCH_TAG):
            stack.enter_context(mock.patch("catstats.cli.verify_catalog", _fake_verify_catalog))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = main(words)
        except SystemExit as exc:  # argparse's --help, --version and refusals
            code = exc.code
    written = {}
    for path in sorted(_files() - before):
        written[path] = _sha(Path(path).read_bytes())
        os.remove(path)
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().encode("utf-8")),
        "stderr": _sha(err.getvalue().encode("utf-8")),
        "files": written,
    }


def replay(workdir) -> "dict[str, dict]":
    """Every case's outcome, run from `workdir`, which must be empty.

    COLUMNS fixes the width argparse wraps --help to, and CATSTATS_OUT_DIR
    is unset unless a case sets it."""
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for path, text in INPUTS.items():
            Path(path).parent.mkdir(exist_ok=True)
            Path(path).write_text(text, encoding="utf-8")
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            os.environ.pop("CATSTATS_OUT_DIR", None)
            return {case: outcome(case) for case in CORPUS}
    finally:
        os.chdir(home)


def changed(recorded: dict, got: dict) -> "list[str]":
    """The cases whose outcome differs from the record, or that only one has."""
    return [case for case in {**recorded, **got} if recorded.get(case) != got.get(case)]


def test_corpus_matches_its_recorded_digests(tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert changed(recorded, replay(tmp_path)) == []


def test_corpus_runs_every_subcommand_in_every_format():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    ran = set()
    for case, record in recorded.items():
        words = [w for w in shlex.split(case) if "=" not in w or w.startswith("-")]
        if record["exit"] == 0 and "--help" not in words:
            fmt = words[words.index("--format") + 1] if "--format" in words else "text"
            ran.add((words[0], fmt))
        elif words[1:] == ["--help"]:
            ran.add((words[0], "--help"))
    sub = next(a for a in build_parser()._actions if a.dest == "cmd")
    for name, parser in sub.choices.items():
        fmt = next(a for a in parser._actions if a.dest == "format")
        assert {(name, choice) for choice in (*fmt.choices, "--help")} <= ran, name

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catstats import __version__
from catstats.cli import EXIT_INTERNAL, EXIT_NOT_FOUND, EXIT_OK, EXIT_USAGE, main
from catstats.funcrec import builtin_families, builtin_spec
from catstats.seqio import load_sequence, sequence_file
from catstats.perms import DEFAULT_ORACLE_LIMIT, brute_sigma_enum, catalan_list
from catstats.splits import MAX_ENGINE_N, AverageEngine


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_wenum_text(capsys):
    rc, out, _ = run(capsys, "wenum", "--family", "av132", "--stat", "21", "--n", "3")
    assert rc == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith(f"# catstats {__version__} wenum")
    assert "P_3(t) = 1 + t + 2t^2 + t^3" in lines


def test_wenum_json_carries_config_echo(capsys):
    rc, out, _ = run(
        capsys,
        "wenum", "--family", "av132", "--stat", "21", "--n", "2", "--format", "json",
    )
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["tool"] == "catstats"
    assert obj["version"] == __version__
    assert obj["config"]["family"] == "av132"
    assert obj["rows"][-1] == {"n": 2, "poly": "1 + t"}


@pytest.mark.parametrize("kept", ["t", "t,s2"])
def test_wenum_vars_sets_the_other_variables_to_one(capsys, kept):
    rc, out, _ = run(
        capsys, "wenum", "--family", "av123", "--stat", "213", "--n", "7", "--vars", kept
    )
    assert rc == EXIT_OK
    rows = out.splitlines()[1:]
    assert rows == [
        f"P_{n}({kept}) = {brute_sigma_enum(n).project(kept.split(','))}" for n in range(8)
    ]


# `wenum --family av123 --stat 213 --n 5 --vars s2,t`: the header and P_n
# name the variables in the user's order, while each polynomial is over
# (t, s2), the spec's order.  sha256 of stdout per format, recorded from the
# release that set the dropped variables to 1 with `specialize_ones`.
WENUM_S2_T_DIGESTS = {
    "text": "4b4a428dd5ff4adc918e3037fbff8d9728a71f5a9c8c486a87cb96379d511330",
    "json": "711074170056ff4308b75e3088d34b06be0cba3b92e26b03b85e77a5739aa1f0",
    "csv": "49667ec3acd1b9cd8b9520bf7d0efbefd3fd461453c4ee6079e9fc5997395191",
}


@pytest.mark.parametrize("fmt", sorted(WENUM_S2_T_DIGESTS))
def test_wenum_vars_in_the_users_order_prints_the_specs_order(capsys, fmt):
    rc, out, err = run(
        capsys, "wenum", "--family", "av123", "--stat", "213", "--n", "5", "--vars", "s2,t",
        "--format", fmt,
    )
    assert (rc, err) == (EXIT_OK, "")
    if fmt == "text":
        assert out.splitlines()[3:5] == [
            "P_2(s2,t) = s2 + s2^2",
            "P_3(s2,t) = 3s2^2 + t*s2 + s2^3",
        ]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == WENUM_S2_T_DIGESTS[fmt]


@pytest.mark.parametrize("names", ["", ",", " , "])
def test_wenum_vars_naming_no_variable_is_a_usage_error(capsys, monkeypatch, names):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated before --vars was checked")

    monkeypatch.setattr("catstats.cli.eval_full", refuse)
    rc, out, err = run(
        capsys, "wenum", "--family", "av132", "--stat", "231", "--n", "3", f"--vars={names}"
    )
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == "error: --vars names no variable; av132:231 has ['t', 'q']\n"


@pytest.mark.parametrize("names,repeated", [("t,t", "['t']"), ("s2,t,s2,t", "['s2', 't']")])
def test_wenum_vars_naming_a_variable_twice_is_a_usage_error(capsys, monkeypatch, names, repeated):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated before --vars was checked")

    monkeypatch.setattr("catstats.cli.eval_full", refuse)
    rc, out, err = run(
        capsys, "wenum", "--family", "av123", "--stat", "213", "--n", "7", "--vars", names
    )
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == f"error: --vars names {repeated} more than once\n"


def test_moments_text_values(capsys):
    rc, out, _ = run(
        capsys,
        "moments", "--family", "av132", "--stat", "21", "--max-n", "3", "--mode", "full",
    )
    assert rc == EXIT_OK
    row = next(l for l in out.splitlines() if l.startswith("n=3"))
    assert "mean=8/5" in row
    assert "variance=26/25" in row


def test_average_json_is_a_sequence_file(capsys, tmp_path):
    dest = tmp_path / "a.json"
    rc, out, err = run(
        capsys,
        "average", "--pattern", "213", "--max-n", "9", "--format", "json",
        "--out", str(dest),
    )
    assert rc == EXIT_OK
    assert out == ""
    assert str(dest) in err
    seq = load_sequence(dest)
    assert seq.name == "av132:total:213"
    assert seq.values == (0, 0, 0, 1, 11, 81, 500, 2794, 14649, 73489)
    assert seq.extra["tool"] == "catstats"


def test_census_text(capsys):
    rc, out, _ = run(capsys, "census", "--family", "av132", "--k", "3", "--prefix-len", "12")
    assert rc == EXIT_OK
    assert "3 classes" in out
    assert "213" in out and "321" in out


# sha256 of the stdout of `census --family av132 --k 10`, recorded from the
# engine that multiplied full-width operands once per split and unpacked
# every pattern's sequence
CENSUS_132_K10_DIGESTS = {
    "text": "176de385cf9284f1a0e23406b1fdb0f1dc6d0c2c95fc390a863289c13ac1efa5",
    "json": "7a169219f44f09a149551dfd9522cdecf6baf257b2ee864266d318c166ec2006",
}


@pytest.mark.parametrize("fmt", sorted(CENSUS_132_K10_DIGESTS))
def test_census_132_k10_output_matches_its_recorded_digest(capsys, fmt):
    rc, out, _ = run(capsys, "census", "--family", "av132", "--k", "10", "--format", fmt)
    assert rc == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CENSUS_132_K10_DIGESTS[fmt]


# sha256 of the stdout of `census --family av123 --k 6 --max-n 9`, recorded
# from the census that deleted entries of tuples and added chain counts slot
# by slot, over avoiders from a depth-first search
CENSUS_123_K6_DIGESTS = {
    "text": "82ba935ca9b98078d22a22b91143d3dae5e1cf3ad151abd8de6d2db1574ada91",
    "json": "b8d6d4246af18018b97672fdcb3c4b447a704a9ba5503e9fb6e934931e5f3faa",
}


@pytest.mark.parametrize("fmt", sorted(CENSUS_123_K6_DIGESTS))
def test_census_123_k6_output_matches_its_recorded_digest(capsys, fmt):
    rc, out, _ = run(capsys, "census", "--family", "av123", "--k", "6", "--max-n", "9", "--format", fmt)
    assert rc == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CENSUS_123_K6_DIGESTS[fmt]


def test_guess_workflow_found_and_not_found(capsys, tmp_path):
    cats = tmp_path / "catalan.json"
    cats.write_text(json.dumps(sequence_file("catalan", catalan_list(40)).to_json_obj()))
    rc, out, _ = run(
        capsys,
        "guess", "--kind", "p-recursive", "--input", str(cats),
        "--max-order", "2", "--max-degree", "2", "--format", "json",
    )
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["result"]["rendering"] == "(n + 2)*a(n+1) - (4*n + 2)*a(n) = 0"
    assert obj["result"]["coefficients"] == [[-2, -4], [2, 1]]

    noise = tmp_path / "noise.json"
    values = [(n * n * n + 7) % 1009 for n in range(40)]
    noise.write_text(json.dumps(sequence_file("noise", values).to_json_obj()))
    rc, _, err = run(
        capsys,
        "guess", "--kind", "p-recursive", "--input", str(noise),
        "--max-order", "2", "--max-degree", "2",
    )
    assert rc == EXIT_NOT_FOUND
    assert "no recurrence" in err

    rc, _, err = run(capsys, "guess", "--kind", "p-recursive", "--input", str(tmp_path / "missing.json"))
    assert rc == EXIT_USAGE
    assert "error:" in err


_NOT_JSON = "{} is not valid JSON: "


@pytest.mark.parametrize(
    "content,error",
    [
        (b'{"name": "\xff", "offset": 0, "values": []}', _NOT_JSON),
        (b"[" * 100000, _NOT_JSON),
        (b"1" * 5000, _NOT_JSON),
        (b"", _NOT_JSON),
        (b'{"name": "x", "offset": 0, "values": [1, 1, 2, NaN, 14]}', "{}: values[3] must be an int"),
        (b'{"name": "x", "offset": 0, "values": [true, false, true]}', "{}: values[0] must be an int"),
        (None, "cannot read sequence file {}: Is a directory"),
    ],
    ids=[
        "not-utf8", "nested-past-the-recursion-limit", "integer-past-the-digit-limit", "empty",
        "nan", "booleans", "directory",
    ],
)
def test_guess_on_an_undecodable_sequence_file_is_a_usage_error(capsys, tmp_path, content, error):
    path = tmp_path / "bad.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    rc, out, err = run(capsys, "guess", "--kind", "p-recursive", "--input", str(path))
    assert (rc, out) == (EXIT_USAGE, "")
    assert err.startswith("error: " + error.format(path))


def test_guess_algebraic_from_file(capsys, tmp_path):
    cats = tmp_path / "catalan80.json"
    cats.write_text(json.dumps(sequence_file("catalan", catalan_list(80)).to_json_obj()))
    rc, out, _ = run(
        capsys, "guess", "--kind", "algebraic", "--input", str(cats), "--format", "json"
    )
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["result"]["solved"] == "y = 1 + z*y^2"


GUESS_KINDS = ("p-recursive", "algebraic", "closed-form")
# the search bounds each kind reads, with their least valid values
GUESS_BOUNDS = {
    "p-recursive": {"--max-order": 1, "--max-degree": 0},
    "algebraic": {"--max-deg-y": 1, "--max-deg-z": 0},
    "closed-form": {"--degree": 0},
}


@pytest.fixture(scope="module")
def catalan41(tmp_path_factory):
    path = tmp_path_factory.mktemp("guess") / "catalan41.json"
    path.write_text(json.dumps(sequence_file("catalan", catalan_list(40)).to_json_obj()))
    return str(path)


@pytest.mark.parametrize("kind", GUESS_KINDS)
@pytest.mark.parametrize("holdout", ["0", "-1", "-3"])
def test_guess_rejects_a_holdout_below_one(capsys, catalan41, kind, holdout):
    rc, out, err = run(
        capsys, "guess", "--kind", kind, "--input", catalan41, f"--holdout={holdout}"
    )
    assert (rc, out, err) == (EXIT_USAGE, "", "error: holdout must be >= 1\n")


@pytest.mark.parametrize(
    "kind,option,value",
    [
        (kind, option, least - 1)
        for kind in GUESS_KINDS
        for option, least in GUESS_BOUNDS[kind].items()
    ]
    + [("p-recursive", "--max-order", -2)],
)
def test_guess_rejects_a_bound_below_its_least_value(capsys, catalan41, kind, option, value):
    rc, out, err = run(
        capsys, "guess", "--kind", kind, "--input", catalan41, f"{option}={value}"
    )
    assert rc == EXIT_USAGE
    assert out == ""
    least = GUESS_BOUNDS[kind][option]
    assert err == f"error: {option[2:].replace('-', '_')} must be >= {least}\n"


# spellings outside the CLI's number grammar, which argparse refuses with
# exit 2: digits that int() reads but the grammar does not, and non-numbers
_MALFORMED = st.sampled_from(["٥", "1_0", "+3", " 3", "３", "0x10", "1e", ""])


def _misspelt(options):
    """One of `options` with a malformed number."""
    return st.tuples(st.sampled_from(sorted(options)), _MALFORMED)


def _refused(head, options, misspelt):
    """Assert that argparse refuses head + options with the number of one
    option misspelt: exit 2, nothing on stdout."""
    opt, number = misspelt
    argv = head + [f"{o}={v}" for o, v in {**options, opt: number}.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert (exc.value.code, out.getvalue()) == (2, ""), argv
    assert "error: argument" in err.getvalue(), argv


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(GUESS_KINDS),
    holdout=st.integers(-3, 12),
    bounds=st.fixed_dictionaries(
        {opt: st.integers(-2, 4) for least in GUESS_BOUNDS.values() for opt in least}
    ),
    misspelt=_misspelt(["--holdout", *(opt for least in GUESS_BOUNDS.values() for opt in least)]),
)
def test_guess_argv_ends_in_an_exit_code_not_a_traceback(catalan41, kind, holdout, bounds, misspelt):
    head = ["guess", "--kind", kind, "--input", catalan41]
    options = {"--holdout": holdout, **bounds}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(head + [f"{opt}={v}" for opt, v in options.items()])
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_NOT_FOUND)
    if rc == EXIT_USAGE:
        assert err.getvalue().startswith("error:")
    else:
        assert holdout >= 1
        assert all(bounds[opt] >= least for opt, least in GUESS_BOUNDS[kind].items())
    _refused(head, options, misspelt)


# per subcommand: the fixed argv head, then each option's values, which
# straddle the valid range; the options under "optional" may be left out.
# Sizes stay small (oracle n <= 5, census n <= 8, abnormal n_max 50), and
# the options whose defaults are expensive are always given.  Each example
# is also run with a malformed spelling in one numeric option (`NUMERIC`).
_THRESHOLD = st.sampled_from(["nan", "inf", "0", "-1", "0.02"])
_ABNORMAL_OPTIONAL = {
    "--r": st.integers(-1, 5), "--tau-skew": _THRESHOLD, "--tau-kurt": _THRESHOLD,
    "--epsilon": _THRESHOLD, "--order": st.integers(-1, 3),
    "--format": st.sampled_from(["text", "json"]),
}
ARGV_CASES = {
    "census-av132": (
        ["census", "--family", "av132"],
        {"--k": st.integers(-1, 4)},
        {"--prefix-len": st.integers(-1, 10), "--max-n": st.integers(-1, 8),
         "--format": st.sampled_from(["text", "json"])},
    ),
    "census-av123": (
        ["census", "--family", "av123"],
        {"--k": st.integers(-1, 5)},
        {"--max-n": st.sampled_from([-1, 0, 3, 5, 8, 13]), "--prefix-len": st.integers(-1, 10),
         "--format": st.sampled_from(["text", "json"])},
    ),
    "oracle": (
        ["oracle", "verify"],
        {"--max-n": st.integers(-2, 5)},
        {"--limit": st.integers(-1, 6), "--format": st.sampled_from(["text", "json"])},
    ),
    "abnormal": (
        ["abnormal"],
        {"--family": st.sampled_from(["av132", "av123"]),
         "--stat": st.sampled_from(["21", "213", "999"]),
         "--n-max": st.sampled_from([-1, 0, 49, 50])},
        _ABNORMAL_OPTIONAL,
    ),
    "abnormal-synthetic": (
        ["abnormal", "--family", "synthetic"],
        {"--stat": st.sampled_from(["binomial", "21"]),
         "--n-max": st.sampled_from([-1, 0, 49, 50])},
        _ABNORMAL_OPTIONAL,
    ),
    "wenum": (
        ["wenum"],
        {"--family": st.sampled_from(["av132", "av123"]),
         "--stat": st.sampled_from(["21", "213", "999"]),
         "--n": st.integers(-1, 6)},
        {"--vars": st.sampled_from(["t", "t,s1", "s2,t", "t,t", "u", ",", ""]),
         "--format": st.sampled_from(["text", "json", "csv"])},
    ),
    "moments-truncated": (
        ["moments", "--mode", "truncated"],
        {"--family": st.sampled_from(["av132", "av123"]),
         "--stat": st.sampled_from(["21", "213", "999"]),
         "--max-n": st.integers(-1, 12)},
        {"--r": st.integers(-1, 5), "--format": st.sampled_from(["text", "json", "csv"])},
    ),
    "moments-full": (
        ["moments", "--mode", "full"],
        {"--family": st.sampled_from(["av132", "av123"]),
         "--stat": st.sampled_from(["21", "213", "999"]),
         "--max-n": st.integers(-1, 8)},
        {"--r": st.integers(-1, 5), "--format": st.sampled_from(["text", "json", "csv"])},
    ),
    "average": (
        ["average"],
        {"--pattern": st.sampled_from(["213", "1", "", "2 1 3", "1432", "11", "0", "24", "x"])},
        {"--max-n": st.integers(-2, 40), "--format": st.sampled_from(["text", "json", "csv"])},
    ),
}


NUMERIC = {
    "--k", "--prefix-len", "--max-n", "--limit", "--r", "--tau-skew", "--tau-kurt", "--epsilon",
    "--order", "--n-max", "--n",
}


@pytest.mark.parametrize("case", sorted(ARGV_CASES))
def test_argv_ends_in_an_exit_code_not_a_traceback(case):
    head, required, optional = ARGV_CASES[case]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.fixed_dictionaries(required, optional=optional),
        _misspelt(NUMERIC.intersection([*required, *optional])),
    )
    def check(options, misspelt):
        argv = head + [f"{opt}={v}" for opt, v in options.items()]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (EXIT_OK, EXIT_USAGE), argv
        if rc == EXIT_USAGE:
            assert (out.getvalue(), err.getvalue()[:6]) == ("", "error:"), argv
        _refused(head, options, misspelt)

    check()


def test_abnormal_synthetic_checks_settings_before_building_the_table(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built the control table before checking the settings")

    monkeypatch.setattr("catstats.abnormality.binomial_control_table", refuse)
    rc, out, err = run(
        capsys,
        "abnormal", "--family", "synthetic", "--stat", "binomial", "--n-max", "600",
        "--epsilon", "nan",
    )
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == "error: epsilon must be a finite number > 0, got nan\n"


@pytest.mark.parametrize(
    "family,stat", [("av132", "21"), ("av123", "213"), ("synthetic", "binomial")]
)
def test_abnormal_refuses_r_below_four_with_one_message(capsys, monkeypatch, family, stat):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated before the settings were checked")

    monkeypatch.setattr("catstats.abnormality.eval_truncated", refuse)
    monkeypatch.setattr("catstats.abnormality.binomial_control_table", refuse)
    rc, out, err = run(capsys, "abnormal", "--family", family, "--stat", stat, "--r", "3")
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == "error: verdicts need moments through r = 4, got r_max = 3\n"


def test_abnormal_synthetic_control(capsys):
    rc, out, _ = run(
        capsys, "abnormal", "--family", "synthetic", "--stat", "binomial", "--n-max", "60"
    )
    assert rc == EXIT_OK
    assert "verdict: inconclusive" in out


def test_abnormal_json_verdict(capsys):
    rc, out, _ = run(
        capsys,
        "abnormal", "--family", "av132", "--stat", "12", "--n-max", "60",
        "--format", "json",
    )
    assert rc == EXIT_OK
    assert json.loads(out)["report"]["verdict"] == "abnormal"


def test_oracle_verify_small(capsys):
    rc, out, _ = run(capsys, "oracle", "verify", "--max-n", "5")
    assert rc == EXIT_OK
    assert "all 9 catalog specs match brute force" in out


def test_census_123_refuses_oversize_n_before_enumerating(capsys):
    start = time.monotonic()
    rc, out, err = run(capsys, "census", "--family", "av123", "--k", "3", "--max-n", "13")
    assert time.monotonic() - start < 1.0
    assert rc == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "limit 12" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("average", "--pattern", "12", "--max-n", str(MAX_ENGINE_N + 1)),
        ("census", "--family", "av132", "--k", "2", "--prefix-len", str(MAX_ENGINE_N + 1)),
    ],
)
def test_split_engine_refuses_oversize_n_before_packing(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the engine started building past its bound")

    monkeypatch.setattr("catstats.splits.catalan", refuse)
    monkeypatch.setattr("catstats.splits.catalan_list", refuse)
    monkeypatch.setattr(AverageEngine, "_pack", refuse)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: sequences are capped at n = {MAX_ENGINE_N}, got {MAX_ENGINE_N + 1}")


def test_census_refuses_past_its_memory_bound_before_enumerating(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the census started past its memory bound")

    monkeypatch.setattr("catstats.splits.enumerate_avoiders", refuse)
    monkeypatch.setattr(AverageEngine, "_pack", refuse)
    rc, out, err = run(capsys, "census", "--family", "av132", "--k", "9", "--prefix-len", "1000")
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == (
        "error: a census of the 4862 length-9 patterns at n <= 1000 keeps at least "
        "880 MiB of packed sequences, over its bound of 256 MiB; lower k or prefix_len\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("wenum", "--family", "av123", "--stat", "213", "--n", "64"),
        ("wenum", "--family", "av123", "--stat", "213", "--n", "19"),
        ("moments", "--family", "av132", "--stat", "321", "--max-n", "19", "--mode", "full"),
    ],
)
def test_full_mode_refuses_past_the_specs_cap_before_evaluating(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("full mode started past its cap")

    family, stat, n = argv[2], argv[4], argv[6]
    builtin_spec(family, stat)  # the mass check walks the recurrence too
    monkeypatch.setattr("catstats.funcrec._packed_walk", refuse)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == (
        f"error: full mode on {family}:{stat} is capped at n = 18, got n = {n}; "
        "use truncated mode for moment work\n"
    )


def test_full_mode_caps_cover_the_oracle_range():
    assert all(
        builtin_spec(family, stat).full_limit >= DEFAULT_ORACLE_LIMIT
        for family, stat in builtin_families()
    )


def _records_in(obj):
    """Names of the record types (NamedTuples) anywhere inside obj."""
    if hasattr(obj, "_fields"):
        yield type(obj).__name__
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _records_in(item)


def test_json_output_is_never_rendered_from_a_record(capsys, monkeypatch, tmp_path):
    # a record is a tuple, which json.dumps would silently render as a list
    cats = tmp_path / "catalan.json"
    cats.write_text(json.dumps(sequence_file("catalan", catalan_list(40)).to_json_obj()))
    dumps, seen = json.dumps, []

    def checked(obj, *args, **kwargs):
        seen.append(list(_records_in(obj)))
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", checked)
    for argv in (
        ("wenum", "--family", "av132", "--stat", "231", "--n", "4"),
        ("moments", "--family", "av123", "--stat", "213", "--max-n", "6"),
        ("average", "--pattern", "213", "--pattern", "1"),
        ("census", "--k", "3", "--prefix-len", "12"),
        ("guess", "--kind", "p-recursive", "--input", str(cats), "--max-order", "2"),
        ("abnormal", "--family", "synthetic", "--stat", "binomial", "--n-max", "60"),
        ("oracle", "verify", "--max-n", "4"),
    ):
        rc, out, _ = run(capsys, *argv, "--format", "json")
        assert rc == EXIT_OK, argv
        json.loads(out)
    assert seen == [[]] * 7  # one dumps call per subcommand, no record in any


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # -S keeps site-packages start-up hooks from importing it first
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    # the truncated walk and its series are imported on first use, so that
    # commands which never evaluate truncated mode do not compile them
    code = (
        "import sys, catstats.cli; "
        "print('dataclasses' in sys.modules, 'catstats.truncated' in sys.modules, "
        "'catstats.series' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False False False\n"


@pytest.mark.parametrize(
    "pattern", ["1 x", "\u00b21", "1 +2", "\u0661\u0662", "\uff13\uff12\uff11"]
)
def test_average_refuses_a_pattern_that_is_not_ascii_digits(pattern):
    # each of these once reached int(): a ValueError traceback, or a
    # pattern read as 12 or 321
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "catstats.cli", "average", "--pattern", pattern, "--max-n", "5"],
        env=env, capture_output=True, text=True, encoding="utf-8",
    )
    assert done.returncode == EXIT_USAGE
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr == f"error: cannot parse permutation {pattern!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "av132", "--k", "2", "--max-n", "99"),
        ("--family", "av123", "--k", "2", "--prefix-len", "12"),
    ],
)
def test_census_rejects_the_other_familys_option(capsys, argv):
    rc, out, err = run(capsys, "census", *argv)
    assert rc == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")


def test_out_into_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    dest = tmp_path / "missing" / "x"
    rc, out, err = run(
        capsys,
        "moments", "--family", "av132", "--stat", "12", "--max-n", "3", "--out", str(dest),
    )
    assert rc == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot write {dest}")
    assert not dest.parent.exists()


@pytest.mark.parametrize("option", ["--tau-skew", "--tau-kurt", "--epsilon"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_abnormal_thresholds_must_be_finite_and_positive(capsys, option, value):
    rc, out, err = run(
        capsys,
        "abnormal", "--family", "synthetic", "--stat", "binomial", "--n-max", "60",
        "--format", "json", f"{option}={value}",
    )
    assert rc == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {option[2:].replace('-', '_')} must be a finite number > 0")


def test_moments_full_rejects_a_negative_order(capsys):
    argv = ("moments", "--family", "av132", "--stat", "21", "--max-n", "3", "--mode", "full")
    rc, out, err = run(capsys, *argv, "--r", "-1")
    assert rc == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: moment order r must be >= 0, got r = -1")
    rc, out, _ = run(capsys, *argv, "--r", "0")
    assert rc == EXIT_OK
    assert out.splitlines()[-1] == "n=3  mass=5  (standardized moments need r_max >= 2)"


@pytest.mark.parametrize(
    "mode,r,least", [("truncated", "0", 1), ("truncated", "-2", 1), ("full", "-1", 0)]
)
def test_moments_checks_the_order_before_evaluating(capsys, monkeypatch, mode, r, least):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated before the moment order was checked")

    monkeypatch.setattr("catstats.cli.eval_full", refuse)
    monkeypatch.setattr("catstats.cli.eval_truncated", refuse)
    rc, out, err = run(
        capsys, "moments", "--family", "av123", "--stat", "213", "--max-n", "64",
        "--mode", mode, "--r", r,
    )
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == f"error: moment order r must be >= {least}, got r = {r}\n"


def test_out_dir_env_redirects_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CATSTATS_OUT_DIR", str(tmp_path))
    rc, out, err = run(
        capsys,
        "wenum", "--family", "av132", "--stat", "21", "--n", "2",
        "--format", "json", "--out", "w.json",
    )
    assert rc == EXIT_OK
    assert (tmp_path / "w.json").is_file()
    rows = json.loads((tmp_path / "w.json").read_text())["rows"]
    assert [r["poly"] for r in rows] == ["1", "1", "1 + t"]


def test_outputs_are_byte_stable(capsys, tmp_path):
    argv = [
        "moments", "--family", "av123", "--stat", "213", "--max-n", "6",
        "--format", "json",
    ]
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2


def test_usage_errors_exit_2(capsys):
    rc, _, err = run(capsys, "wenum", "--family", "av132", "--stat", "999", "--n", "3")
    assert rc == EXIT_USAGE
    assert "error:" in err
    with pytest.raises(SystemExit) as exc:
        main(["wenum", "--family", "av999", "--stat", "21", "--n", "3"])
    assert exc.value.code == 2


# spellings that int() or float() would read, and the grammar refuses
REFUSED_NUMBERS = [
    (["average", "--pattern", "12", "--max-n"], "٥"),
    (["wenum", "--family", "av132", "--stat", "21", "--n"], "1_0"),
    (["wenum", "--family", "av132", "--stat", "21", "--n"], " 3"),
    (["wenum", "--family", "av132", "--stat", "21", "--n"], "+3"),
    (["wenum", "--family", "av132", "--stat", "21", "--n"], "3.0"),
    (["oracle", "verify", "--max-n"], "３"),
    (["abnormal", "--family", "av132", "--stat", "21", "--tau-skew"], "０.５"),
    (["abnormal", "--family", "av132", "--stat", "21", "--epsilon"], "0.0_1"),
    (["abnormal", "--family", "av132", "--stat", "21", "--epsilon"], "NaN"),
    (["abnormal", "--family", "av132", "--stat", "21", "--tau-kurt"], "Infinity"),
    (["abnormal", "--family", "av132", "--stat", "21", "--tau-kurt"], "1.5.2"),
    (["abnormal", "--family", "av132", "--stat", "21", "--tau-kurt"], "0x1p-2"),
    (["abnormal", "--family", "av132", "--stat", "21", "--tau-kurt"], "1e"),
    (["census", "--family", "av132", "--k"], "0x10"),
    (["census", "--family", "av132", "--k"], ""),
]


@pytest.mark.parametrize("head,number", REFUSED_NUMBERS)
def test_numbers_outside_the_ascii_grammar_exit_2(capsys, head, number):
    with pytest.raises(SystemExit) as exc:
        main([*head, number])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument {head[-1]}: not a" in err and repr(number) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spelling,plain", [("1e-1", "0.1"), (".1", "0.1"), ("1.", "1"), ("1E0", "1")])
def test_decimal_spellings_give_the_plain_decimal(capsys, spelling, plain):
    head = ["abnormal", "--family", "synthetic", "--stat", "binomial", "--n-max", "60"]
    assert run(capsys, *head, "--tau-skew", spelling) == run(capsys, *head, "--tau-skew", plain)


def test_every_numeric_option_reads_the_ascii_grammar():
    from catstats.cli import _decimal, _integer, build_parser

    parsers = build_parser()._subparsers._group_actions[0].choices.values()
    types = {a.type for p in parsers for a in p._actions if a.type is not None}
    assert types == {_integer, _decimal}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out

import json
import os
from fractions import Fraction

import pytest

from catstats import seqio
from catstats.errors import UsageError
from catstats.seqio import (
    atomic_write_text,
    load_sequence,
    parse_sequence_obj,
    sequence_file,
)


def test_roundtrip_through_disk(tmp_path):
    seq = sequence_file("demo", [1, 7, Fraction(3, 2)], offset=1)
    path = tmp_path / "demo.json"
    atomic_write_text(path, json.dumps(seq.to_json_obj()))
    assert load_sequence(path) == seq


def test_integer_values_serialize_as_ints():
    obj = sequence_file("d", [0, 2, 817, Fraction(4, 2)]).to_json_obj()
    assert obj["values"] == [0, 2, 817, 2]
    obj = sequence_file("d", [Fraction(1, 2)]).to_json_obj()
    assert obj["values"] == ["1/2"]
    assert sequence_file("c", [3]).to_json_obj() == {"name": "c", "offset": 0, "values": [3]}


def test_parse_accepts_int_and_fraction_strings():
    seq = parse_sequence_obj(
        {"name": "s", "offset": 0, "values": [1, "2/1", "-3/4"]}, "mem"
    )
    assert seq.values == (1, 2, Fraction(-3, 4))


def test_parse_validation_errors():
    good = {"name": "s", "offset": 0, "values": [1]}
    bad_cases = [
        {},
        {"name": "s", "values": [1]},
        {"name": "s", "offset": 0},
        {"name": 3, "offset": 0, "values": [1]},
        {"name": "s", "offset": "0", "values": [1]},
        {"name": "s", "offset": True, "values": [1]},
        {"name": "s", "offset": 0, "values": 5},
        {"name": "s", "offset": 0, "values": [1.5]},
        {"name": "s", "offset": 0, "values": ["x/y"]},
        {"name": "s", "offset": 0, "values": [True]},
    ]
    parse_sequence_obj(good, "mem")
    for bad in bad_cases:
        with pytest.raises(UsageError):
            parse_sequence_obj(bad, "mem")


@pytest.mark.parametrize(
    "value", ["1_000", " 1", "1 ", "+1", "1/-2", "1/+2", "\u0661", "\u00b2", "1/", "/2", "-"]
)
def test_parse_refuses_what_int_accepts_beyond_the_number_grammar(value):
    # a value string is -?[0-9]+(/[0-9]+)? and nothing else int() would read
    obj = {"name": "s", "offset": 0, "values": [1, value]}
    with pytest.raises(UsageError, match=r"^mem: values\[1\] is not a rational: "):
        parse_sequence_obj(obj, "mem")


def test_parse_refuses_a_zero_denominator():
    with pytest.raises(UsageError, match=r"values\[0\] is not a rational: '1/0'"):
        parse_sequence_obj({"name": "s", "offset": 0, "values": ["1/0"]}, "mem")


def test_unknown_keys_are_ignored_on_load():
    obj = {"name": "s", "offset": 0, "values": [1, 2], "tool": "catstats", "k": 3}
    seq = parse_sequence_obj(obj, "mem")
    assert seq == sequence_file("s", [1, 2])
    assert seq.to_json_obj() == {"name": "s", "offset": 0, "values": [1, 2]}


def test_load_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all{")
    with pytest.raises(UsageError):
        load_sequence(path)


def test_load_names_a_missing_file_once(tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(UsageError) as info:
        load_sequence(path)
    assert str(info.value) == f"cannot read sequence file {path}: No such file or directory"


def test_load_refuses_a_name_that_would_split_a_header_line(tmp_path):
    path = tmp_path / "s.json"
    for name in ("a\nb", "a\rb", "tab\there"):
        path.write_text(json.dumps({"name": name, "offset": 0, "values": [1]}))
        with pytest.raises(UsageError) as info:
            load_sequence(path)
        assert str(info.value) == f"{path}: name must be printable, got {name!r}"


def test_atomic_write_replaces_and_cleans_up(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text(target, "new contents")
    assert target.read_text() == "new contents"
    leftovers = [p for p in os.listdir(tmp_path) if p != "out.txt"]
    assert leftovers == []


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_text("old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(seqio.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write_text(target, "new contents")
    assert target.read_text() == "old"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o002, 0o664)], ids=["022", "002"])
def test_atomic_write_gives_a_new_file_the_mode_open_would(tmp_path, umask, mode):
    target = tmp_path / "new.txt"
    old = os.umask(umask)
    try:
        atomic_write_text(target, "x")
    finally:
        os.umask(old)
    assert target.stat().st_mode & 0o777 == mode

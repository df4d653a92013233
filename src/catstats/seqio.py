"""Sequence files: named exact-rational sequences with an explicit offset.

The on-disk shape is JSON:

    {"name": "...", "offset": 0, "values": ["1", "3/2", ...]}

Values are "num/den" strings (plain integers allowed) so nothing is lost to
floating point.  The offset records the index of the first value, which
matters when a recurrence only holds from some starting index on.  Other
keys (config echoes and the like) are ignored on load and not kept.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from typing import NamedTuple

from .errors import UsageError
from .multipoly import coeff_from_str, coeff_to_str, norm_coeff


class SequenceFile(NamedTuple):
    name: str
    offset: int
    values: "tuple[Fraction | int, ...]"

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "offset": self.offset,
            "values": [v if isinstance(v, int) else coeff_to_str(v) for v in self.values],
        }


def sequence_file(name, values, offset: int = 0) -> SequenceFile:
    vals = tuple(norm_coeff(v) for v in values)
    return SequenceFile(str(name), int(offset), vals)


def parse_sequence_obj(obj, source: str = "sequence") -> SequenceFile:
    if not isinstance(obj, dict):
        raise UsageError(f"{source}: expected a JSON object")
    missing = [k for k in ("name", "offset", "values") if k not in obj]
    if missing:
        raise UsageError(f"{source}: missing required keys {missing}")
    name = obj["name"]
    offset = obj["offset"]
    values = obj["values"]
    if not isinstance(name, str):
        raise UsageError(f"{source}: name must be a string")
    if not name.isprintable():
        # the name is echoed into one-line text headers
        raise UsageError(f"{source}: name must be printable, got {name!r}")
    if not isinstance(offset, int) or isinstance(offset, bool):
        raise UsageError(f"{source}: offset must be an integer")
    if not isinstance(values, list):
        raise UsageError(f"{source}: values must be a list")
    parsed = []
    for i, v in enumerate(values):
        if isinstance(v, int) and not isinstance(v, bool):
            parsed.append(v)
        elif isinstance(v, str):
            try:
                parsed.append(coeff_from_str(v))
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"{source}: values[{i}] is not a rational: {v!r}")
        else:
            raise UsageError(f"{source}: values[{i}] must be an int or 'num/den' string")
    return SequenceFile(name, offset, tuple(parsed))


def load_sequence(path) -> SequenceFile:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read sequence file {path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, bytes that are not UTF-8 and
        # integer literals past the interpreter's digit limit; RecursionError
        # is nesting deeper than the decoder can follow
        raise UsageError(f"{path} is not valid JSON: {exc}")
    return parse_sequence_obj(obj, source=str(path))


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see halves.

    The file gets the mode open(path, "w") gives a new file, 0o666 less the
    umask, rather than mkstemp's 0o600."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".catstats-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


"""(Re)write tests/golden.json, the byte-identity corpus of the command line.

    PYTHONPATH=src python3 tests/record_golden.py          # record
    PYTHONPATH=src python3 tests/record_golden.py --check  # compare only

With --check nothing is written: it lists each case whose exit code or
digests differ from the record and exits 1 if there is one.  The cases and
the way each is run come from tests/test_golden.py, which replays them.
"""

from __future__ import annotations

import json
import sys
import tempfile

from test_golden import GOLDEN, changed, replay


def main(argv: "list[str]") -> int:
    with tempfile.TemporaryDirectory() as workdir:
        got = replay(workdir)
    if argv == ["--check"]:
        recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
        diff = changed(recorded, got)
        for case in diff:
            print(f"changed: {case}")
        print(f"{len(got)} cases, {len(diff)} changed")
        return 1 if diff else 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(got)} cases in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

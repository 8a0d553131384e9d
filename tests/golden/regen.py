"""Rewrite ``expected.jsonl`` from the case generator and the program as it is.

    python tests/golden/regen.py

Prints the ids of the cases added, removed or changed byte for byte.  On one
machine, 0 changed means every output is bit for bit as before; a change
that moves output on purpose regenerates the file and lists the changed ids.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from cases import EXPECTED, cases, run  # noqa: E402


def main():
    lines = EXPECTED.read_text().splitlines() if EXPECTED.exists() else []
    old = {json.loads(line)["id"]: line for line in lines}
    new = {}
    for case in cases():
        assert case["id"] not in new, case["id"]
        new[case["id"]] = json.dumps({**case, **run(case)}, separators=(",", ":"))
    EXPECTED.write_text("".join(line + "\n" for line in new.values()))
    report = {
        "added": [k for k in new if k not in old],
        "removed": [k for k in old if k not in new],
        "changed": [k for k in new if k in old and old[k] != new[k]],
    }
    print(f"{len(new)} cases: " + ", ".join(f"{len(ids)} {kind}" for kind, ids in report.items()))
    for kind, ids in report.items():
        for k in ids:
            print(kind, k)


if __name__ == "__main__":
    main()

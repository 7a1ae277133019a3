"""Write type_counts.json beside this script: for every Frobenius number F
in 1..F_MAX (default 60), the number of almost symmetric numerical
semigroups with Frobenius number F of each type.

    PYTHONPATH=src python3 tests/make_type_counts.py [F_MAX]
    PYTHONPATH=src python3 tests/make_type_counts.py --check [F_MAX]

Each F's counts come from an answer on which the paper's two algorithms
agree: the gap masks that descending.descend(F, 1) yields and those of
ascending.as_all_ascending(F) must be one set, with no mask twice.
Otherwise the script exits with status 1 and writes nothing.  F = 60
holds 427069 semigroups; the run takes about a minute and under 100 MiB.

--check writes nothing: it compares the counts for F <= F_MAX with the
committed table, and exits with status 1 at the first F that differs.
It is the opt-in check of the table's rows beyond the tier-1 tests
(test_type_counts.py), which stop at F = 44.
"""

import json
import sys
from collections import Counter
from pathlib import Path

from almostsym.ascending import as_all_ascending
from almostsym.descending import descend

TABLE = Path(__file__).resolve().parent / "type_counts.json"


def type_counts(F: int) -> dict[int, int]:
    """Per type, the AS semigroups with Frobenius number F, checked as
    the module docstring says."""
    nodes = list(descend(F, 1))
    masks = {node[0] for node in nodes}
    ascending = [S.mask for S in as_all_ascending(F)]
    if len(masks) != len(nodes) or len(ascending) != len(nodes) or set(ascending) != masks:
        sys.exit(f"F = {F}: descending and ascending disagree")
    return dict(sorted(Counter(pf.bit_count() for _, _, pf, _ in nodes).items()))


def main() -> None:
    args = sys.argv[1:]
    check = args[:1] == ["--check"]
    if check:
        args = args[1:]
    f_max = int(args[0]) if args else 60
    if check:
        committed = json.loads(TABLE.read_text())["counts"]
        for F in range(1, f_max + 1):
            if {str(t): n for t, n in type_counts(F).items()} != committed[str(F)]:
                sys.exit(f"F = {F}: the counts differ from {TABLE.name}")
        return
    rows = [f'    "{F}": {json.dumps({str(t): n for t, n in type_counts(F).items()})}'
            for F in range(1, f_max + 1)]
    TABLE.write_text('{\n  "made_by": "tests/make_type_counts.py",\n'
                     '  "counts": {\n' + ",\n".join(rows) + "\n  }\n}\n")


if __name__ == "__main__":
    main()

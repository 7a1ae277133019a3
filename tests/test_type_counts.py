"""The committed table of the AS semigroups with Frobenius number F per
type, F = 1..60 (type_counts.json, made by make_type_counts.py from
answers on which ascending and descending agree), against the
enumerators and the CLI as they are now."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import almostsym
from almostsym import compute_stats
from almostsym.ascending import as_all_ascending
from almostsym.descending import descend

HERE = Path(__file__).resolve().parent
COUNTS = json.loads((HERE / "type_counts.json").read_text())["counts"]
PACKAGE_ROOT = str(Path(almostsym.__file__).resolve().parent.parent)


def table(F):
    return Counter({int(t): n for t, n in COUNTS[str(F)].items()})


def test_table_covers_f_1_to_60():
    assert list(COUNTS) == [str(F) for F in range(1, 61)]
    totals = {F: table(F).total() for F in (20, 30, 40, 48, 55, 60)}
    assert totals == {20: 103, 30: 821, 40: 7694, 48: 38043, 55: 259874, 60: 427069}


def test_descend_counts_per_type_match_the_table():
    for F in range(1, 45):
        assert Counter(pf.bit_count() for _, _, pf, _ in descend(F, 1)) == table(F), F


def test_ascending_counts_per_type_match_the_table():
    for F in (21, 32, 39, 44):
        assert Counter(compute_stats(S).type_ for S in as_all_ascending(F)) == table(F), F


def test_cli_records_of_f40_match_the_table():
    # 7694 records, so both runs write through the record pipeline
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    for mode in ("as-descending", "as-ascending"):
        proc = subprocess.run([sys.executable, "-m", "almostsym.cli", mode,
                               "--frobenius", "40"], env=env, capture_output=True,
                              timeout=120)
        assert proc.returncode == 0 and proc.stderr == b""
        types = Counter(json.loads(line)["type"] for line in proc.stdout.splitlines())
        assert types == table(40), mode

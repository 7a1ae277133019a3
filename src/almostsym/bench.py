"""Wall-clock comparison of the enumeration algorithms: the paper's two
procedures against the brute-force oracle, on one list of Frobenius
numbers.

The report is the plain JSON object that `bench --out` writes.  Each
F and each algorithm may appear once in its list, and every F is at
least 1 (InvalidParameters otherwise, before any pair is timed).  The
answers at one F, canonical results, are compared whole (==), outside
the timed span.  The oracle's F cap is its own (oracle.DEFAULT_F_MAX):
a pair the oracle refuses is left out of the report.
"""

from __future__ import annotations

import datetime
import platform
import time

from .core import InvalidParameters, LimitExceeded
from .ascending import as_all_ascending
from .descending import as_all_descending
from .oracle import oracle_as

DEFAULT_F_LIST = (13, 14, 15, 20, 25, 30, 40)

_ALGORITHMS = {
    "ascending": as_all_ascending,
    "descending": as_all_descending,
    "oracle": oracle_as,
}


def run_bench(f_list=DEFAULT_F_LIST, algorithms=("ascending", "descending")) -> dict:
    """Time each (F, algorithm) pair and return the report: "rows" of
    frobenius, algorithm, seconds and count, in that order, and
    "metadata".  A pair whose algorithm raises LimitExceeded is left out;
    LimitExceeded when that leaves no pair to time, RuntimeError when two
    answers at one F differ."""
    f_list = tuple(f_list)
    algorithms = tuple(algorithms)
    if not f_list:
        raise InvalidParameters("empty Frobenius list")
    if min(f_list) < 1:
        raise InvalidParameters(f"Frobenius number below 1 in {list(f_list)}")
    if not algorithms:
        raise InvalidParameters("empty algorithm list")
    for name in algorithms:
        if name not in _ALGORITHMS:
            raise InvalidParameters(f"unknown algorithm {name!r}")
    if len(set(f_list)) < len(f_list):
        raise InvalidParameters(f"repeated Frobenius number in {list(f_list)}")
    if len(set(algorithms)) < len(algorithms):
        raise InvalidParameters(f"repeated algorithm in {list(algorithms)}")
    rows = []
    refused = None
    for F in f_list:
        expected = None
        for name in algorithms:
            start = time.perf_counter()
            try:
                result = _ALGORITHMS[name](F)
            except LimitExceeded as exc:
                refused = exc
                continue
            elapsed = time.perf_counter() - start
            rows.append({"frobenius": F, "algorithm": name,
                         "seconds": elapsed, "count": len(result)})
            if expected is None:
                expected = name, result
            elif result != expected[1]:
                raise RuntimeError(f"algorithms disagree at F={F}: "
                                   f"{expected[0]} and {name}")
    if not rows:
        raise LimitExceeded(f"nothing to time: {refused}")
    metadata = {
        "machine": platform.platform(),
        "python": platform.python_version(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return {"rows": rows, "metadata": metadata}


def render_table(report: dict) -> str:
    """Console table of a run_bench report: one column per Frobenius
    number, one timing row per algorithm, plus a row with the (agreeing)
    result counts."""
    rows = report["rows"]
    f_values = sorted({r["frobenius"] for r in rows})
    algorithms = list(dict.fromkeys(r["algorithm"] for r in rows))
    cell = {(r["frobenius"], r["algorithm"]): r["seconds"] for r in rows}
    count = {r["frobenius"]: r["count"] for r in rows}

    width = 11
    lines = ["Frobenius(S)".ljust(12) + "".join(str(F).rjust(width) for F in f_values)]
    for name in algorithms:
        row = [name.ljust(12)]
        for F in f_values:
            seconds = cell.get((F, name))
            row.append(("-" if seconds is None else f"{seconds:.3f}").rjust(width))
        lines.append("".join(row))
    lines.append("count".ljust(12) + "".join(str(count[F]).rjust(width) for F in f_values))
    return "\n".join(lines)

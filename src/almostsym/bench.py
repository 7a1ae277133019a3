"""Wall-clock comparison of the enumeration algorithms."""

from __future__ import annotations

import datetime
import platform
import time
from dataclasses import dataclass, field, asdict

from .core import InvalidParameters, LimitExceeded
from .ascending import as_all_ascending
from .descending import as_all_descending
from .oracle import oracle_as, DEFAULT_F_MAX

DEFAULT_F_LIST = (13, 14, 15, 20, 25, 30, 40)

_ALGORITHMS = {
    "ascending": as_all_ascending,
    "descending": as_all_descending,
    "oracle": oracle_as,
}


@dataclass(frozen=True)
class BenchRow:
    frobenius: int
    algorithm: str
    seconds: float
    count: int


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"rows": [asdict(r) for r in self.rows],
                "metadata": dict(self.metadata)}


def run_bench(f_list=DEFAULT_F_LIST, algorithms=("ascending", "descending")) -> BenchReport:
    """Time each (F, algorithm) pair and check the counts agree per F.
    The oracle skips every F above its limit; LimitExceeded when that
    leaves no pair to time."""
    f_list = tuple(f_list)
    algorithms = tuple(algorithms)
    if not f_list:
        raise InvalidParameters("empty Frobenius list")
    if not algorithms:
        raise InvalidParameters("empty algorithm list")
    for name in algorithms:
        if name not in _ALGORITHMS:
            raise InvalidParameters(f"unknown algorithm {name!r}")
    rows = []
    for F in f_list:
        counts = {}
        for name in algorithms:
            if name == "oracle" and F > DEFAULT_F_MAX:
                continue
            start = time.perf_counter()
            result = _ALGORITHMS[name](F)
            elapsed = time.perf_counter() - start
            counts[name] = len(result)
            rows.append(BenchRow(F, name, elapsed, len(result)))
        if len(set(counts.values())) > 1:
            raise RuntimeError(f"algorithms disagree at F={F}: {counts}")
    if not rows:  # the oracle alone, above its limit at every F
        raise LimitExceeded(f"nothing to time: oracle limited to F <= {DEFAULT_F_MAX}")
    metadata = {
        "machine": platform.platform(),
        "python": platform.python_version(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return BenchReport(tuple(rows), metadata)


def render_table(report: BenchReport) -> str:
    """Console table: one column per Frobenius number, one timing row per
    algorithm, plus a row with the (agreeing) result counts."""
    f_values = sorted({r.frobenius for r in report.rows})
    algorithms = []
    for r in report.rows:
        if r.algorithm not in algorithms:
            algorithms.append(r.algorithm)
    cell = {(r.frobenius, r.algorithm): r for r in report.rows}

    width = 11
    lines = ["Frobenius(S)".ljust(12) + "".join(str(F).rjust(width) for F in f_values)]
    for name in algorithms:
        row = [name.ljust(12)]
        for F in f_values:
            r = cell.get((F, name))
            row.append((f"{r.seconds:.3f}" if r else "-").rjust(width))
        lines.append("".join(row))
    counts = ["count".ljust(12)]
    for F in f_values:
        n = next((r.count for r in report.rows if r.frobenius == F), None)
        counts.append(str(n).rjust(width))
    lines.append("".join(counts))
    return "\n".join(lines)

"""Chain the committed benchmark records into one perf trajectory.

Each BENCH_<pr>.json at the root of the repository holds, under
"end_to_end", one set of alternating parent/change perfbench pairs per
workload, with each side's median of every end-to-end metric.  Medians
taken in different PRs do not compare, because the host's speed moved
between them; the two sides of one PR were measured together.  So for
each PR and workload the script prints the change/parent ratio of the
wall_s medians, and the product of those ratios since the seed.  Two
last columns follow.  cpu_s is the change/parent ratio of the medians of
the file's "cpu_s": the user plus system time of every process of its
claimed request, measured beside its wall in fresh-process pairs.
code_lines gives the src/ code lines after the PR ("change" of the
file's "code_lines", counted by tests/code_lines.py).  Either is - in a
file that records none.

    python3 tests/trajectory.py [DIRECTORY]

DIRECTORY defaults to the repository root.  After the table the script
names the gaps: the PRs with no file, and the files whose "end_to_end"
does not hold one pair set per workload (BENCH_14 holds nested sets),
which the chain leaves out.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRIC = "wall_s"


def read(directory: Path) -> tuple[dict[int, dict[str, float]], list[int], dict[int, int]]:
    """({pr: {workload: change/parent ratio of the METRIC medians}}, in
    increasing pr, the PRs whose file holds no pair set per workload,
    and {pr: code lines after it} of the files that record them), from
    every BENCH_<pr>.json in directory."""
    ratios, nested, lines = {}, [], {}
    for path in directory.glob("BENCH_*.json"):
        pr = int(path.stem.removeprefix("BENCH_"))
        bench = json.loads(path.read_text())
        if "code_lines" in bench:
            lines[pr] = bench["code_lines"]["change"]
        sets = bench["end_to_end"]
        if not all("metrics" in pairs for pairs in sets.values()):
            nested.append(pr)
            continue
        ratios[pr] = {
            workload: pairs["metrics"][METRIC]["change"]["median"]
            / pairs["metrics"][METRIC]["parent"]["median"]
            for workload, pairs in sets.items()}
    return dict(sorted(ratios.items())), sorted(nested), lines


def cpu_ratios(directory: Path) -> dict[int, float]:
    """{pr: change/parent ratio of the cpu_s medians} of every
    BENCH_<pr>.json in directory that records a "cpu_s"."""
    out = {}
    for path in directory.glob("BENCH_*.json"):
        cpu = json.loads(path.read_text()).get("cpu_s")
        if cpu is not None:
            out[int(path.stem.removeprefix("BENCH_"))] = \
                cpu["change"]["median"] / cpu["parent"]["median"]
    return out


def chained(ratios: dict[int, dict[str, float]]) -> dict[int, dict[str, float]]:
    """{pr: {workload: the product of the workload's ratios up to pr}}."""
    product: dict[str, float] = {}
    out = {}
    for pr, row in ratios.items():
        for workload, ratio in row.items():
            product[workload] = product.get(workload, 1.0) * ratio
        out[pr] = dict(product)
    return out


def main(directory: Path) -> None:
    ratios, nested, lines = read(directory)
    cpu = cpu_ratios(directory)
    chain = chained(ratios)
    workloads = list(dict.fromkeys(w for row in ratios.values() for w in row))
    print(f"{METRIC}: change/parent median ratio, then chained since the seed")
    print("  PR" + "".join(f"  {w:<15}" for w in [*workloads, "cpu_s", "code_lines"]).rstrip())
    for pr, row in ratios.items():
        cells = [f"{row[w]:.3f}  {chain[pr][w]:.3f}" if w in row else "-" for w in workloads]
        cells.append(f"{cpu[pr]:.3f}" if pr in cpu else "-")
        cells.append(lines.get(pr, "-"))
        print(f"{pr:4d}" + "".join(f"  {cell:<15}" for cell in cells).rstrip())
    last = max([*ratios, *nested], default=0)
    missing = [pr for pr in range(1, last + 1) if pr not in ratios and pr not in nested]
    print("no file: PR " + ", ".join(map(str, missing)))
    print("left out, nested pair sets: PR " + ", ".join(map(str, nested)))


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT)

"""tests/trajectory.py over the committed BENCH_<pr>.json files."""

import json
import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "trajectory.py"


def test_trajectory_chains_the_committed_bench_files(capsys):
    # run_path compiles the source in memory: nothing is written beside it
    trajectory = runpy.run_path(str(SCRIPT), run_name="trajectory")
    root = trajectory["ROOT"]
    ratios, nested, lines = trajectory["read"](root)
    assert nested == [14]
    assert sorted([*ratios, *nested]) == sorted(
        int(path.stem.removeprefix("BENCH_")) for path in root.glob("BENCH_*.json"))
    through_20 = trajectory["chained"](ratios)[20]
    assert {w: round(r, 3) for w, r in through_20.items()} == \
        {"descend-f48": 0.053, "ascend-f48": 0.089, "typed-queries": 0.538}
    assert {pr: lines[pr] for pr in (19, 20, 21, 22, 23, 24, 25, 26, 27, 28)} == \
        {19: 917, 20: 908, 21: 898, 22: 896, 23: 888, 24: 885, 25: 926, 26: 906,
         27: 931, 28: 939}

    trajectory["main"](root)
    out = capsys.readouterr().out.splitlines()
    assert out[1].split()[-1] == "code_lines"
    assert out[-2].startswith("no file: PR 1, 4, 5, 6, 11, 18")
    assert out[-1] == "left out, nested pair sets: PR 14"
    rows = [line.split() for line in out[2:-2]]
    assert [row[0] for row in rows] == [str(pr) for pr in ratios]
    assert [row[-1] for row in rows] == [str(lines.get(pr, "-")) for pr in ratios]


def test_cpu_column_reads_the_files_that_record_it(tmp_path, capsys):
    # a cpu_s column between the workloads and code_lines: the change/parent
    # ratio of the cpu_s medians where a file records one, - elsewhere
    def side(median):
        return {"median": median}

    def bench(wall, cpu=None):
        data = {"end_to_end": {"w": {"metrics": {"wall_s": {
            "parent": side(1.0), "change": side(wall)}}}},
            "code_lines": {"change": 900}}
        if cpu is not None:
            data["cpu_s"] = {"parent": side(0.8), "change": side(cpu)}
        return json.dumps(data)

    (tmp_path / "BENCH_1.json").write_text(bench(0.5))
    (tmp_path / "BENCH_2.json").write_text(bench(0.8, cpu=0.6))
    trajectory = runpy.run_path(str(SCRIPT), run_name="trajectory")
    assert trajectory["cpu_ratios"](tmp_path) == {2: 0.6 / 0.8}
    trajectory["main"](tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["PR", "w", "cpu_s", "code_lines"]
    assert [line.split() for line in out[2:4]] == [
        ["1", "0.500", "0.500", "-", "900"], ["2", "0.800", "0.400", "0.750", "900"]]

import errno
import functools
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import almostsym
from almostsym import cli, compute_stats, from_gaps, from_generators
from almostsym.cli import main
from almostsym.descending import as_all_descending
from almostsym.irreducible import enumerate_irreducible
from almostsym.oracle import all_with_frobenius

# the directory holding the package, for CLI runs in a fresh interpreter
PACKAGE_ROOT = str(Path(almostsym.__file__).resolve().parent.parent)


def reference_record(S):
    """The record of S built as a dict in field order and serialized by
    json.dumps; the CLI's mask formatter must write the same line."""
    st_ = compute_stats(S)
    return json.dumps({
        "gaps": list(S.gaps),
        "msg": list(st_.msg),
        "pf": list(st_.pf),
        "frobenius": st_.frobenius,
        "genus": st_.genus,
        "type": st_.type_,
        "multiplicity": st_.multiplicity,
    })


def assert_record_matches(S):
    line = cli._record(S)
    assert line == reference_record(S)
    assert json.dumps(json.loads(line)) == line


def cli_process(*argv, python_flags=(), **kwargs):
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    return subprocess.Popen([sys.executable, *python_flags, "-m", "almostsym.cli",
                             *argv], env=env, **kwargs)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_gens(capsys):
    code, out, _ = run(capsys, "info", "--gens", "6,7,8,9,10")
    assert code == 0
    rec = json.loads(out)
    assert rec["frobenius"] == 11
    assert rec["genus"] == 6
    assert rec["msg"] == [6, 7, 8, 9, 10]
    assert list(rec) == ["gaps", "msg", "pf", "frobenius", "genus", "type",
                         "multiplicity"]


def test_info_gaps(capsys):
    code, out, _ = run(capsys, "info", "--gaps", "1,2,3,4,5")
    assert code == 0
    rec = json.loads(out)
    assert rec["type"] == 5
    assert rec["pf"] == [1, 2, 3, 4, 5]


def test_info_not_numerical(capsys):
    code, _, err = run(capsys, "info", "--gens", "2,4")
    assert code == 2
    assert "gcd" in err


def test_info_closure_violation(capsys):
    code, _, err = run(capsys, "info", "--gaps", "2")
    assert code == 2


def test_as_ascending_11_7(capsys):
    code, out, _ = run(capsys, "as-ascending", "--frobenius", "11", "--type", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert [json.loads(l)["gaps"] for l in lines] == [
        [1, 2, 3, 4, 5, 6, 7, 8, 11], [1, 2, 3, 4, 5, 6, 7, 9, 11]]


def test_irreducible_count_only(capsys):
    code, out, _ = run(capsys, "irreducible", "--frobenius", "11", "--count-only")
    assert code == 0
    records = [json.loads(l) for l in out.strip().splitlines()]
    assert records[-1] == {"total": 6}


def test_as_descending_5(capsys):
    code, out, _ = run(capsys, "as-descending", "--frobenius", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_oracle_limit(capsys):
    code, _, err = run(capsys, "oracle", "--frobenius", "30")
    assert code == 3


def test_dot_output(capsys):
    code, out, _ = run(capsys, "irreducible", "--frobenius", "11", "--dot")
    assert code == 0
    assert out.startswith("digraph tree {")
    assert '"<6,7,8,9,10>" -> "<3,7>" [label="8"];' in out
    assert out.rstrip().endswith("}")


def test_dot_rejected_for_non_tree_mode(capsys):
    code, _, err = run(capsys, "as-ascending", "--frobenius", "11", "--dot")
    assert code == 2


def reference_dot_edge(edge):
    """The DOT line of a tree edge, each end labeled by its minimal
    generators joined with ","."""
    def label(S):
        return "<" + ",".join(map(str, compute_stats(S).msg)) + ">"
    return f'  "{label(edge.parent)}" -> "{label(edge.child)}" [label="{edge.x}"];'


def test_dot_follows_the_type_filter(capsys):
    # --dot draws the edge into each node of the request's answer, the
    # answer that --count-only counts, and no other edge
    trees = {"irreducible": enumerate_irreducible,
             "as-descending": functools.partial(as_all_descending, with_edges=True)}
    for mode, tree in trees.items():
        for F in range(1, 21):
            edges = tree(F).edges
            for flags in [()] + [(flag, str(t)) for t in range(1, F + 2)
                                 for flag in ("--type", "--min-type")]:
                argv = (mode, "--frobenius", str(F), *flags)
                code, counts, _ = run(capsys, *argv, "--count-only")
                assert code == 0
                types = {r["type"] for r in map(json.loads, counts.splitlines())
                         if "type" in r}
                code, dot, _ = run(capsys, *argv, "--dot")
                assert code == 0
                assert dot.splitlines() == ["digraph tree {", *(
                    reference_dot_edge(e) for e in edges
                    if compute_stats(e.child).type_ in types), "}"]


def test_min_type(capsys):
    code, out, _ = run(capsys, "as-descending", "--frobenius", "11",
                       "--min-type", "7")
    assert code == 0
    records = [json.loads(l) for l in out.strip().splitlines()]
    assert all(r["type"] >= 7 for r in records)
    assert sum(1 for r in records if r["type"] == 7) == 2


def test_bench(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "bench", "--frobenius-list", "11",
                       "--algorithms", "ascending,descending,oracle",
                       "--out", str(report_path))
    assert code == 0
    assert out.startswith("Frobenius(S)")
    report = json.loads(report_path.read_text())
    rows = report["rows"]
    assert len(rows) == 3
    assert len({r["count"] for r in rows}) == 1
    assert "machine" in report["metadata"]


def test_bench_empty_list(capsys):
    code, _, err = run(capsys, "bench", "--frobenius-list", "")
    assert code == 2


def test_determinism_across_threads(capsys):
    outputs = []
    for threads in ("1", "8"):
        for cmd in (["irreducible", "--frobenius", "18"],
                    ["as-ascending", "--frobenius", "18"],
                    ["as-descending", "--frobenius", "18"],
                    ["oracle", "--frobenius", "14"]):
            code, out, _ = run(capsys, *cmd, "--threads", threads)
            assert code == 0
            outputs.append(out)
    half = len(outputs) // 2
    assert outputs[:half] == outputs[half:]


def test_min_type_ascending_enumerates_irreducibles_once(capsys, monkeypatch):
    import almostsym.ascending
    import almostsym.irreducible
    import almostsym.oracle

    # the oracle answers every type question of one F from one scan
    monkeypatch.setattr(almostsym.oracle, "all_with_frobenius",
                        functools.cache(almostsym.oracle.all_with_frobenius))

    calls = []

    def counted(F, _enumerate=almostsym.irreducible.enumerate_irreducible):
        calls.append(F)
        return _enumerate(F)

    monkeypatch.setattr(almostsym.irreducible, "enumerate_irreducible", counted)
    monkeypatch.setattr(almostsym.ascending, "enumerate_irreducible", counted)
    code, out, _ = run(capsys, "as-ascending", "--frobenius", "15",
                       "--min-type", "5")
    assert code == 0
    assert calls == [15]
    _, expected, _ = run(capsys, "as-descending", "--frobenius", "15",
                         "--min-type", "5")
    assert out == expected

    # every type question of F's parity, asked of all three enumerators
    for F in range(15, 21):
        for flag in ("--type", "--min-type"):
            for t in range(2 - F % 2, F + 1, 2):
                argv = ("--frobenius", str(F), flag, str(t))
                calls.clear()
                code, out, _ = run(capsys, "as-ascending", *argv)
                assert code == 0 and calls == [F]
                assert run(capsys, "as-descending", *argv)[1] == out
                if F <= 18:
                    assert run(capsys, "oracle", *argv)[1] == out


def test_min_type_ascending_walks_removal_sets_once(capsys, monkeypatch):
    import almostsym.ascending

    walked = []

    def counted(S, kmin, kmax, _walk=almostsym.ascending._removal_sets):
        walked.append(S.mask)
        return _walk(S, kmin, kmax)

    monkeypatch.setattr(almostsym.ascending, "_removal_sets", counted)
    code, out, _ = run(capsys, "as-ascending", "--frobenius", "21",
                       "--min-type", "11")
    assert code == 0 and out
    assert len(walked) == len(set(walked))
    assert len(walked) <= len(enumerate_irreducible(21))


def test_type_ascending_walks_only_its_size(capsys, monkeypatch):
    # --type t walks removal sets up to size k(t) only, and a type that
    # cannot occur is answered without enumerating the irreducibles
    import almostsym.ascending

    sizes, calls = [], []

    def counted_sets(S, kmin, kmax, _walk=almostsym.ascending._removal_sets):
        sizes.append(kmax)
        return _walk(S, kmin, kmax)

    def counted_irr(F, _enumerate=almostsym.ascending.enumerate_irreducible):
        calls.append(F)
        return _enumerate(F)

    monkeypatch.setattr(almostsym.ascending, "_removal_sets", counted_sets)
    monkeypatch.setattr(almostsym.ascending, "enumerate_irreducible", counted_irr)
    code, out, _ = run(capsys, "as-ascending", "--frobenius", "21", "--type", "3")
    assert code == 0 and out and calls == [21] and set(sizes) == {1}
    for t in ("4", "23"):
        calls.clear()
        assert run(capsys, "as-ascending", "--frobenius", "21", "--count-only",
                   "--type", t)[:2] == (0, '{"total": 0}\n')
        assert calls == []


# --type or --min-type below 1 is invalid; a type above F, or of the other
# parity from F, is a question with an empty answer
@pytest.mark.parametrize("mode", ["irreducible", "as-ascending",
                                  "as-descending", "oracle"])
@pytest.mark.parametrize("flags, code, expected", [
    (["--type", "0"], 2, ""),
    (["--min-type", "0"], 2, ""),
    (["--type", "12"], 0, '{"total": 0}\n'),
    (["--type", "4"], 0, '{"total": 0}\n'),
], ids=["type-0", "min-type-0", "type-above-F", "type-other-parity"])
def test_type_out_of_range(capsys, mode, flags, code, expected):
    assert run(capsys, mode, "--frobenius", "11", "--count-only",
               *flags)[:2] == (code, expected)


def test_min_type_ascending_rejects_bad_frobenius(capsys):
    code, out, err = run(capsys, "as-ascending", "--frobenius", "0",
                         "--min-type", "1")
    assert code == 2
    assert out == ""


def test_duplicate_is_internal_error(capsys, monkeypatch):
    import almostsym.ascending

    # every removal set now gives back the irreducible itself
    monkeypatch.setattr(almostsym.ascending, "_remove", lambda S, A: S)
    code, out, err = run(capsys, "as-ascending", "--frobenius", "11")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "twice" in err


def test_same_output_under_python_O():
    argv = ("as-descending", "--frobenius", "20")
    outputs = []
    for flags in ((), ("-O",)):
        proc = cli_process(*argv, python_flags=flags, stdout=subprocess.PIPE)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 103  # AS semigroups with F = 20


class CountingWriter(io.StringIO):
    """An in-memory stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_records_written_in_batches(monkeypatch):
    # one write per batch of records, not two per record from print()
    out = CountingWriter()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["as-descending", "--frobenius", "30"]) == 0
    records = [reference_record(S) for S in as_all_descending(30)]
    assert len(records) > cli._WRITE_BATCH
    assert out.getvalue() == "".join(line + "\n" for line in records)
    assert out.writes == -(-len(records) // cli._WRITE_BATCH)


def test_dot_written_in_batches(monkeypatch):
    out = CountingWriter()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["as-descending", "--frobenius", "30", "--dot"]) == 0
    lines = ["digraph tree {", *map(reference_dot_edge,
                                    as_all_descending(30, with_edges=True).edges), "}"]
    assert len(lines) > cli._WRITE_BATCH
    assert out.getvalue() == "".join(line + "\n" for line in lines)
    assert out.writes == -(-len(lines) // cli._WRITE_BATCH)


def test_closed_pipe_ends_quietly():
    # the answer (about 200 kB) is larger than a pipe buffer, so the
    # writer is still printing when the reader goes away
    proc = cli_process("as-descending", "--frobenius", "30",
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert json.loads(first)["frobenius"] == 30
    assert err == b""


def test_record_matches_reference_up_to_f18():
    checked = 0
    for F in range(1, 19):
        for S in all_with_frobenius(F):
            assert_record_matches(S)
            checked += 1
    assert checked == 1654


def test_record_of_naturals():
    S = from_gaps([])
    assert_record_matches(S)
    assert json.loads(cli._record(S)) == {
        "gaps": [], "msg": [1], "pf": [], "frobenius": -1, "genus": 0,
        "type": 0, "multiplicity": 1}


# generators up to 60 give Frobenius numbers up to 59 * 58 - 1, so the
# masks span many bytes of the formatter's table
@given(st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=6))
def test_record_matches_reference_on_generated(gens):
    if math.gcd(*gens) != 1:
        return
    assert_record_matches(from_generators(gens))


def run_with_fault(argv, fault):
    """Exit status of the CLI in a fresh interpreter, after running the
    statement `fault` (empty for none) to break an internal invariant."""
    script = ("import sys, almostsym.ascending, almostsym.cli\n"
              f"{fault}\n"
              "sys.exit(almostsym.cli.main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, timeout=120)


NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full")
STDOUT_ON_DEV_FULL = "import os; os.dup2(os.open('/dev/full', os.O_WRONLY), 1)"
FAIL_AFTER_OUTPUT = ("emit = almostsym.cli._emit_result\n"
                     "def emit_then_fail(*args):\n"
                     "    emit(*args)\n"
                     "    raise RuntimeError('failed after its output')\n"
                     "almostsym.cli._emit_result = emit_then_fail")


@pytest.mark.parametrize("code, argv, fault, message", [
    (0, ["as-descending", "--frobenius", "11", "--threads", "1"], "", b""),
    (2, ["as-descending", "--frobenius", "11", "--threads", "0"], "",
     b"error: --threads"),
    (2, ["oracle", "--frobenius", "11", "--threads", "-3"], "",
     b"error: --threads"),
    (3, ["info", "--gens", "100000,100001"], "", b"error: generators allow"),
    # every removal set gives back the irreducible itself: a duplicate
    (4, ["as-ascending", "--frobenius", "11"],
     "almostsym.ascending._remove = lambda S, A: S", b"internal error:"),
    # an --out path that cannot be opened stops the run before any work
    (2, ["as-descending", "--frobenius", "5", "--out", "/nonexistent/d/x"], "",
     b"error: cannot write --out"),
    (2, ["bench", "--frobenius-list", "5", "--out", "/nonexistent/d/x"], "",
     b"error: cannot write --out"),
    (2, ["bench", "--frobenius-list", "5", "--algorithms", ","], "",
     b"error: empty algorithm list"),
    # an output that fails while being written: /dev/full takes no byte
    pytest.param(2, ["as-descending", "--frobenius", "20", "--out", "/dev/full"],
                 "", b"error: cannot write --out /dev/full: ",
                 marks=NEEDS_DEV_FULL, id="out-dev-full"),
    pytest.param(2, ["bench", "--frobenius-list", "5", "--out", "/dev/full"],
                 "", b"error: cannot write --out /dev/full: ",
                 marks=NEEDS_DEV_FULL, id="bench-out-dev-full"),
    pytest.param(2, ["as-descending", "--frobenius", "20"], STDOUT_ON_DEV_FULL,
                 b"error: cannot write stdout: ",
                 marks=NEEDS_DEV_FULL, id="stdout-dev-full"),
    # bench writes its report, then its table: the table is what fails
    pytest.param(2, ["bench", "--frobenius-list", "5", "--out", os.devnull],
                 STDOUT_ON_DEV_FULL, b"error: cannot write stdout: ",
                 marks=NEEDS_DEV_FULL, id="bench-stdout-dev-full"),
    # a run that fails with output still buffered for --out: closing the
    # file fails again, and the exit code stands
    pytest.param(4, ["as-descending", "--frobenius", "11", "--count-only",
                     "--out", "/dev/full"], FAIL_AFTER_OUTPUT,
                 b"internal error: failed after its output",
                 marks=NEEDS_DEV_FULL, id="failed-with-output-buffered"),
    # one rendering per request: the two flags exclude each other
    pytest.param(2, ["as-descending", "--frobenius", "11", "--count-only",
                     "--dot"], "", b"usage: ", id="count-only-and-dot"),
    # every F is above the oracle's limit, so no pair is timed
    pytest.param(3, ["bench", "--frobenius-list", "20", "--algorithms", "oracle"],
                 "", b"error: nothing to time", id="bench-times-nothing"),
])
def test_exit_code(code, argv, fault, message):
    proc = run_with_fault(argv, fault)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(message)
    assert b"Traceback" not in proc.stderr
    assert (proc.stdout == b"") == (code != 0)


def test_stdout_closed_at_start(capsys, tmp_path):
    # with fd 1 closed, Python starts with sys.stdout None: a command that
    # writes to stdout exits 2, one that writes only to --out completes
    def closed_stdout_run(*argv):
        proc = cli_process(*argv, cwd=tmp_path, stderr=subprocess.PIPE,
                           preexec_fn=lambda: os.close(1))
        _, err = proc.communicate(timeout=120)
        assert b"Traceback" not in err
        return proc.returncode, err

    closed = b"error: cannot write stdout: " + os.strerror(errno.EBADF).encode() + b"\n"
    assert closed_stdout_run("info", "--gens", "3,5") == (2, closed)

    _, expected, _ = run(capsys, "as-descending", "--frobenius", "11")
    assert closed_stdout_run("as-descending", "--frobenius", "11",
                             "--out", "f") == (0, b"")
    assert (tmp_path / "f").read_text() == expected

    # bench writes its report, then its table: the table is what fails
    assert closed_stdout_run("bench", "--frobenius-list", "5",
                             "--out", "b") == (2, closed)
    assert len(json.loads((tmp_path / "b").read_text())["rows"]) == 2
    assert sorted(os.listdir(tmp_path)) == ["b", "f"]


def test_gens_beyond_limit_exit_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "info", "--gens", "100000,100001")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == "" and "limit" in err


@pytest.mark.parametrize("argv", [
    [mode, "--frobenius", "100001", *flags]
    for mode in ("irreducible", "as-ascending", "as-descending", "oracle")
    for flags in ([], ["--type", "3"], ["--type", "100003"], ["--count-only"])
] + [["bench", "--frobenius-list", "5,100001"]])
def test_frobenius_beyond_limit_exits_quickly(capsys, argv):
    # exit 3 in every mode and for every type, before any enumeration
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == "" and "limit" in err


def test_failed_run_keeps_out_file(capsys, tmp_path):
    # --out is written beside the target and moved onto it only when the
    # command completes: a failed run leaves the old file and no other
    target = tmp_path / "f.json"
    target.write_text("keep\n")
    code, out, _ = run(capsys, "as-descending", "--frobenius", "100001",
                       "--out", str(target))
    assert (code, out) == (3, "")
    assert target.read_text() == "keep\n"
    assert os.listdir(tmp_path) == ["f.json"]

    _, expected, _ = run(capsys, "as-descending", "--frobenius", "11")
    assert run(capsys, "as-descending", "--frobenius", "11",
               "--out", str(target))[:2] == (0, "")
    assert target.read_text() == expected
    assert os.listdir(tmp_path) == ["f.json"]

    # a directory cannot be written: exit 2 before any work
    code, _, err = run(capsys, "as-descending", "--frobenius", "100001",
                       "--out", str(tmp_path))
    assert code == 2 and err.startswith("error: cannot write --out")
    assert os.listdir(tmp_path) == ["f.json"]

    # a staged file that cannot take the whole answer (4 KiB of about
    # 20 kB): exit 2, with the old file kept and the staging file removed
    pytest.importorskip("resource")
    target.write_text("keep\n")
    proc = run_with_fault(
        ["as-descending", "--frobenius", "20", "--out", str(target)],
        "import resource, signal; signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
        "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (f"error: cannot write --out {target}: "
                           f"{os.strerror(errno.EFBIG)}\n").encode()
    assert target.read_text() == "keep\n"
    assert os.listdir(tmp_path) == ["f.json"]


def test_out_written_in_place_when_a_rename_would_replace_it(capsys, tmp_path):
    # a device, a symlink and a hard linked file are written through, not
    # replaced; a staged regular file keeps its mode
    _, expected, _ = run(capsys, "as-descending", "--frobenius", "11")
    assert run(capsys, "as-descending", "--frobenius", "11",
               "--out", os.devnull)[:2] == (0, "")
    assert not os.path.isfile(os.devnull)

    target = tmp_path / "real.json"
    target.write_text("keep\n")
    target.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    hard = tmp_path / "hard.json"
    os.link(target, hard)
    for name in (link, hard):
        target.write_text("keep\n")
        assert run(capsys, "as-descending", "--frobenius", "11",
                   "--out", str(name))[:2] == (0, "")
        assert target.read_text() == expected
    assert link.is_symlink() and os.path.samefile(hard, target)

    os.remove(hard)
    target.write_text("keep\n")
    assert run(capsys, "as-descending", "--frobenius", "11",
               "--out", str(target))[:2] == (0, "")
    assert target.read_text() == expected
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]


def test_memory_exhausted_exits_3():
    # F = 100000 is inside INPUT_F_MAX, and its descent outgrows any memory
    pytest.importorskip("resource")
    limit = 128 << 20  # bytes of address space, after the imports
    script = ("import resource, sys, almostsym.cli, almostsym.descending\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
              "sys.exit(almostsym.cli.main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run([sys.executable, "-c", script, "as-descending",
                           "--frobenius", "100000", "--count-only"],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == b"error: out of memory\n"
    assert proc.stdout == b""


ALGORITHM_MODULES = {f"almostsym.{name}" for name in (
    "ascending", "descending", "irreducible", "oracle", "classify", "bench")}


def modules_after(*argv):
    """The modules loaded by a fresh interpreter that imports almostsym.cli
    and, when argv is given, runs that command."""
    script = ("import sys, almostsym.cli\n"
              "if sys.argv[1:]:\n"
              "    assert almostsym.cli.main(sys.argv[1:]) == 0\n"
              "sys.stderr.write(' '.join(sys.modules))")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, timeout=120, check=True)
    return set(proc.stderr.decode().split())


def test_start_up_loads_only_what_the_command_runs():
    loaded = modules_after()
    assert {"almostsym", "almostsym.core", "almostsym.cli"} <= loaded
    assert not loaded & (ALGORITHM_MODULES | {"dataclasses", "inspect"})

    loaded = modules_after("as-descending", "--frobenius", "10", "--count-only")
    assert loaded & ALGORITHM_MODULES == {"almostsym.descending"}

import argparse
import errno
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import almostsym
import almostsym.bench
from almostsym import cli, compute_stats, from_gaps, from_generators
from almostsym.ascending import as_all_ascending
from almostsym.cli import main
from almostsym.core import Semigroup, _records
from almostsym.descending import as_all_descending, as_down_to_type, descend
from almostsym.irreducible import enumerate_irreducible
from almostsym.oracle import DEFAULT_F_MAX, all_with_frobenius, oracle_as

# the directory holding the package, for CLI runs in a fresh interpreter
PACKAGE_ROOT = str(Path(almostsym.__file__).resolve().parent.parent)


def reference_record(S):
    """The record of S built as a dict in field order and serialized by
    json.dumps; the record encoder (core._records) must write the same
    line."""
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
    line = _records([compute_stats(S)])
    assert line == reference_record(S) + "\n"
    assert json.dumps(json.loads(line)) + "\n" == line


def cli_process(*argv, python_flags=(), **kwargs):
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    return subprocess.Popen([sys.executable, *python_flags, "-m", "almostsym.cli",
                             *argv], env=env, **kwargs)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_child_left():
    """True when this process has no child, running or unreaped: a run
    that forks the record pipeline reaps its child on every path."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


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
    code, _, err = run(capsys, "oracle", "--frobenius", str(DEFAULT_F_MAX + 1))
    assert code == 3


def test_dot_output(capsys):
    code, out, _ = run(capsys, "irreducible", "--frobenius", "11", "--dot")
    assert code == 0
    assert out.startswith("digraph tree {")
    assert '"<6,7,8,9,10>" -> "<3,7>" [label="8"];' in out
    assert out.rstrip().endswith("}")


def test_each_subcommand_offers_only_the_flags_that_work_in_it():
    parser = cli.build_parser()
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    offered = {name: {flag for action in sub._actions for flag in action.option_strings}
               - {"-h", "--help"} for name, sub in subcommands.items()}
    enumeration = {"--frobenius", "--type", "--min-type", "--count-only",
                   "--threads", "--out"}
    assert offered == {
        "info": {"--gens", "--gaps"},
        "irreducible": enumeration | {"--dot"},
        "as-ascending": enumeration,
        "as-descending": enumeration | {"--dot"},
        "oracle": enumeration,
        "bench": {"--frobenius-list", "--algorithms", "--out"},
    }


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
             "as-descending": lambda F: as_down_to_type(F, 1, with_edges=True)}
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


def test_bench_rejects_frobenius_below_one_before_timing(monkeypatch):
    def not_called(F):
        pytest.fail(f"timed F = {F} before the list was checked")

    monkeypatch.setattr(almostsym.bench, "_ALGORITHMS",
                        dict.fromkeys(almostsym.bench._ALGORITHMS, not_called))
    for f_list in ([5, 0], [0], [3, -1, 7]):
        with pytest.raises(almostsym.InvalidParameters,
                           match=r"Frobenius number below 1 in \["):
            almostsym.bench.run_bench(f_list, ["ascending", "descending"])


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


# answers below and above one write batch in every mode: the larger
# as-descending and as-ascending ones go through the record pipeline
@pytest.mark.parametrize("mode, F, answer", [
    ("as-descending", 11, as_all_descending), ("as-descending", 30, as_all_descending),
    ("as-ascending", 11, as_all_ascending), ("as-ascending", 30, as_all_ascending),
    ("oracle", 14, oracle_as), ("oracle", 25, oracle_as),
    ("irreducible", 20, enumerate_irreducible), ("irreducible", 48, enumerate_irreducible),
])
def test_records_are_the_collected_answer(capsys, tmp_path, mode, F, answer):
    expected = "".join(reference_record(S) + "\n" for S in answer(F))
    assert (expected.count("\n") > cli._WRITE_BATCH) == (F in (25, 30, 48))
    assert run(capsys, mode, "--frobenius", str(F)) == (0, expected, "")
    target = tmp_path / "f.json"
    assert run(capsys, mode, "--frobenius", str(F), "--out", str(target)) == (0, "", "")
    assert target.read_text() == expected
    assert no_child_left()


def test_min_type_ascending_enumerates_irreducibles_once(capsys, monkeypatch):
    # one walk of the tree of irreducibles per request, cut at
    # b < k(t) = ceil(t/2) - 1
    import almostsym.ascending
    import almostsym.irreducible

    calls = []

    def counted(F, min_b=0, _enumerate=almostsym.irreducible.enumerate_irreducible):
        calls.append((F, min_b))
        return _enumerate(F, min_b)

    monkeypatch.setattr(almostsym.irreducible, "enumerate_irreducible", counted)
    monkeypatch.setattr(almostsym.ascending, "enumerate_irreducible", counted)
    code, out, _ = run(capsys, "as-ascending", "--frobenius", "15",
                       "--min-type", "5")
    assert code == 0
    assert calls == [(15, 2)]
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
                assert code == 0 and calls == [(F, (t + 1) // 2 - 1)]
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
    # --type t walks removal sets up to size k(t) only, of the irreducibles
    # of one tree walk cut at b < k(t), and a type that cannot occur is
    # answered without walking the tree
    import almostsym.ascending

    sizes, calls = [], []

    def counted_sets(S, kmin, kmax, _walk=almostsym.ascending._removal_sets):
        sizes.append(kmax)
        return _walk(S, kmin, kmax)

    def counted_irr(F, min_b=0, _enumerate=almostsym.ascending.enumerate_irreducible):
        calls.append((F, min_b))
        return _enumerate(F, min_b)

    monkeypatch.setattr(almostsym.ascending, "_removal_sets", counted_sets)
    monkeypatch.setattr(almostsym.ascending, "enumerate_irreducible", counted_irr)
    code, out, _ = run(capsys, "as-ascending", "--frobenius", "21", "--type", "3")
    assert code == 0 and out and calls == [(21, 1)] and set(sizes) == {1}
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


def test_irreducible_outside_its_type_walks_no_tree(capsys, monkeypatch):
    # every irreducible has type 2 - F % 2: a --type or --min-type that
    # drops it answers empty without expanding a node, after the checks
    # on F (F < 1 exits 2, F above the limit 3)
    import almostsym.irreducible

    def refuse(S):
        raise AssertionError("irreducible tree walked")

    monkeypatch.setattr(almostsym.irreducible, "irreducible_children", refuse)
    for F, flags in ((70, ["--min-type", "3"]), (71, ["--min-type", "2"]),
                     (70, ["--type", "1"]), (71, ["--type", "2"]), (1, ["--min-type", "2"])):
        argv = ["irreducible", "--frobenius", str(F), *flags]
        assert run(capsys, *argv, "--count-only") == (0, '{"total": 0}\n', "")
        assert run(capsys, *argv) == (0, "", "")
        assert run(capsys, *argv, "--dot") == (0, "digraph tree {\n}\n", "")
    assert run(capsys, "irreducible", "--frobenius", "0", "--min-type", "3")[0] == 2
    assert run(capsys, "irreducible", "--frobenius", str(cli.INPUT_F_MAX + 1),
               "--min-type", "3")[0] == 3
    monkeypatch.undo()
    for F, flags in ((20, ["--type", "2"]), (21, ["--min-type", "1"]), (21, [])):
        n = len(enumerate_irreducible(F))
        assert run(capsys, "irreducible", "--frobenius", str(F), "--count-only", *flags) \
            == (0, f'{{"type": {2 - F % 2}, "count": {n}}}\n{{"total": {n}}}\n', "")


def test_min_type_ascending_rejects_bad_frobenius(capsys):
    code, out, err = run(capsys, "as-ascending", "--frobenius", "0",
                         "--min-type", "1")
    assert code == 2
    assert out == ""


def test_duplicate_is_internal_error(capsys, monkeypatch):
    import almostsym.ascending

    # the walk yields every removal set twice: the records and the counts
    # of the command line are built from its pairs
    walk = almostsym.ascending._removal_sets
    monkeypatch.setattr(almostsym.ascending, "_removal_sets", lambda S, kmin, kmax: (
        A for A in walk(S, kmin, kmax) for _ in (0, 1)))
    for flags in ((), ("--count-only",)):
        code, out, err = run(capsys, "as-ascending", "--frobenius", "11", *flags)
        assert code == 4
        assert out == ""
        assert err.startswith("internal error:") and "twice" in err
    # the library's semigroups are built from the same pairs, by _nodes
    with pytest.raises(RuntimeError, match="twice"):
        as_all_ascending(11)


def test_same_output_under_python_O():
    argv = ("as-descending", "--frobenius", "30")
    outputs = []
    for flags in ((), ("-O",)):
        proc = cli_process(*argv, python_flags=flags, stdout=subprocess.PIPE)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 821  # AS semigroups with F = 30


# the walk yields its first pair of C(F), the pair (C(F), ()), twice
PAIR_TWICE = ("import almostsym.ascending\n"
              "from almostsym.classify import canonical_C\n"
              "walk = almostsym.ascending._removal_sets\n"
              "def twice(S, kmin, kmax):\n"
              "    sets = walk(S, kmin, kmax)\n"
              "    if S == canonical_C(S.frobenius):\n"
              "        first = next(sets)\n"
              "        yield from (first, first)\n"
              "    yield from sets\n"
              "almostsym.ascending._removal_sets = twice")


@pytest.mark.parametrize("python_flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("argv", [
    ["as-ascending", "--frobenius", "11"],  # collected
    ["as-ascending", "--frobenius", "40"],  # split between two workers
    ["as-ascending", "--frobenius", "40", "--count-only"],
], ids=["collected", "split", "count-only"])
def test_pair_walked_twice_is_internal_error(python_flags, argv):
    # the node and count paths check for duplicates with RuntimeError, so
    # the run exits 4 under python -O too, and writes no record: stdout
    # is at most a prefix of whole lines, and here empty
    script = ("import sys\n"
              f"{PAIR_TWICE}\n"
              "import almostsym.cli\n"
              "sys.exit(almostsym.cli.main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run([sys.executable, *python_flags, "-c", script, *argv], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == b"internal error: ascending enumeration produced a semigroup twice\n"
    assert proc.stdout == b""


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
    assert no_child_left()


def test_dot_written_in_batches(monkeypatch):
    out = CountingWriter()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["as-descending", "--frobenius", "30", "--dot"]) == 0
    lines = ["digraph tree {", *map(reference_dot_edge,
                                    as_down_to_type(30, 1, with_edges=True).edges), "}"]
    assert len(lines) > cli._WRITE_BATCH
    assert out.getvalue() == "".join(line + "\n" for line in lines)
    assert out.writes == -(-len(lines) // cli._WRITE_BATCH)


def test_streamed_descent_writes_the_collected_answer(capsys):
    # as-descending streams the walk; the other modes collect, then render
    for F in range(1, 31):
        records = {S: reference_record(S) + "\n" for S in as_down_to_type(F, 1)}

        def collected(t, keep):
            return "".join(records[S] for S in as_down_to_type(F, t)
                           if keep(compute_stats(S).type_))

        assert run(capsys, "as-descending", "--frobenius", str(F)) == \
            (0, collected(1, lambda u: True), "")
        for t in range(1, F + 2):
            assert run(capsys, "as-descending", "--frobenius", str(F), "--type",
                       str(t)) == (0, collected(t, lambda u: u == t), "")
            assert run(capsys, "as-descending", "--frobenius", str(F), "--min-type",
                       str(t)) == (0, collected(t, lambda u: u >= t), "")
        types = sorted(compute_stats(S).type_ for S in as_down_to_type(F, 1))
        counts = "".join(f'{{"type": {u}, "count": {types.count(u)}}}\n'
                         for u in sorted(set(types)))
        assert run(capsys, "as-descending", "--frobenius", str(F), "--count-only") == \
            (0, counts + f'{{"total": {len(types)}}}\n', "")


def test_records_are_written_while_the_walk_runs(monkeypatch):
    # the walk ends in the forked child, which says so with a byte on a
    # pipe that each write polls
    walk = almostsym.descending.descend
    ended, walked = os.pipe()

    def watched(F, t):
        yield from walk(F, t)
        os.write(walked, b"x")

    finished = []  # per write: had the walk ended before it

    class Watching(io.StringIO):
        def write(self, text):
            finished.append(bool(select.select([ended], [], [], 0)[0]))
            return super().write(text)

    monkeypatch.setattr(almostsym.descending, "descend", watched)
    monkeypatch.setattr(sys, "stdout", Watching())
    try:
        assert main(["as-descending", "--frobenius", "30"]) == 0
    finally:
        os.close(ended)
        os.close(walked)
    assert finished[0] is False and finished[-1] is True


def duplicating_descend(x):
    """descend compiled from its source with one fault: each child of
    multiplicity x goes into its bucket twice."""
    source = inspect.getsource(almostsym.descending)
    append = "buckets[x].append("
    assert source.count(append) == 1
    source = source.replace(
        append, f"(buckets[x].append if x != {x} else twice(buckets[x]))(")
    namespace = {"__name__": "almostsym.descending", "__package__": "almostsym",
                 "twice": lambda bucket: lambda node: bucket.extend((node, node))}
    exec(compile(source, almostsym.descending.__file__, "exec"), namespace)
    return namespace["descend"]


def test_failure_mid_stream_leaves_a_line_aligned_prefix(capsys, monkeypatch, tmp_path):
    # at F = 30 the one semigroup of multiplicity 4 is the last record:
    # records go out in batches as the walk runs, so stdout keeps the
    # whole batches written before the walk reaches it; --out is staged
    # and keeps its old file
    argv = ["as-descending", "--frobenius", "30"]
    _, expected, _ = run(capsys, *argv)
    assert expected.count("\n") > cli._WRITE_BATCH
    monkeypatch.setattr(almostsym.descending, "descend", duplicating_descend(4))
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert err == "internal error: descending enumeration produced a semigroup twice\n"
    assert out.endswith("\n") and expected.startswith(out) and out != expected
    assert out.count("\n") % cli._WRITE_BATCH == 0
    assert no_child_left()

    assert run(capsys, *argv, "--count-only")[:2] == (4, "")
    target = tmp_path / "f.json"
    target.write_text("keep\n")
    assert run(capsys, *argv, "--out", str(target))[:2] == (4, "")
    assert target.read_text() == "keep\n"
    assert os.listdir(tmp_path) == ["f.json"]


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


@pytest.mark.parametrize("mode", ["as-descending", "as-ascending"])
def test_closed_pipe_after_the_first_batch_reaps_the_child(capfd, monkeypatch, mode):
    # the reader goes away after the first batch, while the forked
    # processes are still sending: the descent's child fills its pipe with
    # the answer at F = 48 (1.8 MB of frames), and each ascending worker
    # walks its whole share before it sends.  The run ends quietly, with no
    # child left, and no child writes anything.
    class ClosedAfterFirstBatch(io.StringIO):
        def fileno(self):
            return devnull

        def write(self, text):
            if self.tell():
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
            return super().write(text)

    devnull = os.open(os.devnull, os.O_WRONLY)
    out = ClosedAfterFirstBatch()
    monkeypatch.setattr(sys, "stdout", out)
    try:
        assert main([mode, "--frobenius", "48"]) == 0
    finally:
        os.close(devnull)
    assert out.getvalue().count("\n") == cli._WRITE_BATCH
    assert no_child_left()
    assert capfd.readouterr().err == ""


# the type filter runs at most once per request, in this process: on the
# descent's walk, or on a collected answer.  The ascending split's workers
# walk only the types asked, so its frames are written as received.
@pytest.mark.parametrize("argv, lines, most", [
    (["as-descending", "--frobenius", "30", "--min-type", "3"], 785, 1),  # split
    (["as-descending", "--frobenius", "11", "--type", "5"], 4, 1),
    (["as-ascending", "--frobenius", "20", "--type", "4"], 23, 1),
    (["oracle", "--frobenius", "14", "--type", "6"], 4, 1),
    (["irreducible", "--frobenius", "20", "--dot", "--type", "2"], 12, 1),
    (["as-ascending", "--frobenius", "30", "--min-type", "3"], 785, 0),  # split
], ids=["descending-split", "descending", "ascending", "oracle", "irreducible-dot",
        "ascending-split"])
def test_each_answer_passes_the_type_filter_at_most_once(capsys, monkeypatch, argv,
                                                          lines, most):
    selected = cli._selected
    calls = []

    def counted(nodes, args):
        calls.append(args)
        return selected(nodes, args)

    monkeypatch.setattr(cli, "_selected", counted)
    code, out, err = run(capsys, *argv)
    assert (code, err, out.count("\n")) == (0, "", lines)
    assert len(calls) <= most


def ascending_records(F, min_type=1, max_type=None):
    """The records of as_all_ascending(F, min_type, max_type), one line
    each, as reference_record writes them."""
    return "".join(reference_record(S) + "\n"
                   for S in as_all_ascending(F, min_type, max_type))


# as-ascending hands every answer above one batch to two workers that
# claim the irreducibles from one queue; the parent merges their streams
@pytest.mark.parametrize("F", [30, 36, 40, 44, 48])
def test_ascending_split_is_the_collected_answer(capsys, tmp_path, F):
    expected = ascending_records(F)
    assert expected.count("\n") > cli._WRITE_BATCH
    types = [json.loads(line)["type"] for line in expected.splitlines()]
    common = max(set(types), key=types.count)  # the largest one-type answer
    argv = ["as-ascending", "--frobenius", str(F)]
    assert run(capsys, *argv) == (0, expected, "")
    for window, answer in ((["--min-type", "3"], ascending_records(F, 3)),
                           (["--type", str(common)], ascending_records(F, common, common))):
        assert run(capsys, *argv, *window) == (0, answer, "")
    counts = "".join(f'{{"type": {t}, "count": {types.count(t)}}}\n'
                     for t in sorted(set(types)))
    assert run(capsys, *argv, "--count-only") == \
        (0, counts + f'{{"total": {len(types)}}}\n', "")
    target = tmp_path / "f.json"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text() == expected
    assert no_child_left()


# the parent's first walk only sizes the answer; the two workers claim
# every irreducible (a block of two at F = 48, whose I(F) has 411)
@pytest.mark.parametrize("F", [40, 48])
def test_ascending_workers_walk_each_irreducible_once(capsys, monkeypatch, tmp_path, F):
    # every walk of an irreducible's removal sets, in the parent or in a
    # worker, appends "pid mask" to one log
    import almostsym.ascending

    expected = ascending_records(F)
    log = tmp_path / "walks"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(S, kmin, kmax, _walk=almostsym.ascending._removal_sets):
        os.write(fd, f"{os.getpid()} {S.mask}\n".encode())
        return _walk(S, kmin, kmax)

    monkeypatch.setattr(almostsym.ascending, "_removal_sets", logged)
    try:
        assert run(capsys, "as-ascending", "--frobenius", str(F)) == (0, expected, "")
    finally:
        os.close(fd)
    irr = [str(S.mask) for S in enumerate_irreducible(F)]
    walks = [line.split() for line in log.read_text().splitlines()]
    me = str(os.getpid())
    parent = [mask for pid, mask in walks if pid == me]
    assert 0 < len(parent) < len(irr) and parent == irr[:len(parent)]
    assert sorted(mask for pid, mask in walks if pid != me) == sorted(irr)
    workers = {pid for pid, _ in walks} - {me}
    assert len(workers) == 2 if F == 48 else len(workers) <= 2  # 206 claims at 48
    assert no_child_left()


def test_ascending_share_claims_each_irreducible_as_its_walk_reaches_it(capsys, monkeypatch):
    # each worker's maker takes an irreducible from its claims only once
    # it has walked the one before, so that the other worker can claim
    # the rest; run here in one process, with one worker claiming all
    import almostsym.ascending
    import almostsym.pipeline

    walked, taken = [], []

    def counted(S, kmin, kmax, _walk=almostsym.ascending._removal_sets):
        walked.append(S.mask)
        return _walk(S, kmin, kmax)

    def in_process(items, share, frame, consume):
        def claims():
            for S in items:
                taken.append(len(walked))
                yield S

        walked.clear()
        consume(share(claims()))

    monkeypatch.setattr(almostsym.ascending, "_removal_sets", counted)
    monkeypatch.setattr(almostsym.pipeline, "consume_claimed", in_process)
    assert run(capsys, "as-ascending", "--frobenius", "40") == (0, ascending_records(40), "")
    assert taken == list(range(len(enumerate_irreducible(40))))


def failing_worker(statement):
    """A replacement for ascending._removal_sets that runs `statement` in
    any process but the one that made it: in a worker."""
    import almostsym.ascending

    walk, parent = almostsym.ascending._removal_sets, os.getpid()

    def fail(S, kmin, kmax):
        if os.getpid() != parent:
            exec(statement)
        return walk(S, kmin, kmax)

    return fail


@pytest.mark.parametrize("statement, code, err", [
    ("raise MemoryError", 3, "error: out of memory\n"),
    ("raise RuntimeError('failed in a worker')", 4, "internal error: failed in a worker\n"),
    ("import signal; os.kill(os.getpid(), signal.SIGKILL)", 4,
     "internal error: the record process ended before its answer\n"),
], ids=["memory", "runtime", "killed"])
def test_failed_ascending_worker_keeps_its_exit_code(capsys, monkeypatch, statement,
                                                     code, err):
    # the parent writes nothing before both workers have sorted their share
    import almostsym.ascending

    monkeypatch.setattr(almostsym.ascending, "_removal_sets", failing_worker(statement))
    assert run(capsys, "as-ascending", "--frobenius", "40") == (code, "", err)
    assert no_child_left()


def test_merge_of_streams_that_share_a_node_raises():
    from almostsym.pipeline import _merge

    nodes = [tuple(compute_stats(S)) for S in as_all_ascending(20)]
    assert list(_merge([iter(nodes[0::2]), iter(nodes[1::2])])) == nodes
    shared = nodes[5]
    with pytest.raises(RuntimeError, match="two record processes"):
        list(_merge([iter(nodes[:6]), iter(nodes[5:])]))
    assert shared in nodes[:6] and shared in nodes[5:]


def claim_queue(count):
    """A pipe filled with the claim queue of `count` items and closed for
    writing: (its read end, the block size)."""
    from almostsym.pipeline import _fill

    rfd, wfd = os.pipe()
    try:
        return rfd, _fill(wfd, count)
    except BaseException:
        os.close(rfd)
        raise
    finally:
        os.close(wfd)


def test_claim_queue_never_blocks():
    # the queue is at most 256 one-byte tokens, one write that fits any
    # empty pipe: a token covers one item up to 256 items, a block above
    from almostsym.pipeline import _claims

    for count in (0, 1, 256, 257, 411, 10**6):
        rfd, block = claim_queue(count)
        try:
            assert len(os.read(rfd, 1024)) == -(-count // block) <= 256
        finally:
            os.close(rfd)
        assert (block > 1) == (count > 256)
        rfd, block = claim_queue(count)
        try:
            assert list(_claims(rfd, range(count), block)) == list(range(count))
        finally:
            os.close(rfd)


@pytest.mark.parametrize("count", [7, 411])
def test_two_readers_claim_every_item_once(count):
    # two readers of one queue, advanced in turn (blocks of one item at
    # 7, of two at 411): each claims its items in increasing order, and
    # together they claim every item once
    from almostsym.pipeline import _claims

    rfd, block = claim_queue(count)
    try:
        turns = list(itertools.zip_longest(*(_claims(rfd, range(count), block)
                                              for _ in range(2))))
    finally:
        os.close(rfd)
    shares = [[item for item in share if item is not None] for share in zip(*turns)]
    assert all(share == sorted(share) and share for share in shares)
    assert sorted(shares[0] + shares[1]) == list(range(count))


def test_broken_pipes_of_the_parent_are_internal_failures():
    # not the quiet exit of a reader that went away: exit 4
    from almostsym.pipeline import _fill, _receive

    rfd, wfd = os.pipe()
    os.close(rfd)
    try:
        with pytest.raises(RuntimeError, match="claim queue"):
            _fill(wfd, 10)
    finally:
        os.close(wfd)

    class BrokenFramePipe:
        def read(self, size):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    with pytest.raises(RuntimeError, match="cannot read the record process"):
        list(_receive(BrokenFramePipe()))


@pytest.mark.parametrize("argv, forks", [
    (["as-descending", "--frobenius", "30"], 0),
    (["as-ascending", "--frobenius", "30"], 0),
    (["as-ascending", "--frobenius", "30"], 1),
], ids=["descending-first", "ascending-first", "ascending-second"])
def test_failed_fork_closes_its_pipes_and_reaps_the_workers(capsys, monkeypatch,
                                                           argv, forks):
    # the fork after `forks` successful ones fails: a resource limit
    fork, started = os.fork, []

    def failing_fork():
        if len(started) == forks:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pid = fork()
        started.append(pid)
        return pid

    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(os, "fork", failing_fork)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, f"error: cannot start a process: {os.strerror(errno.EAGAIN)}\n")
    assert out.count("\n") == (cli._WRITE_BATCH if argv[0] == "as-descending" else 0)
    assert len(started) == forks
    assert no_child_left()
    if fds is not None:
        assert os.listdir("/proc/self/fd") == fds


@pytest.mark.parametrize("mode, F, answer", [
    ("irreducible", 48, enumerate_irreducible), ("oracle", 25, oracle_as),
])
def test_collected_answers_are_written_without_a_fork(capsys, monkeypatch, mode, F,
                                                      answer):
    # an answer above one batch that is collected before it is rendered
    # needs no child, so a fork that would fail is never asked for
    def failing_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    expected = "".join(reference_record(S) + "\n" for S in answer(F))
    assert expected.count("\n") > cli._WRITE_BATCH
    monkeypatch.setattr(os, "fork", failing_fork)
    assert run(capsys, mode, "--frobenius", str(F)) == (0, expected, "")
    assert no_child_left()


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
    assert json.loads(_records([compute_stats(S)])) == {
        "gaps": [], "msg": [1], "pf": [], "frobenius": -1, "genus": 0,
        "type": 0, "multiplicity": 1}


def test_records_of_descent_nodes_in_batches():
    # batches of one, of one write, and of one node either side of it
    for F in range(1, 31):
        nodes = list(descend(F, 1))
        expected = [reference_record(Semigroup._from_mask(node[0])) + "\n" for node in nodes]
        for size in (1, 255, 256, 257):
            for start in range(0, len(nodes), size):
                assert _records(nodes[start:start + size]) == \
                    "".join(expected[start:start + size])


def test_records_read_every_field_from_their_node():
    # a batch that mixes Frobenius numbers, wider nodes after narrower
    # ones, S = N, the widest layout the table serves (F = 127, its msg
    # masks 32 bytes) and masks too wide for the table renders each
    # node's own line
    narrow = [*descend(30, 20), compute_stats(Semigroup()), *descend(10, 1),
              *descend(60, 54), *descend(127, 121), *descend(5, 1)]
    wide = [*narrow[:3], *descend(129, 127), *narrow[3:]]
    for nodes in (narrow, wide):
        lines = _records(nodes).splitlines(keepends=True)
        assert lines == [reference_record(Semigroup._from_mask(node[0])) + "\n"
                         for node in nodes]
        assert [json.loads(line)["frobenius"] for line in lines] == \
            [node[0].bit_length() - 1 for node in nodes]


# answers too wide for the encoder's table (F >= 128); at F = 300 the
# genus and the multiplicity need two bytes.  Each digest is the sha256
# of the answer's stdout.
@pytest.mark.parametrize("F, t, count, digest", [
    (128, 120, 15, "31c5124f0a503293d431403d032e95875825a2022dafd1a2c5261f5ceb71ec78"),
    (200, 192, 15, "55765f350c7f76bd261b70a994200c8db6fe79948981993056f143174bf6ed68"),
    (300, 294, 8, "5c040b8ca26b0f4ef6b936df9b6d446b16e4316e570a11d8e0aa7cbac1663960"),
])
def test_wide_answers_in_a_fresh_process(F, t, count, digest):
    proc = cli_process("as-descending", "--frobenius", str(F), "--min-type", str(t),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    expected = "".join(reference_record(S) + "\n" for S in as_down_to_type(F, t))
    assert out.decode() == expected
    assert out.count(b"\n") == count
    assert hashlib.sha256(out).hexdigest() == digest


# generators up to 60 give Frobenius numbers up to 59 * 58 - 1, so the
# masks span many bytes of the encoder's table
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
WRONG_ANSWER_OF_RIGHT_SIZE = (
    "import almostsym.bench\n"
    "from almostsym.core import EnumerationResult\n"
    "from almostsym.oracle import all_with_frobenius\n"
    "almostsym.bench._ALGORITHMS['descending'] = lambda F: EnumerationResult.collect(\n"
    "    [S for S in all_with_frobenius(F) if S.gaps != (1, 2, 3, 4, 5)],\n"
    "    'descending')")
# the descent fails after 300 nodes, so in the child that the record
# pipeline forked once the first 256 records were written
FAULT_IN_CHILD = ("import itertools, almostsym.descending\n"
                  "walk = almostsym.descending.descend\n"
                  "def fail(F, t):\n"
                  "    yield from itertools.islice(walk(F, t), 300)\n"
                  "    {}\n"
                  "almostsym.descending.descend = fail")
# os.fork fails with EAGAIN after {} successful forks
FAIL_FORK = ("import errno, os\n"
             "fork, forks = os.fork, []\n"
             "def failing_fork():\n"
             "    if len(forks) == {}:\n"
             "        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))\n"
             "    forks.append(fork())\n"
             "    return forks[-1]\n"
             "os.fork = failing_fork")
EVERY_SET_TWICE = ("walk = almostsym.ascending._removal_sets\n"
                   "almostsym.ascending._removal_sets = lambda S, kmin, kmax: (\n"
                   "    A for A in walk(S, kmin, kmax) for _ in (0, 1))")
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
    # the walk yields every removal set twice: a duplicate
    pytest.param(4, ["as-ascending", "--frobenius", "11"], EVERY_SET_TWICE,
                 b"internal error:", id="removal-set-twice"),
    # an --out path that cannot be opened stops the run before any work
    (2, ["as-descending", "--frobenius", "5", "--out", "/nonexistent/d/x"], "",
     b"error: cannot write --out"),
    (2, ["bench", "--frobenius-list", "5", "--out", "/nonexistent/d/x"], "",
     b"error: cannot write --out"),
    (2, ["bench", "--frobenius-list", "5", "--algorithms", ","], "",
     b"error: empty algorithm list"),
    # a repeated entry would be timed twice, and the table shows one
    pytest.param(2, ["bench", "--frobenius-list", "13,13"], "",
                 b"error: repeated Frobenius number", id="bench-repeated-f"),
    # a list with an F below 1 is refused before F = 5 is timed
    pytest.param(2, ["bench", "--frobenius-list", "5,0", "--algorithms",
                     "descending"], "", b"error: Frobenius number below 1 in [5, 0]\n",
                 id="bench-f-below-one"),
    pytest.param(2, ["bench", "--frobenius-list", "5", "--algorithms",
                     "ascending,ascending"], "", b"error: repeated algorithm",
                 id="bench-repeated-algorithm"),
    # answers of one size that differ: (1,2,4,5) is no AS semigroup and
    # stands in for (1,2,3,4,5)
    pytest.param(4, ["bench", "--frobenius-list", "5"], WRONG_ANSWER_OF_RIGHT_SIZE,
                 b"internal error: algorithms disagree at F=5",
                 id="bench-answers-differ"),
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
    # a failure in the forked child keeps its exit code; a child that dies
    # without a word is an internal failure.  --out takes the records, so
    # stdout stays empty.
    pytest.param(3, ["as-descending", "--frobenius", "30", "--out", os.devnull],
                 FAULT_IN_CHILD.format("raise MemoryError"), b"error: out of memory\n",
                 id="out-of-memory-in-child"),
    pytest.param(4, ["as-descending", "--frobenius", "30", "--out", os.devnull],
                 FAULT_IN_CHILD.format("import os, signal; os.kill(os.getpid(), signal.SIGKILL)"),
                 b"internal error: the record process ended before its answer\n",
                 id="child-killed"),
    # a process that cannot be forked is a resource limit: the first fork
    # of the record pipeline, or the second worker of as-ascending
    pytest.param(3, ["as-descending", "--frobenius", "30", "--out", os.devnull],
                 FAIL_FORK.format(0), b"error: cannot start a process: ",
                 id="first-fork-fails"),
    pytest.param(3, ["as-ascending", "--frobenius", "30", "--out", os.devnull],
                 FAIL_FORK.format(1), b"error: cannot start a process: ",
                 id="second-fork-fails"),
    # one rendering per request: the two flags exclude each other
    pytest.param(2, ["as-descending", "--frobenius", "11", "--count-only",
                     "--dot"], "", b"usage: ", id="count-only-and-dot"),
    # one type question per request: the two flags exclude each other
    pytest.param(2, ["as-descending", "--frobenius", "11", "--type", "3",
                     "--min-type", "5"], "", b"usage: ", id="type-and-min-type"),
    # a flag exists only where it works: --dot draws a tree, which only
    # the tree modes walk, and bench runs in one thread
    pytest.param(2, ["as-ascending", "--frobenius", "11", "--dot"], "", b"usage: ",
                 id="as-ascending-dot"),
    pytest.param(2, ["oracle", "--frobenius", "11", "--dot"], "", b"usage: ",
                 id="oracle-dot"),
    pytest.param(2, ["bench", "--frobenius-list", "5", "--threads", "1"], "",
                 b"usage: ", id="bench-threads"),
    # every F is above the oracle's limit, so no pair is timed
    pytest.param(3, ["bench", "--frobenius-list", str(DEFAULT_F_MAX + 1),
                     "--algorithms", "oracle"],
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


def modules_after(*argv, flags=()):
    """The modules loaded by a fresh interpreter, started with the
    interpreter flags given, that imports almostsym.cli and, when argv is
    given, runs that command."""
    script = ("import sys, almostsym.cli\n"
              "if sys.argv[1:]:\n"
              "    assert almostsym.cli.main(sys.argv[1:]) == 0\n"
              "sys.stderr.write(' '.join(sys.modules))")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run([sys.executable, *flags, "-c", script, *argv], env=env,
                          capture_output=True, timeout=120, check=True)
    return set(proc.stderr.decode().split())


def test_start_up_loads_only_what_the_command_runs():
    loaded = modules_after()
    assert {"almostsym", "almostsym.core", "almostsym.cli"} <= loaded
    assert not loaded & (ALGORITHM_MODULES | {"dataclasses", "inspect"})

    loaded = modules_after("as-descending", "--frobenius", "10", "--count-only")
    assert loaded & ALGORITHM_MODULES == {"almostsym.descending"}

    # the oracle decides on its own masks, without classify
    oracle = modules_after("oracle", "--frobenius", "10", "--count-only")
    assert oracle & ALGORITHM_MODULES == {"almostsym.oracle"}

    # an answer of one batch of records loads what its count loads; the
    # record pipeline, and fcntl with it, load only once it forks
    small = modules_after("as-descending", "--frobenius", "10")
    assert small == loaded and not small & {"almostsym.pipeline", "fcntl"}
    assert {"almostsym.pipeline", "fcntl"} <= modules_after("as-descending",
                                                           "--frobenius", "30")
    # as-ascending sizes its answer by walking: 546 irreducibles, but an
    # answer of 27 records, stays in one process
    assert "almostsym.pipeline" not in modules_after(
        "as-ascending", "--frobenius", "43", "--min-type", "33")
    assert "almostsym.pipeline" in modules_after("as-ascending", "--frobenius", "30")
    # collected answers above one batch (411 and 494 records) are written
    # by the process that collected them
    for argv in (["irreducible", "--frobenius", "48"], ["oracle", "--frobenius", "25"]):
        assert not modules_after(*argv) & {"almostsym.pipeline", "fcntl"}

    # the bench keeps plain rows: no dataclasses, and with them no inspect
    loaded = modules_after("bench", "--frobenius-list", "5")
    assert not loaded & {"dataclasses", "inspect"}

    # without site, whose .pth files may import typing on their own, the
    # modules that ascending and bench bring in do not load it either
    for argv in (["as-ascending", "--frobenius", "10", "--count-only"],
                 ["bench", "--frobenius-list", "5"]):
        assert "typing" not in modules_after(*argv, flags=["-S"])

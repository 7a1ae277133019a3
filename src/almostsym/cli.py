"""Command-line front end.

Subcommands: info, irreducible, as-ascending, as-descending, oracle, bench.
Each enumeration mode answers "type >= t" with one library call, t taken
from --type or --min-type (the two exclude each other), else 1
(as-ascending also stops its scan at --type); the one type filter,
_selected, then selects the answer once (type == --type or type >=
--min-type): as-descending's stream on its walk, and every other answer
when it is collected.  as-ascending needs none, since its walk yields
only the types asked, and irreducible walks no tree when the filter
drops the one type of its answer.  A --type or --min-type below 1 is
invalid (exit 2) in every mode; a type above F, or of the other parity
from F, is a valid question with an empty answer (exit 0).  The answer
is rendered one way: one JSON object per semigroup in canonical gap
order, --count-only counts by type, or --dot, offered by the two tree
modes (irreducible and as-descending) alone, the tree edges into the
answer (the two flags exclude each other).  A flag is declared only on
the subcommands where it works, so argparse rejects any other use (exit
2).  The answer reaches _emit_result as nodes, mask tuples in the field
order of core.Stats (gap, msg, PF, multiplicity): the descent's nodes,
ascending's nodes derived from its removal pairs (ascending._nodes), or
the Stats of each collected semigroup.  Every record is rendered
there, in the process that writes it, a write batch at a time, by the
one record encoder (core._records), and every count line by one counter
(_count_lines):
as-ascending --count-only counts the types of its walk's pairs, with no
node.
as-descending without --dot streams: descending.descend yields its nodes
in canonical order, and their records are written as they come; every
other request collects its answer first.  Every line, of `info` (a batch
of one record) and the `bench` table too, goes through one batched
writer (_write).

Only a walk forks (pipeline), and this process formats and writes the
records it sends.  as-descending writes the first batch of its streamed
answer here, then forks one child that walks on and sends the rest of
the selected nodes.  as-ascending walks until it has more than one
batch only to size its answer: it then drops those records, and two
interchangeable workers claim every irreducible, C(F) first, from one
queue and each send the nodes of their share, sorted and checked as
collect checks an answer; this process merges the two streams into
canonical order.  Every other answer (irreducible, oracle, as-descending
--dot), an answer of one batch and --count-only stay in one process,
and --threads is a no-op.

Exit codes: 0 success, 2 invalid parameters or an output (stdout or
--out) that fails, stdout closed at start included, 3 resource limit
(F above core.INPUT_F_MAX in any mode, a bench that has no pair to
time, memory exhausted, or a process that cannot be forked), 4 internal
invariant failure.  A reader that closes stdout early (`almostsym
as-descending --frobenius 30 | head -1`) ends the run quietly with exit
code 0.  A new --out file, or a regular one, is written beside it and
moved onto it once the command has completed (see _open_out), so a
failed run leaves it as it was.
A run that writes records and fails after its first batch (exit 3 or
4), in this process or in a forked one, leaves on stdout the whole
batches written before the failure, a prefix of the answer that ends at
a line end; any other failed run writes nothing to stdout.

Each command imports only the modules it runs (see _cmd_enumerate): a
request is one short process, and its start is most of its time.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
from collections import Counter
from itertools import chain, islice

from .core import (INPUT_F_MAX, InvalidParameters, LimitExceeded, Semigroup,
                   _list_text, _records, compute_stats, from_gaps, from_generators)


# Lines per write.  print() makes two system calls per line when stdout is
# unbuffered (python -u, PYTHONUNBUFFERED), and a reader on a pipe then
# wakes up for every one of them.
_WRITE_BATCH = 256


def _check_frobenius(F: int) -> None:
    if F > INPUT_F_MAX:
        raise LimitExceeded(f"Frobenius number {F} is above the limit {INPUT_F_MAX}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidParameters(f"expected comma-separated integers, got {text!r}")


def _selected(nodes, args):
    """The nodes (gap, msg and PF masks, multiplicity) that the one type
    filter keeps: type == --type, or type >= --min-type.  It runs at most
    once per request: on the descent's stream, or on a collected answer
    (see _cmd_enumerate)."""
    if args.type is not None:
        return (node for node in nodes if node[2].bit_count() == args.type)
    if args.min_type is not None:
        return (node for node in nodes if node[2].bit_count() >= args.min_type)
    return nodes


def _emit_result(nodes, edges, args, out) -> None:
    """Render the answer, the nodes given in canonical order and already
    selected, as records, as counts by type, or (--dot) as the tree edges
    into it, and write it.  The nodes may be a stream: records are
    written as they come."""
    if args.dot:
        # every node but the root has one edge into it: drawn iff the node
        # is in the answer
        answer = {node[0] for node in nodes}
        _write(chain(["digraph tree {"], (
            f'  "{_dot_label(e.parent)}" -> "{_dot_label(e.child)}" [label="{e.x}"];'
            for e in edges if e.child.mask in answer), ["}"]), out)
    elif args.count_only:
        _write(_count_lines(node[2].bit_count() for node in nodes), out)
    else:
        _write(nodes, out, _records)


def _count_lines(types) -> list[str]:
    """The --count-only lines of an answer whose semigroups have the
    given types: one per type, ascending, then the total."""
    counts = Counter(types)
    return [*(f'{{"type": {t}, "count": {n}}}' for t, n in sorted(counts.items())),
            f'{{"total": {sum(counts.values())}}}']


def _dot_label(S: Semigroup) -> str:
    """The DOT label of S: its minimal generators, as in "<3,7>"."""
    return "<" + _list_text(compute_stats(S).msg_mask).replace(", ", ",") + ">"


def _lines(batch: list[str]) -> str:
    return "\n".join(batch) + "\n"


def _write(items, out, render=_lines) -> None:
    """Write items to out, one write of render(batch) per _WRITE_BATCH
    items: lines by default, or nodes rendered as records
    (core._records).  out is None when the command writes to stdout and
    fd 1 was closed at start."""
    if out is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    items = iter(items)
    while batch := list(islice(items, _WRITE_BATCH)):
        out.write(render(batch))


def _cmd_info(args, out) -> None:
    if args.gens:
        S = from_generators(_int_list(args.gens))
    else:
        S = from_gaps(_int_list(args.gaps))
    _write([compute_stats(S)], out, _records)


def _cmd_enumerate(args, out) -> None:
    F = args.frobenius
    mode = args.mode
    if any(t is not None and t < 1 for t in (args.type, args.min_type)):
        raise InvalidParameters("--type and --min-type must be >= 1")
    _check_frobenius(F)
    t = args.type or args.min_type or 1
    if mode == "as-descending" and not args.dot:
        # streamed: written in canonical order as the walk reaches it; the
        # child filters, so that it sends only the answer
        from .descending import descend
        nodes = _selected(descend(F, t), args)
        first = list(islice(nodes, _WRITE_BATCH + 1))
        if args.count_only or len(first) <= _WRITE_BATCH:
            _emit_result(chain(first, nodes), (), args, out)
            return
        _emit_result(first[:_WRITE_BATCH], (), args, out)
        # a child walks on while this process formats and writes
        from .pipeline import consume_forked
        consume_forked([lambda: chain(first[_WRITE_BATCH:], nodes)], _WRITE_BATCH,
                       lambda received: _emit_result(received, (), args, out))
        return
    if mode == "as-ascending":
        # the walk yields only the types asked, so no answer here is
        # filtered: it is counted, or its nodes are rendered as made
        from .ascending import _nodes, _start, _types
        irr, walk = _start(F, t, args.type)
        if args.count_only:
            _write(_count_lines(_types(walk)), out)
            return
        first = list(islice(walk, _WRITE_BATCH + 1))
        if len(first) <= _WRITE_BATCH:
            _emit_result(_nodes(first), (), args, out)
            return
        # the first walk only sized the answer: two workers walk it all
        from .pipeline import consume_claimed
        consume_claimed(irr, lambda claimed: _nodes(_start(F, t, args.type, claimed)[1]),
                        _WRITE_BATCH, lambda received: _emit_result(received, (), args, out))
        return
    if mode == "irreducible":
        from .irreducible import enumerate_irreducible
        # every irreducible has type 2 - F % 2: when the filter drops it,
        # a cut at b >= F, which no irreducible has, stops at the root
        own = 2 - F % 2
        result = enumerate_irreducible(F, 0 if args.type in (None, own) and t <= own else F)
    elif mode == "as-descending":
        from .descending import as_down_to_type
        result = as_down_to_type(F, t, with_edges=True)
    else:
        from .oracle import oracle_as
        result = oracle_as(F)
    _emit_result(_selected(map(compute_stats, result.semigroups), args), result.edges, args, out)


def _cmd_bench(args, report_file) -> str:
    """Run the bench, write its report to report_file if given, and
    return its table, which main writes once the report is complete."""
    # imported here: the bench module and its imports would add to the
    # start-up time of every other subcommand
    import json

    from .bench import DEFAULT_F_LIST, render_table, run_bench

    f_list = (list(DEFAULT_F_LIST) if args.frobenius_list is None
              else _int_list(args.frobenius_list))
    _check_frobenius(max(f_list, default=0))
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    report = run_bench(f_list, algorithms)
    if report_file:
        _write([json.dumps(report, indent=2)], report_file)
    return render_table(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="almostsym",
        description="Almost symmetric numerical semigroups with prescribed "
                    "Frobenius number and type.")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="invariants of one semigroup")
    group = info.add_mutually_exclusive_group(required=True)
    group.add_argument("--gens", help="comma-separated generators (gcd 1)")
    group.add_argument("--gaps", help="comma-separated gap set")

    for mode in ("irreducible", "as-ascending", "as-descending", "oracle"):
        p = sub.add_parser(mode, help=f"enumerate via {mode}")
        p.set_defaults(mode=mode, dot=False)
        p.add_argument("--frobenius", type=int, required=True)
        types = p.add_mutually_exclusive_group()
        types.add_argument("--type", type=int, default=None)
        types.add_argument("--min-type", type=int, default=None, dest="min_type")
        rendering = p.add_mutually_exclusive_group()
        rendering.add_argument("--count-only", action="store_true")
        if mode in ("irreducible", "as-descending"):
            rendering.add_argument("--dot", action="store_true")
        p.add_argument("--threads", type=int, default=1, help=(
            "must be >= 1; a no-op (kept for acceptance criterion 10): "
            "the records of an as-descending or as-ascending answer above "
            "one batch are walked in forked processes (one child, or two "
            "workers) and written in this one"))
        p.add_argument("--out", default=None)

    bench = sub.add_parser("bench", help="timing comparison of the algorithms")
    bench.add_argument("--frobenius-list", default=None,
                       help="comma-separated Frobenius numbers "
                            "(default: almostsym.bench.DEFAULT_F_LIST)")
    bench.add_argument("--algorithms", default="ascending,descending")
    bench.add_argument("--out", default=None)
    return parser


def _open_out(path: str):
    """Open the --out target before any work; return (file, staging).

    A new path, or a regular file that is neither a symlink nor hard
    linked, is staged: written to a new file beside it, with its mode,
    that main moves onto it only once the command has completed.  Any
    other target (a device such as /dev/null, a symlink, a FIFO, a hard
    linked file), and a file whose directory admits no new file, is
    opened and written in place (staging is None): a rename would replace
    it, not write to it."""
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    if old is None or (stat.S_ISREG(old.st_mode) and old.st_nlink == 1):
        staging = f"{path}.{os.getpid()}.tmp"
        try:
            fd = os.open(staging, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            if old is None:
                raise
        else:
            if old is not None:
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            return open(fd, "w"), staging
    return open(path, "w"), None


def _drop(opened, staging: str | None) -> None:
    """Remove the staging file of a command that did not complete and
    close its --out file, whose buffered output may fail to write again:
    the run has failed already, so no error here changes its exit code."""
    try:
        if staging:
            os.remove(staging)
        opened.close()
    except OSError:
        pass


def _stdout_to_devnull() -> None:
    """Point stdout at devnull after a write to it failed, so that the
    flush at interpreter exit cannot fail again (see "Note on SIGPIPE" in
    the documentation of the signal module)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout  # None when fd 1 was closed at start
    path = getattr(args, "out", None)
    # the stream that an OSError failed to write: --out, if given, until
    # it is complete, then stdout
    stream = f"--out {path}" if path else "stdout"
    opened = staging = table = None
    out_of_memory = False
    try:
        if getattr(args, "threads", 1) < 1:
            raise InvalidParameters("--threads must be >= 1")
        if path:  # before any work, so that a bad path costs no run
            opened, staging = _open_out(path)
        if args.command == "info":
            _cmd_info(args, out)
        elif args.command == "bench":
            table = _cmd_bench(args, opened)
        else:
            _cmd_enumerate(args, opened or out)
        if opened:
            opened.close()
            if staging:
                os.replace(staging, path)
            opened = staging = None
        stream = "stdout"
        if table:
            _write([table], out)
        if out is not None:
            out.flush()
    except BrokenPipeError:
        # the reader went away: the run ends quietly
        if stream == "stdout":
            _stdout_to_devnull()
        return 0
    except OSError as exc:
        # writing, closing or moving the output failed
        if stream == "stdout" and out is not None:
            _stdout_to_devnull()
        print(f"error: cannot write {stream}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # reported below: until this clause ends, the traceback it handles
        # keeps the frames of the failed run, and their memory, alive
        out_of_memory = True
    except ValueError as exc:  # InvalidParameters and the input errors of core
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        if opened:  # the command did not complete, so its output is dropped
            _drop(opened, staging)
    if out_of_memory:
        print("error: out of memory", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

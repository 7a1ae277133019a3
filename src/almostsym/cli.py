"""Command-line front end.

Subcommands: info, irreducible, as-ascending, as-descending, oracle, bench.
Enumerations stream one JSON object per semigroup in canonical gap order.
Each enumeration mode answers "type >= t" with one library call, t taken
from --type, else --min-type, else 1 (as-ascending also stops its scan
at --type); the one type filter, in _emit_result, then keeps
type == --type or type >= --min-type.  A
--type or --min-type below 1 is invalid (exit 2) in every mode; a type
above F, or of the other parity from F, is a valid question with an
empty answer (exit 0).

Exit codes: 0 success, 2 invalid parameters (or an --out path that
cannot be opened), 3 resource limit (F above core.INPUT_F_MAX in any
mode), 4 internal invariant failure.  A reader that closes stdout early
(`almostsym as-descending --frobenius 30 | head -1`) ends the run
quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

from .core import (INPUT_F_MAX, TABLE_BYTES, EnumerationResult,
                   InvalidParameters, LimitExceeded, Semigroup, _bits,
                   compute_stats, from_gaps, from_generators)
from .ascending import as_all_ascending
from .descending import as_down_to_type
from .irreducible import enumerate_irreducible
from .oracle import oracle_as


# _LIST_ROWS[i][v] is the ", "-joined decimal text of the positions of the
# set bits of byte value v at byte i of a mask ("" for v = 0), grown and
# bounded like core._BYTE_ROWS.
_LIST_ROWS: list[list[str]] = []


def _list_text(mask: int) -> str:
    """The positions of the set bits of a nonnegative mask, ascending, as
    the body of a JSON list: "1, 2, 5"."""
    global _LIST_ROWS
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    if len(data) > TABLE_BYTES:
        return ", ".join(map(str, _bits(mask)))
    rows = _LIST_ROWS
    if len(rows) < len(data):
        rows = _LIST_ROWS = rows + [
            [", ".join(str(8 * i + b) for b in range(8) if v >> b & 1)
             for v in range(256)]
            for i in range(len(rows), len(data))]
    return ", ".join([row[v] for row, v in zip(rows, data) if v])


def _record(S: Semigroup) -> str:
    """The JSON record of S, with fields in the fixed order gaps, msg, pf,
    frobenius, genus, type, multiplicity, as `json.dumps` would write it."""
    st = compute_stats(S)
    return (f'{{"gaps": [{_list_text(S.mask)}], "msg": [{_list_text(st.msg_mask)}], '
            f'"pf": [{_list_text(st.pf_mask)}], "frobenius": {st.frobenius}, '
            f'"genus": {st.genus}, "type": {st.type_}, '
            f'"multiplicity": {st.multiplicity}}}')


# Records per write.  print() makes two system calls per record when stdout
# is unbuffered (python -u, PYTHONUNBUFFERED), and a reader on a pipe then
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


def _emit_result(result: EnumerationResult, args, out) -> None:
    if args.dot:
        _emit_dot(result, out)
        return
    sems = result.semigroups
    if args.type is not None:
        sems = tuple(S for S in sems if compute_stats(S).type_ == args.type)
    elif args.min_type is not None:
        sems = tuple(S for S in sems if compute_stats(S).type_ >= args.min_type)
    if args.count_only:
        by_type: dict[int, int] = {}
        for S in sems:
            t = compute_stats(S).type_
            by_type[t] = by_type.get(t, 0) + 1
        for t in sorted(by_type):
            print(f'{{"type": {t}, "count": {by_type[t]}}}', file=out)
        print(f'{{"total": {len(sems)}}}', file=out)
    else:
        records = map(_record, sems)
        while batch := list(islice(records, _WRITE_BATCH)):
            out.write("\n".join(batch) + "\n")


def _emit_dot(result: EnumerationResult, out) -> None:
    def label(S: Semigroup) -> str:
        return "<" + ",".join(map(str, compute_stats(S).msg)) + ">"

    print("digraph tree {", file=out)
    for edge in result.edges:
        print(f'  "{label(edge.parent)}" -> "{label(edge.child)}" '
              f'[label="{edge.x}"];', file=out)
    print("}", file=out)


def _cmd_info(args, out) -> None:
    if args.gens:
        S = from_generators(_int_list(args.gens))
    else:
        S = from_gaps(_int_list(args.gaps))
    print(_record(S), file=out)


def _cmd_enumerate(args, out) -> None:
    F = args.frobenius
    mode = args.mode
    if args.dot and mode not in ("irreducible", "as-descending"):
        raise InvalidParameters("--dot is only available for tree modes")
    if any(t is not None and t < 1 for t in (args.type, args.min_type)):
        raise InvalidParameters("--type and --min-type must be >= 1")
    _check_frobenius(F)
    t = args.type if args.type is not None else args.min_type or 1
    if mode == "irreducible":
        result = enumerate_irreducible(F)
    elif mode == "as-ascending":
        result = as_all_ascending(F, t, args.type)
    elif mode == "as-descending":
        result = as_down_to_type(F, t, with_edges=args.dot)
    elif mode == "oracle":
        result = oracle_as(F)
    else:  # pragma: no cover
        raise InvalidParameters(f"unknown mode {mode!r}")
    _emit_result(result, args, out)


def _cmd_bench(args, out, report_file) -> None:
    # imported here: the bench module and its imports would add to the
    # start-up time of every other subcommand
    import json

    from .bench import DEFAULT_F_LIST, render_table, run_bench

    f_list = (list(DEFAULT_F_LIST) if args.frobenius_list is None
              else _int_list(args.frobenius_list))
    _check_frobenius(max(f_list, default=0))
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    report = run_bench(f_list, algorithms)
    print(render_table(report), file=out)
    if report_file:
        json.dump(report.to_dict(), report_file, indent=2)
        report_file.write("\n")


_THREADS_HELP = ("accepted for scripts that pass it (must be >= 1); every "
                 "command runs in one thread")


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
        p.set_defaults(mode=mode)
        p.add_argument("--frobenius", type=int, required=True)
        p.add_argument("--type", type=int, default=None)
        p.add_argument("--min-type", type=int, default=None, dest="min_type")
        p.add_argument("--count-only", action="store_true")
        p.add_argument("--dot", action="store_true")
        p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
        p.add_argument("--out", default=None)

    bench = sub.add_parser("bench", help="timing comparison of the algorithms")
    bench.add_argument("--frobenius-list", default=None,
                       help="comma-separated Frobenius numbers "
                            "(default: almostsym.bench.DEFAULT_F_LIST)")
    bench.add_argument("--algorithms", default="ascending,descending")
    bench.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    bench.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    opened = None
    try:
        if getattr(args, "threads", 1) < 1:
            raise InvalidParameters("--threads must be >= 1")
        if getattr(args, "out", None):
            try:  # before any work, so that a bad path costs no run
                opened = open(args.out, "w")
            except OSError as exc:
                raise InvalidParameters(f"cannot write --out {args.out}: {exc.strerror}")
        if args.command == "info":
            _cmd_info(args, out)
        elif args.command == "bench":
            _cmd_bench(args, out, opened)
        else:
            _cmd_enumerate(args, opened or out)
        out.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush
        # at interpreter exit cannot fail again (see "Note on SIGPIPE" in
        # the documentation of the signal module).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidParameters, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        if opened:
            opened.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

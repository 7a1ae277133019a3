#!/usr/bin/env python3
"""Write digests.json: the SHA-256 and record count of the expected
stdout of every request the workloads can make.

    python3 perfbench/make_digests.py

For each F used, the full `as-descending` and `as-ascending` outputs
must be byte-identical, and for F <= 18 so must `oracle`; otherwise
nothing is written.  A typed answer is made from that agreed full output:
the lines it selects (type == t, or type >= t), or with --count-only the
per-type counts of those lines and their total.  The committed file was
made from the seed implementation.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, capture, sha256, source_digest
from workloads import Request, possible_requests

ORACLE_F_MAX = 18


def count_lines(types: list[int]) -> bytes:
    """The --count-only answer for records of the given types."""
    lines = [json.dumps({"type": t, "count": types.count(t)}) for t in sorted(set(types))]
    lines.append(json.dumps({"total": len(types)}))
    return "".join(line + "\n" for line in lines).encode()


def expected(req: Request, full: bytes) -> bytes:
    """The stdout `req` must print, from the agreed full output of its F."""
    lines = [(json.loads(line)["type"], line + b"\n") for line in full.splitlines()]
    if req.flag == "--type":
        lines = [r for r in lines if r[0] == req.t]
    elif req.flag == "--min-type":
        lines = [r for r in lines if r[0] >= req.t]
    if req.count_only:
        return count_lines([t for t, _ in lines])
    return b"".join(line for _, line in lines)


def agreed_full(F: int) -> tuple[bytes, list[str]] | None:
    modes = ["as-descending", "as-ascending"] + (["oracle"] if F <= ORACLE_F_MAX else [])
    outs = {}
    for mode in modes:
        outs[mode] = capture(Request(mode, F))
        if outs[mode] is None:
            print(f"F={F} {mode} failed", file=sys.stderr)
            return None
    if len(set(outs.values())) != 1:
        print(f"F={F}: {', '.join(modes)} disagree", file=sys.stderr)
        return None
    return outs["as-descending"], modes


def main() -> int:
    requests = possible_requests()
    answers, agreed = {}, {}
    for F in sorted({r.frobenius for r in requests}):
        found = agreed_full(F)
        if found is None:
            return 1
        full, agreed[str(F)] = found
        for req in (r for r in requests if r.frobenius == F):
            out = expected(req, full)
            answers[req.answer_key()] = {
                "sha256": sha256(out), "records": 0 if req.count_only else out.count(b"\n")}
        print(f"F={F}: {answers[f'F={F}']['records']} records", file=sys.stderr)
    with open(DIGESTS, "w") as fh:
        json.dump({"src_sha256": source_digest(), "agreed": agreed, "answers": answers},
                  fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Start each benchmark request from a small process.

Linux carries a process's RSS high-water mark into the children it
starts, so a child's ru_maxrss is at least its parent's RSS at the time.
The benchmark grows large when --trace 1 runs requests in its own
process; this helper holds almost nothing, so the peak RSS it reports
for a request is the request's own.

Reads one JSON line per request on stdin, {"args": [...], "timeout": s},
runs `python <args>` and writes one JSON line per result on stdout.
Output is hashed as it arrives rather than kept.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import subprocess
import sys
import time

STDERR_TAIL = 4096


def launch(args: list[str], timeout: float) -> dict:
    """Run `python <args>` to its exit; peak RSS from os.wait4's rusage
    for this child alone (not RUSAGE_CHILDREN, a running maximum)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    digest = hashlib.sha256()
    nbytes = 0
    err = b""
    first = None
    killed = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, "out")
        sel.register(proc.stderr, selectors.EVENT_READ, "err")
        while sel.get_map():
            left = t0 + timeout - time.perf_counter()
            if left <= 0:
                proc.kill()
                killed = True
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 20)
                if not data:
                    sel.unregister(key.fileobj)
                elif key.data == "out":
                    if first is None and b"\n" in data:
                        first = time.perf_counter() - t0
                    digest.update(data)
                    nbytes += len(data)
                else:
                    err = (err + data)[-STDERR_TAIL:]
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {"wall": wall, "first_line": first, "rss_mb": usage.ru_maxrss / 1024,
            "rc": None if killed else proc.returncode, "sha256": digest.hexdigest(),
            "bytes": nbytes, "err": err.decode(errors="replace")}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(launch(req["args"], req["timeout"])), flush=True)


if __name__ == "__main__":
    main()

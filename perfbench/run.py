#!/usr/bin/env python3
"""Closed-loop benchmark of the almostsym command line.

    python3 perfbench/run.py --workload descend-f48 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --self-test

One client keeps one request in flight: each request is a fresh
`python -m almostsym.cli` process run from the `src/` directory of the
checkout that holds this directory, and the next one starts when it has
exited.  A run repeats the workload's pass of requests at least
MIN_PASSES times and until another pass would end after --seconds.
Every answer is checked against the committed digests (make_digests.py);
a nonzero exit, a timeout or a wrong answer is a failed request.

--trace 0 prints the end-to-end metrics, with every time scaled to a
reference host speed measured in the same run.  --trace 1 runs every request
three times (fresh process, in-process untraced, in-process traced) and
prints the per-layer metrics (tracer.py).  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the lines before it give
each metric with its unit and sample count, and the run's metadata.
README.md says why each workload exists, how each metric is computed,
and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from workloads import WORKLOADS, Request, typed_questions

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
MIN_PASSES = 4
SETUP_FIRST, SETUP_PER_PASS = 9, 3
REQUEST_TIMEOUT_S = 90.0
HARD_LIMIT_S = 165.0  # a run must exit within 180 s
TRACE_DIR = HERE / ".traces"
DIGESTS = HERE / "digests.json"
IMPORT_ONLY = ["-c", "import almostsym.cli"]
# A fresh interpreter that imports only the standard-library modules the
# CLI uses.  It runs no code of the program under test, and its median
# over a run follows the host's slow drift in speed (README.md).
REFERENCE = ["-c", "import argparse, concurrent.futures, dataclasses, datetime, "
             "functools, json, math, platform, typing"]
REFERENCE_S = 0.065  # the median time of REFERENCE that times are scaled to


class Launcher:
    """Client of launcher.py, the small process that starts every request."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=CHILD_ENV, cwd=ROOT, text=True)

    def run(self, args: list[str], timeout: float) -> dict:
        self.proc.stdin.write(json.dumps({"args": args, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def cli(req: Request) -> list[str]:
    return ["-m", "almostsym.cli", *req.argv()]


def capture(req: Request) -> bytes | None:
    """stdout of one request, or None if it fails or times out."""
    try:
        res = subprocess.run([sys.executable, *cli(req)], capture_output=True,
                             env=CHILD_ENV, cwd=ROOT, timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return res.stdout if res.returncode == 0 else None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Answers:
    """The committed expected answers (digests.json, see make_digests.py)."""

    def __init__(self):
        with open(DIGESTS) as fh:
            self.digests = json.load(fh)["answers"]

    def check(self, req: Request, digest: str) -> int | None:
        """Number of records in an answer whose stdout has SHA-256
        `digest`, or None if the answer is wrong."""
        want = self.digests.get(req.answer_key())
        return want["records"] if want is not None and digest == want["sha256"] else None


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def report_failure(req: Request, how: str, err: str = "") -> None:
    tail = err.strip().splitlines()[-1:] or [""]
    print(f"FAILED {' '.join(req.argv())}: {how} {tail[0]}", file=sys.stderr)


def closed_loop(requests, seconds, deadline, one, min_passes, between=None) -> list[list]:
    """Passes over `requests`, one request in flight, at least `min_passes`
    and until another pass would end after `seconds`.  `one(req, left)`
    runs a request with `left` seconds to the deadline.  A request is not
    started when less than twice its longest time so far (before its
    first run, REQUEST_TIMEOUT_S) is left; the run ends with that pass.
    `between()` runs after each pass."""
    passes = []
    longest: dict[Request, float] = {}
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        done = []
        for req in requests:
            t_req = time.perf_counter()
            left = deadline - t_req
            if left < (2 * longest[req] if req in longest else REQUEST_TIMEOUT_S):
                break
            done.append(one(req, left))
            longest[req] = max(longest.get(req, 0.0), time.perf_counter() - t_req)
        passes.append(done)
        if between:
            between()
        now = time.perf_counter()
        if len(done) < len(requests) or (
                len(passes) >= min_passes and (now - start) + (now - t) > seconds):
            return passes


def run_plain(launcher, requests, answers, seconds, deadline):
    """End-to-end metrics: fresh processes, no tracing.

    A request's time is the best of its verified executions in the run's
    passes, which lie whole passes apart: the run-to-run spread of that
    is far below the median's on a host whose speed changes every few
    seconds.  wall_s sums those best times over the pass, and the latency
    percentiles are taken over them.  Every time is then scaled by
    REFERENCE_S over the run's median REFERENCE time, which removes the
    host's slower drift."""
    def one(req, left):
        o = launcher.run(cli(req), min(REQUEST_TIMEOUT_S, left))
        records = answers.check(req, o["sha256"]) if o["rc"] == 0 else None
        if records is None:
            how = ("timeout" if o["rc"] is None else
                   f"exit {o['rc']}" if o["rc"] else "wrong output")
            report_failure(req, how, o["err"])
        return o, records

    setup: list[float] = []
    reference: list[float] = []

    def sample_setup(k):
        for _ in range(k):
            setup.append(launcher.run(IMPORT_ONLY, REQUEST_TIMEOUT_S)["wall"])
            reference.append(launcher.run(REFERENCE, REQUEST_TIMEOUT_S)["wall"])

    launcher.run(IMPORT_ONLY, REQUEST_TIMEOUT_S)  # byte-compiles a fresh checkout
    sample_setup(SETUP_FIRST)
    passes = closed_loop(requests, seconds, deadline, one, MIN_PASSES,
                         lambda: sample_setup(SETUP_PER_PASS))
    done = [s for p in passes for s in p]
    whole = [p for p in passes if len(p) == len(requests)] or passes[:1]
    per_request = list(zip(*whole))  # per request: its executions
    records = sum(col[0][1] or 0 for col in per_request if all(r is not None for _, r in col))
    # best times over the verified executions, or over all if none is
    columns = [[o for o, r in col if r is not None] or [o for o, _ in col]
               for col in per_request]
    best = [min(o["wall"] for o in col) for col in columns]
    firsts = [min(o["first_line"] or o["wall"] for o in col) for col in columns]
    wall = sum(best)
    ok = sum(1 for _, r in done if r is not None)
    k = len(whole)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (wall, "s", k),
        "first_record_s": (statistics.median(firsts), "s", k * len(firsts)),
        "records_per_s": (records / wall, "1/s", k),
        "requests_per_s": (len(columns) / wall, "1/s", k),
        "request_s.p50": (statistics.median(best), "s", k * len(best)),
        "request_s.p90": (percentile(best, 90), "s", k * len(best)),
        "peak_rss_mb": (max(o["rss_mb"] for o, _ in done), "MiB", len(done)),
        "success_frac": (ok / len(done), "fraction", len(done)),
    }
    # Scale every time to a host on which REFERENCE takes REFERENCE_S.
    scale = REFERENCE_S / statistics.median(reference)
    per = {"s": scale, "1/s": 1 / scale}
    scaled = {name: (value * per.get(unit, 1.0), unit, n)
              for name, (value, unit, n) in metrics.items()}
    extra = {"reference_s": statistics.median(reference), "host_scale": scale,
             "unscaled": {name: value for name, (value, unit, _) in metrics.items()
                          if unit in per}}
    return scaled, len(done), len(done) - ok, len(passes), extra


def run_traced(launcher, requests, answers, seconds, deadline, trace_path):
    """Per-layer metrics: each request as a fresh process (untraced wall),
    then in-process untraced and traced (tracing overhead and spans)."""
    from tracer import Tracer

    tracer = Tracer(SRC)
    rows = []

    def one(req, left):
        o = launcher.run(cli(req), min(REQUEST_TIMEOUT_S, left))
        if o["rc"] != 0 or answers.check(req, o["sha256"]) is None:
            report_failure(req, "fresh process", o["err"])
            return False
        plain = tracer.call(req.argv(), traced=False)
        tracer.request += 1
        traced = tracer.call(req.argv(), traced=True)
        good = all(c["rc"] == 0 and answers.check(req, sha256(c["out"])) is not None
                   for c in (plain, traced))
        if not good:
            report_failure(req, "in-process", (plain["err"] + traced["err"]).decode())
        rows.append((o["wall"], plain["wall"], traced["wall"], len(traced["out"]),
                     traced["stats_hits"], traced["stats_misses"]))
        return good

    # The first in-process call of a process runs slower; keep it out.
    tracer.call(requests[0].argv(), traced=False)
    origin = time.perf_counter()
    passes = closed_loop(requests, seconds, deadline, one, 1)
    done = [ok for p in passes for ok in p]
    n_pass = max(len(rows), 1) / len(requests)
    fresh, plain, traced = (sum(r[i] for r in rows) for i in range(3))
    hits, misses = sum(r[4] for r in rows), sum(r[5] for r in rows)
    L = tracer.layers()
    busy, calls, items = L["busy"], L["calls"], L["items"]

    def per_pass(value):
        return value / n_pass

    irr_requests = L["requests_using"].get("irreducible", 0)
    metrics = {
        "descending.busy_s": (per_pass(busy["descending"]), "s"),
        "descending.calls": (per_pass(calls["descending"]), "count"),
        "descending.records": (per_pass(items["descending"]), "count"),
        "descending.levels": (per_pass(L["depth"]["descending"]), "count"),
        "irreducible.busy_s": (per_pass(busy["irreducible"]), "s"),
        "irreducible.calls": (per_pass(calls["irreducible"]), "count"),
        "irreducible.nodes": (per_pass(items["irreducible"]), "count"),
        "irreducible.calls_per_request": (
            calls["irreducible"] / irr_requests if irr_requests else 0.0, "ratio"),
        "ascending.busy_s": (per_pass(busy["ascending"]), "s"),
        "ascending.calls": (per_pass(calls["ascending"]), "count"),
        "ascending.records": (per_pass(items["ascending"]), "count"),
        "core.compute_stats.busy_s": (per_pass(busy["core.compute_stats"]), "s"),
        "core.compute_stats.calls": (per_pass(calls["core.compute_stats"]), "count"),
        "core.compute_stats.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "core.collect.busy_s": (per_pass(busy["core.collect"]), "s"),
        "core.collect.items": (per_pass(items["core.collect"]), "count"),
        "core.collisions": (per_pass(L["collisions"]["core.collect"]), "count"),
        "cli.busy_s": (per_pass(busy["cli"]), "s"),
        "cli.bytes_out": (per_pass(sum(r[3] for r in rows)), "B"),
        "oracle.busy_s": (per_pass(busy["oracle"]), "s"),
        "oracle.calls": (per_pass(calls["oracle"]), "count"),
        "oracle.masks_scanned": (per_pass(tracer.masks_scanned), "count"),
        "classify.busy_s": (per_pass(busy["classify"]), "s"),
        "trace.overhead_frac": ((traced - plain) / plain if plain else 0.0, "ratio"),
        "process.unattributed_s": (per_pass(fresh - traced), "s"),
        "trace.accounted_frac": (
            (sum(busy.values()) + fresh - traced) / fresh if fresh else 0.0, "ratio"),
    }
    metrics = {k: (v, unit, len(rows)) for k, (v, unit) in metrics.items()}
    tracer.dump(trace_path, origin)
    failed = sum(1 for ok in done if not ok)
    walls = {"fresh_process_s": fresh, "in_process_s": plain, "traced_s": traced,
             "spans": len(tracer.spans), "span_file": str(trace_path.relative_to(ROOT))}
    return metrics, len(done), failed, len(passes), walls


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "almostsym").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def self_test() -> int:
    """Every one-byte corruption of a verified answer must be caught."""
    answers = Answers()
    status = 0
    question = typed_questions()[0]
    for req in (Request("as-descending", 14),
                replace(question, mode="as-descending", count_only=True),
                Request("oracle", 14, "--type", 10)):
        out = capture(req)
        if out is None or answers.check(req, sha256(out)) is None:
            print(f"self-test: {' '.join(req.argv())}: verified answer rejected")
            status = 1
            continue
        caught = 0
        for i in range(len(out)):
            bad = bytearray(out)
            bad[i] ^= 0x01
            caught += answers.check(req, sha256(bytes(bad))) is None
        print(f"self-test: {' '.join(req.argv())}: {caught}/{len(out)} "
              f"one-byte corruptions caught")
        if caught != len(out):
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted answers are rejected")
    args = parser.parse_args()
    if not (SRC / "almostsym" / "cli.py").is_file():
        print(f"error: no almostsym package under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    deadline = time.perf_counter() + HARD_LIMIT_S
    launcher = Launcher()  # started while this process is still small
    try:
        requests = WORKLOADS[args.workload](args.seed)
        answers = Answers()
        if args.trace:
            trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
            metrics, attempted, failed, passes, extra = run_traced(
                launcher, requests, answers, args.seconds, deadline, trace_path)
        else:
            metrics, attempted, failed, passes, extra = run_plain(
                launcher, requests, answers, args.seconds, deadline)
    finally:
        launcher.close()

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "src_sha256": source_digest(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "frobenius": sorted({r.frobenius for r in requests}),
        "requests_per_pass": len(requests), "passes": passes,
        "requests": attempted, "failed_frac": failed / max(attempted, 1),
        "samples": {name: n for name, (_, _, n) in metrics.items()}, **extra,
    }
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit:<9} n={n}")
    print(json.dumps({"metadata": meta}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

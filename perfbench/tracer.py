"""Traced in-process run of CLI requests.

`Tracer` imports the package from the checkout's `src/` and calls
`almostsym.cli.main(argv)` with stdout going to an in-memory sink.  While
tracing, it rebinds the public entry point of each layer, in every
package module that holds a reference to it, to a wrapper that records
a span: request, span id, parent span, layer, wall start and end, and
CPU time.  Spans stay in memory until the run ends.

Self time ("busy") is CPU time, so that the GIL-bound `--threads` pools
are counted once: a span on the request thread measures process CPU
time, which includes the pool's worker threads; a span on a worker
thread measures that thread's CPU time and is subtracted from the
request-thread span that was open when it started.  The self times of
one request therefore add up to the CPU time of its `cli.main` call.
"""

from __future__ import annotations

import gc
import importlib
import io
import itertools
import json
import sys
import threading
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time, thread_time

# (layer, module, attribute); the attribute is rebound wherever the
# package holds a reference to the same object.
TARGETS = [
    ("descending", "descending", "as_down_to_type"),
    ("ascending", "ascending", "as_all_ascending"),
    ("ascending", "ascending", "as_with_type"),
    ("irreducible", "irreducible", "enumerate_irreducible"),
    ("core.compute_stats", "core", "compute_stats"),
    ("oracle", "oracle", "oracle_as"),
    ("oracle", "oracle", "all_with_frobenius"),
    ("classify", "classify", "is_almost_symmetric"),
]
# Layers whose calls return an EnumerationResult worth counting.
ENUMERATING = {"descending", "ascending", "irreducible", "core.collect", "oracle"}


class _Sink(io.TextIOBase):
    """Byte-counting stdout: encodes each write, as a real stream would."""

    def __init__(self):
        self.parts: list[bytes] = []

    def write(self, s: str) -> int:
        self.parts.append(s.encode())
        return len(s)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class Tracer:
    def __init__(self, src: Path):
        sys.path.insert(0, str(src))
        pkg = importlib.import_module("almostsym")
        if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"almostsym imported from {pkg.__file__}, not {src}")
        self.mods = {name: importlib.import_module(f"almostsym.{name}")
                     for name in ("cli", "core", "descending", "ascending",
                                  "irreducible", "oracle", "classify")}
        every = [m for n, m in sys.modules.items()
                 if n == "almostsym" or n.startswith("almostsym.")]
        self._every = every
        # Every functools cache in the package, cleared before each call so
        # that an in-process call does the work a fresh process would.
        self._caches = list({id(f): f for m in every for f in vars(m).values()
                             if callable(getattr(f, "cache_clear", None))}.values())
        self._stats_info = getattr(self.mods["core"].compute_stats, "cache_info", None)
        self.spans: list[tuple] = []
        self.masks_scanned = 0
        self.request = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._root = self._wrap("cli", self.mods["cli"].main)

    # -- rebinding -------------------------------------------------------
    def _wrap(self, layer, fn):
        spans, local, main_stack, ids = self.spans, self._local, self._main_stack, self._ids
        summarize = layer in ENUMERATING
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            on_main = stack is main_stack
            clock = process_time if on_main else thread_time
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            sid = next(ids)
            stack.append(sid)
            result = None
            t0 = perf_counter()
            c0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu = clock() - c0
                t1 = perf_counter()
                stack.pop()
                size = None
                if summarize and result is not None:
                    size = (len(result), getattr(result, "depth", 0),
                            getattr(result, "collisions", 0))
                spans.append((tracer.request, sid, parent, layer, on_main,
                              t0, t1, cpu, size))

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, fn, replacement) -> None:
        for m in self._every:
            for name, value in list(vars(m).items()):
                if value is fn:
                    self._saved.append((m, name, value))
                    setattr(m, name, replacement)

    def install(self) -> None:
        for layer, mod, attr in TARGETS:
            fn = getattr(self.mods[mod], attr, None)
            if fn is not None:
                self._rebind(fn, self._wrap(layer, fn))
        result_cls = getattr(self.mods["core"], "EnumerationResult", None)
        collect = result_cls and vars(result_cls).get("collect")
        if isinstance(collect, classmethod):
            self._saved.append((result_cls, "collect", collect))
            result_cls.collect = classmethod(self._wrap("core.collect", collect.__func__))
        scan = getattr(self.mods["oracle"], "_scan_range", None)
        if scan is not None:
            def counted(F, lo, hi, _scan=scan):
                with self._lock:
                    self.masks_scanned += hi - lo
                return _scan(F, lo, hi)
            self._rebind(scan, counted)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    # -- calls -----------------------------------------------------------
    def call(self, argv: list[str], traced: bool) -> dict:
        """Run one request in-process, as a fresh process would see it."""
        for cached in self._caches:
            cached.cache_clear()
        gc.collect()
        gc.freeze()  # earlier requests' objects are not this request's GC work
        info0 = self._stats_info() if self._stats_info else None
        out, err = _Sink(), _Sink()
        main = self._root if traced else self.mods["cli"].main
        if traced:
            self.install()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the benchmark keeps going and counts a failure
            traceback.print_exc()
            rc = 1
        finally:
            wall = perf_counter() - t0
            if traced:
                self.uninstall()
        hits = misses = 0
        if info0 is not None:
            info1 = self._stats_info()
            hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
        return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                "wall": wall, "stats_hits": hits, "stats_misses": misses}

    # -- aggregation -----------------------------------------------------
    def layers(self) -> dict:
        """Per-layer totals over every traced span: busy (self CPU time),
        entries into the layer, and the sizes of the results returned."""
        layer_of = {s[1]: s[3] for s in self.spans}
        child_cpu: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[2] is not None:
                child_cpu[s[2]] += s[7]
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        items: dict[str, int] = defaultdict(int)
        depth: dict[str, int] = defaultdict(int)
        collisions: dict[str, int] = defaultdict(int)
        requests_using: dict[str, set] = defaultdict(set)
        for req, sid, parent, layer, _, _, _, cpu, size in self.spans:
            busy[layer] += cpu - child_cpu[sid]
            if parent is not None and layer_of[parent] == layer:
                continue
            calls[layer] += 1
            requests_using[layer].add(req)
            if size is not None:
                items[layer] += size[0]
                depth[layer] += size[1]
                collisions[layer] += size[2]
        return {"busy": busy, "calls": calls, "items": items, "depth": depth,
                "collisions": collisions,
                "requests_using": {k: len(v) for k, v in requests_using.items()}}

    def dump(self, path: Path, origin: float) -> None:
        """Write every span as one JSON line, times relative to `origin`."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            for req, sid, parent, layer, on_main, t0, t1, cpu, _ in self.spans:
                fh.write(json.dumps({
                    "request": req, "span": sid, "parent": parent,
                    "layer": layer, "request_thread": on_main,
                    "start_s": round(t0 - origin, 6), "end_s": round(t1 - origin, 6),
                    "cpu_s": round(cpu, 6)}) + "\n")

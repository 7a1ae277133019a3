"""perfbench's tracer rebinds package functions by name and passes over a
name it cannot find, so a renamed hook would silently drop a layer from
the trace.  These tests pin every name it looks up."""

import importlib
import inspect
import runpy
from pathlib import Path

import almostsym.oracle
from almostsym import EnumerationResult

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    # run_path compiles the source in memory: nothing is written beside it
    return runpy.run_path(str(TRACER), run_name="perfbench_tracer")["TARGETS"]


def test_every_trace_target_resolves():
    targets = tracer_targets()
    assert targets
    for layer, module, attr in targets:
        mod = importlib.import_module(f"almostsym.{module}")
        assert callable(getattr(mod, attr, None)), (layer, module, attr)


def test_oracle_scan_range_takes_a_mask_range():
    # the tracer counts oracle.masks_scanned as hi - lo of each call
    assert list(inspect.signature(almostsym.oracle._scan_range).parameters) == \
        ["F", "lo", "hi"]


def test_collect_stays_a_classmethod():
    # the tracer wraps collect only when it finds a classmethod; any other
    # kind of attribute drops the core.collect spans without a word
    assert isinstance(vars(EnumerationResult)["collect"], classmethod)


"""Enumeration of almost symmetric numerical semigroups with prescribed
Frobenius number and type."""

from .core import (ClosureViolation, EnumerationResult, InvalidParameters,
                   LimitExceeded, NotNumerical, Semigroup, Stats, TreeEdge,
                   compute_stats, from_gaps, from_generators)
from .classify import (as_exists, canonical_C, canonical_M, is_almost_symmetric,
                       is_irreducible, is_pseudo_symmetric, is_symmetric)
from .irreducible import enumerate_irreducible, irreducible_children
from .ascending import as_all_ascending, as_with_type, b_count, removal_candidates
from .descending import as_all_descending, as_down_to_type
from .oracle import all_with_frobenius, oracle_as

_BENCH_NAMES = ("BenchReport", "BenchRow", "run_bench", "render_table")

__all__ = [
    "ClosureViolation", "NotNumerical", "InvalidParameters", "LimitExceeded",
    "Semigroup", "Stats", "TreeEdge", "EnumerationResult",
    "BenchReport", "BenchRow",
    "from_gaps", "from_generators", "compute_stats",
    "is_symmetric", "is_pseudo_symmetric", "is_irreducible",
    "is_almost_symmetric", "canonical_C", "canonical_M", "as_exists",
    "irreducible_children", "enumerate_irreducible",
    "b_count", "removal_candidates", "as_with_type", "as_all_ascending",
    "as_down_to_type", "as_all_descending",
    "all_with_frobenius", "oracle_as",
    "run_bench", "render_table",
]


def __getattr__(name: str):
    # bench is imported on first use, to keep it out of every CLI start
    if name in _BENCH_NAMES:
        from . import bench
        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

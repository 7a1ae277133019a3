"""Enumeration of almost symmetric numerical semigroups with prescribed
Frobenius number and type.

Importing the package loads none of its modules.  A public name is looked
up in the module that defines it (_SOURCES) on first access, so a command
line start compiles and runs only the modules its command uses.
"""

from importlib import import_module

# module -> the public names it defines
_SOURCES = {
    "core": ("ClosureViolation", "NotNumerical", "InvalidParameters",
             "LimitExceeded", "Semigroup", "Stats", "TreeEdge",
             "EnumerationResult", "from_gaps", "from_generators",
             "compute_stats"),
    "bench": ("run_bench", "render_table"),
    "classify": ("is_symmetric", "is_pseudo_symmetric", "is_irreducible",
                 "is_almost_symmetric", "canonical_C", "canonical_M",
                 "as_exists"),
    "irreducible": ("irreducible_children", "enumerate_irreducible"),
    "ascending": ("b_count", "removal_candidates", "as_with_type",
                  "as_all_ascending"),
    "descending": ("as_down_to_type", "as_all_descending"),
    "oracle": ("all_with_frobenius", "oracle_as"),
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_SOURCE_OF)


def __getattr__(name: str):
    module = _SOURCE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Brute-force ground truth for small Frobenius numbers.

Every subset of {1..F-1} is tried as a gap set (together with F itself);
closure of the complement is checked with the definitional double loop,
deliberately sharing no logic with core.from_gaps.  Exponential in F:
guarded by a configurable limit, default 18.
"""

from __future__ import annotations

import functools

from .core import EnumerationResult, InvalidParameters, LimitExceeded, Semigroup, compute_stats
from .classify import is_almost_symmetric

DEFAULT_F_MAX = 18


def _scan_range(F: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Gap sets (as sorted tuples) for subset bitmasks in [lo, hi)."""
    found = []
    for mask in range(lo, hi):
        gaps = {i + 1 for i in range(F - 1) if mask >> i & 1}
        gaps.add(F)
        members = [x for x in range(1, F) if x not in gaps]
        ok = True
        for i, a in enumerate(members):
            if 2 * a > F:
                break
            for b in members[i:]:
                if a + b > F:
                    break
                if a + b in gaps:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(sorted(gaps)))
    return found


@functools.lru_cache(maxsize=None)
def _all_with_frobenius(F: int) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(_scan_range(F, 0, 1 << (F - 1))))


def all_with_frobenius(F: int, f_max: int = DEFAULT_F_MAX) -> EnumerationResult:
    """Every numerical semigroup with Frobenius number exactly F."""
    if F < 1:
        raise InvalidParameters("F must be >= 1")
    if F > f_max:
        raise LimitExceeded(f"oracle limited to F <= {f_max}")
    return EnumerationResult.collect((Semigroup(g) for g in _all_with_frobenius(F)),
                                     "oracle", 0)


def oracle_as(F: int, t: int | None = None,
              f_max: int = DEFAULT_F_MAX) -> EnumerationResult:
    """Almost symmetric semigroups with Frobenius number F, optionally
    restricted to type t."""
    base = all_with_frobenius(F, f_max)
    sems = [S for S in base if is_almost_symmetric(S)
            and (t is None or compute_stats(S).type_ == t)]
    return EnumerationResult.collect(sems, "oracle", 0)

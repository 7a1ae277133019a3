"""Brute-force ground truth for small Frobenius numbers.

Every subset of {1..F-1} is tried as a gap set (together with F itself),
held as a gap mask; closure of the complement is checked with the
definitional double loop over bit tests, deliberately sharing no logic
with core.from_gaps.  Nothing is cached: each call scans all 2^(F-1)
masks.  Exponential in F: F is limited to DEFAULT_F_MAX, the one place
that states the limit (bench leaves out the F the oracle refuses).
"""

from __future__ import annotations

from .core import EnumerationResult, InvalidParameters, LimitExceeded, Semigroup, compute_stats
from .classify import is_almost_symmetric

DEFAULT_F_MAX = 18


def _scan_range(F: int, lo: int, hi: int) -> list[int]:
    """Gap masks G = sub << 1 | 1 << F of the semigroups among the subset
    bitmasks sub of {1..F-1} in [lo, hi): G is kept unless some members
    a <= b with a + b <= F sum to a gap."""
    found = []
    for sub in range(lo, hi):
        G = sub << 1 | 1 << F
        ok = True
        for a in range(1, F // 2 + 1):
            if G >> a & 1:
                continue
            for b in range(a, F - a + 1):
                if G >> (a + b) & 1 and not G >> b & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(G)
    return found


def all_with_frobenius(F: int) -> EnumerationResult:
    """Every numerical semigroup with Frobenius number exactly F; F above
    DEFAULT_F_MAX raises LimitExceeded."""
    if F < 1:
        raise InvalidParameters("F must be >= 1")
    if F > DEFAULT_F_MAX:
        raise LimitExceeded(f"oracle limited to F <= {DEFAULT_F_MAX}")
    masks = _scan_range(F, 0, 1 << (F - 1))
    return EnumerationResult.collect(map(Semigroup._from_mask, masks), "oracle", 0)


def oracle_as(F: int, t: int | None = None) -> EnumerationResult:
    """Almost symmetric semigroups with Frobenius number F, optionally
    restricted to type t (acceptance criteria 4 and 5 ask for one type)."""
    base = all_with_frobenius(F)
    sems = [S for S in base if is_almost_symmetric(S)
            and (t is None or compute_stats(S).type_ == t)]
    return EnumerationResult.collect(sems, "oracle", 0)

"""Ascending enumeration: almost symmetric semigroups with Frobenius
number F and type t, built by removing generator sets from irreducibles.

An AS semigroup with invariants (F, t) is exactly S' \\ A for some
irreducible S' with Frobenius F and some A subset of msg(S') with
|A| = ceil(t/2) - 1, every x in A strictly between F/2 and F, and
x + y - F outside S' \\ A for every pair x, y in A (pairs include x = y).

Removing k generators from an irreducible of type t(S') (1 for odd F, 2
for even F) gives type 2k + t(S'), so "type >= t" means |A| >= k(t) =
ceil(t/2) - 1, with t rounded up to the parity of F.  Both entry points
answer through one scan: every irreducible's removal sets are walked
once, up to the largest size asked for, and the sets of at least the
smallest size asked for are kept.  A bounded type range min..max costs
only the removal sets up to size k(max).
"""

from __future__ import annotations

from typing import Iterator

from .core import EnumerationResult, InvalidParameters, Semigroup, compute_stats
from .classify import as_exists
from .irreducible import enumerate_irreducible


def b_count(S: Semigroup) -> int:
    """Number of minimal generators strictly between F/2 and F."""
    st = compute_stats(S)
    F = st.frobenius
    return sum(1 for x in st.msg if 2 * x > F and x < F)


def _removal_sets(S: Semigroup, max_size: int) -> Iterator[tuple[int, ...]]:
    """All valid removal sets A with |A| <= max_size, in lexicographic
    order (the empty set first).

    A is grown in increasing order, so when a candidate z is appended the
    pair sums z + y - F (y in A or y = z) are all smaller than z; if such
    a sum lies in S it must already have been chosen, which makes the
    incremental check exact: every prefix of a valid set is valid.
    """
    st = compute_stats(S)
    F = st.frobenius
    cands = [x for x in st.msg if 2 * x > F and x < F]
    chosen: list[int] = []
    chosen_set: set[int] = set()

    def extend(start: int) -> Iterator[tuple[int, ...]]:
        yield tuple(chosen)
        if len(chosen) == max_size:
            return
        for i in range(start, len(cands)):
            z = cands[i]
            ok = True
            for y in (*chosen, z):
                s = z + y - F
                if S.contains(s) and s not in chosen_set and s != z:
                    ok = False
                    break
            if ok:
                chosen.append(z)
                chosen_set.add(z)
                yield from extend(i + 1)
                chosen.pop()
                chosen_set.discard(z)

    return extend(0)


def removal_candidates(S: Semigroup, t: int) -> list[tuple[int, ...]]:
    """The sets A of size ceil(t/2) - 1 admissible for removal from the
    irreducible S to produce an AS semigroup of type t."""
    if t < 1:
        raise InvalidParameters("t must be >= 1")
    k = (t + 1) // 2 - 1
    return [A for A in _removal_sets(S, k) if len(A) == k]


def _remove(S: Semigroup, A: tuple[int, ...]) -> Semigroup:
    # removed elements are minimal generators, so the complement stays closed
    mask = S.mask
    for x in A:
        mask |= 1 << x
    return Semigroup._from_mask(mask)


def _scan(irr: EnumerationResult, kmin: int, kmax: int,
          use_b_filter: bool = True) -> list[Semigroup]:
    """S' \\ A for every irreducible S' in irr and every removal set A of
    S' with kmin <= |A| <= kmax, walking the removal sets of each S' once.
    The b-filter skips an S' with fewer than kmin generators in (F/2, F),
    which has no removal set that large."""
    out = []
    for Sp in irr:
        if use_b_filter and b_count(Sp) < kmin:
            continue
        out += [_remove(Sp, A) for A in _removal_sets(Sp, kmax) if len(A) >= kmin]
    return out


def as_with_type(F: int, t: int, *, use_b_filter: bool = True,
                 _irreducibles: EnumerationResult | None = None) -> EnumerationResult:
    """All almost symmetric semigroups with Frobenius number F and type t.

    Empty when no such semigroup exists (F + t odd, or t > F).  The
    b-filter restricts attention to irreducibles with at least
    ceil(t/2) - 1 generators in (F/2, F); it is a lossless pruning and can
    be disabled for differential testing.
    """
    if F < 1 or t < 1:
        raise InvalidParameters("F and t must be >= 1")
    if not as_exists(F, t):
        return EnumerationResult.collect((), "ascending", 0)
    irr = _irreducibles if _irreducibles is not None else enumerate_irreducible(F)
    k = (t + 1) // 2 - 1
    return EnumerationResult.collect(_scan(irr, k, k, use_b_filter), "ascending", k)


def as_all_ascending(F: int, min_type: int = 1,
                     max_type: int | None = None) -> EnumerationResult:
    """All almost symmetric semigroups with Frobenius number F and
    min_type <= type <= max_type (max_type defaults to F), the bounds
    rounded inward to the parity of F, as in as_down_to_type; empty,
    without enumerating the irreducibles, when no type is in range.

    The irreducibles are computed once and each is scanned once for
    removal sets of every size from k(min_type) up to k(max_type); a set
    of size k yields a semigroup of type 2k + t(S').  With the default
    bounds this is every AS semigroup with Frobenius number F, and with
    min_type = max_type = t the same scan as as_with_type(F, t).
    """
    if F < 1 or min_type < 1:
        raise InvalidParameters("F and min_type must be >= 1")
    lo = min_type + (F - min_type) % 2
    hi = F if max_type is None else min(max_type, F)
    hi -= (F - hi) % 2
    if lo > hi:
        return EnumerationResult.collect((), "ascending", 0)
    kmax = (hi + 1) // 2 - 1
    return EnumerationResult.collect(
        _scan(enumerate_irreducible(F), (lo + 1) // 2 - 1, kmax), "ascending", kmax)

"""Ascending enumeration: almost symmetric semigroups with Frobenius
number F and type t, built by removing generator sets from irreducibles.

An AS semigroup with invariants (F, t) is exactly S' \\ A for some
irreducible S' with Frobenius F and some A subset of msg(S') with
|A| = ceil(t/2) - 1, every x in A strictly between F/2 and F, and
x + y - F outside S' \\ A for every pair x, y in A (pairs include x = y).
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
    out = []
    for Sp in irr:
        if use_b_filter and b_count(Sp) < k:
            continue
        for A in removal_candidates(Sp, t):
            out.append(_remove(Sp, A))
    return EnumerationResult.collect(out, "ascending", k)


def as_all_ascending(F: int) -> EnumerationResult:
    """All almost symmetric semigroups with Frobenius number F: the union
    of as_with_type(F, t) over feasible t, computing the irreducibles once.

    Each irreducible is scanned once for removal sets of every size; a set
    of size k yields a semigroup of type 2k + t(S').
    """
    if F < 1:
        raise InvalidParameters("F must be >= 1")
    irr = enumerate_irreducible(F)
    kmax = (F + 1) // 2 - 1
    out = [_remove(Sp, A) for Sp in irr for A in _removal_sets(Sp, kmax)]
    return EnumerationResult.collect(out, "ascending", kmax)

"""Ascending enumeration: almost symmetric semigroups with Frobenius
number F and type t, built by removing generator sets from irreducibles.

An AS semigroup with invariants (F, t) is exactly S' \\ A for some
irreducible S' with Frobenius F and some A subset of msg(S') with
|A| = ceil(t/2) - 1, every x in A strictly between F/2 and F, and
x + y - F outside S' \\ A for every pair x, y in A (pairs include x = y).

Removing k generators from an irreducible of type t(S') (1 for odd F, 2
for even F) gives type 2k + t(S'), so "type >= t" means |A| >= k(t) =
ceil(t/2) - 1, with t rounded up to the parity of F.  Both entry points
answer through one walk per irreducible, which yields only the removal
sets with k(min) <= |A| <= k(max): it stops growing a set at size
k(max), and leaves a branch as soon as the candidates left, or those of
them that can still join it, can no longer bring it to k(min).  An
irreducible with fewer than k(min) candidates has no such set, and
neither has any of its descendants in the tree of irreducibles, since
the candidates shrink on every edge: with k(min) > 0 the walk takes
its irreducibles from the tree cut there (enumerate_irreducible(F,
k(min))), which is all of I(F) that can answer.

A removal set is a mask, bit x set iff x is in A, from the walk to the
record.  With G the gap mask of S', the pair test for a candidate z
joining A (every element of A below z) is one AND:

    not ((A | 1 << z) << z >> F) & ~(G | A)

Shifting A | {z} left by z and right by F leaves exactly the sums
y + z - F >= 0 for y in A | {z}; each is positive, since y, z > F/2, and
~(G | A) holds the members of S' \\ A, so the AND is empty exactly when
none of those sums is a member of S' \\ A.

The walk yields pairs (S', A), and the library and the command line
share one path from them: _nodes maps each pair to the node of S' \\ A,
its gap, msg and PF masks and multiplicity, without building S' \\ A.
The library makes each node a semigroup that carries it as its stats,
as a descending result does; the command line renders each node's
record, or counts the pair's type (_types).  The gap mask of S' \\ A is
that of S' with A added, its multiplicity is m(S') unless m(S') is in
A, and

    PF(S' \\ A) = PF(S') | A | (F - A)

(Nari, Semigroup Forum 2013).  With s a nonzero member of S' \\ A:
x in A is pseudo-Frobenius, since x + s is in S' and, a sum of two
nonzero members, no minimal generator, so not in A.  F - x is a gap of
S' (x is in S', F is not), and F - x + s is a member of S' \\ A.  It is
in S': above F when s > x; else a gap other than F/2 would put x - s
in S', and x would be no minimal generator, and the gap F/2 would make
2s = 2x - F a member of S' \\ A, against the pair test.  It is not some
y in A, which would make s = x + y - F a member, against the pair test.
F/2 in PF(S') (F even) stays one: F/2 + s = y in A would make 2s =
2y - F a member.  The three sets are disjoint (above F/2, below F/2, and
{F} or {F/2, F}), and their sizes add up to the type 2|A| + t(S'), so
they are all of PF.
Only msg is computed, by core's one minimal-generator sumset.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import itemgetter

from .core import (EnumerationResult, InvalidParameters, Semigroup, Stats, _bits,
                   _msg_mask, _multiplicity, _reverse, _sort_distinct, compute_stats)
from .classify import is_irreducible
from .irreducible import _generator_window, enumerate_irreducible


def b_count(S: Semigroup) -> int:
    """Number of minimal generators strictly between F/2 and F."""
    return _generator_window(S).bit_count()


def _removal_sets(S: Semigroup, kmin: int, kmax: int) -> Iterator[int]:
    """The masks of the valid removal sets A with kmin <= |A| <= kmax, in
    lexicographic order of their elements (the empty set first).

    A is grown in increasing order, so when a candidate z joins the pair
    sums z + y - F (y in A or y = z) are all smaller than z; if such a
    sum lies in S it must already have been chosen, which makes the
    incremental test (the one AND of the module docstring) exact: every
    prefix of a valid set is valid.  The walk is depth first from a
    stack that holds each set's extensions in decreasing order, so sets
    come out in lexicographic order.  A set is extended only while the
    candidates left can still bring it to kmin elements; at the root
    this skips an S with fewer than kmin candidates (b_count(S) < kmin)
    without a step.

    Below kmin a set is also left when too few of the candidates left
    can still join it.  With L the mask of those candidates, z is in
    some valid set grown from A only if

        not ((A | 1 << z) << z >> F) & ~(G | A | L)

    since every set grown from A lies inside A | L, and each pair sum
    y + z - F (y in A or y = z) must be a gap of S' or in that set.  If
    k plus the number of candidates that pass is below kmin, no set
    grown from A reaches kmin.  The kmin = 0 walk makes no such test.
    """
    F, G = S.frobenius, S.mask
    window = _generator_window(S)
    cands = _bits(window)
    stack = [(0, 0, 0)]  # (A, |A|, index of the first candidate left)
    while stack:
        A, k, start = stack.pop()
        if k >= kmin:
            yield A
        else:  # the candidates left are those above max(A)
            free = ~(G | A | window >> A.bit_length() << A.bit_length())
            if k + sum(not ((A | 1 << z) << z >> F) & free for z in cands[start:]) < kmin:
                continue
        if k == kmax:
            continue
        members = ~(G | A)  # the members of S' \ A
        # after cands[i], kmin - k - 1 more candidates must remain
        for i in range(len(cands) - 1 - max(kmin - k - 1, 0), start - 1, -1):
            z = cands[i]
            B = A | 1 << z
            if not (B << z >> F) & members:
                stack.append((B, k + 1, i + 1))


def removal_candidates(S: Semigroup, t: int) -> list[tuple[int, ...]]:
    """The sets A of size ceil(t/2) - 1 admissible for removal from the
    irreducible S to produce an AS semigroup of type t."""
    if t < 1:
        raise InvalidParameters("t must be >= 1")
    k = (t + 1) // 2 - 1
    return list(map(_bits, _removal_sets(S, k, k)))


def _start(F: int, min_type: int, max_type: int | None,
           irr: Iterable[Semigroup] | None = None
           ) -> tuple[Iterable[Semigroup], Iterator[tuple[Semigroup, int]]]:
    """(irreducibles, walk): the irreducibles, irr if given, else the
    tuple of the tree walk cut at k(min_type), enumerate_irreducible(F,
    k(min_type)): all of I(F) when k(min_type) = 0, and else only the
    irreducibles with at least k(min_type) candidates, the ones that can
    hold a removal set of that size.  The walk yields the pair (S', A)
    for each of them in turn and each removal set A of S' (a mask) whose
    size gives a type in [min_type, max_type], the bounds rounded inward
    to the parity of F, in the order of _removal_sets.  The walk takes
    each S' from irr only when it reaches it, so irr may be a stream
    that hands out irreducibles as the walk asks for them.  Both are
    empty, and the tree not walked, when no type is in range."""
    if F < 1 or min_type < 1:
        raise InvalidParameters("F and min_type must be >= 1")
    lo = min_type + (F - min_type) % 2
    hi = F if max_type is None else min(max_type, F)
    hi -= (F - hi) % 2
    kmin, kmax = (lo + 1) // 2 - 1, (hi + 1) // 2 - 1
    if lo > hi:
        irr = ()
    elif irr is None:
        irr = enumerate_irreducible(F, kmin).semigroups
    return irr, ((Sp, A) for Sp in irr for A in _removal_sets(Sp, kmin, kmax))


def _ascend(F: int, min_type: int, max_type: int | None,
            irr: Iterable[Semigroup] | None = None) -> EnumerationResult:
    """S' \\ A for every irreducible S' (irr, else I(F)) and every removal
    set A of S' whose size gives a type in [min_type, max_type] (see
    _start), each carrying its stats from its node (_nodes, which sorts
    and checks them); empty, without enumerating the irreducibles, when
    no type is in range.  Each S' is walked once for removal sets of
    every size from k(min_type) up to k(max_type), and taken from irr
    only when the walk reaches it."""
    return EnumerationResult(tuple(
        Semigroup._from_mask(G, Stats(G, msg, pf, m))
        for G, msg, pf, m in _nodes(_start(F, min_type, max_type, irr)[1])))


def _nodes(pairs: Iterable[tuple[Semigroup, int]]) -> Iterator[tuple[int, int, int, int]]:
    """The nodes (gap, msg and PF masks, multiplicity) of S' \\ A for the
    pairs (S', A) of a walk, in canonical order, checked as collect
    checks its semigroups (RuntimeError).  Only the gap mask G' | A and
    S' are kept until the sort; the rest of each node is derived from
    its removal A = G ^ G' (see the module docstring) as it is taken."""
    found = [(Sp.mask | A, Sp) for Sp, A in pairs]
    _sort_distinct(found, itemgetter(0), "ascending")
    for G, Sp in found:
        _, _, pf, m = compute_stats(Sp)
        A = G ^ Sp.mask
        if A:  # A, and F - A: A mirrored within F (_reverse needs a set bit)
            pf |= A | _reverse(A) << G.bit_length() - A.bit_length()
        if G >> m & 1:  # m(S') was removed
            m = _multiplicity(G)
        yield G, _msg_mask(G, m), pf, m


def _types(pairs: Iterable[tuple[Semigroup, int]]) -> Iterator[int]:
    """The type 2|A| + t(S') of S' \\ A for each pair (S', A) of a walk;
    RuntimeError once the walk has ended if two pairs gave one gap
    mask."""
    masks = set()
    count = 0
    for Sp, A in pairs:
        masks.add(Sp.mask | A)
        count += 1
        yield 2 * A.bit_count() + compute_stats(Sp).pf_mask.bit_count()
    if len(masks) != count:
        raise RuntimeError("ascending enumeration produced a semigroup twice")


def as_with_type(F: int, t: int, *,
                 _irreducibles: EnumerationResult | None = None) -> EnumerationResult:
    """All almost symmetric semigroups with Frobenius number F and type t:
    as_all_ascending(F, t, t), from the given irreducibles if any.

    Empty when no such semigroup exists (F + t odd, or t > F).  The walk
    yields only the removal sets of size ceil(t/2) - 1, and passes over
    an irreducible with fewer candidates than that at once.

    _irreducibles, I(F) computed once by a caller that asks for many t
    (acceptance criterion 4), must all be irreducible with Frobenius
    number F: InvalidParameters otherwise.  The test computes each
    semigroup's stats, which the walk then reuses from the instance.
    """
    if _irreducibles is not None and any(S.frobenius != F or not is_irreducible(S)
                                         for S in _irreducibles):
        raise InvalidParameters(
            f"given semigroups must be irreducible with Frobenius number {F}")
    return _ascend(F, t, t, _irreducibles)


def as_all_ascending(F: int, min_type: int = 1,
                     max_type: int | None = None) -> EnumerationResult:
    """All almost symmetric semigroups with Frobenius number F and
    min_type <= type <= max_type (max_type defaults to F), the bounds
    rounded inward to the parity of F, as in as_down_to_type.

    With the default bounds this is every AS semigroup with Frobenius
    number F; a removal set of size k yields a semigroup of type
    2k + t(S').
    """
    return _ascend(F, min_type, max_type)

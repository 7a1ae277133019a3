"""Symmetry predicates and the two canonical semigroups C(F) and M(F)."""

from __future__ import annotations

from .core import InvalidParameters, Semigroup, _reverse, compute_stats


def is_symmetric(S: Semigroup) -> bool:
    """True iff PF(S) = {F(S)}.  False for S = N."""
    return bool(S.mask) and compute_stats(S).pf_mask == 1 << S.frobenius


def is_pseudo_symmetric(S: Semigroup) -> bool:
    """True iff PF(S) = {F/2, F}.  False for S = N, and for odd F: with
    PF = {(F - 1)/2, F}, the gap (F + 1)/2 would be below no element of
    PF in the order of S."""
    F = S.frobenius
    return bool(S.mask) and compute_stats(S).pf_mask == 1 << F | 1 << F // 2


def is_irreducible(S: Semigroup) -> bool:
    """True iff S is symmetric or pseudo-symmetric."""
    return is_symmetric(S) or is_pseudo_symmetric(S)


def is_almost_symmetric(S: Semigroup) -> bool:
    """True iff every gap of the second type is pseudo-Frobenius.  On
    the gap mask G those gaps, the x with F - x a gap, are
    G & reverse(G), so the test is one AND with the PF mask's complement.

    Cross-checked against the equivalent minimal-genus characterization
    2g = F + t; disagreement between the two definitions is an internal
    error, never a return value.
    """
    if not S.mask:
        return True
    st = compute_stats(S)
    G = st.gap_mask
    by_subset = not G & _reverse(G) & ~st.pf_mask
    by_genus = 2 * st.genus == st.frobenius + st.type_
    if by_subset != by_genus:
        raise RuntimeError(f"almost-symmetry characterizations disagree on {S}")
    return by_subset


def canonical_C(F: int) -> Semigroup:
    """The irreducible with Frobenius F all of whose minimal generators
    exceed F/2: gaps {1..⌊F/2⌋, F}."""
    if F < 1:
        raise InvalidParameters("F must be >= 1")
    return Semigroup(list(range(1, F // 2 + 1)) + [F])


def canonical_M(F: int) -> Semigroup:
    """The semigroup {0, F+1, F+2, ...}; the unique one with both
    Frobenius number and type equal to F."""
    if F < 1:
        raise InvalidParameters("F must be >= 1")
    return Semigroup(range(1, F + 1))


def as_exists(F: int, t: int) -> bool:
    """Whether an almost symmetric semigroup with Frobenius number F and
    type t exists: F + t even and t <= F.  Total on positive inputs;
    degenerate combinations return False rather than raising."""
    return F >= 1 and t >= 1 and t <= F and (F + t) % 2 == 0

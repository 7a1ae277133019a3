"""Symmetry predicates and the two canonical semigroups C(F) and M(F)."""

from __future__ import annotations

from .core import InvalidParameters, Semigroup, compute_stats


def is_symmetric(S: Semigroup) -> bool:
    """True iff PF(S) = {F(S)}.  False for S = N."""
    st = compute_stats(S)
    return bool(S.mask) and st.pf == (st.frobenius,)


def is_pseudo_symmetric(S: Semigroup) -> bool:
    """True iff F is even and PF(S) = {F/2, F}."""
    st = compute_stats(S)
    F = st.frobenius
    return F >= 2 and F % 2 == 0 and st.pf == (F // 2, F)


def is_irreducible(S: Semigroup) -> bool:
    """True iff S is symmetric or pseudo-symmetric."""
    return is_symmetric(S) or is_pseudo_symmetric(S)


def is_almost_symmetric(S: Semigroup) -> bool:
    """True iff every gap of the second type is pseudo-Frobenius.

    Cross-checked against the equivalent minimal-genus characterization
    2g = F + t; disagreement between the two definitions is an internal
    error, never a return value.
    """
    if not S.mask:
        return True
    st = compute_stats(S)
    by_subset = set(st.gaps_second) <= set(st.pf)
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

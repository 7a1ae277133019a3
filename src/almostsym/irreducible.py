"""The rooted tree of irreducible numerical semigroups with fixed
Frobenius number, rooted at C(F)."""

from __future__ import annotations

from .core import (EnumerationResult, InvalidParameters, Semigroup, TreeEdge,
                   _bits, compute_stats)
from .classify import canonical_C


def _generator_window(S: Semigroup) -> int:
    """Mask of the minimal generators x of S with F/2 < x < F: those the
    tree of irreducibles swaps for F - x and ascending removes.  0 for
    S = N."""
    F = S.frobenius
    window = (1 << F) - (2 << F // 2) if F > 0 else 0
    return compute_stats(S).msg_mask & window


def irreducible_children(S: Semigroup) -> list[TreeEdge]:
    """Children of an irreducible S in the tree of irreducibles with its
    Frobenius number F.

    One child per minimal generator x with F/2 < x < F, 2x - F not in S,
    3x != 2F, 4x != 3F and F - x < multiplicity; the child is
    (S \\ {x}) | {F - x}, i.e. its gaps are (gaps \\ {F - x}) | {x}, and
    has Frobenius number F too.  Edges are returned in increasing x.
    """
    F = S.frobenius
    m = compute_stats(S).multiplicity
    edges = []
    for x in _bits(_generator_window(S)):
        if S.contains(2 * x - F):
            continue
        if 3 * x == 2 * F or 4 * x == 3 * F:
            continue
        if F - x >= m:
            continue
        child = Semigroup._from_mask((S.mask & ~(1 << (F - x))) | 1 << x)
        edges.append(TreeEdge(S, child, x))
    return edges


def enumerate_irreducible(F: int, min_b: int = 0) -> EnumerationResult:
    """The irreducible numerical semigroups with Frobenius number F that
    have at least min_b minimal generators strictly between F/2 and F
    (b, the bits of _generator_window): all of them for min_b = 0, by
    depth-first traversal from C(F).  One dict, gap mask to semigroup,
    records every node reached: a node reached twice is an invariant
    failure (RuntimeError), and its values are the answer.

    The walk cuts every child with b < min_b, neither keeping nor
    expanding it, and loses nothing: b falls by at least one on every
    edge S -> T of the tree, so no descendant of a cut node has
    b >= min_b.  The child T = (S \\ {x}) | {F - x} of an edge adds
    F - x < F/2 to S, below the window, and takes x out of it.  A
    minimal generator y of T in the window is a member of S; were it no
    minimal generator of S, a sum of two nonzero members of S one of
    which is not in T, it would be y = x + a with 0 < a = y - x < F - x
    < m(S), a nonzero member of S below m(S), which does not exist.  So
    the window of T lies in that of S without x, b(T) <= b(S) - 1, and
    the answer is I(F) filtered by b >= min_b, with the tree's edges
    into it (the ancestors of a node that is kept are kept too)."""
    if F < 1:
        raise InvalidParameters("F must be >= 1")
    root = canonical_C(F)
    found = {root.mask: root} if _generator_window(root).bit_count() >= min_b else {}
    edges = []
    stack = list(found.values())
    while stack:
        for edge in irreducible_children(stack.pop()):
            child = edge.child
            if min_b and _generator_window(child).bit_count() < min_b:
                continue
            if child.mask in found:
                raise RuntimeError(f"irreducible tree revisited {child}")
            found[child.mask] = child
            edges.append(edge)
            stack.append(child)
    return EnumerationResult.collect(found.values(), "irreducible", edges)

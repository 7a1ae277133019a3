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


def enumerate_irreducible(F: int) -> EnumerationResult:
    """All irreducible numerical semigroups with Frobenius number F,
    by depth-first traversal from C(F).  One dict, gap mask to
    semigroup, records every node reached: a node reached twice is an
    invariant failure (RuntimeError), and its values are the answer."""
    if F < 1:
        raise InvalidParameters("F must be >= 1")
    root = canonical_C(F)
    found = {root.mask: root}
    edges = []
    stack = [root]
    while stack:
        children = irreducible_children(stack.pop())
        edges.extend(children)
        for edge in children:
            if edge.child.mask in found:
                raise RuntimeError(f"irreducible tree revisited {edge.child}")
            found[edge.child.mask] = edge.child
            stack.append(edge.child)
    return EnumerationResult.collect(found.values(), "irreducible", edges)

"""The rooted tree of irreducible numerical semigroups with fixed
Frobenius number, rooted at C(F)."""

from __future__ import annotations

from .core import (EnumerationResult, InvalidParameters, Semigroup, TreeEdge,
                   _canonical_key, compute_stats)
from .classify import canonical_C


def irreducible_children(S: Semigroup, F: int) -> list[TreeEdge]:
    """Children of an irreducible S in the tree of irreducibles with
    Frobenius F.

    One child per minimal generator x with F/2 < x < F, 2x - F not in S,
    3x != 2F, 4x != 3F and F - x < multiplicity; the child is
    (S \\ {x}) | {F - x}, i.e. its gaps are (gaps \\ {F - x}) | {x}.
    Edges are returned in increasing x.
    """
    st = compute_stats(S)
    edges = []
    for x in st.msg:
        if not (2 * x > F and x < F):
            continue
        if S.contains(2 * x - F):
            continue
        if 3 * x == 2 * F or 4 * x == 3 * F:
            continue
        if F - x >= st.multiplicity:
            continue
        child = Semigroup._from_mask((S.mask & ~(1 << (F - x))) | 1 << x)
        edges.append(TreeEdge(S, child, x))
    return edges


def enumerate_irreducible(F: int) -> EnumerationResult:
    """All irreducible numerical semigroups with Frobenius number F,
    by depth-first traversal from C(F), children in increasing x."""
    if F < 1:
        raise InvalidParameters("F must be >= 1")
    root = canonical_C(F)
    found = [root]
    edges = []
    seen = {root.mask}
    depth = 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        children = irreducible_children(node, F)
        edges.extend(children)
        # reversed so that DFS visits smaller x first
        for edge in reversed(children):
            if edge.child.mask in seen:
                raise RuntimeError(f"irreducible tree revisited {edge.child}")
            seen.add(edge.child.mask)
            found.append(edge.child)
            stack.append((edge.child, d + 1))
    edges.sort(key=lambda e: (_canonical_key(e.parent), e.x))
    return EnumerationResult.collect(found, "irreducible", depth, edges)

"""Descending enumeration: start at M(F) (type F) and repeatedly adjoin
one element, dropping the type by exactly 2 per level, down to a target
type.  Gap and pseudo-Frobenius sets are maintained incrementally.

Adjoining x to an AS semigroup S' with Frobenius F and type t yields an
AS semigroup of type t - 2 exactly when t - 1 <= x <= m(S') - 1 and
  (b) for every gap g of the child with g - x > 0, g - x is also a gap;
  (c) x + p is a member for every p in PF(S') \\ {x, F - x}.
Then PF shrinks by {x, F - x} and the child's multiplicity is x.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (EnumerationResult, InvalidParameters, Semigroup, TreeEdge,
                   _bits, compute_stats)


@dataclass(frozen=True)
class DescendNode:
    """One node of the descending tree: gap set, pseudo-Frobenius set and
    multiplicity, all maintained incrementally."""

    gaps: tuple[int, ...]
    pf: tuple[int, ...]
    multiplicity: int


def _mask(values) -> int:
    m = 0
    for v in values:
        m |= 1 << v
    return m


def root_node(F: int) -> DescendNode:
    """The M(F) node: gaps = pf = {1..F}, multiplicity F + 1."""
    full = tuple(range(1, F + 1))
    return DescendNode(full, full, F + 1)


def _children_masks(ga: int, pf: int, m: int, F: int) -> list[tuple[int, int, int]]:
    t = pf.bit_count()
    out = []
    # x = F is excluded (adjoining F would change the Frobenius number),
    # so the range is capped at min(m, F)
    for x in range(t - 1, min(m, F)):
        ga1 = ga & ~(1 << x)
        pf1 = pf & ~(1 << x) & ~(1 << (F - x))
        # (b): every child gap g > x must have g - x a gap as well
        if (ga1 >> x) & ~ga1:
            continue
        # (c): sums pf1 + x must avoid the child gaps (sums > F are members)
        if (pf1 << x) & ga1:
            continue
        out.append((ga1, pf1, x))
    return out


def descend_children(node: DescendNode, F: int) -> list[DescendNode]:
    """Children of an AS node of type >= 3; each has type two less."""
    if len(node.pf) < 3:
        raise InvalidParameters("descent requires type >= 3")
    children = _children_masks(_mask(node.gaps), _mask(node.pf),
                               node.multiplicity, F)
    return [DescendNode(_bits(ga1), _bits(pf1), x) for ga1, pf1, x in children]


def as_down_to_type(F: int, t: int, *, with_edges: bool = False,
                    verify: bool = False) -> EnumerationResult:
    """All AS semigroups with Frobenius number F and type >= t (rounded up
    to the parity of F), by level-order descent from M(F).

    verify=True recomputes the pseudo-Frobenius set of every node from
    scratch and checks almost symmetry, raising RuntimeError on the first
    mismatch; it is meant for differential testing, not production runs.
    """
    if F < 1:
        raise InvalidParameters("F must be >= 1")
    if t < 1 or t > F:
        raise InvalidParameters("need 1 <= t <= F")
    target = t if (F - t) % 2 == 0 else t + 1

    root = (1 << (F + 1)) - 2  # M(F): gaps = pf = {1..F}
    level = [(root, root, F + 1)]
    all_masks = list(level)
    edges: list[tuple[int, int, int]] = []  # (parent gaps mask, child gaps mask, x)
    cur_type = F
    depth = 0
    while cur_type > target:
        nxt = []
        append = nxt.append
        # same candidate test as _children_masks, inlined: every node of
        # the level has type cur_type, so the candidate range is shared
        lo = cur_type - 1
        for ga, pf, m in level:
            for x in range(lo, min(m, F)):
                ga1 = ga & ~(1 << x)
                if (ga1 >> x) & ~ga1:
                    continue
                pf1 = pf & ~(1 << x) & ~(1 << (F - x))
                if (pf1 << x) & ga1:
                    continue
                append((ga1, pf1, x))
                if with_edges:
                    edges.append((ga, ga1, x))
        if cur_type == F and [ga for ga, _, _ in nxt] != [root & ~(1 << (F - 1))]:
            raise RuntimeError("M(F) must have the single child with gaps {1..F} \\ {F-1}")
        level = nxt
        all_masks.extend(nxt)
        cur_type -= 2
        depth += 1

    by_mask = {ga: Semigroup._from_mask(ga) for ga, _, _ in all_masks}
    if len(by_mask) != len(all_masks):
        raise RuntimeError("descending tree revisited a node")
    if verify:
        for ga, pf, _ in all_masks:
            S = by_mask[ga]
            st = compute_stats(S)
            if st.pf != _bits(pf):
                raise RuntimeError(f"incremental PF drifted on {S}")
            if 2 * st.genus != st.frobenius + st.type_:
                raise RuntimeError(f"descending reached {S}, which is not almost symmetric")
    tree_edges = tuple(
        TreeEdge(by_mask[p], by_mask[c], x) for p, c, x in edges
    ) if with_edges else ()
    return EnumerationResult.collect(by_mask.values(), "descending", depth,
                                     tree_edges)


def as_all_descending(F: int, *, with_edges: bool = False,
                      verify: bool = False) -> EnumerationResult:
    """All AS semigroups with Frobenius number F (descend to type 1)."""
    return as_down_to_type(F, 1, with_edges=with_edges, verify=verify)

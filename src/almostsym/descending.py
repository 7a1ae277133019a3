"""Descending enumeration: start at M(F) (type F) and repeatedly adjoin
one element, dropping the type by exactly 2 per level, down to a target
type.  Gap, pseudo-Frobenius and minimal-generator sets are maintained
incrementally, as masks.

Adjoining x to an AS semigroup S' with Frobenius F and type t yields an
AS semigroup of type t - 2 exactly when t - 1 <= x <= m(S') - 1 and
  (b) for every gap g of the child with g - x > 0, g - x is also a gap;
  (c) x + p is a member for every p in PF(S') \\ {x, F - x}.
Then PF shrinks by {x, F - x} and the child's multiplicity is x.  The
child's minimal generators are x and those of S' that are not x plus a
nonzero member of the child (any new sum involves x).
"""

from __future__ import annotations

from .core import (EnumerationResult, InvalidParameters, Semigroup, Stats,
                   TreeEdge, compute_stats)


def as_down_to_type(F: int, t: int, *, with_edges: bool = False,
                    verify: bool = False) -> EnumerationResult:
    """All AS semigroups with Frobenius number F and type >= t (rounded up
    to the parity of F), by level-order descent from M(F); empty when
    t > F.  Every result carries its stats, taken from the descent.

    verify=True recomputes the stats of every node from its gap mask
    alone and compares them with the descent's, then checks almost
    symmetry, raising RuntimeError on the first mismatch; it is meant for
    differential testing, not production runs.
    """
    if F < 1:
        raise InvalidParameters("F must be >= 1")
    if t < 1:
        raise InvalidParameters("t must be >= 1")
    if t > F:
        return EnumerationResult.collect((), "descending", 0)
    target = t if (F - t) % 2 == 0 else t + 1

    # Minimal generators are at most 2F + 1, so msg masks and the member
    # masks that test them need bits 1..2F+1 only.
    members = (2 << (2 * F + 1)) - 2
    root = (1 << (F + 1)) - 2  # M(F): gaps = pf = {1..F}, msg = {F+1..2F+1}
    level = [(root, root, members & ~root, F + 1)]
    all_nodes = list(level)
    edges: list[tuple[int, int, int]] = []  # (parent gaps mask, child gaps mask, x)
    cur_type = F
    depth = 0
    while cur_type > target:
        nxt = []
        append = nxt.append
        # every node of the level has type cur_type, so the candidate
        # range starts at the same x; x = F is excluded (adjoining F
        # would change the Frobenius number), so it ends below min(m, F)
        lo = cur_type - 1
        for ga, pf, msg, m in level:
            for x in range(lo, min(m, F)):
                ga1 = ga & ~(1 << x)
                # (b): every child gap g > x must have g - x a gap as well
                if (ga1 >> x) & ~ga1:
                    continue
                pf1 = pf & ~(1 << x) & ~(1 << (F - x))
                # (c): sums pf1 + x must avoid the child gaps (sums > F are members)
                if (pf1 << x) & ga1:
                    continue
                append((ga1, pf1, (msg & ~((members ^ ga1) << x)) | 1 << x, x))
                if with_edges:
                    edges.append((ga, ga1, x))
        if cur_type == F and [node[0] for node in nxt] != [root & ~(1 << (F - 1))]:
            raise RuntimeError("M(F) must have the single child with gaps {1..F} \\ {F-1}")
        level = nxt
        all_nodes.extend(nxt)
        cur_type -= 2
        depth += 1

    by_mask = {ga: Semigroup._from_mask(ga, Stats(ga, msg, pf, m))
               for ga, pf, msg, m in all_nodes}
    if len(by_mask) != len(all_nodes):
        raise RuntimeError("descending tree revisited a node")
    if verify:
        for S in by_mask.values():
            carried = compute_stats(S)
            st = compute_stats(Semigroup._from_mask(S.mask))
            if st != carried:  # msg, PF, multiplicity or genus
                raise RuntimeError(f"descending stats {carried} drifted from {st}")
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

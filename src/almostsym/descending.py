"""Descending enumeration: start at M(F) (type F) and repeatedly adjoin
one element, dropping the type by exactly 2 per level, down to a target
type.  Gap, pseudo-Frobenius and minimal-generator sets are maintained
incrementally, as masks.

Adjoining x to an AS semigroup S' with Frobenius F and type t yields an
AS semigroup of type t - 2 exactly when t - 1 <= x <= m(S') - 1 and
  (b) x is a special gap of S': x in PF(S') and 2x in S';
  (c) x + p is a member for every p in PF(S') \\ {x, F - x}.
(b) is the closure of S' u {x}, for any gap x of S' (such an x is a
"special gap", Rosales & Garcia-Sanchez, Numerical Semigroups, 2009):
x + s for each nonzero s in S' must lie in S', i.e. x is in PF(S'); 2x
must lie in S'; and then every kx + s = x + ((k - 1)x + s) does, by
induction on k.  So the candidates are the bits of PF(S') in
[t - 1, min(m(S'), F)) whose bit 2x in the gap mask is clear.
Then PF shrinks by {x, F - x} and the child's multiplicity is x.
The child's minimal generators are x and those of S' that are not x plus
a nonzero member of the child (any new sum involves x).

Parent rule: every node S but M(F) has the one parent S \\ {m(S)}, gap
mask S.mask | 1 << m(S), since the x adjoined last becomes m(S).  So
the tree is a function of its nodes.

Canonical order, walked: canonical order (core._canonical_key) is the
lexicographic order of gap tuples, and it sorts by multiplicity first,
largest first.  Every gap tuple of a semigroup of multiplicity m starts
1..m-1, and at index m-1 the semigroup with the larger m has the gap m
where the other has a larger gap.  A child's multiplicity x is below its
parent's.  So descend walks buckets of equal multiplicity from F + 1
down: it yields a bucket's nodes, expanding each into the buckets below,
and frees the bucket.  No bucket needs a sort.  Two nodes of
multiplicity x compare as their parents do: both parents have the gaps
1..x, and each child drops the same x.  Every parent lies in an earlier
bucket and has at most one child of multiplicity x, so when the buckets
are expanded in canonical order, each bucket fills in canonical order.
A semigroup reached twice has one multiplicity both times, so a
duplicate check per bucket sees every duplicate.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import (EnumerationResult, InvalidParameters, Semigroup, Stats,
                   TreeEdge, compute_stats)


def descend(F: int, t: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield the AS semigroups with Frobenius number F and type >= t
    (rounded up to the parity of F) as descent nodes, plain tuples (gap
    mask, msg mask, PF mask, multiplicity) in the field order of
    core.Stats, in canonical order (see the module docstring); nothing
    when t > F.  Only the buckets not yet yielded are held.  A semigroup
    reached twice raises RuntimeError."""
    if F < 1 or t < 1:
        raise InvalidParameters("F must be >= 1" if F < 1 else "t must be >= 1")
    if t > F:
        return
    target = t if (F - t) % 2 == 0 else t + 1

    # Minimal generators are at most 2F + 1, so msg masks and the member
    # masks that test them need bits 1..2F+1 only.
    members = (2 << (2 * F + 1)) - 2
    root = (1 << (F + 1)) - 2  # M(F): gaps = pf = {1..F}, msg = {F+1..2F+1}
    # buckets[x]: the nodes of multiplicity x reached so far
    buckets = [[] for _ in range(F + 1)] + [[(root, members & ~root, root, F + 1)]]
    for mult in range(F + 1, 0, -1):
        bucket = buckets.pop()
        if len({node[0] for node in bucket}) != len(bucket):
            raise RuntimeError("descending enumeration produced a semigroup twice")
        for ga, msg, pf, m in bucket:
            yield ga, msg, pf, m
            # a node of type t has the candidates x from t - 1 on; x = F is
            # excluded (adjoining F would change the Frobenius number), so
            # they end below min(m, F).  (b): the special gaps x of the
            # parent, PF bits with 2x a member.  A node of the target type
            # is a leaf of this walk.
            lo = pf.bit_count() - 1
            window = (pf & ((1 << min(m, F)) - 1)) >> lo if lo >= target else 0
            while window:
                low = window & -window
                window ^= low
                x = lo + low.bit_length() - 1
                if ga >> 2 * x & 1:
                    continue
                ga1 = ga & ~(1 << x)
                pf1 = pf & ~(1 << x) & ~(1 << (F - x))
                # (c): sums pf1 + x must avoid the child gaps (sums > F are members)
                if (pf1 << x) & ga1:
                    continue
                buckets[x].append((ga1, (msg & ~((members ^ ga1) << x)) | 1 << x, pf1, x))
        # after M(F)'s bucket, if M(F) was expanded (F > target)
        if mult > F > target and [node[0] for node in buckets[F - 1]] != [root & ~(1 << (F - 1))]:
            raise RuntimeError("M(F) must have the single child with gaps {1..F} \\ {F-1}")


def as_down_to_type(F: int, t: int, *, with_edges: bool = False,
                    verify: bool = False) -> EnumerationResult:
    """All AS semigroups with Frobenius number F and type >= t (rounded up
    to the parity of F): the nodes of descend(F, t), collected; empty
    when t > F.  Every result carries its stats, taken from the descent.
    with_edges=True adds the tree edges, derived by the parent rule above.

    verify=True recomputes the stats of every node from its gap mask
    alone and compares them with the descent's, then checks almost
    symmetry, raising RuntimeError on the first mismatch; it is meant for
    differential testing, not production runs.
    """
    sems = [Semigroup._from_mask(ga, Stats(ga, msg, pf, m))
            for ga, msg, pf, m in descend(F, t)]
    if verify:
        for S in sems:
            carried = compute_stats(S)
            st = compute_stats(Semigroup._from_mask(S.mask))
            if st != carried:  # msg, PF, multiplicity or genus
                raise RuntimeError(f"descending stats {carried} drifted from {st}")
            if 2 * st.genus != st.frobenius + st.type_:
                raise RuntimeError(f"descending reached {S}, which is not almost symmetric")
    edges = []
    if with_edges:  # M(F), the first node, has no parent
        by_mask = {S.mask: S for S in sems}
        for S in sems[1:]:
            m = compute_stats(S).multiplicity
            if (parent := by_mask.get(S.mask | 1 << m)) is None:
                raise RuntimeError(f"descending node {S} has no parent in the tree")
            edges.append(TreeEdge(parent, S, m))
    return EnumerationResult.collect(sems, "descending", max(F - t, 0) // 2, edges)


def as_all_descending(F: int, *, with_edges: bool = False,
                      verify: bool = False) -> EnumerationResult:
    """All AS semigroups with Frobenius number F (descend to type 1)."""
    return as_down_to_type(F, 1, with_edges=with_edges, verify=verify)

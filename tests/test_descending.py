import functools

import pytest
from hypothesis import given, strategies as st

from almostsym import (InvalidParameters, compute_stats, from_gaps,
                       is_almost_symmetric, Semigroup)
import almostsym.descending
from almostsym.core import _mask_key
from almostsym.descending import as_all_descending, as_down_to_type, descend
from almostsym.ascending import as_all_ascending
from almostsym.irreducible import enumerate_irreducible
from almostsym.oracle import oracle_as


def children(result, gaps):
    """(gaps, pf, multiplicity) of the children of the node `gaps`, in
    increasing adjoined element."""
    return [(e.child.gaps, compute_stats(e.child).pf, compute_stats(e.child).multiplicity)
            for e in sorted(result.edges, key=lambda e: e.x)
            if e.parent.gaps == gaps]


def test_root_node():
    result = as_down_to_type(5, 5, with_edges=True)
    assert len(result) == 1 and result.edges == ()
    st = compute_stats(result.semigroups[0])
    assert result.semigroups[0].gaps == st.pf == (1, 2, 3, 4, 5)
    assert st.multiplicity == 6
    assert st.msg == (6, 7, 8, 9, 10, 11)


def test_descend_from_m5():
    result = as_down_to_type(5, 3, with_edges=True)
    assert children(result, (1, 2, 3, 4, 5)) == [((1, 2, 3, 5), (2, 3, 5), 4)]


def test_descend_second_level():
    result = as_down_to_type(5, 1, with_edges=True)
    assert children(result, (1, 2, 3, 5)) == [
        ((1, 3, 5), (5,), 2), ((1, 2, 5), (5,), 3)]


def test_descend_requires_type_at_least_three():
    # nodes of type 1 or 2 are leaves: the descent adjoins nothing to them
    for F in range(1, 15):
        result = as_down_to_type(F, 1, with_edges=True)
        parents = {e.parent for e in result.edges}
        assert all(compute_stats(S).type_ >= 3 for S in parents)


def test_down_to_type_5_1():
    assert as_down_to_type(5, 1).gap_sets() == {
        (1, 2, 3, 4, 5), (1, 2, 3, 5), (1, 3, 5), (1, 2, 5)}


def test_down_to_type_5_5():
    assert as_down_to_type(5, 5).gap_sets() == {(1, 2, 3, 4, 5)}


def test_down_to_type_11_7():
    result = as_down_to_type(11, 7)
    layer7 = {S.gaps for S in result if compute_stats(S).type_ == 7}
    assert layer7 == {(1, 2, 3, 4, 5, 6, 7, 8, 11), (1, 2, 3, 4, 5, 6, 7, 9, 11)}
    types = {compute_stats(S).type_ for S in result}
    assert types == {7, 9, 11}


def test_invalid_parameters():
    with pytest.raises(InvalidParameters):
        as_down_to_type(5, 0)
    # a type above F is a question with an empty answer
    assert len(as_down_to_type(5, 6)) == 0


def test_opposite_parity_rounds_up():
    # F even, t odd: smallest feasible type is t + 1
    result = as_down_to_type(10, 3)
    assert min(compute_stats(S).type_ for S in result) == 4


def test_small_frobenius_direct():
    for F in range(1, 5):
        assert as_all_descending(F).gap_sets() == oracle_as(F).gap_sets()


def test_incremental_pf_is_exact():
    for F in range(1, 31):
        as_down_to_type(F, 1, verify=True)  # raises on the first drifted node


def test_verify_catches_corrupted_msg(monkeypatch):
    Stats = almostsym.descending.Stats
    corrupted = (1, 2, 3, 5)  # the child of M(5)

    def carried(ga, msg, pf, m):
        if ga == sum(1 << g for g in corrupted):
            msg ^= 1 << 8  # 8 = 4 + 4 is not a minimal generator
        return Stats(ga, msg, pf, m)

    monkeypatch.setattr(almostsym.descending, "Stats", carried)
    as_down_to_type(5, 1)  # without verify the corruption goes unseen
    with pytest.raises(RuntimeError, match="drifted"):
        as_down_to_type(5, 1, verify=True)


def test_verify_catches_a_node_that_is_not_almost_symmetric(monkeypatch):
    # gaps {1, 2, 4, 5}: F = 5, type 2, genus 4, and 2g != F + t.  Its
    # stats are correct, so only the almost-symmetry check can catch it.
    walk = almostsym.descending.descend
    not_as = tuple(compute_stats(from_gaps([1, 2, 4, 5])))

    def descend_and_stray(F, t):
        yield from walk(F, t)
        yield not_as

    monkeypatch.setattr(almostsym.descending, "descend", descend_and_stray)
    with pytest.raises(RuntimeError, match="not almost symmetric"):
        as_down_to_type(5, 1, verify=True)


def test_every_node_is_as_with_expected_type():
    for F in range(5, 15):
        result = as_all_descending(F)
        for S in result:
            st = compute_stats(S)
            assert st.frobenius == F
            assert is_almost_symmetric(S)
            assert (F - st.type_) % 2 == 0


def test_parent_recovery():
    for F in range(5, 15):
        result = as_down_to_type(F, 1, with_edges=True)
        nodes = result.gap_sets()
        for edge in result.edges:
            x = edge.x
            assert compute_stats(edge.child).multiplicity == x
            recovered = set(edge.child.gaps) | {x}
            assert tuple(sorted(recovered)) == edge.parent.gaps
            assert edge.parent.gaps in nodes
        # tree: every non-root node has exactly one parent edge
        assert len(result.edges) == len(result) - 1


def window_descent(F):
    """The descent to type 1 or 2 as a copy of the level loop that tried
    every x of the window [t - 1, min(m, F)) and tested (b) as closure of
    the child's complement, before candidates were narrowed to special
    gaps.  Returns the nodes (gap, PF and msg masks, multiplicity) in the
    order the loop reached them, and every edge (parent gap mask, child
    gap mask, x) as the descent once recorded it."""
    members = (2 << (2 * F + 1)) - 2
    root = (1 << (F + 1)) - 2
    level = [(root, root, members & ~root, F + 1)]
    nodes = list(level)
    edges = []
    for cur_type in range(F, 2, -2):  # down to type 3 (F odd) or 4 (F even)
        nxt = []
        for ga, pf, msg, m in level:
            for x in range(cur_type - 1, min(m, F)):
                ga1 = ga & ~(1 << x)
                if (ga1 >> x) & ~ga1:
                    continue
                pf1 = pf & ~(1 << x) & ~(1 << (F - x))
                if (pf1 << x) & ga1:
                    continue
                nxt.append((ga1, pf1, (msg & ~((members ^ ga1) << x)) | 1 << x, x))
                edges.append((ga, ga1, x))
        level = nxt
        nodes.extend(nxt)
    return nodes, edges


def test_special_gap_kernel_matches_window_loop(monkeypatch):
    # the nodes handed to collect, in the order the descent reached them:
    # the level loop's nodes, in canonical order, which the bucket walk
    # reaches with no sort
    reached = []

    class Recording(almostsym.descending.EnumerationResult):
        @classmethod
        def collect(cls, semigroups, *args):
            semigroups = list(semigroups)
            reached.append(semigroups)
            return super().collect(semigroups, *args)

    monkeypatch.setattr(almostsym.descending, "EnumerationResult", Recording)
    for F in range(1, 31):
        expected, _ = window_descent(F)
        reached.clear()
        as_all_descending(F, verify=True)
        assert reached[0] == sorted(reached[0], key=lambda S: _mask_key(S.mask))
        expected.sort(key=lambda node: _mask_key(node[0]))
        st = [compute_stats(S) for S in reached[0]]
        assert [(s.gap_mask, s.pf_mask, s.msg_mask, s.multiplicity)
                for s in st] == expected


def test_descend_yields_the_collected_nodes_in_canonical_order():
    # the bucket walk's order is the answer's: nothing sorts after it
    for F in range(1, 41):
        nodes = list(descend(F, 1))
        keys = [_mask_key(node[0]) for node in nodes]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        st = [compute_stats(S) for S in as_all_descending(F)]
        assert nodes == st


def test_derived_edges_match_recorded_edges():
    def gaps(mask):
        return tuple(g for g in range(mask.bit_length()) if mask >> g & 1)

    for F in range(1, 31):
        _, edges = window_descent(F)
        expected = sorted(edges, key=lambda e: (gaps(e[0]), e[2]))
        result = as_down_to_type(F, 1, with_edges=True)
        assert [(e.parent.mask, e.child.mask, e.x) for e in result.edges] == expected
        assert len(expected) == len(result) - 1


def test_buckets_of_one_multiplicity_come_in_parent_order():
    # canonical order sorts by multiplicity first, largest first, and two
    # nodes of multiplicity x compare as their parents do: both parents
    # have the gaps 1..x, and each child drops the same x.  A parent has at
    # most one child of multiplicity x, so expanding the buckets of one
    # multiplicity in canonical order yields each bucket already sorted.
    for F in range(1, 31):
        nodes = as_all_descending(F).semigroups
        position = {S.mask: i for i, S in enumerate(nodes)}
        # (-multiplicity, parent position), with -1 for M(F), which has none
        keys = []
        for S in nodes:
            m = compute_stats(S).multiplicity
            keys.append((-m, position.get(S.mask | 1 << m, -1)))
        assert keys == sorted(set(keys))


@functools.cache
def descent_nodes(F):
    return as_all_descending(F).semigroups


@given(st.data())
def test_parent_recovery_on_random_nodes(data):
    # adjoining x to a node makes x its multiplicity and drops the type by
    # 2, so putting the multiplicity back as a gap gives the parent node
    F = data.draw(st.integers(min_value=5, max_value=30), label="F")
    nodes = descent_nodes(F)
    S = data.draw(st.sampled_from([S for S in nodes
                                   if compute_stats(S).type_ < F]), label="node")
    st_ = compute_stats(S)
    parent = Semigroup(S.gaps + (st_.multiplicity,))
    assert parent in nodes
    assert compute_stats(parent).type_ == st_.type_ + 2


def test_leaves_are_the_irreducibles():
    for F in range(5, 15):
        result = as_all_descending(F)
        tmin = 1 if F % 2 else 2
        leaves = {S.gaps for S in result if compute_stats(S).type_ == tmin}
        assert leaves == enumerate_irreducible(F).gap_sets()


def test_agrees_with_ascending():
    for F in list(range(1, 15)) + [20]:
        assert as_all_descending(F).gap_sets() == as_all_ascending(F).gap_sets()


def test_missing_parent_is_an_invariant_failure(monkeypatch):
    Stats = almostsym.descending.Stats
    node = sum(1 << g for g in (1, 3, 5))  # multiplicity 2, parent {1, 2, 3, 5}

    def carried(ga, msg, pf, m):
        return Stats(ga, msg, pf, 4 if ga == node else m)

    monkeypatch.setattr(almostsym.descending, "Stats", carried)
    as_down_to_type(5, 1)  # the nodes alone do not need the parent rule
    with pytest.raises(RuntimeError, match="no parent"):
        as_down_to_type(5, 1, with_edges=True)

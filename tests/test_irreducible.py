import pytest

from almostsym import (InvalidParameters, b_count, canonical_C, compute_stats,
                       from_generators, is_irreducible)
import almostsym.irreducible
from almostsym.irreducible import enumerate_irreducible, irreducible_children
from almostsym.oracle import all_with_frobenius

I11 = {
    (1, 2, 3, 4, 5, 11),   # <6,7,8,9,10>
    (1, 2, 4, 5, 8, 11),   # <3,7>
    (1, 2, 3, 5, 7, 11),   # <4,6,9>
    (1, 2, 3, 4, 6, 11),   # <5,7,8,9>
    (1, 3, 5, 7, 9, 11),   # <2,13>
    (1, 2, 3, 6, 7, 11),   # <4,5>
}


def test_children_of_root_f11():
    edges = irreducible_children(canonical_C(11))
    assert [e.x for e in edges] == [6, 7, 8]
    assert {e.child.gaps for e in edges} == {
        (1, 2, 3, 4, 6, 11), (1, 2, 3, 5, 7, 11), (1, 2, 4, 5, 8, 11)}


def test_leaf_has_no_children():
    assert irreducible_children(from_generators({3, 7})) == []


def test_single_child():
    edges = irreducible_children(from_generators({5, 7, 8, 9}))
    assert len(edges) == 1
    assert edges[0].x == 7
    assert edges[0].child == from_generators({4, 5})


def test_revisited_node_is_an_invariant_failure(monkeypatch):
    children = almostsym.irreducible.irreducible_children
    monkeypatch.setattr(almostsym.irreducible, "irreducible_children",
                        lambda S: children(S) * 2)  # every edge twice
    with pytest.raises(RuntimeError, match="revisited"):
        enumerate_irreducible(11)


def test_child_gap_relation():
    for edge in enumerate_irreducible(13).edges:
        x = edge.x
        expected = (set(edge.parent.gaps) - {13 - x}) | {x}
        assert set(edge.child.gaps) == expected


def test_enumerate_f11_golden():
    result = enumerate_irreducible(11)
    assert result.gap_sets() == I11


def test_enumerate_f1():
    assert enumerate_irreducible(1).gap_sets() == {(1,)}


def test_enumerate_f5():
    assert enumerate_irreducible(5).gap_sets() == {(1, 2, 5), (1, 3, 5)}


def test_invalid_f():
    with pytest.raises(InvalidParameters):
        enumerate_irreducible(0)


def test_all_outputs_irreducible_with_frobenius_f():
    for F in range(1, 21):
        for S in enumerate_irreducible(F):
            assert S.frobenius == F
            assert is_irreducible(S)


def test_matches_oracle():
    for F in range(1, 15):
        expected = {S.gaps for S in all_with_frobenius(F) if is_irreducible(S)}
        assert enumerate_irreducible(F).gap_sets() == expected


def test_tree_reaches_every_node_once():
    # the check on the dict of nodes reached raises on any revisit
    for F in range(1, 21):
        result = enumerate_irreducible(F)
        assert len(result.edges) == len(result) - 1


def test_every_edge_lowers_b():
    # b, the minimal generators strictly between F/2 and F, falls by at
    # least one from parent to child: the cut of the walk rests on it
    for F in range(1, 41):
        for edge in enumerate_irreducible(F).edges:
            assert b_count(edge.child) <= b_count(edge.parent) - 1, (F, edge)


def test_cut_walk_is_the_filtered_tree():
    # cut at b < k, the walk keeps I(F) filtered by b >= k, and the tree's
    # edges into it; k above every b leaves nothing, C(F) included
    for F in range(1, 41):
        full = enumerate_irreducible(F)
        top = b_count(canonical_C(F))
        for k in range(top + 2):
            cut = enumerate_irreducible(F, k)
            kept = tuple(S for S in full if b_count(S) >= k)
            assert cut.semigroups == kept, (F, k)
            assert cut.edges == tuple(e for e in full.edges if b_count(e.child) >= k)
            assert len(cut.edges) == max(len(kept) - 1, 0)

import pytest

from almostsym import (InvalidParameters, canonical_C, compute_stats,
                       from_generators, is_irreducible)
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
    edges = irreducible_children(canonical_C(11), 11)
    assert [e.x for e in edges] == [6, 7, 8]
    assert {e.child.gaps for e in edges} == {
        (1, 2, 3, 4, 6, 11), (1, 2, 3, 5, 7, 11), (1, 2, 4, 5, 8, 11)}


def test_leaf_has_no_children():
    assert irreducible_children(from_generators({3, 7}), 11) == []


def test_single_child():
    edges = irreducible_children(from_generators({5, 7, 8, 9}), 11)
    assert len(edges) == 1
    assert edges[0].x == 7
    assert edges[0].child == from_generators({4, 5})


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
    # the seen-set check inside the traversal raises on any revisit
    for F in range(1, 21):
        result = enumerate_irreducible(F)
        assert len(result.edges) == len(result) - 1

import pytest

from almostsym import (InvalidParameters, compute_stats, is_almost_symmetric,
                       Semigroup)
from almostsym.descending import (DescendNode, as_all_descending,
                                  as_down_to_type, descend_children, root_node)
from almostsym.ascending import as_all_ascending
from almostsym.irreducible import enumerate_irreducible
from almostsym.oracle import oracle_as


def test_root_node():
    node = root_node(5)
    assert node.gaps == node.pf == (1, 2, 3, 4, 5)
    assert node.multiplicity == 6


def test_descend_from_m5():
    children = descend_children(root_node(5), 5)
    assert children == [DescendNode((1, 2, 3, 5), (2, 3, 5), 4)]


def test_descend_second_level():
    node = DescendNode((1, 2, 3, 5), (2, 3, 5), 4)
    children = descend_children(node, 5)
    assert {(c.gaps, c.pf, c.multiplicity) for c in children} == {
        ((1, 3, 5), (5,), 2), ((1, 2, 5), (5,), 3)}


def test_descend_requires_type_at_least_three():
    node = DescendNode((1, 2, 5), (5,), 3)
    with pytest.raises(InvalidParameters):
        descend_children(node, 5)


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
    with pytest.raises(InvalidParameters):
        as_down_to_type(5, 6)


def test_opposite_parity_rounds_up():
    # F even, t odd: smallest feasible type is t + 1
    result = as_down_to_type(10, 3)
    assert min(compute_stats(S).type_ for S in result) == 4


def test_small_frobenius_direct():
    for F in range(1, 5):
        assert as_all_descending(F).gap_sets() == oracle_as(F).gap_sets()


def test_incremental_pf_is_exact():
    for F in range(5, 15):
        as_all_descending(F, verify=True)  # raises on the first drifted node


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
        result = as_all_descending(F, with_edges=True)
        nodes = result.gap_sets()
        for edge in result.edges:
            x = edge.x
            assert compute_stats(edge.child).multiplicity == x
            recovered = set(edge.child.gaps) | {x}
            assert tuple(sorted(recovered)) == edge.parent.gaps
            assert edge.parent.gaps in nodes
        # tree: every non-root node has exactly one parent edge
        assert len(result.edges) == len(result) - 1


def test_leaves_are_the_irreducibles():
    for F in range(5, 15):
        result = as_all_descending(F)
        tmin = 1 if F % 2 else 2
        leaves = {S.gaps for S in result if compute_stats(S).type_ == tmin}
        assert leaves == enumerate_irreducible(F).gap_sets()


def test_agrees_with_ascending():
    for F in list(range(1, 15)) + [20]:
        assert as_all_descending(F).gap_sets() == as_all_ascending(F).gap_sets()

import pytest

from almostsym import (InvalidParameters, compute_stats, is_almost_symmetric,
                       Semigroup)
import almostsym.descending
from almostsym.descending import as_all_descending, as_down_to_type
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
        result = as_all_descending(F, with_edges=True)
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

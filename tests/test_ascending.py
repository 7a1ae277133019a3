import pytest

from almostsym import (InvalidParameters, as_exists, b_count, compute_stats,
                       from_generators, is_almost_symmetric)
from almostsym.ascending import as_all_ascending, as_with_type, removal_candidates
from almostsym.descending import as_down_to_type
from almostsym.irreducible import enumerate_irreducible
from almostsym.oracle import oracle_as

A_11_7 = {(1, 2, 3, 4, 5, 6, 7, 8, 11), (1, 2, 3, 4, 5, 6, 7, 9, 11)}


def test_b_count():
    assert b_count(from_generators({6, 7, 8, 9, 10})) == 5
    assert b_count(from_generators({2, 13})) == 0
    assert b_count(from_generators({5, 7, 8, 9})) == 3


def test_removal_candidates_golden():
    assert removal_candidates(from_generators({6, 7, 8, 9, 10}), 7) == \
        [(6, 7, 8), (6, 7, 9)]
    assert removal_candidates(from_generators({5, 7, 8, 9}), 7) == []


def test_removal_candidates_type_one():
    for gens in ({6, 7, 8, 9, 10}, {3, 7}, {2, 13}):
        assert removal_candidates(from_generators(gens), 1) == [()]


def test_as_with_type_11_7():
    assert as_with_type(11, 7).gap_sets() == A_11_7
    # the two results really are <9,10,12..17> and <8,10,12,13,14,15,17,19>
    assert from_generators({9, 10, 12, 13, 14, 15, 16, 17}).gaps in A_11_7
    assert from_generators({8, 10, 12, 13, 14, 15, 17, 19}).gaps in A_11_7


def test_as_with_type_11_1_is_irreducibles():
    assert as_with_type(11, 1).gap_sets() == enumerate_irreducible(11).gap_sets()


def test_as_with_type_parity_empty():
    assert len(as_with_type(11, 4)) == 0
    assert len(as_with_type(10, 12)) == 0


def test_as_with_type_invalid():
    with pytest.raises(InvalidParameters):
        as_with_type(0, 1)
    with pytest.raises(InvalidParameters):
        as_with_type(11, 0)
    with pytest.raises(InvalidParameters):
        as_all_ascending(11, 0)


def test_outputs_are_as_with_requested_invariants():
    for F in range(1, 21):
        for t in range(1, F + 1):
            if not as_exists(F, t):
                continue
            for S in as_with_type(F, t):
                st = compute_stats(S)
                assert (st.frobenius, st.type_) == (F, t)
                assert is_almost_symmetric(S)


def test_matches_oracle():
    for F in range(1, 15):
        irr = enumerate_irreducible(F)
        for t in range(1, F + 1):
            got = as_with_type(F, t, _irreducibles=irr).gap_sets()
            assert got == oracle_as(F, t).gap_sets()


def test_b_filter_is_lossless():
    for F in range(1, 15):
        irr = enumerate_irreducible(F)
        for t in range(1, F + 1):
            with_filter = as_with_type(F, t, _irreducibles=irr)
            without = as_with_type(F, t, use_b_filter=False, _irreducibles=irr)
            assert with_filter.gap_sets() == without.gap_sets()


def test_base_types_give_back_irreducibles():
    for F in range(1, 16, 2):
        assert as_with_type(F, 1).gap_sets() == enumerate_irreducible(F).gap_sets()
    for F in range(2, 15, 2):
        assert as_with_type(F, 2).gap_sets() == enumerate_irreducible(F).gap_sets()


def test_as_all_ascending_small():
    assert as_all_ascending(5).gap_sets() == {
        (1, 2, 3, 4, 5), (1, 2, 3, 5), (1, 3, 5), (1, 2, 5)}
    assert as_all_ascending(1).gap_sets() == {(1,)}
    # count fixed by the brute-force oracle
    assert len(as_all_ascending(11)) == 20


def test_as_all_ascending_is_union_over_types():
    # "type >= t" checked against two independent answers: the union of
    # the per-type enumerations, and the descent restricted to type >= t
    for F in range(1, 15):
        by_type = {t: as_with_type(F, t).gap_sets() for t in range(1, F + 1)}
        for t in range(1, F + 2):
            union = set().union(*(by_type[u] for u in range(t, F + 1)))
            assert as_all_ascending(F, t).gap_sets() == union
            assert union == {S.gaps for S in as_down_to_type(F, t)
                             if compute_stats(S).type_ >= t}
            # a bounded range t..u is the union over t..u alone
            for u in range(t, F + 2):
                bounded = set().union(*(by_type[v] for v in range(t, min(u, F) + 1)))
                assert as_all_ascending(F, t, u).gap_sets() == bounded

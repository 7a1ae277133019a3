import pytest

import almostsym.classify
import almostsym.core
from almostsym import (ClosureViolation, EnumerationResult, InvalidParameters, LimitExceeded,
                       Semigroup, from_gaps)
from almostsym.ascending import as_all_ascending
from almostsym.descending import as_all_descending, descend
from almostsym.oracle import DEFAULT_F_MAX, _scan_range, all_with_frobenius, oracle_as


def test_f1():
    assert all_with_frobenius(1).gap_sets() == {(1,)}


def test_f5():
    got = all_with_frobenius(5).gap_sets()
    assert got == {(1, 2, 3, 4, 5), (1, 2, 3, 5), (1, 3, 5), (1, 2, 5), (1, 2, 4, 5)}


def test_f11_contains_irreducibles():
    got = all_with_frobenius(11).gap_sets()
    assert {(1, 2, 3, 4, 5, 11), (1, 2, 4, 5, 8, 11), (1, 2, 3, 5, 7, 11),
            (1, 2, 3, 4, 6, 11), (1, 3, 5, 7, 9, 11), (1, 2, 3, 6, 7, 11)} <= got


def test_counts_small():
    # matches the known counts of numerical semigroups by Frobenius number
    counts = {F: len(all_with_frobenius(F)) for F in range(1, 19)}
    assert counts == {1: 1, 2: 1, 3: 2, 4: 2, 5: 5, 6: 4, 7: 11, 8: 10,
                      9: 21, 10: 22, 11: 51, 12: 40, 13: 106, 14: 103,
                      15: 200, 16: 205, 17: 465, 18: 405}


def test_scan_range_splits_into_its_ranges():
    # the search decides 1..F-1 in its own order, yet [lo, hi) selects by
    # the subset bitmask sub = G >> 1 of the gaps below F, as a scan would
    for F in (1, 2, 7, 12, 17):
        top = 1 << (F - 1)
        whole = _scan_range(F, 0, top)
        assert len(set(whole)) == len(whole) == len(all_with_frobenius(F))
        cuts = sorted({0, top // 5, top // 3, 2 * top // 3, top})
        parts = []
        for lo, hi in zip(cuts, cuts[1:]):
            part = _scan_range(F, lo, hi)
            assert all(lo <= (G >> 1) % top < hi and G >> F == 1 for G in part)
            parts += part
        assert sorted(parts) == sorted(whole)
        assert _scan_range(F, top, 2 * top) == []


def test_limits():
    with pytest.raises(LimitExceeded):
        all_with_frobenius(DEFAULT_F_MAX + 1)
    with pytest.raises(InvalidParameters):
        all_with_frobenius(0)


def test_oracle_as_goldens():
    assert oracle_as(11, 7).gap_sets() == {
        (1, 2, 3, 4, 5, 6, 7, 8, 11), (1, 2, 3, 4, 5, 6, 7, 9, 11)}
    assert len(oracle_as(11, 4)) == 0
    assert (1, 2, 3, 4, 5, 6, 7, 10) in oracle_as(10, 6).gap_sets()


def test_closure_check_agrees_with_from_gaps():
    # the oracle's double loop and core's bit-table must accept the same sets
    for F in range(1, 17):
        accepted = all_with_frobenius(F).gap_sets()
        for mask in range(1 << (F - 1)):
            gaps = {i + 1 for i in range(F - 1) if mask >> i & 1} | {F}
            try:
                S = from_gaps(gaps)
                ok = True
            except ClosureViolation:
                ok = False
            assert ok == (tuple(sorted(gaps)) in accepted)


def test_three_algorithms_agree_beyond_criterion_4():
    # all types at once, where criterion 4 stops at F = 14, up to the cap
    # (whole results: the same semigroups in the same canonical order)
    for F in range(15, DEFAULT_F_MAX + 1):
        assert as_all_ascending(F) == as_all_descending(F) == oracle_as(F), F


def test_oracle_decides_without_compute_stats(monkeypatch):
    # the oracle reads PF from its own gap masks: with compute_stats gone
    # from core and classify it still gives the descent's answer for each
    # type, in canonical order (the descent carries its own stats)
    def refuse(S):
        raise AssertionError("compute_stats called")

    monkeypatch.setattr(almostsym.core, "compute_stats", refuse)
    monkeypatch.setattr(almostsym.classify, "compute_stats", refuse)
    for F in range(1, 21):
        nodes = list(descend(F, 1))
        for t in range(1, F + 2):
            assert [S.mask for S in oracle_as(F, t)] == [
                node[0] for node in nodes if node[2].bit_count() == t], (F, t)


def test_oracle_as_makes_only_the_semigroups_it_keeps(monkeypatch):
    # the definition is decided on the search's masks: a rejected mask
    # makes no Semigroup, and the kept ones are collected once
    made, collected = [], []
    from_mask = Semigroup._from_mask.__func__
    collect = EnumerationResult.collect.__func__

    def counted_from_mask(cls, *args):
        made.append(args[0])
        return from_mask(cls, *args)

    def counted_collect(cls, *args):
        collected.append(args[1])
        return collect(cls, *args)

    monkeypatch.setattr(Semigroup, "_from_mask", classmethod(counted_from_mask))
    monkeypatch.setattr(EnumerationResult, "collect", classmethod(counted_collect))
    for F in range(10, 21):
        made.clear()
        collected.clear()
        answer = oracle_as(F)
        assert len(answer) > 0 and len(made) == len(answer), F
        assert collected == ["oracle"], F

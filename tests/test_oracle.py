import pytest

from almostsym import ClosureViolation, InvalidParameters, LimitExceeded, from_gaps
from almostsym.oracle import all_with_frobenius, oracle_as


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
    counts = {F: len(all_with_frobenius(F)) for F in range(1, 13)}
    assert counts == {1: 1, 2: 1, 3: 2, 4: 2, 5: 5, 6: 4, 7: 11, 8: 10,
                      9: 21, 10: 22, 11: 51, 12: 40}


def test_limits():
    with pytest.raises(LimitExceeded):
        all_with_frobenius(19)
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

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from almostsym import (ClosureViolation, EnumerationResult, NotNumerical,
                       Semigroup, compute_stats, contains, from_gaps,
                       from_generators)
from almostsym.oracle import all_with_frobenius

C11_GAPS = (1, 2, 3, 4, 5, 11)


def test_from_gaps_empty_is_naturals():
    S = from_gaps([])
    assert S.gaps == ()
    assert S.frobenius == -1
    assert contains(S, 0) and contains(S, 7)


def test_from_gaps_c11():
    S = from_gaps({1, 2, 3, 4, 5, 11})
    assert S.gaps == C11_GAPS
    for x in (0, 6, 7, 8, 9, 10, 12, 13):
        assert contains(S, x)
    assert not contains(S, 11)


def test_from_gaps_closure_violation():
    with pytest.raises(ClosureViolation) as exc:
        from_gaps({2})
    assert (exc.value.a, exc.value.b) == (1, 1)


def test_from_generators_c11():
    assert from_generators({6, 7, 8, 9, 10}).gaps == C11_GAPS


def test_from_generators_trivial():
    assert from_generators({1}).gaps == ()


def test_from_generators_not_numerical():
    with pytest.raises(NotNumerical):
        from_generators({2, 4})


def test_contains_negative():
    assert not contains(from_generators({2, 3}), -1)


def test_stats_c11():
    st_ = compute_stats(from_gaps(C11_GAPS))
    assert st_.frobenius == 11
    assert st_.genus == 6
    assert st_.multiplicity == 6
    assert st_.msg == (6, 7, 8, 9, 10)
    # C(11) is symmetric: the brute-force PF scan gives exactly {11}
    assert st_.pf == (11,)
    assert st_.type_ == 1


def test_stats_m5():
    st_ = compute_stats(from_gaps({1, 2, 3, 4, 5}))
    assert st_.pf == (1, 2, 3, 4, 5)
    assert st_.type_ == 5


def test_stats_example_7a():
    # C(11) with 6 and 7 removed
    st_ = compute_stats(from_gaps({1, 2, 3, 4, 5, 6, 7, 11}))
    assert st_.frobenius == 11
    assert st_.genus == 8
    assert st_.pf == (4, 5, 6, 7, 11)
    assert st_.type_ == 5
    assert st_.gaps_first == (1, 2, 3, 11)
    assert st_.gaps_second == (4, 5, 6, 7)


def test_stats_naturals_convention():
    st_ = compute_stats(Semigroup())
    assert (st_.frobenius, st_.pf, st_.type_, st_.multiplicity) == (-1, (), 0, 1)


def test_gap_partition_and_inequalities_small():
    from almostsym import is_almost_symmetric
    for F in range(1, 13):
        for S in all_with_frobenius(F):
            st_ = compute_stats(S)
            assert set(st_.gaps_first) | set(st_.gaps_second) == set(S.gaps)
            assert not set(st_.gaps_first) & set(st_.gaps_second)
            assert st_.frobenius in st_.pf
            assert set(st_.pf) <= set(S.gaps)
            assert st_.multiplicity >= st_.type_ + 1
            assert 2 * st_.genus >= st_.frobenius + st_.type_
            assert (2 * st_.genus == st_.frobenius + st_.type_) == is_almost_symmetric(S)


def test_msg_minimality_small():
    for F in range(1, 13):
        for S in all_with_frobenius(F):
            st_ = compute_stats(S)
            members = [x for x in range(1, 2 * st_.frobenius + 2) if contains(S, x)]
            sums = {a + b for a, b in itertools.combinations_with_replacement(members, 2)}
            for g in st_.msg:
                assert g not in sums
            for g in st_.msg:
                reduced = set(st_.msg) - {g}
                if reduced and math.gcd(*reduced) == 1:
                    assert from_generators(reduced).gaps != S.gaps


def test_pf_definitional_equivalence_small():
    # generator-based PF test vs the definition over all members up to F + x
    for F in range(1, 13):
        for S in all_with_frobenius(F):
            st_ = compute_stats(S)
            definitional = tuple(
                x for x in S.gaps
                if all(contains(S, x + s)
                       for s in range(1, st_.frobenius + x + 1) if contains(S, s)))
            assert st_.pf == definitional


def definitional_stats(S):
    """The fields of compute_stats(S), recomputed from their definitions
    with plain sets, sharing nothing with the bitset kernel."""
    gaps = set(S.gaps)
    if not gaps:
        return (-1, 0, 1, (1,), (), 0, (), ())
    F = max(gaps)
    # every minimal generator is at most 2F + 1: a larger member x is
    # (F + 1) + (x - F - 1) with both summands nonzero members
    members = [x for x in range(1, 2 * F + 2) if x not in gaps]
    sums = {a + b for a in members for b in members}
    msg = tuple(x for x in members if x not in sums)
    pf = tuple(sorted(x for x in gaps
                      if all(x + s not in gaps for s in members)))
    first = tuple(sorted(x for x in gaps if F - x not in gaps))
    second = tuple(sorted(x for x in gaps if F - x in gaps))
    return (F, len(gaps), members[0], msg, pf, len(pf), first, second)


def stats_fields(S):
    st_ = compute_stats(S)
    return (st_.frobenius, st_.genus, st_.multiplicity, st_.msg, st_.pf,
            st_.type_, st_.gaps_first, st_.gaps_second)


def test_stats_match_definitions_up_to_f18():
    checked = 0
    for F in range(1, 19):
        for S in all_with_frobenius(F):
            assert stats_fields(S) == definitional_stats(S), S
            checked += 1
    assert checked == 1654


# generators up to 16 keep F below 15 * 15 and the quadratic definitions fast
@given(st.sets(st.integers(min_value=1, max_value=16), min_size=1, max_size=6))
def test_stats_match_definitions_on_generated(gens):
    if math.gcd(*gens) != 1:
        return
    S = from_generators(gens)
    assert stats_fields(S) == definitional_stats(S)


def test_stats_memoized_per_semigroup():
    S = from_generators({6, 7, 8, 9, 10})
    assert compute_stats(S) is compute_stats(S)
    # no process-wide cache: an equal semigroup computes its own stats
    assert not hasattr(compute_stats, "cache_info")
    T = from_gaps(S.gaps)
    assert compute_stats(T) == compute_stats(S)
    assert compute_stats(T) is not compute_stats(S)


def test_collect_rejects_duplicates():
    S = from_generators({3, 7})
    with pytest.raises(RuntimeError, match="twice"):
        EnumerationResult.collect([S, from_gaps(S.gaps)], "test", 0)


def test_collect_orders_lexicographically():
    sems = list(all_with_frobenius(12))
    result = EnumerationResult.collect(reversed(sems), "test", 0)
    assert [S.gaps for S in result] == sorted(S.gaps for S in sems)
    assert result.collisions == 0


@given(st.sets(st.integers(min_value=1, max_value=12), min_size=1))
def test_roundtrip_generators_gaps(gens):
    g = 0
    for a in gens:
        g = math.gcd(g, a)
    if g != 1:
        with pytest.raises(NotNumerical):
            from_generators(gens)
        return
    S = from_generators(gens)
    T = from_gaps(S.gaps)
    assert T.gaps == S.gaps
    assert T == S and hash(T) == hash(S)
    assert S.mask == sum(1 << x for x in S.gaps)
    assert S.frobenius == max(S.gaps, default=-1)


@given(st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=12))
def test_semigroup_membership_closed(gens):
    g = 0
    for a in gens:
        g = math.gcd(g, a)
    if g != 1:
        return
    S = from_generators(gens)
    F = S.frobenius
    small = [x for x in range(1, F + 1) if contains(S, x)]
    for a in small:
        for b in small:
            if a + b <= F:
                assert contains(S, a + b)

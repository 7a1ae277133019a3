import itertools
import math

import pytest
from hypothesis import given, strategies as st

import almostsym
from almostsym import (ClosureViolation, EnumerationResult, LimitExceeded,
                       NotNumerical, Semigroup, Stats, TreeEdge, compute_stats,
                       from_gaps, from_generators)
from almostsym.core import _mask_key
from almostsym.descending import as_down_to_type
from almostsym.oracle import all_with_frobenius

C11_GAPS = (1, 2, 3, 4, 5, 11)


def test_from_gaps_empty_is_naturals():
    S = from_gaps([])
    assert S.gaps == ()
    assert S.frobenius == -1
    assert 0 in S and 7 in S


def test_from_gaps_c11():
    S = from_gaps({1, 2, 3, 4, 5, 11})
    assert S.gaps == C11_GAPS
    for x in (0, 6, 7, 8, 9, 10, 12, 13):
        assert x in S
    assert 11 not in S


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


def sieve_gaps(gens):
    """Gaps of the semigroup generated by gens, sieved upward from 0 until
    min(gens) consecutive members appear."""
    m = min(gens)
    member = [True]
    gaps = []
    run = 0
    while run < m:
        n = len(member)
        member.append(any(n >= a and member[n - a] for a in gens))
        run = run + 1 if member[n] else 0
        if not member[n]:
            gaps.append(n)
    return tuple(gaps)


@given(st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=8))
def test_from_generators_matches_sieve(gens):
    if math.gcd(*gens) != 1:
        return
    assert from_generators(gens).gaps == sieve_gaps(gens)


def test_from_generators_bounded():
    # (a - 1)(b - 1) - 1 with a = 100000 and b = 100001 is about 10^10
    with pytest.raises(LimitExceeded):
        from_generators({100000, 100001})
    # a generator coprime to the smallest one bounds F, however large the rest
    assert from_generators({2, 3, 10**12}).gaps == (1,)
    # with none coprime to the smallest, the largest one bounds F
    assert from_generators({6, 10, 15}).gaps == sieve_gaps({6, 10, 15})
    with pytest.raises(LimitExceeded):
        from_gaps([1, 10**6])


def test_contains_negative():
    S = from_generators({2, 3})
    assert not S.contains(-1)
    assert -1 not in S


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
    assert compute_stats(from_gaps([])) == (0, 0b10, 0, 1)


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
            members = [x for x in range(1, 2 * st_.frobenius + 2) if x in S]
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
                if all(x + s in S
                       for s in range(1, st_.frobenius + x + 1) if s in S))
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
        EnumerationResult.collect([S, from_gaps(S.gaps)], "test")


def test_collect_rejects_mixed_frobenius_numbers():
    with pytest.raises(RuntimeError, match="mixed Frobenius numbers"):
        EnumerationResult.collect([from_gaps([1]), from_gaps([1, 2])], "test")


def test_collect_orders_lexicographically():
    # F = 7 -> 8 and 15 -> 16 add a byte to the gap masks
    for F in range(1, 17):
        sems = list(all_with_frobenius(F))
        result = EnumerationResult.collect(reversed(sems), "test")
        assert [S.gaps for S in result] == sorted(S.gaps for S in sems)


@given(st.data())
def test_mask_key_orders_as_gap_tuples(data):
    # random gap masks with one top bit F and bit 0 clear; closure plays
    # no part in the order
    F = data.draw(st.integers(min_value=1, max_value=300), label="F")
    lows = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << F) - 1),
                              min_size=2, max_size=20), label="lows")
    sems = [Semigroup._from_mask(1 << F | low & ~1) for low in lows]
    assert [S.gaps for S in sorted(sems, key=lambda S: _mask_key(S.mask))] == \
        sorted(S.gaps for S in sems)


def test_collect_orders_edges_by_parent_then_x():
    tree = as_down_to_type(12, 1, with_edges=True)
    edges = list(tree.edges)
    # the descent of F = 12 has parents with several children, so the
    # reversed list has equal parents in decreasing x
    assert len({e.parent for e in edges}) < len(edges)
    result = EnumerationResult.collect(tree.semigroups, "test", reversed(edges))
    assert [(e.parent.gaps, e.x) for e in result.edges] == \
        sorted((e.parent.gaps, e.x) for e in edges)


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
    small = [x for x in range(1, F + 1) if x in S]
    for a in small:
        for b in small:
            if a + b <= F:
                assert a + b in S


def test_every_public_name_resolves():
    namespace = {}
    exec("from almostsym import *", namespace)
    for name in almostsym.__all__:
        assert namespace[name] is getattr(almostsym, name), name
        assert name in dir(almostsym)
    assert len(set(almostsym.__all__)) == len(almostsym.__all__) == 30
    with pytest.raises(AttributeError):
        almostsym.no_such_name


def test_value_classes_compare_hash_and_print_by_field():
    S, T = from_gaps([1, 2, 3, 5]), from_gaps([1, 3, 5])
    st_ = compute_stats(S)
    assert st_ == Stats(0b101110, 0b1011010000, 0b101100, 4)
    assert st_ != Stats(0b101110, 0b1011010000, 0b101100, 5)
    assert st_ == (46, 720, 44, 4)
    assert repr(st_) == "Stats(gap_mask=46, msg_mask=720, pf_mask=44, multiplicity=4)"
    assert hash(st_) == hash((46, 720, 44, 4))
    with pytest.raises(AttributeError):
        st_.pf_mask = 0

    edge = TreeEdge(S, T, 2)
    twin = TreeEdge(from_gaps(S.gaps), from_gaps(T.gaps), 2)
    assert edge == twin and hash(edge) == hash(twin) and len({edge, twin}) == 1
    assert edge != TreeEdge(S, T, 3) and edge != TreeEdge(T, S, 2)
    with pytest.raises(AttributeError):
        edge.x = 3
    assert repr(edge) == ("TreeEdge(parent=Semigroup(gaps=[1, 2, 3, 5]), "
                          "child=Semigroup(gaps=[1, 3, 5]), x=2)")

    result = EnumerationResult((S,))
    assert result == EnumerationResult((from_gaps(S.gaps),), ())
    assert hash(result) == hash(EnumerationResult((from_gaps(S.gaps),)))
    assert result != EnumerationResult((S,), (edge,))
    assert result != EnumerationResult((T,))
    # __eq__ returns NotImplemented for a non-result, so == is False
    assert result != (S,) and result.__eq__((S,)) is NotImplemented
    assert repr(result) == ("EnumerationResult(semigroups=(Semigroup(gaps=[1, 2, 3, 5]),), "
                            "edges=())")

import os
import subprocess
import sys
import time
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest

import almostsym
from almostsym import (InvalidParameters, as_exists, b_count, compute_stats,
                       from_generators, is_almost_symmetric)
from almostsym.ascending import (_removal_sets, as_all_ascending, as_with_type,
                                 removal_candidates)
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
    with pytest.raises(InvalidParameters):
        removal_candidates(from_generators({6, 7, 8, 9, 10}), 0)


def test_as_with_type_rejects_irreducibles_of_another_frobenius_number():
    # I(11) given as the irreducibles of F = 12 would answer with F = 11
    with pytest.raises(InvalidParameters, match="Frobenius number 12"):
        as_with_type(12, 2, _irreducibles=enumerate_irreducible(11))
    assert as_with_type(11, 3, _irreducibles=enumerate_irreducible(11)) == \
        as_with_type(11, 3)


def test_as_with_type_rejects_semigroups_that_are_not_irreducible():
    # AS semigroups of type 3 given as I(11) would answer for type 1 with
    # themselves, and for type 5 reach one semigroup twice
    given = as_all_ascending(11, 3, 3)
    for t in (1, 5):
        with pytest.raises(InvalidParameters, match="irreducible"):
            as_with_type(11, t, _irreducibles=given)


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


def test_kmin_bound_is_lossless():
    # cutting branches that cannot reach kmin drops no set of size >= kmin:
    # the kmin = 0 walk, which prunes nothing, is the reference
    for F in range(1, 25):
        for S in enumerate_irreducible(F):
            every = list(_removal_sets(S, 0, F))
            for kmin in range(F + 1):
                for kmax in range(kmin, F + 1):
                    assert list(_removal_sets(S, kmin, kmax)) == \
                        [A for A in every if kmin <= A.bit_count() <= kmax]



def test_removal_sets_are_the_definition():
    # the walk's masks are exactly the subsets A of the generator window
    # with x + y - F outside S' \ A for every pair x <= y in A, found here
    # by trying every subset, in lexicographic order of their elements
    for F in range(1, 37):
        for S in enumerate_irreducible(F):
            window = [x for x in compute_stats(S).msg if F / 2 < x < F]
            valid = []
            for k in range(len(window) + 1):
                for A in combinations(window, k):
                    if all(not S.contains(x + y - F) or x + y - F in A
                           for x, y in combinations_with_replacement(A, 2)):
                        valid.append(A)
            walked = [tuple(x for x in range(F) if A >> x & 1)
                      for A in _removal_sets(S, 0, b_count(S))]
            assert walked == sorted(valid), (F, S)

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


def test_as_with_type_is_the_one_size_ascending_scan():
    for F in range(1, 15):
        for t in range(1, F + 3):
            assert as_with_type(F, t) == as_all_ascending(F, t, t), (F, t)


def test_given_irreducibles_are_not_recomputed(monkeypatch):
    import almostsym.ascending

    irr = enumerate_irreducible(11)

    def refuse(F):
        raise AssertionError("enumerate_irreducible called")

    monkeypatch.setattr(almostsym.ascending, "enumerate_irreducible", refuse)
    assert as_with_type(11, 7, _irreducibles=irr).gap_sets() == A_11_7


def test_walk_takes_each_irreducible_as_it_reaches_it_and_splits_by_irreducible():
    # the walk takes S' from its iterator only when it reaches S' (its
    # first pair is (S', ()), the empty removal set), and the answer is
    # the disjoint union of the walks of any split of I(F)
    from almostsym.ascending import _ascend, _start

    for F in (20, 21, 30):
        irr = enumerate_irreducible(F).semigroups
        taken = []

        def counting():
            for S in irr:
                taken.append(S)
                yield S

        _, walk = _start(F, 1, None, counting())
        assert taken == []
        started = 0
        for Sp, A in walk:
            started += not A
            assert len(taken) == started and Sp is taken[-1]
        assert taken == list(irr)
        halves = [_ascend(F, 1, None, iter(irr[i::2])).semigroups for i in (0, 1)]
        assert sorted(halves[0] + halves[1], key=lambda S: S.gaps) == \
            list(as_all_ascending(F).semigroups)


def node_pairs(F, min_type=1, max_type=None):
    """The pairs (S', A) of the ascending walk for types in [min_type,
    max_type]."""
    from almostsym.ascending import _start

    return list(_start(F, min_type, max_type)[1])


def test_derived_nodes_equal_compute_stats():
    # each node derived from its removal (gap mask G' | A, PF(S') | A |
    # (F - A), m, msg) is the stats of its gap mask computed afresh, in
    # the canonical order of as_all_ascending, and _types reads each type
    from almostsym.ascending import _nodes, _types
    from almostsym.core import Semigroup

    windows = [(F, 1, None) for F in range(1, 41)]
    for F in range(30, 45):  # --type F - 4, --min-type F - 6, and types up to 4
        windows += [(F, F - 4, F - 4), (F, F - 6, None), (F, 1, 4)]
    for F, lo, hi in windows:
        pairs = node_pairs(F, lo, hi)
        nodes = list(_nodes(pairs))
        assert [G for G, *_ in nodes] == \
            [S.mask for S in as_all_ascending(F, lo, hi)], (F, lo, hi)
        for node in nodes:
            assert node == tuple(compute_stats(Semigroup._from_mask(node[0]))), (F, node)
        assert sorted(_types(pairs)) == sorted(node[2].bit_count() for node in nodes)


def test_checks_on_the_node_path_fire():
    # a walk that yields one pair twice, or pairs of two Frobenius
    # numbers, is an internal failure (RuntimeError, not an assert)
    from almostsym.ascending import _nodes, _types

    pairs = node_pairs(20)
    for walk in (pairs + pairs[3:4], pairs[:1] + pairs):
        with pytest.raises(RuntimeError, match="ascending enumeration produced a semigroup twice"):
            list(_nodes(iter(walk)))
        with pytest.raises(RuntimeError, match="ascending enumeration produced a semigroup twice"):
            list(_types(iter(walk)))
    with pytest.raises(RuntimeError, match="ascending enumeration mixed Frobenius numbers"):
        list(_nodes(pairs + node_pairs(21)))


def test_typed_ascending_at_large_frobenius_walks_only_the_top_of_the_tree():
    # F = 100, type >= 90: the tree of irreducibles is cut at b < 44 (I(100)
    # has 419865 members) and the removal walks leave every branch that
    # cannot reach 44; the answer equals the descent's, byte for byte
    argv = ["--frobenius", "100", "--min-type", "90", "--count-only"]
    env = dict(os.environ, PYTHONPATH=str(Path(almostsym.__file__).resolve().parent.parent))

    def cli(mode):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "almostsym.cli", mode, *argv],
                              env=env, capture_output=True, timeout=60, check=True)
        return proc.stdout, time.perf_counter() - start

    out, seconds = cli("as-ascending")
    assert seconds < 5
    assert out == cli("as-descending")[0]
    assert out.endswith(b'{"total": 27}\n')

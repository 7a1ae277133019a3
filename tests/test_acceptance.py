"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.
"""

import time

import pytest

from almostsym import (as_exists, canonical_M, compute_stats, from_gaps,
                       from_generators, is_almost_symmetric)
from almostsym.ascending import as_all_ascending, as_with_type
from almostsym.bench import run_bench, render_table
from almostsym.descending import as_all_descending, as_down_to_type
from almostsym.irreducible import enumerate_irreducible
from almostsym.oracle import all_with_frobenius, oracle_as

A_11_7 = {(1, 2, 3, 4, 5, 6, 7, 8, 11), (1, 2, 3, 4, 5, 6, 7, 9, 11)}


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_golden_irreducibles_f11():
    start = time.perf_counter()
    result = enumerate_irreducible(11)
    elapsed = time.perf_counter() - start
    expected = {from_generators(g).gaps for g in
                [{6, 7, 8, 9, 10}, {3, 7}, {4, 6, 9}, {5, 7, 8, 9}, {2, 13}, {4, 5}]}
    assert result.gap_sets() == expected
    root = from_generators({6, 7, 8, 9, 10})
    labels = {(e.parent.gaps, e.x) for e in result.edges}
    assert labels == {
        (root.gaps, 6), (root.gaps, 7), (root.gaps, 8),
        (from_generators({4, 6, 9}).gaps, 9),
        (from_generators({5, 7, 8, 9}).gaps, 7),
    }
    assert elapsed < 1.0
    report(1, f"I(11) is the 6 semigroups of the worked example, "
              f"edges labeled 8/7/6 and 9/7 ({elapsed:.3f}s)")


def test_criterion_2_golden_a_11_7():
    start = time.perf_counter()
    asc = as_with_type(11, 7)
    desc = as_down_to_type(11, 7)
    elapsed = time.perf_counter() - start
    assert asc.gap_sets() == A_11_7
    layer = {S.gaps for S in desc if compute_stats(S).type_ == 7}
    assert layer == A_11_7
    assert elapsed < 1.0
    report(2, f"both algorithms produce exactly A(11,7) ({elapsed:.3f}s)")


def test_criterion_3_examples_7a_7b():
    start = time.perf_counter()
    for F, t, gaps in ((11, 5, {1, 2, 3, 4, 5, 6, 7, 11}),
                       (10, 6, {1, 2, 3, 4, 5, 6, 7, 10})):
        S = from_gaps(gaps)
        st = compute_stats(S)
        assert (st.frobenius, st.type_) == (F, t)
        assert is_almost_symmetric(S)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, f"C(11)\\{{6,7}} is AS with (11,5); C(10)\\{{6,7}} is AS "
              f"with (10,6) ({elapsed:.3f}s)")


def test_criterion_4_triple_agreement():
    start = time.perf_counter()
    checked = 0
    for F in range(1, 15):
        irr = enumerate_irreducible(F)
        for t in range(1, F + 1):
            if not as_exists(F, t):
                continue
            asc = as_with_type(F, t, _irreducibles=irr).gap_sets()
            desc_layer = {S.gaps for S in as_down_to_type(F, t)
                          if compute_stats(S).type_ == t}
            orc = oracle_as(F, t).gap_sets()
            assert asc == desc_layer == orc, (F, t)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"ascending/descending/oracle agree on {checked} (F,t) pairs "
              f"with F <= 14 ({elapsed:.1f}s)")


def test_criterion_5_existence_both_ways():
    for F in range(1, 15):
        for t in range(1, F + 3):
            assert as_exists(F, t) == (len(oracle_as(F, t)) > 0), (F, t)
    report(5, "as_exists(F,t) <=> the oracle finds a witness, F <= 14, t <= F+2")


def test_criterion_6_inequalities():
    checked = 0
    for F in range(1, 13):
        for S in all_with_frobenius(F):
            st = compute_stats(S)
            assert 2 * st.genus >= st.frobenius + st.type_
            assert (2 * st.genus == st.frobenius + st.type_) == is_almost_symmetric(S)
            assert st.multiplicity >= st.type_ + 1
            checked += 1
    report(6, f"2g >= F+t (equality iff AS) and m >= t+1 on {checked} "
              f"oracle semigroups")


def test_criterion_7_incremental_pf_exact():
    for F in range(5, 15):
        as_all_descending(F, verify=True)
    for F in range(1, 5):
        as_all_descending(F, verify=True)  # smallest cases: root and its one child
    report(7, "maintained PF equals recomputed PF at every descending node, F <= 14")


def test_criterion_8_m_f_uniqueness():
    for F in range(1, 13):
        hits = [S for S in all_with_frobenius(F)
                if compute_stats(S).type_ == F]
        assert hits == [canonical_M(F)]
    report(8, "M(F) is the unique semigroup with F(S) = t(S) = F, F <= 12")


def test_criterion_9_performance():
    def best_of(fn, F, repeats=3):
        best, result = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn(F)
            best = min(best, time.perf_counter() - t0)
        return best, result

    times = {}
    counts = {}
    for F in (13, 14, 15, 20, 25, 30, 40):
        repeats = 3 if F == 40 else 1
        times[("descending", F)], d = best_of(as_all_descending, F, repeats)
        times[("ascending", F)], a = best_of(as_all_ascending, F, repeats)
        assert d.gap_sets() == a.gap_sets(), F
        counts[F] = len(d)
    assert times[("descending", 40)] < 60.0
    assert times[("ascending", 40)] < 600.0
    assert times[("descending", 40)] <= times[("ascending", 40)]
    table = render_table(run_bench((13, 14), ("ascending", "descending")))
    assert table.startswith("Frobenius(S)")
    assert "ascending" in table and "descending" in table
    report(9, f"counts agree for F in {{13,14,15,20,25,30,40}} "
              f"({counts[40]} at F=40); descending {times[('descending', 40)]:.2f}s"
              f" <= ascending {times[('ascending', 40)]:.2f}s at F=40; "
              f"bench table renders")


def test_criterion_10_determinism(capsys):
    from almostsym.cli import main

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    for cmd in (["irreducible", "--frobenius", "20"],
                ["as-ascending", "--frobenius", "20"],
                ["as-descending", "--frobenius", "20"],
                ["oracle", "--frobenius", "15"],
                ["as-ascending", "--frobenius", "20", "--count-only"],
                ["irreducible", "--frobenius", "20", "--dot"]):
        single = run(cmd + ["--threads", "1"])
        threaded = run(cmd + ["--threads", "8"])
        assert single == threaded, cmd
    report(10, "identical output with --threads 1 and --threads 8 at F <= 20")

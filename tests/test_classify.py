import pytest

from almostsym import (InvalidParameters, as_exists, canonical_C, canonical_M,
                       compute_stats, from_gaps, from_generators,
                       is_almost_symmetric, is_irreducible, is_pseudo_symmetric,
                       is_symmetric)
import almostsym.classify
from almostsym.ascending import b_count
from almostsym.irreducible import enumerate_irreducible, irreducible_children
from almostsym.oracle import all_with_frobenius, oracle_as


def test_is_symmetric():
    assert is_symmetric(from_generators({3, 7}))
    assert is_symmetric(from_generators({2, 3}))
    assert not is_symmetric(canonical_M(5))
    assert not is_symmetric(from_gaps([]))  # S = N


def test_is_pseudo_symmetric():
    assert is_pseudo_symmetric(from_generators({3, 4, 5}))
    assert not is_pseudo_symmetric(from_generators({3, 7}))
    # brute-force PF scan: pf(C(10)) = {5, 10}
    assert compute_stats(canonical_C(10)).pf == (5, 10)
    assert is_pseudo_symmetric(canonical_C(10))
    assert not is_pseudo_symmetric(from_gaps([]))  # S = N


def test_is_irreducible():
    assert is_irreducible(from_generators({6, 7, 8, 9, 10}))
    assert not is_irreducible(from_gaps({1, 2, 3, 4, 5, 6, 7, 11}))
    assert is_irreducible(from_gaps({1}))


def test_is_almost_symmetric():
    assert is_almost_symmetric(from_gaps({1, 2, 3, 4, 5, 6, 7, 11}))
    assert is_almost_symmetric(from_gaps({1, 2, 3, 4, 5, 6, 7, 10}))
    assert is_almost_symmetric(from_generators({4, 6, 9}))
    # S = N: no gap of the second type; 2g = F + t would read 0 = -1 + 0
    assert is_almost_symmetric(from_gaps([]))


def test_is_almost_symmetric_raises_when_characterizations_disagree(monkeypatch):
    # one PF bit more on the symmetric C(11): the subset test still holds,
    # 2g = F + t no longer does
    def with_extra_pf(S, _stats=almostsym.classify.compute_stats):
        st = _stats(S)
        return st._replace(pf_mask=st.pf_mask | 1 << 5)

    monkeypatch.setattr(almostsym.classify, "compute_stats", with_extra_pf)
    with pytest.raises(RuntimeError, match="characterizations disagree"):
        is_almost_symmetric(canonical_C(11))


def test_canonical_C():
    assert canonical_C(11).gaps == (1, 2, 3, 4, 5, 11)
    assert canonical_C(10).gaps == (1, 2, 3, 4, 5, 10)
    assert canonical_C(1).gaps == (1,)
    with pytest.raises(InvalidParameters):
        canonical_C(0)


def test_canonical_M():
    assert canonical_M(5).gaps == (1, 2, 3, 4, 5)
    assert canonical_M(1).gaps == (1,)
    st = compute_stats(canonical_M(11))
    assert st.frobenius == st.type_ == 11
    with pytest.raises(InvalidParameters):
        canonical_M(0)


@pytest.mark.parametrize("F,t,expected", [
    (11, 5, True), (11, 4, False), (10, 12, False),
    (11, 1, True), (10, 2, True), (10, 1, False), (1, 1, True),
])
def test_as_exists(F, t, expected):
    assert as_exists(F, t) is expected


def test_as_exists_matches_oracle():
    for F in range(1, 15):
        for t in range(1, F + 3):
            assert as_exists(F, t) == (len(oracle_as(F, t)) > 0)


def test_canonical_C_is_irreducible_with_frobenius_F():
    for F in range(1, 41):
        S = canonical_C(F)
        assert S.frobenius == F
        assert is_irreducible(S)


def test_canonical_C_unique_with_large_generators():
    for F in range(1, 21):
        big = [S for S in enumerate_irreducible(F)
               if all(2 * x > F for x in compute_stats(S).msg)]
        assert big == [canonical_C(F)]


def test_constructive_witness_of_existence():
    # remove the explicit generator run from C(F); must land on (F, t)
    for F in range(1, 15):
        for t in range(1, F + 1):
            if not as_exists(F, t):
                continue
            if F % 2:
                A = set(range((F + 1) // 2, (F + 1) // 2 + (t - 3) // 2 + 1))
            else:
                A = set(range(F // 2 + 1, F // 2 + (t - 2) // 2 + 1))
            if t <= 2:
                A = set()
            S = from_gaps(set(canonical_C(F).gaps) | A)
            st = compute_stats(S)
            assert (st.frobenius, st.type_) == (F, t)
            assert is_almost_symmetric(S)


def test_pf_equals_L_plus_F_iff_as():
    for F in range(1, 13):
        for S in all_with_frobenius(F):
            st = compute_stats(S)
            alt = set(st.gaps_second) | {st.frobenius}
            assert (set(st.pf) == alt) == is_almost_symmetric(S)


def test_mask_rules_match_their_definitions():
    # each predicate and the (F/2, F) generator window decide on masks;
    # here they are checked against their definitions written on S.gaps
    # and the PF and msg tuples, for every S with F <= 16 and for S = N
    semigroups = [from_gaps([])]
    for F in range(1, 17):
        semigroups += all_with_frobenius(F)
    for S in semigroups:
        st = compute_stats(S)
        F, gaps, pf = S.frobenius, set(S.gaps), st.pf
        symmetric = bool(gaps) and pf == (F,)
        pseudo = F % 2 == 0 and pf == (F // 2, F)
        second_type = {x for x in gaps if F - x in gaps}
        window = [x for x in st.msg if F / 2 < x < F]
        assert is_symmetric(S) is symmetric
        assert is_pseudo_symmetric(S) is pseudo
        assert is_irreducible(S) is (symmetric or pseudo)
        assert is_almost_symmetric(S) is (second_type <= set(pf))
        assert b_count(S) == len(window)
        if symmetric or pseudo:
            m = min(x for x in range(1, F + 2) if x not in gaps)
            labels = [x for x in window if 2 * x - F in gaps and 3 * x != 2 * F
                      and 4 * x != 3 * F and F - x < m]
            assert [e.x for e in irreducible_children(S)] == labels

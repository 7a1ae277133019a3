"""Ground truth from the definition: every numerical semigroup with a
given Frobenius number, by closure alone.

The integers 1..F-1 are decided in increasing order, on two masks of the
oracle's own: M, the members chosen so far, and Sigma, all sums of two
of them.  A member chosen after i exceeds i, and so does any sum with
it, so bit i of Sigma is final when i is reached: i is forced to be a
member when it is set, otherwise both choices are tried.  A branch dies
as soon as two members sum to F.  Each leaf is a gap set {1..F} minus M
whose complement is closed under addition; a closed set is never cut,
and its membership decisions are its path, so each is a leaf exactly
once.  The search shares no logic with core or with either algorithm;
nothing is cached.  It is exponential in F: F is limited to
DEFAULT_F_MAX, the one place that states the limit (bench leaves out
the F the oracle refuses).

The almost-symmetry test reads the search's masks alone.  oracle_as
computes PF(S), the gaps x with x + s a member for every member s > 0,
from each gap mask, and keeps S iff L(S) = {x gap : F - x gap} lies in
PF(S), the definition (Barucci & Fröberg 1997; Nari 2013).  A rejected
mask makes no Semigroup and no sort key: _search collects the kept ones
once.  oracle_as calls neither classify nor compute_stats, so a fault
in either cannot move the oracle's answer together with an algorithm's.
"""

from __future__ import annotations

from .core import EnumerationResult, InvalidParameters, LimitExceeded, Semigroup, _bits, _reverse

DEFAULT_F_MAX = 28


def _scan_range(F: int, lo: int, hi: int) -> list[int]:
    """Gap masks G of the semigroups with Frobenius number F whose gaps
    below F, as the subset bitmask sub = (G >> 1) mod 2^(F-1) of
    {1..F-1}, lie in [lo, hi); in the order the search reaches them."""
    found = []
    full = (2 << F) - 2
    low = (1 << (F - 1)) - 1
    stack = [(1, 0, 0)]
    while stack:
        i, M, Sigma = stack.pop()
        if i == F:
            G = full & ~M
            if lo <= (G >> 1) & low < hi:
                found.append(G)
            continue
        if not Sigma >> i & 1:
            stack.append((i + 1, M, Sigma))
        M |= 1 << i
        Sigma |= M << i
        if not Sigma >> F & 1:
            stack.append((i + 1, M, Sigma))
    return found


def _search(F: int, keep) -> EnumerationResult:
    """The semigroups with Frobenius number F whose gap mask G passes
    keep(G), collected; F above DEFAULT_F_MAX raises LimitExceeded.  A
    rejected mask makes no Semigroup."""
    if F < 1:
        raise InvalidParameters("F must be >= 1")
    if F > DEFAULT_F_MAX:
        raise LimitExceeded(f"oracle limited to F <= {DEFAULT_F_MAX}")
    return EnumerationResult.collect([Semigroup._from_mask(G) for G in _scan_range(
        F, 0, 1 << (F - 1)) if keep(G)], "oracle")


def all_with_frobenius(F: int) -> EnumerationResult:
    """Every numerical semigroup with Frobenius number exactly F; F above
    DEFAULT_F_MAX raises LimitExceeded."""
    return _search(F, lambda G: True)


def oracle_as(F: int, t: int | None = None) -> EnumerationResult:
    """Almost symmetric semigroups with Frobenius number F, optionally
    restricted to type t (acceptance criteria 4 and 5 ask for one type),
    decided by the definition on each gap mask G of the search.  A gap x
    is covered when x + s is a gap for some member s < F, so PF(S) is
    G & ~covered; S is kept iff every gap x with F - x a gap, the bits of
    G & reverse(G), is pseudo-Frobenius, and, when t is given, PF(S)
    has t elements."""
    def almost_symmetric(G: int) -> bool:
        covered = 0
        for s in _bits(~G & ((1 << F) - 2)):
            covered |= G >> s
        return not G & _reverse(G) & covered and (t is None or (G & ~covered).bit_count() == t)

    return _search(F, almost_symmetric)

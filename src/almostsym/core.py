"""Gap-mask representation of numerical semigroups and their basic invariants.

A numerical semigroup S is an additively closed subset of the nonnegative
integers containing 0 with finite complement.  The complement (the "gaps")
is a finite set of positive integers and identifies S uniquely.  It is
held as one integer, the gap mask, with bit x set iff x is a gap:
equality and hashing compare masks, and the invariants are computed with
word operations on it.  _sort_distinct alone sorts results into
canonical order (see _mask_key) and checks them, for
EnumerationResult.collect and for ascending's nodes; the record
pipeline merges streams already in that order on the same key.

This module owns every encoding of a mask (_bits, _list_text,
_mask_key, and the record encoder _records, which renders a whole write
batch of nodes as JSON lines in one pass over one text table), each
read a byte at a time through a table.

Every command line start imports this module, so it imports only `math`,
`operator` and `collections`: Stats and TreeEdge are named tuples and
EnumerationResult a `__slots__` class with field-wise `==`, hash and
`repr`, not dataclasses, whose import and decorators cost more than the
rest of the module.

Conventions for the full semigroup S = N (empty gap set): frobenius = -1,
pf = (), type_ = 0, msg = (1,).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from math import gcd
from operator import attrgetter


class ClosureViolation(ValueError):
    """Two non-gaps sum to a gap, so the complement is not a semigroup."""

    def __init__(self, a: int, b: int):
        super().__init__(f"complement not additively closed: {a} + {b} is a gap")
        self.a = a
        self.b = b


class NotNumerical(ValueError):
    """gcd of the generators is not 1, so the complement would be infinite."""


class InvalidParameters(ValueError):
    """Arguments outside the domain of an enumeration entry point."""


class LimitExceeded(ValueError):
    """Requested size is beyond a configured limit."""


# Largest Frobenius number that from_gaps and from_generators accept: the
# work on one semigroup grows with the square of F.
INPUT_F_MAX = 100_000


# Tables with one row per byte position of a mask (see _row), grown as
# wider masks arrive, up to TABLE_BYTES rows: that covers every mask of a
# semigroup with F up to 127, whose minimal generators are at most
# 2F + 1.  Wider masks are scanned instead: those of semigroups given as
# input, and those of enumerations with F >= 128 (the msg mask of M(128),
# the root of the descent at F = 128, has 33 bytes).  _TEXT_ROWS is the
# one text table: each position p comes with its leading separator,
# ", p", so that the entries of a mask's bytes join into its list.
_BIT_ROWS: list[list[tuple[int, ...]]] = []
_TEXT_ROWS: list[list[str]] = []
TABLE_BYTES = 32
# The rows of a record's fixed parts (see _records), made at its first use.
_RECORD_ROWS: list[list[str]] = []


def _row(i: int, empty, piece) -> list:
    """Row i of a table: entry v is `empty` plus piece(p) for each
    position p of a set bit of byte v at byte i, ascending.  Entries
    2^b..2^(b+1)-1 are entries 0..2^b-1 plus piece(8i + b)."""
    cells = [empty]
    for b in range(8):
        new = piece(8 * i + b)
        cells += [cell + new for cell in cells]
    return cells


def _grown(rows: list, size: int, empty, piece) -> bool:
    """Grow the table `rows` in place to `size` rows made by _row; False,
    with `rows` as it was, when `size` is above TABLE_BYTES."""
    if size > TABLE_BYTES:
        return False
    for i in range(len(rows), size):
        rows.append(_row(i, empty, piece))
    return True


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of a nonnegative mask, ascending."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    if len(data) > len(_BIT_ROWS) and not _grown(_BIT_ROWS, len(data), (), lambda p: (p,)):
        return tuple(i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1")
    out: list[int] = []
    for row, v in zip(_BIT_ROWS, data):
        out += row[v]
    return tuple(out)


def _separated(p: int) -> str:
    return f", {p}"


def _list_text(mask: int) -> str:
    """The positions of the set bits of a nonnegative mask, ascending, as
    the body of a JSON list: "1, 2, 5"."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    if len(data) > len(_TEXT_ROWS) and not _grown(_TEXT_ROWS, len(data), "", _separated):
        return ", ".join(map(str, _bits(mask)))
    return "".join(map(list.__getitem__, _TEXT_ROWS, data))[2:]


def _records(nodes: list) -> str:
    """The JSON records of the nodes, a nonempty list of tuples (gap, msg
    and PF masks, multiplicity) of semigroups, one line each, with fields
    in the fixed order gaps, msg, pf, frobenius, genus, type,
    multiplicity, as `json.dumps` would write them.  Every field is read
    from its node.

    With n the byte length of the widest gap mask of the batch (1 for
    S = N), every node fits 4n + 6 bytes: a semigroup's minimal
    generators are below 2F + 2 <= 16n, its PF is a set of gaps, and
    F + 1, genus, type and multiplicity are at most 8n.  While 2n <= TABLE_BYTES
    (F < 128), the batch is rendered in one table pass: each node is
    packed into one int, low byte first
        G (n bytes), m, msg without m (2n), p + 1 for the least p in PF
        (0 for none), PF without p (n), F + 1, genus, type, m,
    turned into bytes, and each byte is mapped through the row of its
    position, the rows of _TEXT_ROWS for the masks and a row of
    _RECORD_ROWS for each other byte, which also carries the text
    between the fields.  Each list thus starts with an element of its
    own row (every semigroup but N has the gap 1, in the first byte of
    G), and each later element with its leading ", ".  Wider batches are
    formatted field by field, with _list_text's scan."""
    n = (max(nodes)[0].bit_length() + 7) // 8 or 1
    if not _grown(_TEXT_ROWS, 2 * n, "", _separated):
        return "".join([f'{{"gaps": [{_list_text(G)}], "msg": [{_list_text(msg)}], '
                        f'"pf": [{_list_text(pf)}], "frobenius": {G.bit_length() - 1}, '
                        f'"genus": {G.bit_count()}, "type": {pf.bit_count()}, '
                        f'"multiplicity": {m}}}\n' for G, msg, pf, m in nodes])
    if not _RECORD_ROWS:
        numbers = list(map(str, range(256)))
        _RECORD_ROWS.extend([
            ['{"gaps": [' + cell[2:] for cell in _TEXT_ROWS[0]],
            list(map('], "msg": ['.__add__, numbers)),
            ['], "pf": [', *map('], "pf": ['.__add__, numbers)],
            ['], "frobenius": -1', *map('], "frobenius": '.__add__, numbers)],
            list(map(', "genus": '.__add__, numbers)),
            list(map(', "type": '.__add__, numbers)),
            [', "multiplicity": ' + v + '}\n' for v in numbers]])
    gaps, msg_head, pf_head, *scalars = _RECORD_ROWS
    text = _TEXT_ROWS
    rows = [gaps, *text[1:n], msg_head, *text[:2 * n], pf_head, *text[:n], *scalars]
    # shifts in bits: m's byte follows G's n bytes; the PF head follows
    # msg's 2n bytes; the four numbers follow PF's n bytes, counted from
    # the PF head.  size is the bytes of one node.
    at_m, at_pf, after_pf, size = 8 * n, 24 * n + 8, 8 * n + 8, 4 * n + 6
    data = b"".join([
        (G | (m | (msg ^ 1 << m) << 8) << at_m
         | ((low := pf & -pf).bit_length() | (pf ^ low) << 8
            | (G.bit_length() | G.bit_count() << 8 | pf.bit_count() << 16 | m << 24)
            << after_pf) << at_pf).to_bytes(size, "little")
        for G, msg, pf, m in nodes])
    return "".join(map(list.__getitem__, rows * len(nodes), data))


def _reverse(mask: int) -> int:
    """Mirror a mask within its bit length: for a gap mask with Frobenius
    number F, bit x moves to bit F - x."""
    return int(bin(mask)[:1:-1], 2)


# Entry v is byte v with its bits reversed and complemented: from 255,
# each set bit b of v clears bit 7 - b.
_KEY_BYTES = bytes(_row(0, 255, lambda b: -(128 >> b)))


def _mask_key(mask: int) -> bytes:
    """The canonical sort key of the gap mask `mask`: its little-endian
    bytes, each translated through _KEY_BYTES.  Every gap tuple with
    Frobenius number F ends in F, so none is a prefix of another, and at
    the lowest bit p where two masks differ the tuple with gap p is the
    smaller.  The masks have one byte length, so their keys compare byte
    by byte from the low end; in the first differing byte, bit p maps to
    the highest bit where the two entries differ, clear in the entry of
    the mask with gap p: its key is smaller."""
    return mask.to_bytes((mask.bit_length() + 7) // 8, "little").translate(_KEY_BYTES)


def _sumset(N: int, bound: int) -> int:
    """Mask of the sums a + b <= bound with a, b in the mask N."""
    sums = 0
    for a in _bits(N & ((2 << (bound // 2)) - 1)):
        sums |= N << a
    return sums & ((2 << bound) - 1)


class Semigroup:
    """A numerical semigroup identified by its gap mask `mask`.

    Instances are immutable; the constructor takes the gaps in any order,
    repeats allowed, and checks positivity but does NOT check additive
    closure of the complement.  Use :func:`from_gaps` for validated
    construction from untrusted input; the enumeration algorithms
    construct directly because closure is guaranteed by the theorems they
    implement.  The sorted gap tuple `gaps` is read from the mask on each
    access; :func:`compute_stats` memoizes the invariants on the instance.
    """

    __slots__ = ("mask", "_stats")

    def __init__(self, gaps: Iterable[int] = ()):
        mask = 0
        for g in gaps:
            if g < 1:
                raise ValueError("gaps must be positive integers")
            mask |= 1 << g
        self.mask = mask
        self._stats = None

    @classmethod
    def _from_mask(cls, mask: int, stats: Stats | None = None) -> "Semigroup":
        # hot-path constructor: caller guarantees bit 0 is clear, and that
        # stats, if given, are those of this mask
        self = object.__new__(cls)
        self.mask = mask
        self._stats = stats
        return self

    @property
    def gaps(self) -> tuple[int, ...]:
        return _bits(self.mask)

    @property
    def frobenius(self) -> int:
        return self.mask.bit_length() - 1

    def contains(self, x: int) -> bool:
        return x >= 0 and not self.mask >> x & 1

    __contains__ = contains

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Semigroup) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"Semigroup(gaps={list(self.gaps)})"


def from_gaps(gaps: Iterable[int]) -> Semigroup:
    """Build a semigroup from a prescribed gap set, verifying closure.

    Raises ClosureViolation(a, b) if two nonzero non-gaps a, b sum to a
    gap; the smallest such gap is reported, with the smallest such a.
    Raises LimitExceeded when a gap is above INPUT_F_MAX.
    """
    gaps = list(gaps)
    if gaps and max(gaps) > INPUT_F_MAX:
        raise LimitExceeded(f"gap {max(gaps)} is above the limit {INPUT_F_MAX}")
    S = Semigroup(gaps)
    G = S.mask
    if not G:
        return S
    F = S.frobenius
    bad = _sumset(~G & ((2 << F) - 2), F) & G
    if bad:
        g = (bad & -bad).bit_length() - 1
        a = next(a for a in range(1, g) if S.contains(a) and S.contains(g - a))
        raise ClosureViolation(a, g - a)
    return S


def from_generators(gens: Iterable[int]) -> Semigroup:
    """Build the semigroup generated by `gens` under addition.

    With a the smallest generator and b the smallest one coprime to a
    (the largest one when none is), F(S) <= (a - 1)(b - 1) - 1 = B: the
    Sylvester bound F(<a, b>) in the first case, Schur's bound in the
    second.  Every integer above B is a member, so S is known from its
    members up to B, a mask closed under adding each generator in turn
    (closing under +b keeps a set closed under +a).

    Raises NotNumerical when gcd(gens) != 1, and LimitExceeded when B is
    above INPUT_F_MAX.
    """
    gens = sorted(set(gens))
    if not gens:
        raise InvalidParameters("need at least one generator")
    if gens[0] < 1:
        raise InvalidParameters("generators must be positive")
    g = 0
    for a in gens:
        g = gcd(g, a)
    if g != 1:
        raise NotNumerical(f"gcd of generators is {g}")

    a = gens[0]
    b = next((c for c in gens if gcd(a, c) == 1), gens[-1])
    bound = (a - 1) * (b - 1) - 1
    if bound > INPUT_F_MAX:
        raise LimitExceeded(f"generators allow a Frobenius number up to {bound}, "
                            f"above the limit {INPUT_F_MAX}")
    if bound < 1:
        return Semigroup()
    full = (2 << bound) - 1
    members = 1
    for c in gens:
        if c > bound:
            break
        if members >> c & 1:
            continue  # a sum of earlier generators: the mask is closed under +c
        step = c
        while step <= bound:
            members |= (members << step) & full
            step <<= 1
    return Semigroup._from_mask(full & ~members)


class Stats(namedtuple("Stats", "gap_mask msg_mask pf_mask multiplicity")):
    """Derived invariants of a numerical semigroup, held as masks: an
    immutable named tuple (gap_mask, msg_mask, pf_mask, multiplicity), the
    layout of a descent node (see descending.descend).

    gap_mask, msg_mask and pf_mask have bit x set iff x is a gap, a
    minimal generator, or a pseudo-Frobenius number.  The other fields
    are read from them: frobenius is the top gap, genus the number of
    gaps, type_ = len(pf).  gaps_first is N(S) = {x gap | F - x in S};
    gaps_second is L(S), the remaining gaps.
    """

    __slots__ = ()

    @property
    def frobenius(self) -> int:
        return self.gap_mask.bit_length() - 1

    @property
    def genus(self) -> int:
        return self.gap_mask.bit_count()

    @property
    def type_(self) -> int:
        return self.pf_mask.bit_count()

    @property
    def msg(self) -> tuple[int, ...]:
        return _bits(self.msg_mask)

    @property
    def pf(self) -> tuple[int, ...]:
        return _bits(self.pf_mask)

    @property
    def gaps_first(self) -> tuple[int, ...]:
        G = self.gap_mask
        return _bits(G & ~_reverse(G))

    @property
    def gaps_second(self) -> tuple[int, ...]:
        G = self.gap_mask
        return _bits(G & _reverse(G))


def _multiplicity(G: int) -> int:
    """The multiplicity of the semigroup with gap mask G: the lowest
    clear bit above 0."""
    return (~(G | 1) & ((G | 1) + 1)).bit_length() - 1


def _msg_mask(G: int, m: int) -> int:
    """The mask of the minimal generators of the semigroup with nonzero
    gap mask G and multiplicity m.

    With F the top bit of G, N is the mask of nonzero members up to
    F + m.  Minimal generators are searched up to F + m: any s > F + m
    splits as m + (s - m) with both summands nonzero members.  So msg is
    N minus the sumset N + N.
    """
    bound = G.bit_length() - 1 + m
    N = ((2 << bound) - 2) & ~G
    return N & ~_sumset(N, bound)


def compute_stats(S: Semigroup) -> Stats:
    """Compute all basic invariants of S, once per instance.

    msg is _msg_mask's.  The pseudo-Frobenius test is reduced to
    generators: x is in PF iff x is a gap and x + n is a member for every
    minimal generator n (every nonzero member is a sum of minimal
    generators), i.e. PF = G & ~OR(G >> n for n in msg).  Semigroups
    built by the descent arrive with their stats already set.
    """
    st = S._stats
    if st is not None:
        return st
    G = S.mask
    if not G:
        st = Stats(0, 0b10, 0, 1)
    else:
        m = _multiplicity(G)
        msg = _msg_mask(G, m)
        covered = 0
        for n in _bits(msg):
            covered |= G >> n
        st = Stats(G, msg, G & ~covered, m)
    S._stats = st
    return st


class TreeEdge(namedtuple("TreeEdge", "parent child x")):
    """A parent -> child edge of an enumeration tree, labeled by the
    integer x that was moved (replaced generator, or adjoined element)."""

    __slots__ = ()


def _sort_distinct(items: list, mask, algorithm: str) -> None:
    """Sort items in place into canonical order, on the _mask_key of the
    gap mask mask(item).  The gap masks must be distinct and have one
    Frobenius number: a duplicate, or a second Frobenius number, is an
    invariant failure, RuntimeError naming `algorithm`."""
    if len(set(map(mask, items))) != len(items):
        raise RuntimeError(f"{algorithm} enumeration produced a semigroup twice")
    if len(set(map(int.bit_length, map(mask, items)))) > 1:
        raise RuntimeError(f"{algorithm} enumeration mixed Frobenius numbers")
    items.sort(key=lambda item: _mask_key(mask(item)))


class EnumerationResult:
    """Enumeration output, built by collect (ascending builds it from its
    nodes, sorted and checked by the same _sort_distinct): the semigroups
    of an answer and the edges of its tree, if any, in canonical order.
    Immutable by convention; equal, hashed and printed field by field."""

    __slots__ = ("semigroups", "edges")

    def __init__(self, semigroups: tuple[Semigroup, ...],
                 edges: tuple[TreeEdge, ...] = ()):
        self.semigroups = semigroups
        self.edges = edges

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.semigroups == other.semigroups and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.semigroups, self.edges))

    def __repr__(self) -> str:
        return f"EnumerationResult(semigroups={self.semigroups!r}, edges={self.edges!r})"

    def __len__(self) -> int:
        return len(self.semigroups)

    def __iter__(self) -> Iterator[Semigroup]:
        return iter(self.semigroups)

    def gap_sets(self) -> set[tuple[int, ...]]:
        return {S.gaps for S in self.semigroups}

    @classmethod
    def collect(cls, semigroups: Iterable[Semigroup], algorithm: str,
                edges: Iterable[TreeEdge] = ()) -> "EnumerationResult":
        """The semigroups in canonical order (_sort_distinct, which
        checks them), and the edges sorted by parent then x."""
        raw = list(semigroups)
        _sort_distinct(raw, attrgetter("mask"), algorithm)
        edges = sorted(edges, key=lambda e: (_mask_key(e.parent.mask), e.x))
        return cls(tuple(raw), tuple(edges))

"""Complement scattered-factor sets.

C(w, u) is the set of words v of length |w| - |u| such that w is an
interleaving of u and v; equivalently, the words obtained by deleting an
embedding of u from w.  Two dynamic programs compute it: a prefix-table
recurrence over growing prefixes of u (sets), and a suffix-matching
recurrence over growing suffixes of u (sets with multiplicities that count
embeddings per complement word).

Table cells store each word as a ``bytes`` key, one fixed-width big-endian
chunk per letter code (one byte when every code is at most 255).  Extending a
word by a letter is then one bytes concatenation, and hashing it for the
cell's set or dict is a hash that bytes compute once and cache, where a tuple
would copy, incref and rehash all |v| letters.

In both recurrences a cell is its neighbour's words with one letter of w
added, plus the parent row's words only where w holds the row letter.  So a
row is stored lazily, as a shared base of words per cell and a bytes affix
that every word of the cell carries: a column without the row letter reuses
its neighbour's base and lengthens the affix, and a new base is built only
where the row letter occurs.  Only the cells a caller reads are built in
full and decoded back to ``Word``: the answer cell, or the cells of a
`PrefixTable` as they are read.

Both tables charge each cell's word count against a budget, whatever the
words' length or encoding and whether the cell is built or shared, and raise
``BudgetExceeded`` exactly when the total passes it.  Cells never shrink
along a row: C(w[1..j+1], p) holds every word of C(w[1..j], p) with w[j+1]
appended, and suffix-table cells grow the same way leftwards.  So a cell of
k words with r cells left in its row, itself included, commits the row to at
least k * r more words.  The tables charge that much where a cell grows and
stop at the first cell where the overrun is certain, before building the
rest of the row.  The suffix table builds, and charges, only the cells that
can reach its answer cell.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

from .errors import BudgetExceeded, DEFAULT_BUDGET, WordSyntaxError
from .words import Word, _factor_pair


@dataclass(frozen=True)
class ComplementSet:
    """A complement set, optionally with per-word embedding multiplicities."""

    words: frozenset[Word]
    multiplicities: Mapping[Word, int] | None = None

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.sorted_words())

    def __contains__(self, v) -> bool:
        return v in self.words

    def sorted_words(self) -> list[Word]:
        return sorted(self.words)

    @property
    def total_embeddings(self) -> int | None:
        if self.multiplicities is None:
            return None
        return sum(self.multiplicities.values())


# --- cell keys --------------------------------------------------------------
#
# The kernels below take w as `ct`, the tuple of its letters' chunks, and a
# row letter as its chunk; `_codec` gives `ct`, the chunk of a letter and
# the decoder of a key.  Width-1 chunks come from a table of the 256
# one-byte strings, so encoding costs no call per cell.

_byte = tuple(bytes((c,)) for c in range(256)).__getitem__


def _codec(
    w: tuple[int, ...], u: tuple[int, ...] = ()
) -> tuple[tuple[bytes, ...], Callable[[int], bytes], Callable[[bytes], Word]]:
    """(ct, encode, decode) for keys over the letter codes of w and u: ct is w
    as chunks, encode maps a letter to its chunk, decode a key to its word."""
    codes = w + u
    try:
        bytes(codes)  # raises unless every code is an int in 0..255
        enc, dec = _byte, Word
    except (ValueError, TypeError):
        enc, dec = _wide_codec(codes)
    return tuple(map(enc, w)), enc, dec


def _wide_codec(codes: tuple[int, ...]) -> tuple[Callable[[int], bytes], Callable[[bytes], Word]]:
    """`_codec` with chunks as wide as the widest code, two's complement
    when a code is negative; a code that is not an int is a WordSyntaxError."""
    try:
        bits = max(map(int.bit_length, codes))
    except TypeError:
        bad = next(a for a in codes if not isinstance(a, int))
        raise WordSyntaxError(f"letter codes must be ints, got {bad!r}") from None
    signed = min(codes) < 0
    width = (bits + signed + 7) // 8

    def encode(a: int) -> bytes:
        return a.to_bytes(width, "big", signed=signed)

    def decode(key: bytes) -> Word:
        return Word(
            int.from_bytes(key[i : i + width], "big", signed=signed)
            for i in range(0, len(key), width)
        )

    return encode, decode


# --- lazy rows ----------------------------------------------------------------
#
# A row is a pair of parallel lists (base, affix).  Prefix-table cell j is
# {v + affix[j] for v in base[j]}, suffix-table cell j is
# {affix[j] + v: c for v, c in base[j].items()}.  A base may be shared by
# many cells and rows, so it is never changed once stored.

_Row = tuple[list, list[bytes]]
_NO_WORDS: frozenset[bytes] = frozenset()
_NO_COUNTS: Mapping[bytes, int] = MappingProxyType({})


def _prefix_cell(row: _Row, j: int) -> set[bytes]:
    """Cell j of a prefix-table row, built."""
    s = row[1][j]
    return {v + s for v in row[0][j]}


def _suffix_cell(row: _Row, j: int) -> dict[bytes, int]:
    """Cell j of a suffix-table row, built."""
    s = row[1][j]
    return {s + v: c for v, c in row[0][j].items()}


# --- prefix-table recurrence ------------------------------------------------
#
# Rows are indexed by prefixes of u, columns by prefixes of w, with a virtual
# empty-prefix column at index 0.  Cell (p, j) holds C(w[1..j], p).  Extending
# the row prefix by a letter x: every cell appends w[j] to its left neighbour,
# and where w[j] = x it also absorbs the parent row's cell (p consumed up to
# j-1, so the shorter prefix's complements carry over unchanged).

def _first_row(ct: tuple[bytes, ...]) -> _Row:
    affix = [b""]
    pref = b""
    for a in ct:
        pref += a
        affix.append(pref)
    return [{b""}] * len(affix), affix


def _extend_row(
    ct: tuple[bytes, ...],
    prev: _Row,
    letter: bytes,
    room: int,
    budget: int,
) -> tuple[_Row, int]:
    """The next row and the part of `room` it leaves; `budget` is for the error."""
    pbase, paffix = prev
    base: list = [_NO_WORDS]
    affix = [b""]
    cur, s = _NO_WORDS, b""
    # Cells never shrink along a row, so a cell of k words charges k for
    # itself and every cell right of it; a later cell charges only its growth.
    n = len(ct)
    for j, a in enumerate(ct):  # column j + 1, whose parent cell is column j
        s += a
        if a == letter and pbase[j]:
            size = len(cur)
            if not cur:
                cur, s = pbase[j], paffix[j]
            else:
                cell = {v + s for v in cur}
                p = paffix[j]
                if p:
                    cell.update([v + p for v in pbase[j]])
                else:  # a built parent cell: union its set directly
                    cell |= pbase[j]
                cur, s = cell, b""
            room -= (len(cur) - size) * (n - j)  # columns j + 1 to n
            if room < 0:
                raise BudgetExceeded(f"prefix table exceeds budget {budget}")
        base.append(cur)
        affix.append(s)
    return (base, affix), room


def complement_set(
    w: Sequence[int], u: Sequence[int], budget: int = DEFAULT_BUDGET
) -> ComplementSet:
    """C(w, u) as a plain set of words; u must be a scattered factor of w."""
    wt, ut = _factor_pair(w, u)
    ct, enc, dec = _codec(wt, ut)
    row, room = _first_row(ct), budget
    for x in ut:
        row, room = _extend_row(ct, row, enc(x), room, budget)
    return ComplementSet(frozenset(map(dec, _prefix_cell(row, len(wt)))))


class PrefixTable:
    """Full prefix table P with P[i][j] = C(w[1..j], u[1..i-1]), 1-based.

    The table keeps the lazy rows it was built from and decodes a cell only
    when it is read, so holding the table costs no more than building it.
    """

    def __init__(self, w: Word, u: Word, rows: list[_Row], decode: Callable[[bytes], Word]):
        self.w = w
        self.u = u
        self._rows = rows
        self._decode = decode

    def _cell(self, i: int, j: int) -> frozenset[Word]:
        return frozenset(map(self._decode, _prefix_cell(self._rows[i - 1], j)))

    def cell(self, i: int, j: int) -> frozenset[Word]:
        """Row i in 1..|u|+1, column j in 1..|w|."""
        if not (1 <= i <= len(self.u) + 1 and 1 <= j <= len(self.w)):
            raise IndexError(f"cell ({i}, {j}) outside table")
        return self._cell(i, j)

    @property
    def final(self) -> frozenset[Word]:
        return self._cell(len(self.u) + 1, len(self.w))

    def rows(self) -> list[list[frozenset[Word]]]:
        """All rows, each with the virtual empty-prefix column dropped."""
        return [
            [self._cell(i, j) for j in range(1, len(self.w) + 1)]
            for i in range(1, len(self.u) + 2)
        ]


def complement_table(
    w: Sequence[int], u: Sequence[int], budget: int = DEFAULT_BUDGET
) -> PrefixTable:
    """The whole prefix table, for inspection; no scattered-factor precondition."""
    wt, ut = tuple(w), tuple(u)
    ct, enc, dec = _codec(wt, ut)
    rows, room = [_first_row(ct)], budget
    for x in ut:
        row, room = _extend_row(ct, rows[-1], enc(x), room, budget)
        rows.append(row)
    return PrefixTable(Word(wt), Word(ut), rows, dec)


# --- suffix-matching recurrence with multiplicities -------------------------
#
# Rows are indexed by suffixes of u, columns by suffixes of w, with a virtual
# empty-suffix column at index |w|+1.  Cell (s, j) maps each word of
# C(w[j..|w|], s) to its number of embeddings.  Extending the row suffix by a
# letter x on the left: every cell prepends w[j] to its right neighbour, and
# where w[j] = x it also absorbs the parent row's right neighbour, adding
# counts when the same complement word arises both ways.
#
# Cell (u[i:], j) reaches the answer cell (u, 1) only if the rest of u, u[:i],
# embeds in w[1..j-1].  Its leftmost embedding ends at first[i], so the row
# is built from column lo = first[i] + 1 rightwards and the cells left of lo
# stay empty (Baeza-Yates, "Searching subsequences", TCS 1991).  With the
# default lo = 1 the whole row is built.

def _last_row(ct: tuple[bytes, ...]) -> _Row:
    n = len(ct)
    affix = [b""] * (n + 2)
    suf = b""
    for j in range(n, 0, -1):
        suf = ct[j - 1] + suf
        affix[j] = suf
    return [_NO_COUNTS] + [{b"": 1}] * (n + 1), affix


def _extend_suffix_row(
    ct: tuple[bytes, ...],
    prev: _Row,
    letter: bytes,
    room: int,
    budget: int,
    lo: int = 1,
) -> tuple[_Row, int]:
    pbase, paffix = prev
    n = len(ct)
    base: list = [_NO_COUNTS] * (n + 2)
    affix = [b""] * (n + 2)
    cur, s = _NO_COUNTS, b""
    # Cells never shrink leftwards, so a cell of k words charges k for itself
    # and every cell left of it down to lo; a later cell charges its growth.
    for j in range(n, lo - 1, -1):  # column j, whose parent cell is column j + 1
        a = ct[j - 1]
        s = a + s
        if a == letter and pbase[j + 1]:
            size = len(cur)
            if not cur:
                cur, s = pbase[j + 1], paffix[j + 1]
            else:
                cell = {s + v: c for v, c in cur.items()}
                get, p = cell.get, paffix[j + 1]
                for v, c in pbase[j + 1].items():
                    v = p + v
                    cell[v] = get(v, 0) + c
                cur, s = cell, b""
            room -= (len(cur) - size) * (j - lo + 1)  # columns lo to j
            if room < 0:
                raise BudgetExceeded(f"suffix table exceeds budget {budget}")
        base[j] = cur
        affix[j] = s
    return (base, affix), room


def complement_set_with_multiplicity(
    w: Sequence[int], u: Sequence[int], budget: int = DEFAULT_BUDGET
) -> ComplementSet:
    """C(w, u) with the number of embeddings producing each complement word."""
    wt, ut = _factor_pair(w, u)
    # first[i]: length of the shortest prefix of w containing u[:i]
    first = [0]
    for x in ut:
        first.append(wt.index(x, first[-1]) + 1)
    ct, enc, dec = _codec(wt, ut)
    row, room = _last_row(ct), budget
    for i in reversed(range(len(ut))):
        row, room = _extend_suffix_row(ct, row, enc(ut[i]), room, budget, first[i] + 1)
    mult = {dec(t): c for t, c in _suffix_cell(row, 1).items()}
    return ComplementSet(frozenset(mult), mult)

"""Words over integer letter codes, alphabets for text I/O, and basic predicates.

A word is a tuple of positive letter codes.  All public position arguments are
1-based (``w.at(3)`` is the third letter); raw tuple indexing stays 0-based and
is used internally.  Ordering and hashing come from ``tuple``, so words compare
lexicographically by code.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import groupby

from .errors import LengthMismatch, NotAScatteredFactor, WordSyntaxError


class Word(tuple):
    """Immutable word: a tuple of positive int letter codes, built like one.

    Word has no Python-level ``__new__``, so tuple's constructor builds it
    at C speed; the complement tables build one for every word they return."""

    __slots__ = ()

    def at(self, i: int) -> int:
        """Letter code at 1-based position i."""
        if not 1 <= i <= len(self):
            raise IndexError(f"position {i} out of range 1..{len(self)}")
        return self[i - 1]

    def sub(self, i: int, j: int) -> "Word":
        """Factor spanning 1-based positions i..j; empty when i > j."""
        if i < 1 or not 0 <= j <= len(self):
            raise IndexError(f"positions {i}..{j} out of range 1..{len(self)}")
        return Word(self[i - 1 : j])

    def __add__(self, other) -> "Word":  # concatenation
        return Word(tuple.__add__(self, tuple(other)))

    def __mul__(self, k: int) -> "Word":  # repetition w**k spelled w * k
        return Word(tuple.__mul__(self, k))

    def __repr__(self) -> str:
        try:
            return f"word({_AZ.decode(self)!r})" if self else "Word([])"
        except WordSyntaxError:
            return f"Word({list(self)!r})"


class Alphabet:
    """Bijection between display letters and codes 1..sigma.

    The letter order given at construction defines the codes, so a sorted
    letter list makes code order agree with character order.  All text
    encoding and decoding goes through an Alphabet; the algorithms themselves
    only ever see codes.
    """

    __slots__ = ("_letters", "_code_of", "_letter_of")

    def __init__(self, letters: Iterable[str]):
        letters = tuple(letters)
        if not letters:
            raise WordSyntaxError("alphabet must contain at least one letter")
        if any(len(ch) != 1 for ch in letters):
            raise WordSyntaxError("alphabet entries must be single characters")
        if len(set(letters)) != len(letters):
            raise WordSyntaxError(f"duplicate letters in alphabet {''.join(letters)!r}")
        self._letters = letters
        self._code_of = {ch: i + 1 for i, ch in enumerate(letters)}
        self._letter_of = {i + 1: ch for i, ch in enumerate(letters)}

    @classmethod
    def inferred(cls, texts: Iterable[str]) -> "Alphabet":
        """Alphabet of the sorted distinct characters occurring in texts, or
        Alphabet("a") when texts hold no character at all."""
        return cls(sorted(set().union(*map(set, list(texts)))) or "a")

    @property
    def size(self) -> int:
        return len(self._letters)

    @property
    def letters(self) -> tuple[str, ...]:
        return self._letters

    def codes(self) -> frozenset[int]:
        return frozenset(range(1, len(self._letters) + 1))

    def __contains__(self, ch: str) -> bool:
        return ch in self._code_of

    def encode(self, s: str) -> Word:
        try:
            return Word(map(self._code_of.__getitem__, s))
        except KeyError as exc:
            raise WordSyntaxError(
                f"letter {exc.args[0]!r} not in alphabet {''.join(self._letters)!r}"
            ) from None

    def decode(self, w: Sequence[int]) -> str:
        try:
            return "".join(map(self._letter_of.__getitem__, w))
        except (KeyError, TypeError):
            raise WordSyntaxError(f"word {tuple(w)!r} has codes outside 1..{len(self._letters)}") from None

    def __eq__(self, other) -> bool:
        if isinstance(other, Alphabet):
            return self._letters == other._letters
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._letters)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self._letters)!r})"


_AZ = Alphabet("abcdefghijklmnopqrstuvwxyz")


def word(s: str) -> Word:
    """Convenience constructor mapping 'a'..'z' to codes 1..26."""
    return _AZ.encode(s)


def text(w: Sequence[int]) -> str:
    """Inverse of word(): render codes 1..26 as 'a'..'z'."""
    return _AZ.decode(w)


def letters(w: Sequence[int]) -> frozenset[int]:
    """Set of letter codes occurring in w."""
    return frozenset(w)


def is_scattered_factor(u: Sequence[int], w: Sequence[int]) -> bool:
    """True iff u can be obtained from w by deleting letters (greedy scan)."""
    it = iter(w)
    return all(a in it for a in u)


def _factor_pair(w: Sequence[int], u: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(w, u) as tuples; u must be a scattered factor of w."""
    wt, ut = tuple(w), tuple(u)
    if not is_scattered_factor(ut, wt):
        raise NotAScatteredFactor(f"{Word(ut)!r} is not a scattered factor of {Word(wt)!r}")
    return wt, ut


def _equal_length_words(S: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """S as a list of tuples; S must hold at least one word, all of one length."""
    vs = [tuple(v) for v in S]
    if not vs:
        raise LengthMismatch("S must contain at least one word")
    lengths = {len(v) for v in vs}
    if len(lengths) != 1:
        raise LengthMismatch(f"words in S have different lengths: {sorted(lengths)}")
    return vs


def condensed(w: Sequence[int]) -> Word:
    """w with every maximal run of equal letters collapsed to one letter."""
    return Word(a for a, _ in groupby(w))


def contains_letter_square(w: Sequence[int]) -> bool:
    """True iff some letter occurs twice in a row."""
    return any(w[i] == w[i + 1] for i in range(len(w) - 1))


def is_square_free(w: Sequence[int]) -> bool:
    """True iff no factor of the form xx (x nonempty) occurs in w."""
    w = tuple(w)
    n = len(w)
    for length in range(1, n // 2 + 1):
        for i in range(n - 2 * length + 1):
            if w[i : i + length] == w[i + length : i + 2 * length]:
                return False
    return True


def _at_line(path, lineno: int, make, s: str):
    """make(s) for line lineno of a file, naming the path and line number in
    the WordSyntaxError that a malformed s raises."""
    try:
        return make(s)
    except WordSyntaxError as exc:
        raise WordSyntaxError(f"{path}:{lineno}: {exc}") from None


def read_numbered_lines(path) -> tuple[list[tuple[int, str]], Alphabet | None]:
    """Lines of a word file with their line numbers in the file, plus its
    '#alphabet:<letters>' header, if any; the header line is not returned.
    Only a newline ends a line.  A line holding a byte outside ASCII, or a
    malformed header, is rejected with its line number."""
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        lines = fh.read().split("\n")
    if not lines[-1]:
        lines.pop()
    for lineno, line in enumerate(lines, 1):
        if not line.isascii():
            byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
            raise WordSyntaxError(f"{path}:{lineno}: byte 0x{byte:02x} is not ASCII")
    alphabet = None
    if lines and lines[0].startswith("#alphabet:"):
        alphabet = _at_line(path, 1, Alphabet, lines[0][len("#alphabet:") :].strip())
        lines = lines[1:]
    return list(enumerate(lines, 1 if alphabet is None else 2)), alphabet


def read_word_lines(path) -> tuple[list[str], Alphabet | None]:
    """Raw lines of a word file plus its '#alphabet:<letters>' header, if any.

    One word per line; an interior empty line denotes the empty word.  Lines
    with stray whitespace are rejected with their line number.
    """
    numbered, alphabet = read_numbered_lines(path)
    for lineno, line in numbered:
        if any(ch.isspace() for ch in line):
            raise WordSyntaxError(f"{path}:{lineno}: stray whitespace in {line!r}")
    return [line for _, line in numbered], alphabet


def read_word_file(path, *texts: str) -> tuple[list[Word], Alphabet]:
    """Read a word file under its header's alphabet, else one inferred from
    its letters and those of texts, words that must share its codec."""
    lines, header = read_word_lines(path)
    alphabet = header or Alphabet.inferred([*lines, *texts])
    first = 1 if header is None else 2  # a header is line 1
    return [_at_line(path, n, alphabet.encode, ln) for n, ln in enumerate(lines, first)], alphabet

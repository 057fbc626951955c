"""Words over integer letter codes, alphabets for text I/O, and basic predicates.

A word is a tuple of positive letter codes.  Embeddings name positions
1-based, as the paper does; tuple indexing stays 0-based.  Ordering and
hashing come from ``tuple``, so words compare lexicographically by code.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import groupby

from .errors import LengthMismatch, NotAScatteredFactor, ScatcompError, WordSyntaxError


class Word(tuple):
    """Immutable word: a tuple of positive int letter codes, built like one.

    Word has no Python-level ``__new__``, so tuple's constructor builds it
    at C speed; the complement tables build one for every word they return."""

    __slots__ = ()

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


def is_scattered_factor(u: Sequence[int], w: Sequence[int]) -> bool:
    """True iff u can be obtained from w by deleting letters (greedy scan)."""
    it = iter(w)
    return all(a in it for a in u)


def _factor_pair(w: Sequence[int], u: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(w, u) as tuples; u must be a scattered factor of w."""
    wt, ut = tuple(w), tuple(u)
    if not is_scattered_factor(ut, wt):
        exc = NotAScatteredFactor(f"{Word(ut)!r} is not a scattered factor of {Word(wt)!r}")
        exc.words = ut, wt
        raise exc
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


def _at_line(path, lineno: int, make, *args):
    """make(*args) for line lineno of a file, naming the path and line number
    in the WordSyntaxError that a malformed line raises."""
    try:
        return make(*args)
    except WordSyntaxError as exc:
        raise WordSyntaxError(f"{path}:{lineno}: {exc}") from None


def _split_line(line: str, pairs: bool) -> list[str]:
    """The words of one file line: the line itself, or with pairs the v and
    u around its one tab.  A byte outside ASCII or any other whitespace is
    rejected."""
    if not line.isascii():
        byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
        raise WordSyntaxError(f"byte 0x{byte:02x} is not ASCII")
    fields = line.split("\t")
    if len(fields) != 1 + pairs or any(map(str.isspace, "".join(fields))):
        raise WordSyntaxError(f"expected 'v<TAB>u', got {line!r}" if pairs else f"stray whitespace in {line!r}")
    return fields


def _read_file(path, texts: Iterable[str] = (), pairs: bool = False) -> tuple[list[tuple[Word, ...]], Alphabet]:
    """Each line of a set file as a 1-tuple of words, or with pairs each
    line of a pair file as a (v, u) pair, under the codec of its
    '#alphabet:<letters>' header, else one inferred from its words and
    texts.  Only a newline ends a line, and every line, the header included,
    is held to _split_line's rule.  A set file's interior empty line is the
    empty word; a pair file skips empty lines and must hold a pair."""
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        lines = fh.read().split("\n")
    if not lines[-1]:
        lines.pop()
    numbered = list(enumerate(lines, 1))
    header = None
    if lines and lines[0].startswith("#alphabet:"):
        (line,) = _at_line(path, 1, _split_line, numbered.pop(0)[1], False)
        header = _at_line(path, 1, Alphabet, line[len("#alphabet:") :])
    rows = [(n, _at_line(path, n, _split_line, line, pairs)) for n, line in numbered if line or not pairs]
    if pairs and not rows:
        raise ScatcompError(f"{path}: no pairs")
    alphabet = header or Alphabet.inferred([*(v for _, fields in rows for v in fields), *texts])
    return [tuple(_at_line(path, n, alphabet.encode, v) for v in fields) for n, fields in rows], alphabet


def read_word_file(path, *texts: str) -> tuple[list[Word], Alphabet]:
    """Read a word file under its header's alphabet, else one inferred from
    its letters and those of texts, words that must share its codec."""
    rows, alphabet = _read_file(path, texts)
    return [v for (v,) in rows], alphabet

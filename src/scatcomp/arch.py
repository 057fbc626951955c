"""Arch factorization and the universality index.

The arch factorization of w splits it greedily into minimal prefixes that
each contain every alphabet letter at least once (the arches), followed by
the leftover rest.  The number of arches is the universality index; the last
letter of each arch occurs exactly once in that arch.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import WordSyntaxError
from .words import Alphabet, Word


def _resolve_sigma(w: tuple[int, ...], alphabet) -> frozenset[int]:
    if alphabet is None:
        return frozenset(w)
    if isinstance(alphabet, Alphabet):
        sigma = alphabet.codes()
    else:
        sigma = frozenset(alphabet)
    if not frozenset(w) <= sigma:
        raise WordSyntaxError(f"alphabet {sorted(sigma)} does not cover the letters of {Word(w)!r}")
    return sigma


@dataclass(frozen=True)
class ArchFactorization:
    """Arches, rest, and derived views of one factorization."""

    arches: tuple[Word, ...]
    rest: Word

    @property
    def universality_index(self) -> int:
        return len(self.arches)

    @property
    def modus(self) -> Word:
        """Word of the arches' last letters."""
        return Word(ar[-1] for ar in self.arches)


def arch_factorize(w: Sequence[int], alphabet=None) -> ArchFactorization:
    """Greedy arch factorization of w over the given alphabet.

    alphabet may be an Alphabet, an iterable of letter codes, or None for the
    letters occurring in w.  The alphabet must cover the letters of w.
    """
    w = tuple(w)
    sigma = _resolve_sigma(w, alphabet)
    arches: list[Word] = []
    missing = set(sigma)
    start = 0
    for pos, a in enumerate(w):
        missing.discard(a)
        if not missing:
            arches.append(Word(w[start : pos + 1]))
            start = pos + 1
            missing = set(sigma)
    return ArchFactorization(tuple(arches), Word(w[start:]))

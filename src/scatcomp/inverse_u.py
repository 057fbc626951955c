"""Recovering the deleted word: given w and a set S of complement words, find
u with S inside (or equal to) C(w, u).

v lies in C(w, u) exactly when w is an interleaving of u and v, a relation
symmetric in u and v.  So every u whose complement set contains S lies in
C(w, v0) for any v0 in S: one prefix table for v0 = min(S) lists the
possible u, and a shuffle-membership test against each other member of S
keeps the candidates.  Each candidate is then confirmed or rejected by
recomputing its complement set.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .complement import complement_set
from .errors import DEFAULT_BUDGET
from .shuffle import in_shuffle
from .words import Word, _equal_length_words, _factor_pair


def candidate_set(
    w: Sequence[int], S: Iterable[Sequence[int]], budget: int = DEFAULT_BUDGET
) -> frozenset[Word]:
    """All u with S a subset of C(w, u).

    v is in C(w, u) exactly when w is an interleaving of u and v, so every
    such u lies in C(w, v0) for v0 = min(S), and a word of that one table
    is a candidate when w is also an interleaving of it and each other v of
    S.  Only the v0 table is charged against `budget`, so BudgetExceeded
    comes from that table alone.
    """
    wt, vs = tuple(w), _equal_length_words(S)
    for v in vs:
        _factor_pair(wt, v)
    v0 = min(vs)
    rest = set(vs) - {v0}
    return frozenset(
        u for u in complement_set(wt, v0, budget).words if all(in_shuffle(wt, u, v) for v in rest)
    )


def find_u(
    w: Sequence[int],
    S: Iterable[Sequence[int]],
    budget: int = DEFAULT_BUDGET,
) -> Word | None:
    """Lexicographically least u with C(w, u) exactly S, or None."""
    return next(_verified_candidates(w, S, budget), None)


def find_u_all(
    w: Sequence[int],
    S: Iterable[Sequence[int]],
    budget: int = DEFAULT_BUDGET,
) -> list[Word]:
    """All u with C(w, u) exactly S, in lexicographic order."""
    return list(_verified_candidates(w, S, budget))


def _verified_candidates(w, S, budget):
    w, target = tuple(w), frozenset(Word(v) for v in S)  # each read once
    for u in sorted(candidate_set(w, target, budget)):
        if complement_set(w, u, budget).words == target:
            yield u

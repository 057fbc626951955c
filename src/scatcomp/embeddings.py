"""Embeddings of u into w: enumeration, counting, and complement extraction.

An embedding is a strictly increasing tuple of 1-based positions of w that
spell out u.  Deleting the embedded positions from w leaves the complement
word of that embedding.

`count_embeddings` runs the usual DP over prefixes of u, dp[i] counting the
embeddings of u[:i] into the part of w scanned so far, with all of dp held
in one int: dp[i] is lane i, wide enough for binom(|w|, min(|u|, |w| // 2)),
the largest count any lane can reach.  A letter a of w adds lane i - 1 to
lane i wherever u[i-1] = a, which for every i at once is one shift, one mask
and one addition, `dp += (dp << width) & masks[a]`.  Each letter touches
every lane, so counts past about 2^500 cost more limb work than updating
only the matching lanes; `enumerate_embeddings` needs the count within its
budget before it lists any, and no caller comes near that range.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from math import comb

from .errors import BudgetExceeded, DEFAULT_BUDGET
from .words import Word

Embedding = tuple[int, ...]


def count_embeddings(w: Sequence[int], u: Sequence[int]) -> int:
    """Number of embeddings of u into w (0 when u is not a scattered factor)."""
    u = tuple(u)
    m, n = len(u), len(w)
    if m > n:
        return 0
    # dp[i] = number of embeddings of u[:i] into the prefix scanned so far,
    # held in lane i of one int; no count exceeds binom(n, min(m, n // 2))
    width = comb(n, min(m, n // 2)).bit_length() + 1
    lane = (1 << width) - 1
    # masks[a] covers the lanes i with u[i-1] == a, which add lane i - 1
    masks: dict[int, int] = {}
    for i, a in enumerate(u, 1):
        masks[a] = masks.get(a, 0) | lane << i * width
    dp = 1
    for mask in filter(None, map(masks.get, w)):
        dp += (dp << width) & mask
    return dp >> m * width


def enumerate_embeddings(
    w: Sequence[int], u: Sequence[int], budget: int = DEFAULT_BUDGET
) -> list[Embedding]:
    """All embeddings of u into w in lexicographic position order.

    Refuses inputs whose embedding count exceeds the budget before listing
    any; the count alone answers an empty u and a u that does not embed.
    """
    total = count_embeddings(w, u)
    if total > budget:
        raise BudgetExceeded(f"{total} embeddings exceed budget {budget}")
    w, u = tuple(w), tuple(u)
    if not (total and u):
        return [()] * total
    n, m = len(w), len(u)
    occ: dict[int, list[int]] = {}
    for j, a in enumerate(w):
        occ.setdefault(a, []).append(j)
    out: list[Embedding] = []
    stack = [0] * m  # 0-based chosen positions
    i = 0
    nxt = 0  # smallest candidate position for u[i]
    while i >= 0:
        positions = occ[u[i]]
        k = bisect_left(positions, nxt)
        # too few letters left for the remaining suffix of u: backtrack
        while k < len(positions) and positions[k] + (m - i) <= n:
            stack[i] = positions[k]
            if i == m - 1:
                out.append(tuple(p + 1 for p in stack))
                k += 1
            else:
                i += 1
                nxt = stack[i - 1] + 1
                break
        else:
            i -= 1
            if i >= 0:
                nxt = stack[i] + 1
    return out


def complement_of_embedding(w: Sequence[int], e: Sequence[int]) -> Word:
    """Word left over after deleting the embedded positions (1-based) from w."""
    w = tuple(w)
    n = len(w)
    prev = 0
    for p in e:
        if not (isinstance(p, int) and prev < p <= n):
            raise ValueError(f"invalid embedding {tuple(e)} for a word of length {n}")
        prev = p
    chosen = set(e)
    return Word(a for j, a in enumerate(w, 1) if j not in chosen)


def group_equal_complements(
    w: Sequence[int], u: Sequence[int], budget: int = DEFAULT_BUDGET
) -> dict[Word, list[Embedding]]:
    """Embeddings of u into w grouped by their complement word, keys sorted."""
    groups: dict[Word, list[Embedding]] = {}
    for e in enumerate_embeddings(w, u, budget):
        groups.setdefault(complement_of_embedding(w, e), []).append(e)
    return {v: groups[v] for v in sorted(groups)}

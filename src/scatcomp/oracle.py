"""Brute-force reference implementations.

Everything here recomputes results from first principles, by enumerating
position subsets or candidate words outright, so the solver modules can be
checked against an independent route.  Budgets keep the blowups explicit.
Subsets come from `itertools.combinations`, size by size: the census of
every factor is keyed by |u|, then in `combinations` order, so a census
bounded at length k is the first part of the full census.  It pairs each
m-subset with its complement, the (|w| - m)-subset at the mirror place in
its list, since complementing reverses lexicographic order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain, combinations, product
from math import comb

from .complement import ComplementSet
from .errors import BudgetExceeded, LengthMismatch
from .shuffle import in_shuffle
from .words import Word

# Subset enumeration is 2^|w| or binom(|w|,k); keep the brute force honest
# about what it is willing to chew through.
BRUTE_MAX_SUBSETS = 10**7
BRUTE_MAX_LEN = 8
BRUTE_MAX_SIGMA = 4


def brute_complement_set(w: Sequence[int], u: Sequence[int]) -> ComplementSet:
    """C(w, u) with multiplicities, by trying every position subset of size |u|."""
    wt, ut = tuple(w), tuple(u)
    n, m = len(wt), len(ut)
    if m > n:
        return ComplementSet(frozenset(), {})
    if comb(n, m) > BRUTE_MAX_SUBSETS:
        raise BudgetExceeded(f"binom({n},{m}) subsets exceed the brute-force cap")
    counts: dict[Word, int] = {}
    for positions, letters in zip(combinations(range(n), m), combinations(wt, m)):
        if letters == ut:
            chosen = set(positions)
            v = Word(a for j, a in enumerate(wt) if j not in chosen)
            counts[v] = counts.get(v, 0) + 1
    return ComplementSet(frozenset(counts), counts)


def brute_all_scattered_factors(w: Sequence[int], k: int) -> frozenset[Word]:
    """All distinct length-k scattered factors of w, by position subsets."""
    wt = tuple(w)
    n = len(wt)
    if k < 0 or k > n:
        return frozenset()
    if comb(n, k) > BRUTE_MAX_SUBSETS:
        raise BudgetExceeded(f"binom({n},{k}) subsets exceed the brute-force cap")
    return frozenset(map(Word, combinations(wt, k)))


def brute_exists_word(pairs: Iterable[tuple[Sequence[int], Sequence[int]]]) -> Word | None:
    """First w (by code order) interleaving every pair (v_i, u_i), or None.

    All pairs must have the same total length n.  A witness uses only the
    pairs' letters, so the scan tries every word of length n over them; n and
    the number of letters are capped.
    """
    plist = [(tuple(v), tuple(u)) for v, u in pairs]
    if not plist:
        raise LengthMismatch("need at least one pair")
    lengths = {len(v) + len(u) for v, u in plist}
    if len(lengths) != 1:
        raise LengthMismatch(f"pairs disagree on total length: {sorted(lengths)}")
    n = lengths.pop()
    codes = sorted({x for v, u in plist for x in v + u})
    if n > BRUTE_MAX_LEN or len(codes) > BRUTE_MAX_SIGMA:
        raise BudgetExceeded(
            f"scan of {len(codes)}^{n} words exceeds the brute-force cap "
            f"(n <= {BRUTE_MAX_LEN}, sigma <= {BRUTE_MAX_SIGMA})"
        )
    for cand in product(codes, repeat=n):
        if all(in_shuffle(cand, v, u) for v, u in plist):
            return Word(cand)
    return None


def _complement_census(
    wt: tuple[int, ...], most: int | None = None
) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """For every scattered factor u of wt: complement word -> embedding count.

    Brute force over all 2^|wt| position subsets or, with 0 <= most < |wt|,
    over those of size <= most only.  Subsets are taken size by size, each
    size in `combinations` order, so the keys come by |u| and the census
    bounded at most is the first part of the full one, in the same order.
    The complement of the i-th m-subset is the i-th (|wt| - m)-subset from
    the end: complementing keeps the least element of A ^ B and moves it to
    the other side, which reverses lexicographic order.  Internal helper on
    raw tuples for the exhaustive verification sweeps.
    """
    n = len(wt)
    full = most is None or most >= n  # then each size's list serves both sides
    sizes = [list(combinations(wt, m)) for m in range(n + 1)] if full else []
    census: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for m in range(n + 1 if full else most + 1):
        us, vs = (sizes[m], sizes[n - m]) if full else (combinations(wt, m), list(combinations(wt, n - m)))
        for u, v in zip(us, reversed(vs)):
            per_u = census.get(u)
            if per_u is None:
                census[u] = {v: 1}
            else:
                per_u[v] = per_u.get(v, 0) + 1
    return census


def _scattered_factors(wt: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every distinct scattered factor of wt, in the full census's key order."""
    return list(dict.fromkeys(chain.from_iterable(combinations(wt, m) for m in range(len(wt) + 1))))

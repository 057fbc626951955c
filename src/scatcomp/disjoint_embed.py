"""Pairwise disjoint exhaustive embeddings: decide whether some word w
interleaves every given pair (v_i, u_i), and rebuild such a w letter by
letter.

All three calls share one search over interleaving frontiers.  After the
first t letters of w, a pair's frontier is the set of values a such that
those letters split into v_i[:a] and u_i[:t - a]; it is kept as a bitset, bit
a standing for a.  Writing a letter x maps each frontier deterministically
to its successor (a moves to a + 1 where v_i[a] = x, and stays where
u_i[t - a] = x), so a search state is just the tuple of frontiers, one per
distinct pair, and it is dead as soon as any frontier is empty.  A depth-first
search with an explicit stack tries letters in ascending order and remembers
the (t, state) keys below which no witness exists, so it meets complete
witnesses in lexicographic order and the first one is the least.  Pairs
whose letter multisets differ have no witness and are rejected before the
search; otherwise the state count can still grow exponentially with the
number of pairs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .complement import complement_set
from .errors import BudgetExceeded, LengthMismatch
from .words import Word

# find_w verifies each reconstructed witness with a full complement-set
# computation, so its default exploration cap is far below DEFAULT_BUDGET.
WITNESS_BUDGET = 10**4


def _pair_masks(v: tuple[int, ...], u: tuple[int, ...]) -> dict[int, tuple[int, int]]:
    """Letter -> (bitset of the positions of v holding it, the same for the
    reversed u); bit a of the second, shifted right by |u| - 1 - t, says
    whether u[t - a] holds the letter."""
    masks = {x: [0, 0] for x in v + u}
    for i, x in enumerate(v):
        masks[x][0] |= 1 << i
    for i, x in enumerate(reversed(u)):
        masks[x][1] |= 1 << i
    return {x: tuple(m) for x, m in masks.items()}


def _interleavings(
    pairs: Iterable[tuple[Sequence[int], Sequence[int]]]
) -> Iterator[Word]:
    """Every word interleaving all pairs, in lexicographic order."""
    pairs = [(tuple(v), tuple(u)) for v, u in pairs]
    if not pairs:
        raise ValueError("need at least one pair")
    lengths = {len(v) + len(u) for v, u in pairs}
    if len(lengths) != 1:
        raise LengthMismatch(f"pairs disagree on total length: {sorted(lengths)}")
    n = lengths.pop()
    if n == 0:
        yield Word(())
        return
    # A witness spells every pair's letters exactly, so the letter multisets
    # agree, and every letter tried below has masks in every pair.
    if len({tuple(sorted(v + u)) for v, u in pairs}) > 1:
        return
    # w interleaves (v, u) iff it interleaves (u, v), so both orders merge.
    distinct = dict.fromkeys(min(p, p[::-1]) for p in pairs)
    tables = [(_pair_masks(v, u), len(u) - 1) for v, u in distinct]
    letters = sorted(tables[0][0])

    def step(state: tuple[int, ...], t: int, x: int) -> tuple[int, ...] | None:
        out = []
        for f, (masks, last) in zip(state, tables):
            vm, rev = masks[x]
            f = (f & vm) << 1 | f & (rev >> (last - t) if t <= last else rev << (t - last))
            if not f:
                return None
            out.append(f)
        return tuple(out)

    dead: set[tuple[int, tuple[int, ...]]] = set()
    prefix: list[int] = []
    states = [(1,) * len(tables)]  # bit 0: no letter of v written
    alive = [False]  # whether a witness was met below each stacked state
    todo = [iter(letters)]
    while todo:
        t = len(prefix)
        for x in todo[-1]:
            nxt = step(states[-1], t, x)
            if nxt is None or (t + 1, nxt) in dead:
                continue
            if t + 1 == n:
                alive[-1] = True
                yield Word(prefix + [x])
                continue
            prefix.append(x)
            states.append(nxt)
            alive.append(False)
            todo.append(iter(letters))
            break
        else:
            todo.pop()
            state = states.pop()
            if alive.pop():
                if alive:
                    alive[-1] = True
            else:
                dead.add((t, state))
            if prefix:
                prefix.pop()


def exists_word(pairs: Iterable[tuple[Sequence[int], Sequence[int]]]) -> bool:
    """True iff some word interleaves every pair (v_i, u_i)."""
    return reconstruct_word(pairs) is not None


def reconstruct_word(
    pairs: Iterable[tuple[Sequence[int], Sequence[int]]]
) -> Word | None:
    """Lexicographically least word interleaving every pair, or None."""
    return next(_interleavings(pairs), None)


def find_w(
    u: Sequence[int],
    S: Iterable[Sequence[int]],
    budget: int = WITNESS_BUDGET,
) -> Word | None:
    """A word w with C(w, u) exactly S, or None.

    Witnesses interleaving every (v, u) pair are enumerated in lexicographic
    order and each is verified by recomputing its complement set; matching S
    as a subset does not guarantee equality, so verification can reject every
    witness even when witnesses exist.  At most `budget` witnesses are
    verified.
    """
    ut = tuple(u)
    vs = sorted({tuple(v) for v in S})
    if not vs:
        raise ValueError("S must contain at least one word")
    lengths = {len(v) for v in vs}
    if len(lengths) != 1:
        raise LengthMismatch(f"words in S have different lengths: {sorted(lengths)}")
    target = frozenset(Word(v) for v in vs)
    for explored, w in enumerate(_interleavings([(v, ut) for v in vs]), 1):
        if explored > budget:
            raise BudgetExceeded(f"witness exploration exceeded budget {budget}")
        if complement_set(w, ut).words == target:
            return w
    return None

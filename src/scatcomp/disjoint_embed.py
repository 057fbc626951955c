"""Pairwise disjoint exhaustive embeddings: decide whether some word w
interleaves every given pair (v_i, u_i), and rebuild such a w letter by
letter.

All three calls, and `shuffle.shuffle_set` for one pair, share one search
over interleaving frontiers.  After the first t letters of w, a pair's
frontier is the set of values a such that those letters split into v_i[:a]
and u_i[:t - a]; it is kept as a bitset, bit a standing for a.  Writing a
letter x maps each frontier deterministically to its successor (a moves to
a + 1 where v_i[a] = x, and stays where u_i[t - a] = x).  The frontiers of
all distinct pairs are packed into one int, a lane of 2n + 1 bits per pair
for pairs of total length n, so one letter is a few big-int operations
whatever the number of pairs: with VM[x] marking x in each v_i and R[x]
setting bit n - 1 - b of a lane where u_i[b] = x,

    g = (f & VM[x]) << 1 | f & (R[x] >> (n - 1 - t)).

The shift moves bits of one lane into the top half of its neighbour, where
no frontier bit lies, so no mask is needed; a state is dead as soon as any
lane is empty, which one addition tests for all lanes at once.  A depth-first
search with an explicit stack tries letters in ascending order and remembers
the (t, state) keys below which no witness exists, so it meets complete
witnesses in lexicographic order and the first one is the least.  Pairs
whose letter multisets differ have no witness and are rejected before the
search; otherwise the state count can still grow exponentially with the
number of pairs, so the search charges each state it pushes against a
budget.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .complement import complement_set
from .errors import BudgetExceeded, DEFAULT_BUDGET, LengthMismatch
from .words import Word, _equal_length_words

Pairs = Iterable[tuple[Sequence[int], Sequence[int]]]


def _interleavings(pairs: Pairs, budget: int = DEFAULT_BUDGET) -> Iterator[Word]:
    """Every word interleaving all pairs, in lexicographic order; raises
    BudgetExceeded when the search pushes more than `budget` states."""
    pairs = [(tuple(v), tuple(u)) for v, u in pairs]
    if not pairs:
        raise LengthMismatch("need at least one pair")
    lengths = {len(v) + len(u) for v, u in pairs}
    if len(lengths) != 1:
        raise LengthMismatch(f"pairs disagree on total length: {sorted(lengths)}")
    n = lengths.pop()
    if n == 0:
        yield Word(())
        return
    # A witness spells every pair's letters exactly, so the letter multisets
    # agree, and every letter tried below occurs in every pair.
    if len({tuple(sorted(v + u)) for v, u in pairs}) > 1:
        return
    # w interleaves (v, u) iff it interleaves (u, v), so both orders merge.
    distinct = dict.fromkeys(min(p, p[::-1]) for p in pairs)
    width = 2 * n + 1
    vm = dict.fromkeys(pairs[0][0] + pairs[0][1], 0)
    rm = vm.copy()
    one = 0  # bit 0 of every lane: no letter of v written
    for k, (v, u) in enumerate(distinct):
        lane = k * width
        one |= 1 << lane
        for b, x in enumerate(v):
            vm[x] |= 1 << lane + b
        for b, x in enumerate(u):
            rm[x] |= 1 << lane + n - 1 - b
    low = one * ((1 << n + 1) - 1)  # per lane, every bit a frontier can hold
    top = one << n + 1  # per lane, the carry out of a non-empty frontier
    letters = [(x, vm[x], rm[x]) for x in sorted(vm)]

    room = budget
    dead: set[tuple[int, int]] = set()
    prefix: list[int] = []
    states = [one]
    # a popped state is dead exactly when no witness was yielded since its push
    found, pushed = 0, [0]  # witnesses yielded; found at each stacked push
    todo = [iter(letters)]
    while todo:
        t = len(prefix)
        f, s = states[-1], n - 1 - t
        for x, vx, rx in todo[-1]:
            g = (f & vx) << 1 | f & rx >> s
            if (g + low) & top != top or (t + 1, g) in dead:
                continue
            if t + 1 == n:
                found += 1
                yield Word(prefix + [x])
                continue
            room -= 1
            if room < 0:
                raise BudgetExceeded(f"frontier search exceeds budget {budget}")
            prefix.append(x)
            states.append(g)
            pushed.append(found)
            todo.append(iter(letters))
            break
        else:
            todo.pop()
            state = states.pop()
            if pushed.pop() == found:
                dead.add((t, state))
            if prefix:
                prefix.pop()


def exists_word(pairs: Pairs, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff some word interleaves every pair (v_i, u_i); raises
    BudgetExceeded when the search pushes more than `budget` states."""
    return reconstruct_word(pairs, budget) is not None


def reconstruct_word(pairs: Pairs, budget: int = DEFAULT_BUDGET) -> Word | None:
    """Lexicographically least word interleaving every pair, or None; raises
    BudgetExceeded when the search pushes more than `budget` states."""
    return next(_interleavings(pairs, budget), None)


def find_w(
    u: Sequence[int],
    S: Iterable[Sequence[int]],
    budget: int = DEFAULT_BUDGET,
) -> Word | None:
    """The lexicographically least word w with C(w, u) exactly S, or None.

    Every such w interleaves each (v, u) pair, so it is among the witnesses,
    which are enumerated in lexicographic order; the first one that passes
    verification, by recomputing its complement set, is the least.  Matching S
    as a subset does not guarantee equality, so verification can reject every
    witness even when witnesses exist.  `budget` bounds the frontier search
    and each witness's complement table on its own.
    """
    ut = tuple(u)
    target = frozenset(map(Word, _equal_length_words(S)))
    witnesses = _interleavings([(v, ut) for v in target], budget)
    return next((w for w in witnesses if complement_set(w, ut, budget).words == target), None)

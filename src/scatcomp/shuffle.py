"""Shuffle products and self-shuffle complement tests.

The shuffle of u and v is every interleaving of the two; the perfect shuffle
alternates their letters one by one.  A word u is its own complement inside a
superword w of double length exactly when w lies in the shuffle of u with
itself.

`in_shuffle` decides membership with a bit-parallel scan: the possible
splits of each prefix of w are one int bitset, and each letter of w updates
all of them with two masks and a shift (Allison & Dix, "A bit-string
longest-common-subsequence algorithm", IPL 1986).  It is the one scan that
decides whether w splits into two given words: `is_self_shuffle_complement`
is a call to it, `first_second_occurrence` builds its pair position by
position with it, and `inverse_u.candidate_set` filters its candidates
with it.
`has_superword_complement` asks another question (whether a subsequence of
w splits into two copies of u) and keeps its own scan.  The shuffle set,
which `in_shuffle` is checked against, is the output of `_interleavings`,
the interleaving-frontier core of `disjoint_embed`, for the one pair (u, v):
it synthesizes words instead of deciding them and shares no code with
`in_shuffle`.
"""

from __future__ import annotations

from collections.abc import Sequence

from .disjoint_embed import _interleavings
from .errors import BudgetExceeded, DEFAULT_BUDGET, LengthMismatch
from .embeddings import Embedding, complement_of_embedding
from .words import Word


def shuffle_set(u: Sequence[int], v: Sequence[int], budget: int = DEFAULT_BUDGET) -> set[Word]:
    """All interleavings of u and v: the words the frontier search of
    `disjoint_embed` finds for the one pair (u, v).

    `budget` bounds the states that search pushes and, on its own, the
    letters of the returned set, so a few long words reach it as a million
    short ones do.
    """
    room, out = budget, set()
    for w in _interleavings([(u, v)], budget):
        room -= len(w)
        if room < 0:
            raise BudgetExceeded(f"shuffle set storage exceeds budget {budget}")
        out.add(w)
    return out


def perfect_shuffle(u: Sequence[int], v: Sequence[int]) -> Word:
    """u[1] v[1] u[2] v[2] ...; requires |u| = |v|."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise LengthMismatch(f"perfect shuffle needs equal lengths, got {len(u)} and {len(v)}")
    out = []
    for a, b in zip(u, v):
        out.append(a)
        out.append(b)
    return Word(out)


def in_shuffle(w: Sequence[int], u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff w is an interleaving of u and v.

    Walks the quadratic split table one anti-diagonal per letter of w: after
    t letters, bit i of `reach` says w[:t] splits into u[:i] and v[:t-i].
    Letter a extends a split through u where u[i] == a (mask U[a], then shift
    up by one) and through v where v[t-i] == a.  The second mask depends on
    t, so v's positions of a are stored reversed, offset by one bit, and
    shifted left by t and right by |v|.  The scan stops once no split is left.
    """
    w, u, v = tuple(w), tuple(u), tuple(v)
    m, k = len(u), len(v)
    if len(w) != m + k or sorted(w) != sorted(u + v):
        return False
    U: dict[int, int] = {}
    for i, a in enumerate(u):
        U[a] = U.get(a, 0) | 1 << i
    V: dict[int, int] = {}  # bit k - j set where v[j] == a
    for j, a in enumerate(v):
        V[a] = V.get(a, 0) | 1 << (k - j)
    reach = 1
    for t, a in enumerate(w):
        reach = ((reach & U.get(a, 0)) << 1) | (reach & (V.get(a, 0) << t) >> k)
        if not reach:
            return False
    return reach >> m & 1 == 1


def is_self_shuffle_complement(w: Sequence[int], u: Sequence[int]) -> bool:
    """True iff u embeds into w with complement u, i.e. w is in the shuffle
    of u with itself.

    A single cursor pair cannot decide this in one pass whichever cursor has
    priority on a shared letter: in w = aabaab with u = aab the copy taking
    position 2 is only known to be wrong in hindsight.  So this asks
    `in_shuffle`, which carries every viable split of each prefix at once.
    """
    return in_shuffle(w, u, u)


def self_shuffle_by_second_occurrence(w: Sequence[int], u: Sequence[int]) -> bool:
    """Self-shuffle test by greedily embedding the second copy of u.

    Builds the leftmost embedding of u into w that starts no earlier than
    position 2, then checks that the deleted positions spell u again.  This
    realizes the claim that such a greedy second occurrence always witnesses
    self-shuffle membership; the claim is false (w = aabaab, u = aab is a
    member, yet greedy picks positions 2,4,6 leaving aba) and the function is
    kept as stated so the verification suite can report where it breaks.
    """
    w, u = tuple(w), tuple(u)
    m = len(u)
    if len(w) != 2 * m:
        return False
    taken = []
    j = 1  # 0-based scan start; position 1 is the earliest second occurrence
    for a in u:
        while j < len(w) and w[j] != a:
            j += 1
        if j == len(w):
            return False
        taken.append(j)
        j += 1
    return complement_of_embedding(w, [p + 1 for p in taken]) == u


def has_superword_complement(w: Sequence[int], u: Sequence[int]) -> bool:
    """True iff some complement of u in w contains u as a scattered factor.

    Equivalent to w containing two disjoint embeddings of u, since the second
    copy lives inside the complement of the first.  Any disjoint pair can be
    sorted into a pointwise-ordered one, so a single scan suffices if it
    tracks, for each prefix length the leading copy may have reached, the
    longest prefix a disjoint trailing copy can have reached at the same
    time.  A one-pair greedy is not enough whichever cursor gets priority:
    with w = aabaab, u = aab the trailer must not steal position 2, while
    with w = ababaa, u = aba the leader must not take position 3.
    """
    w, u = tuple(w), tuple(u)
    m = len(u)
    if m == 0:
        return True
    if len(w) < 2 * m:
        return False
    best = {0: 0}  # leading cursor -> farthest trailing cursor, both 0-based
    for a in w:
        step = dict(best)
        for c1, c2 in best.items():
            if c1 < m and u[c1] == a and step.get(c1 + 1, -1) < c2:
                step[c1 + 1] = c2
            if c2 < c1 and u[c2] == a and step[c1] < c2 + 1:
                step[c1] = c2 + 1
        if step.get(m) == m:
            return True
        best = step
    return False


def first_second_occurrence(
    w: Sequence[int], v: Sequence[int]
) -> tuple[Embedding, Embedding] | None:
    """Earliest pair of embeddings (e1, e2) of v partitioning w with e1 < e2
    pointwise, or None; |w| must be 2|v| for any pair to exist.

    e1 is the lexicographically least embedding admitting such a partner.
    A pair exists exactly when w is in the shuffle of v with itself, so
    `in_shuffle` answers None first.  Otherwise one pass over w gives each
    position to e1 whenever the rest of w still splits into what the two
    copies lack, and to e2 when not; that is the least e1, and `in_shuffle`
    is asked at most |w| + 1 times.  The copies draw level only with equal
    suffixes left, where e1 and e2 can swap roles, so e2 never takes a
    position while level and stays pointwise behind e1.
    """
    w, v = tuple(w), tuple(v)
    if not in_shuffle(w, v, v):
        return None
    e1: list[int] = []
    e2: list[int] = []
    for t, a in enumerate(w):
        i = len(e1)
        if i < len(v) and a == v[i] and in_shuffle(w[t + 1:], v[i + 1:], v[len(e2):]):
            e1.append(t + 1)
        else:
            e2.append(t + 1)
    return tuple(e1), tuple(e2)

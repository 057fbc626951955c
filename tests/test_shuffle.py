import random
import time
from itertools import combinations, product
from math import comb

import pytest

from scatcomp.errors import BudgetExceeded, LengthMismatch
from scatcomp.shuffle import (
    first_second_occurrence,
    has_superword_complement,
    in_shuffle,
    is_self_shuffle_complement,
    perfect_shuffle,
    self_shuffle_by_second_occurrence,
    shuffle_set,
)
from scatcomp.words import text, word


def test_shuffle_set_sizes():
    assert len(shuffle_set(word("ban"), word("ana"))) == 11
    got = sorted(text(w) for w in shuffle_set(word("abc"), word("abc")))
    assert got == ["aabbcc", "aabcbc", "ababcc", "abacbc", "abcabc"]


def test_shuffle_set_bounds_and_edges():
    assert shuffle_set(word(""), word("")) == {word("")}
    assert shuffle_set(word("ab"), word("")) == {word("ab")}
    for u, v in [("ab", "ba"), ("aab", "ab"), ("abc", "cb")]:
        s = shuffle_set(word(u), word(v))
        assert len(s) <= comb(len(u) + len(v), len(u))
        assert all(len(w) == len(u) + len(v) for w in s)


def test_shuffle_budget():
    with pytest.raises(BudgetExceeded):
        shuffle_set(word("abcdefgh"), word("hgfedcba"), budget=100)


def test_shuffle_budget_counts_letters():
    # ab with c is abc, acb, cab: 9 letters; the search pushes a, ab, ac, c, ca
    assert len(shuffle_set(word("ab"), word("c"), budget=9)) == 3
    with pytest.raises(BudgetExceeded, match="storage"):
        shuffle_set(word("ab"), word("c"), budget=8)
    with pytest.raises(BudgetExceeded, match="frontier"):
        shuffle_set(word("ab"), word("c"), budget=1)


def test_shuffle_budget_stops_long_words_early():
    # a^1200 with b is only 1,201 words, but 1,201 letters each: the letter
    # charge stops the search after 832 of them
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        shuffle_set(word("a" * 1200), word("b"))
    assert time.perf_counter() - start < 2


def test_in_shuffle_agrees_with_the_set():
    u, v = word("ban"), word("ana")
    members = shuffle_set(u, v)
    assert all(in_shuffle(w, u, v) for w in members)
    assert not in_shuffle(word("nnabaa"), u, v)
    assert not in_shuffle(word("banan"), u, v)  # wrong length


def _table_in_shuffle(w, u, v):
    """Row-by-row split table: ok[j] = w[:i+j] splits into u[:i] and v[:j]."""
    m, k = len(u), len(v)
    if len(w) != m + k:
        return False
    ok = [True] * (k + 1)
    for j in range(1, k + 1):
        ok[j] = ok[j - 1] and v[j - 1] == w[j - 1]
    for i in range(1, m + 1):
        ok[0] = ok[0] and u[i - 1] == w[i - 1]
        for j in range(1, k + 1):
            c = w[i + j - 1]
            ok[j] = (ok[j] and u[i - 1] == c) or (ok[j - 1] and v[j - 1] == c)
    return ok[k]


def test_in_shuffle_against_table_dp():
    rng = random.Random(20261018)
    codes = [1, 255, 256, 70000, 2**40]
    answers = {True: 0, False: 0}
    for trial in range(1200):
        alphabet = rng.sample(codes, 1 if trial % 4 == 0 else rng.randint(2, 5))
        n = rng.randint(0, 8) if trial % 2 else rng.randint(0, 200)
        m = rng.choice((0, n, rng.randint(0, n)))
        u = [rng.choice(alphabet) for _ in range(m)]
        v = [rng.choice(alphabet) for _ in range(n - m)]
        picks = [0] * m + [1] * (n - m)
        rng.shuffle(picks)
        rest = [iter(u), iter(v)]
        w = [next(rest[p]) for p in picks]
        partner = list(w)
        if n > 1 and rng.random() < 0.5:
            p = rng.randrange(n - 1)
            partner[p], partner[p + 1] = partner[p + 1], partner[p]
        elif n:
            partner[rng.randrange(n)] = rng.choice(codes)
        for x in (w, partner):
            want = _table_in_shuffle(x, u, v)
            assert in_shuffle(x, u, v) == want, (x, u, v)
            if n <= 8:
                assert (tuple(x) in shuffle_set(u, v)) == want, (x, u, v)
            answers[want] += 1
        assert _table_in_shuffle(w, u, v)
        if n <= 8:  # the set places u on each position subset and v on the rest
            placed = set()
            for pos in combinations(range(n), m):
                rest = [iter(u), iter(v)]
                placed.add(tuple(next(rest[i not in pos]) for i in range(n)))
            assert shuffle_set(u, v) == placed, (u, v)
    assert min(answers.values()) > 500, answers


def test_in_shuffle_long_binary_words():
    k = 5000
    u = word("ab" * k)
    cases = [
        (word("ab" * (2 * k)), True),
        (word("a" * (2 * k) + "b" * (2 * k)), False),
        (word("ab" * (2 * k - 1) + "ba"), False),  # no split dies before letter 19,999
    ]
    for w, want in cases:
        start = time.perf_counter()
        assert in_shuffle(w, u, u) is want
        assert time.perf_counter() - start < 2


def test_perfect_shuffle():
    assert perfect_shuffle(word("bnn"), word("aaa")) == word("banana")
    assert perfect_shuffle(word(""), word("")) == word("")
    with pytest.raises(LengthMismatch):
        perfect_shuffle(word("ab"), word("a"))


def test_self_shuffle_positive_example():
    assert is_self_shuffle_complement(word("abaabaaa"), word("abaa"))
    assert in_shuffle(word("abaabaaa"), word("abaa"), word("abaa"))


def test_self_shuffle_needs_full_split_frontier():
    # aabaab = aab over positions (1,2,3) and (4,5,6); a scan committing to
    # one cursor split per prefix misses it
    assert is_self_shuffle_complement(word("aabaab"), word("aab"))
    assert is_self_shuffle_complement(word("ababaa"), word("aba"))
    assert not is_self_shuffle_complement(word("aabbaa"), word("aab"))
    assert not is_self_shuffle_complement(word("ab"), word("ab"))  # length
    assert is_self_shuffle_complement(word(""), word(""))


def test_self_shuffle_matches_in_shuffle_on_smalls():
    from itertools import product

    for m in range(4):
        for u in product((1, 2), repeat=m):
            members = shuffle_set(u, u)
            for w in product((1, 2), repeat=2 * m):
                assert is_self_shuffle_complement(w, u) == (w in members)


def test_second_occurrence_greedy_is_incomplete():
    # the greedy second occurrence witnesses membership when it works ...
    assert self_shuffle_by_second_occurrence(word("abaabaaa"), word("abaa"))
    assert not self_shuffle_by_second_occurrence(word("abab"), word("aa"))
    # ... but misses members: greedy picks positions 2,4,6 of aabaab,
    # leaving aba instead of aab
    assert not self_shuffle_by_second_occurrence(word("aabaab"), word("aab"))
    assert is_self_shuffle_complement(word("aabaab"), word("aab"))


@pytest.mark.xfail(
    strict=True,
    reason="the greedy second occurrence is one-sided: it already misses the member aabaab/aab",
)
def test_second_occurrence_greedy_agrees_with_membership_everywhere():
    from itertools import product

    for m in range(4):
        for u in product((1, 2), repeat=m):
            for w in product((1, 2), repeat=2 * m):
                assert self_shuffle_by_second_occurrence(w, u) == in_shuffle(w, u, u)


def test_superword_complement():
    assert has_superword_complement(word("aabaab"), word("aab"))
    assert has_superword_complement(word("ababaa"), word("aba"))
    assert not has_superword_complement(word("aaab"), word("aa"))  # only three a's
    assert has_superword_complement(word("abab"), word("ab"))
    assert not has_superword_complement(word("ab"), word("ab"))
    assert has_superword_complement(word("xy"), word(""))


def test_superword_complement_means_two_disjoint_embeddings():
    from scatcomp.complement import complement_set
    from scatcomp.oracle import brute_all_scattered_factors
    from scatcomp.words import is_scattered_factor

    from itertools import product

    for n in range(7):
        for wt in product((1, 2), repeat=n):
            for k in range(n + 1):
                for u in brute_all_scattered_factors(wt, k):
                    expect = any(
                        is_scattered_factor(u, v)
                        for v in complement_set(wt, u).words
                    )
                    assert has_superword_complement(wt, u) == expect, (wt, u)


def test_first_second_occurrence():
    assert first_second_occurrence(word("abab"), word("ab")) == ((1, 2), (3, 4))
    assert first_second_occurrence(word("aabaab"), word("aab")) == ((1, 2, 3), (4, 5, 6))
    assert first_second_occurrence(word(""), word("")) == ((), ())
    assert first_second_occurrence(word("peelwheel"), word("peel")) is None
    assert first_second_occurrence(word("aba"), word("ab")) is None  # odd length


def test_first_second_occurrence_partitions_and_dominates():
    w, v = word("abaabaaa"), word("abaa")
    got = first_second_occurrence(w, v)
    assert got is not None
    e1, e2 = got
    assert sorted(e1 + e2) == list(range(1, len(w) + 1))
    assert all(p < q for p, q in zip(e1, e2))
    for e in (e1, e2):
        assert tuple(w[p - 1] for p in e) == tuple(v)


def test_first_second_occurrence_stops_at_the_first_partner():
    # a^24 has C(24, 12) = 2,704,156 embeddings of a^12; the pair is built
    # without listing any of them
    w, v = word("a") * 24, word("a") * 12
    assert first_second_occurrence(w, v) == (tuple(range(1, 13)), tuple(range(13, 25)))


def test_first_second_occurrence_skips_a_first_copy_without_partner():
    # ababaa: the first embedding of aba, positions 1,2,3, leaves baa, so
    # e1 must pass over position 3 and take 5
    got = first_second_occurrence(word("ababaa"), word("aba"))
    assert got == ((1, 2, 5), (3, 4, 6))
    # abba is no interleaving of ab with itself
    assert first_second_occurrence(word("abba"), word("ab")) is None


def test_first_second_occurrence_rejects_non_members_without_enumerating():
    # b a^24 b has C(24, 12) = 2,704,156 embeddings of a^12 b, none with a partner
    w, v = word("b") + word("a") * 24 + word("b"), word("a") * 12 + word("b")
    t0 = time.perf_counter()
    assert first_second_occurrence(w, v) is None
    assert time.perf_counter() - t0 < 0.5


def _brute_first_second(w, v):
    n, m = len(w), len(v)
    for e1 in combinations(range(1, n + 1), m):
        e2 = tuple(p for p in range(1, n + 1) if p not in e1)
        spelled = (tuple(w[p - 1] for p in e) == tuple(v) for e in (e1, e2))
        if all(spelled) and all(p < q for p, q in zip(e1, e2)):
            return (e1, e2)
    return None


def test_first_second_occurrence_matches_brute_force():
    for n in range(0, 9, 2):
        for wt in product((1, 2), repeat=n):
            for v in product((1, 2), repeat=n // 2):
                assert first_second_occurrence(wt, v) == _brute_first_second(wt, v), (wt, v)


def test_first_second_occurrence_answers_long_members_fast():
    # a random binary v of length 50 and a random interleaving of two copies
    rng = random.Random(50)
    v = tuple(rng.choice((1, 2)) for _ in range(50))
    first = set(rng.sample(range(100), 50))
    copies = [iter(v), iter(v)]
    w = tuple(next(copies[p in first]) for p in range(100))
    t0 = time.perf_counter()
    got = first_second_occurrence(w, v)
    assert time.perf_counter() - t0 < 0.5
    assert got is not None
    e1, e2 = got
    assert sorted(e1 + e2) == list(range(1, 101))
    assert all(p < q for p, q in zip(e1, e2))
    for e in (e1, e2):
        assert tuple(w[p - 1] for p in e) == v

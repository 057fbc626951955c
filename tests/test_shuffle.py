import time
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
    # cells built for ab with c: {c}, {b}, {bc, cb}, {ab}, {abc, acb, cab}
    assert len(shuffle_set(word("ab"), word("c"), budget=17)) == 3
    with pytest.raises(BudgetExceeded):
        shuffle_set(word("ab"), word("c"), budget=16)


def test_shuffle_budget_stops_long_words_early():
    # a^1200 with b stores only 722,000 words, but 3 * 10^8 letters
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
            for w in product((1, 2), repeat=2 * m):
                assert is_self_shuffle_complement(w, u) == in_shuffle(w, u, u)


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

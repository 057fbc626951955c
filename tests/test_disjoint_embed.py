"""Pairwise disjoint exhaustive embeddings: existence and reconstruction."""

import random
from itertools import islice, product

import pytest

from scatcomp.complement import complement_set
from scatcomp.disjoint_embed import (
    _interleavings,
    exists_word,
    find_w,
    reconstruct_word,
)
from scatcomp.errors import BudgetExceeded, LengthMismatch
from scatcomp.oracle import brute_complement_set, brute_exists_word
from scatcomp.shuffle import in_shuffle
from scatcomp.words import Word, word


def test_single_pair_builds_an_interleaving():
    pairs = [(word("ba"), word("ab"))]
    assert exists_word(pairs)
    w = reconstruct_word(pairs)
    assert in_shuffle(w, word("ba"), word("ab"))
    assert w == word("abab")  # lexicographically least


def test_pair_order_does_not_matter_for_truth():
    a = [(word("ab"), word("ba")), (word("ab"), word("ab"))]
    b = [(word("ab"), word("ab")), (word("ab"), word("ba"))]
    assert exists_word(a) == exists_word(b) is True
    assert reconstruct_word(a) == reconstruct_word(b) == word("abab")


def test_branching_pair_needs_both_consumption_choices():
    # with w = abab, the pair (ab, ab) must split as positions (1,4)/(2,3)
    # for one ordering and (1,2)/(3,4) for the other; committing to a single
    # choice per letter loses one of the two pairs
    pairs = [(word("ab"), word("ba")), (word("ab"), word("ab"))]
    w = reconstruct_word(pairs)
    assert w == word("abab")
    assert in_shuffle(w, word("ab"), word("ba"))
    assert in_shuffle(w, word("ab"), word("ab"))


def test_unsatisfiable_pairs():
    pairs = [(word("aa"), word("aa")), (word("bb"), word("bb"))]
    assert not exists_word(pairs)
    assert reconstruct_word(pairs) is None


def test_reconstruction_matches_brute_force_witness():
    pairs = [(word("ba"), word("ab")), (word("ab"), word("ab"))]
    got = reconstruct_word(pairs)
    brute = brute_exists_word(pairs)
    assert got == brute == word("abab")


def test_total_lengths_must_agree():
    with pytest.raises(LengthMismatch):
        exists_word([(word("a"), word("b")), (word("ab"), word("ba"))])


def test_empty_pair_list_is_rejected():
    with pytest.raises(LengthMismatch):
        exists_word([])


def test_empty_pair_of_empties():
    assert exists_word([(word(""), word(""))])
    assert reconstruct_word([(word(""), word(""))]) == word("")


def test_find_w_verifies_the_full_complement_set():
    # abba is the least interleaving of (ba, ab) whose complement set of ab
    # is exactly {ba}; abab interleaves too but its complement set is larger
    got = find_w(word("ab"), [word("ba")])
    assert got == word("abba")
    assert complement_set(got, word("ab")).words == {word("ba")}


def test_find_w_is_the_least_word_by_a_brute_scan():
    # half the sets are C(w, u) of a hidden w, half are random; the scan
    # runs over every word of length |u| + |v| in lexicographic order, and
    # 43 of the 400 sets have two or more words w, so the order decides
    rng = random.Random(19)
    for _ in range(400):
        sigma, n = rng.randint(1, 3), rng.randint(1, 6)
        w = [rng.randint(1, sigma) for _ in range(n)]
        u = Word(w[p] for p in sorted(rng.sample(range(n), rng.randint(0, n))))
        S = brute_complement_set(w, u).words
        if rng.random() < 0.5:
            S = {Word(rng.randint(1, sigma) for _ in range(n - len(u))) for _ in range(rng.randint(1, 3))}
        want = next((Word(x) for x in product(range(1, sigma + 1), repeat=n)
                     if brute_complement_set(x, u).words == S), None)
        assert find_w(u, S) == want, (u, S)


def test_find_w_none_when_every_witness_overshoots():
    assert find_w(word("ab"), [word("a"), word("b")]) is None


def test_find_w_rejects_an_empty_set_and_mixed_lengths():
    with pytest.raises(LengthMismatch):
        find_w(word("ab"), [])
    with pytest.raises(LengthMismatch):
        find_w(word("ab"), [word("a"), word("ba")])


def test_find_w_respects_budget():
    # the budget bounds the frontier search and each witness's prefix table;
    # the first witness abab needs 10 table words and is rejected for abba
    with pytest.raises(BudgetExceeded, match="frontier"):
        find_w(word("ab"), [word("ba")], budget=2)
    with pytest.raises(BudgetExceeded, match="prefix table"):
        find_w(word("ab"), [word("ba")], budget=9)
    assert find_w(word("ab"), [word("ba")], budget=10) == word("abba")


def _split(rng, w):
    """A random (v, u) that w interleaves."""
    mask = [rng.random() < 0.5 for _ in w]
    return (
        Word(a for a, m in zip(w, mask) if m),
        Word(a for a, m in zip(w, mask) if not m),
    )


def test_differential_against_brute_scan():
    rng = random.Random(2024)
    for _ in range(300):
        sigma, n = rng.randint(1, 3), rng.randint(0, 8)
        pairs = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:  # a pair some hidden word interleaves
                pairs.append(_split(rng, [rng.randint(1, sigma) for _ in range(n)]))
            else:
                k = rng.randint(0, n)
                pairs.append((
                    Word(rng.randint(1, sigma) for _ in range(k)),
                    Word(rng.randint(1, sigma) for _ in range(n - k)),
                ))
        want = brute_exists_word(pairs)
        assert reconstruct_word(pairs) == want, pairs
        assert exists_word(pairs) == (want is not None), pairs


def test_eight_pair_unsatisfiable_family():
    # the letter counts disagree only in the last pair; a search over each
    # pair's individual splits, not their frontiers, multiplies the choices
    a4 = word("aaaa")
    pairs = [(a4, word("aaaab"))] * 7 + [(a4, word("aaaac"))]
    assert not exists_word(pairs)
    assert reconstruct_word(pairs) is None


def test_long_inputs_need_no_recursion():
    a, b = Word((1,) * 4000), Word((2,) * 4000)
    assert exists_word([(a, b)])
    assert reconstruct_word([(b, a)]) == a + b
    rng = random.Random(600)
    w = Word(rng.randint(1, 2) for _ in range(600))
    for k in (1, 2, 3):
        pairs = [_split(rng, w) for _ in range(k)]
        assert exists_word(pairs)
        got = reconstruct_word(pairs)
        assert got <= w and all(in_shuffle(got, v, u) for v, u in pairs)



def _random_pairs(rng, sigma, n, k):
    pairs = []
    for _ in range(k):
        if rng.random() < 0.6:  # a pair some hidden word interleaves
            pairs.append(_split(rng, [rng.randint(1, sigma) for _ in range(n)]))
        else:
            m = rng.randint(0, n)
            pairs.append((
                Word(rng.randint(1, sigma) for _ in range(m)),
                Word(rng.randint(1, sigma) for _ in range(n - m)),
            ))
    return pairs


def test_every_witness_in_order_against_a_brute_scan():
    # the whole ordered list, not just the first witness: the packed lanes
    # must neither drop nor invent a branch anywhere in the search
    rng = random.Random(77)
    for _ in range(200):
        sigma, n = rng.randint(1, 3), rng.randint(0, 7)
        pairs = _random_pairs(rng, sigma, n, rng.randint(1, 3))
        want = [
            Word(w) for w in product(range(1, sigma + 1), repeat=n)
            if all(in_shuffle(w, v, u) for v, u in pairs)
        ]
        assert list(_interleavings(pairs)) == want, pairs


def test_wide_lanes_against_in_shuffle():
    # n >= 40 puts each lane, and every lane boundary, past 64 bits
    rng = random.Random(41)
    for n in (40, 57, 90, 130):
        for k in (1, 2, 4, 6):
            w = Word(rng.randint(1, 2 + k % 2) for _ in range(n))
            pairs = [_split(rng, w) for _ in range(k)]
            got = list(islice(_interleavings(pairs), 25))
            assert got and got[0] <= w
            assert got == sorted(set(got))
            assert all(in_shuffle(x, v, u) for x in got for v, u in pairs)
            # a pair that w alone interleaves pins the answer to w
            assert list(_interleavings(pairs + [(w, Word(()))])) == [w]


def test_frontier_search_respects_its_budget():
    # (x.ab, e) and (x.ba, e) agree on their letters, so the search runs: it
    # pushes one state per letter of x and then fails on the last two
    rng = random.Random(12)
    for m in (1, 5, 60):
        x = Word(rng.randint(1, 3) for _ in range(m))
        pairs = [(x + word("ab"), Word(())), (x + word("ba"), Word(()))]
        with pytest.raises(BudgetExceeded):
            exists_word(pairs, budget=m - 1)
        with pytest.raises(BudgetExceeded):
            reconstruct_word(pairs, budget=m - 1)
        assert exists_word(pairs, budget=m) is False
        assert reconstruct_word(pairs, budget=m) is None

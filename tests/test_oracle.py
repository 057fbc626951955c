"""The brute-force oracles themselves, and their agreement with the fast paths."""

from itertools import combinations, product

import pytest

from scatcomp.complement import complement_set, complement_set_with_multiplicity
from scatcomp.errors import BudgetExceeded, LengthMismatch
from scatcomp.oracle import (
    _complement_census,
    _scattered_factors,
    brute_all_scattered_factors,
    brute_complement_set,
    brute_exists_word,
)
from scatcomp.verify import canonical_words
from scatcomp.words import Word, word


def test_brute_complement_matches_fast_path_exhaustively():
    for n in range(7):
        for wt in product((1, 2), repeat=n):
            for k in range(n + 1):
                for u in brute_all_scattered_factors(wt, k):
                    brute = brute_complement_set(wt, u)
                    assert complement_set(wt, u).words == brute.words
                    fast = complement_set_with_multiplicity(wt, u)
                    assert dict(fast.multiplicities) == dict(brute.multiplicities)


def test_census_agrees_with_per_factor_brute_force():
    # each oracle against the position-subset loop below
    for n in range(8):
        for wt in canonical_words(n, 3):
            want = _subset_census(wt)
            assert _complement_census(wt) == want
            for k in range(-1, n + 2):
                assert brute_all_scattered_factors(wt, k) == {u for u in want if len(u) == k}
            for u, per in want.items():
                assert dict(brute_complement_set(wt, u).multiplicities) == per


def _subset_census(wt):
    """The census from every position subset, by size, then in
    `combinations` order."""
    n = len(wt)
    census = {}
    for k in range(n + 1):
        for s in combinations(range(n), k):
            u = tuple(wt[i] for i in s)
            v = tuple(wt[i] for i in range(n) if i not in s)
            per = census.setdefault(u, {})
            per[v] = per.get(v, 0) + 1
    return census


def _in_order(census):
    return [(u, list(per.items())) for u, per in census.items()]


def test_full_and_bounded_census_match_position_subsets_in_order():
    # key order decides which violation a verify suite reports first; the
    # factor pass lists the same keys, in the same order, with no complements
    for n in range(9):
        for wt in canonical_words(n, 3):
            full = _in_order(_complement_census(wt))
            assert full == _in_order(_subset_census(wt))
            assert _scattered_factors(wt) == [u for u, _ in full]
            for most in range(n + 1):
                bounded = _in_order(_complement_census(wt, most))
                assert bounded == full[: len(bounded)]
                assert [u for u, _ in bounded] == [u for u, _ in full if len(u) <= most]


def test_all_scattered_factors():
    got = brute_all_scattered_factors(word("aba"), 2)
    assert got == frozenset({word("ab"), word("ba"), word("aa")})
    assert brute_all_scattered_factors(word("aba"), 0) == frozenset({word("")})
    assert brute_all_scattered_factors(word("aba"), 4) == frozenset()
    assert brute_all_scattered_factors(word("aba"), -1) == frozenset()


def test_all_scattered_factors_counts_sigma_power_k_up_to_universality():
    # a 2-universal word over {a, b} has every word of length <= 2 as a factor
    w = word("abba")
    assert len(brute_all_scattered_factors(w, 1)) == 2
    assert len(brute_all_scattered_factors(w, 2)) == 4


def test_brute_exists_word_scans_in_code_order():
    got = brute_exists_word([(word("ba"), word("ab"))])
    assert got == word("abab")
    assert brute_exists_word([(word("aa"), word("aa")), (word("bb"), word("bb"))]) is None
    # the scan runs over the pairs' own letters, whatever they are
    assert brute_exists_word([(word("c"), word(""))]) == word("c")


def test_brute_exists_word_validation():
    with pytest.raises(LengthMismatch):
        brute_exists_word([])
    with pytest.raises(LengthMismatch):
        brute_exists_word([(word("a"), word("b")), (word("ab"), word("ba"))])
    with pytest.raises(BudgetExceeded):
        brute_exists_word([(Word((1,)) * 6, Word((1,)) * 6)])
    with pytest.raises(BudgetExceeded, match="5\\^5"):
        brute_exists_word([(word("abc"), word("de"))])


def test_brute_complement_subset_cap():
    with pytest.raises(BudgetExceeded):
        brute_complement_set(Word((1,)) * 40, Word((1,)) * 20)


def test_brute_subset_cap():
    with pytest.raises(BudgetExceeded):
        brute_all_scattered_factors(Word((1,)) * 40, 20)

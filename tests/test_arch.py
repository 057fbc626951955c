import pytest

from scatcomp.arch import arch_factorize
from scatcomp.errors import WordSyntaxError
from scatcomp.words import Alphabet, Word, word


def test_basic_factorization():
    f = arch_factorize(word("abcabc"))
    assert f.arches == (word("abc"), word("abc"))
    assert f.rest == word("")
    assert f.modus == word("cc")
    assert f.universality_index == 2


def test_rest_collects_the_tail():
    f = arch_factorize(word("baaba"))
    assert f.arches == (word("ba"), word("ab"))
    assert f.rest == word("a")
    assert f.modus == word("ab")


def test_alphabet_argument_widens_sigma():
    # over {a, b} the word is 2-universal, over {a, b, c} it has no arch
    assert arch_factorize(word("abab")).universality_index == 2
    f = arch_factorize(word("abab"), Alphabet("abc"))
    assert f.universality_index == 0
    assert f.arches == ()
    assert f.rest == word("abab")


def test_alphabet_must_cover_word():
    with pytest.raises(WordSyntaxError):
        arch_factorize(word("abc"), Alphabet("ab"))


def test_empty_word():
    f = arch_factorize(word(""))
    assert f.arches == () and f.rest == word("")
    assert f.universality_index == 0


def test_word_property_rebuilds_input():
    for s in ["", "a", "abcabc", "aabbcabca", "cabbage"]:
        f = arch_factorize(word(s))
        assert sum(f.arches, Word()) + f.rest == word(s)


def test_arch_structure_invariants():
    # every arch contains the whole alphabet and ends at its last letter's
    # only occurrence inside that arch; the rest misses some letter
    w = word("abacbcbaacb")
    f = arch_factorize(w)
    sigma = frozenset(w)
    for ar in f.arches:
        assert frozenset(ar) == sigma
        assert ar[:-1].count(ar[-1]) == 0
    if f.rest:
        assert frozenset(f.rest) != sigma

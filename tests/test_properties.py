"""Randomized invariants, each mirrored by an exhaustive sweep in verify."""

import hypothesis.strategies as st
from hypothesis import given, settings

from scatcomp.arch import arch_factorize
from scatcomp.complement import complement_set, complement_set_with_multiplicity
from scatcomp.embeddings import (
    complement_of_embedding,
    count_embeddings,
    enumerate_embeddings,
)
from scatcomp.inverse_u import find_u
from scatcomp.shuffle import in_shuffle, is_self_shuffle_complement, shuffle_set
from scatcomp.words import (
    Word,
    condensed,
    contains_letter_square,
    is_scattered_factor,
)

words = st.lists(st.integers(1, 3), max_size=7).map(Word)
short_words = st.lists(st.integers(1, 2), max_size=5).map(Word)


@st.composite
def word_with_factor(draw, base=words):
    w = draw(base)
    mask = draw(st.lists(st.booleans(), min_size=len(w), max_size=len(w)))
    u = Word(a for a, keep in zip(w, mask) if keep)
    return w, u


@given(word_with_factor())
def test_complement_symmetry(pair):
    w, u = pair
    for v in complement_set(w, u).words:
        assert u in complement_set(w, v).words


@given(word_with_factor())
def test_complement_lengths_and_multiplicity_sum(pair):
    w, u = pair
    cs = complement_set_with_multiplicity(w, u)
    assert all(len(v) == len(w) - len(u) for v in cs.words)
    assert cs.total_embeddings == count_embeddings(w, u)
    assert complement_set(w, u).words == cs.words


@given(words, words)
def test_scattered_factor_iff_embeddings_exist(w, u):
    embs = enumerate_embeddings(w, u)
    assert is_scattered_factor(u, w) == (count_embeddings(w, u) > 0) == bool(embs)
    for e in embs:
        assert tuple(w[p - 1] for p in e) == tuple(u)
        assert len(complement_of_embedding(w, e)) == len(w) - len(u)


@given(words)
def test_condensed_and_letter_squares(w):
    assert condensed(condensed(w)) == condensed(w)
    assert contains_letter_square(w) == (len(condensed(w)) < len(w))


@given(short_words, short_words)
def test_shuffle_membership_matches_the_set(u, v):
    members = shuffle_set(u, v)
    for w in members:
        assert in_shuffle(w, u, v)
    if len(u) + len(v):
        assert not in_shuffle(Word((3,)) * (len(u) + len(v)), u, v)


@given(st.lists(st.integers(1, 2), min_size=1, max_size=4).map(Word), st.data())
def test_self_shuffle_agrees_with_shuffle_set(u, data):
    w = data.draw(st.sampled_from(sorted(shuffle_set(u, u))))
    assert is_self_shuffle_complement(w, u)
    assert in_shuffle(w, u, u)
    other = data.draw(st.lists(st.integers(1, 2), min_size=2 * len(u), max_size=2 * len(u)).map(Word))
    assert is_self_shuffle_complement(other, u) == in_shuffle(other, u, u)


@given(word_with_factor())
def test_complement_is_equivariant_under_letter_swap(pair):
    w, u = pair
    swap = {1: 2, 2: 1, 3: 3}
    sw = Word(swap[a] for a in w)
    su = Word(swap[a] for a in u)
    got = {Word(swap[a] for a in v) for v in complement_set(w, u).words}
    assert got == complement_set(sw, su).words


@given(words)
def test_arch_factorization_rebuilds_and_saturates(w):
    f = arch_factorize(w)
    assert sum(f.arches, Word()) + f.rest == w
    sigma = frozenset(w)
    for ar in f.arches:
        assert frozenset(ar) == sigma
    if f.rest:
        assert frozenset(f.rest) < sigma


@given(words)
def test_appending_one_alphabet_block_adds_one_arch(w):
    sigma = sorted(frozenset(w))
    if not sigma:
        return
    extended = w + Word(sigma)
    assert (
        arch_factorize(extended, sigma).universality_index
        == arch_factorize(w, sigma).universality_index + 1
    )


@settings(deadline=None)
@given(word_with_factor(base=short_words))
def test_recovered_u_reproduces_the_complement_set(pair):
    w, u = pair
    S = complement_set(w, u).words
    u2 = find_u(w, S)
    assert u2 is not None
    assert complement_set(w, u2).words == S

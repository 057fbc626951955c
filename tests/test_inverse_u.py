import random
import time

import pytest

from scatcomp.complement import complement_set
from scatcomp.errors import LengthMismatch, NotAScatteredFactor
from scatcomp.inverse_u import candidate_set, find_u, find_u_all
from scatcomp.oracle import brute_all_scattered_factors
from scatcomp.words import word


def test_recovers_deleted_word():
    S = [word("anna"), word("nana"), word("anan")]
    assert find_u(word("ananas"), S) == word("as")
    assert find_u_all(word("ananas"), S) == [word("as")]


def test_set_may_be_a_one_shot_iterator():
    S = [word("anna"), word("nana"), word("anan")]
    assert find_u(word("ananas"), iter(S)) == word("as")
    assert find_u_all(word("ananas"), iter(S)) == [word("as")]


def test_no_solution():
    assert find_u(word("ab"), [word("a"), word("b")]) is None
    assert find_u_all(word("ab"), [word("a"), word("b")]) == []


def test_partial_set_is_rejected():
    # {anna} is a strict subset of C(ananas, as): candidates survive the
    # intersection but none verifies exactly
    got = find_u(word("ananas"), [word("anna")])
    assert got is None or complement_set(word("ananas"), got).words == {word("anna")}


def test_candidate_set_is_the_intersection():
    w = word("abbaba")
    S = [word("abba"), word("baba")]
    cands = candidate_set(w, S)
    for k in range(len(w) + 1):
        for u in brute_all_scattered_factors(w, k):
            member = all(v in complement_set(w, u).words for v in S)
            assert (u in cands) == member


def test_validation():
    with pytest.raises(LengthMismatch):
        find_u(word("ab"), [])
    with pytest.raises(LengthMismatch):
        find_u(word("abc"), [word("a"), word("ab")])
    with pytest.raises(NotAScatteredFactor):
        find_u(word("ab"), [word("c")])


def test_round_trip_is_exhaustive_on_a_sample():
    # find_u(w, C(w, u)) must return some u2 with the same complement set
    for wt, ut in [("abbab", "ab"), ("aabba", "ab"), ("abcacb", "acb"), ("banana", "ana")]:
        w, u = word(wt), word(ut)
        S = complement_set(w, u).words
        u2 = find_u(w, S)
        assert u2 is not None
        assert complement_set(w, u2).words == S
        assert u2 in find_u_all(w, S)


def test_all_returns_every_match_sorted():
    # deleting ab or ba from aba leaves a either way
    got = find_u_all(word("aba"), [word("a")])
    assert got == [word("ab"), word("ba")]
    assert find_u(word("aba"), [word("a")]) == word("ab")
    # deleting one letter from aaaa always leaves aaa
    assert find_u_all(word("aaaa"), [word("aaa")]) == [word("a")]


def test_candidate_set_is_the_intersection_of_complement_sets():
    rng = random.Random(8)
    for _ in range(300):
        w = tuple(rng.randint(1, rng.randint(1, 3)) for _ in range(rng.randint(1, 9)))
        u = tuple(w[p] for p in sorted(rng.sample(range(len(w)), rng.randint(0, len(w)))))
        S = sorted(complement_set(w, u).words)
        if rng.random() < 0.5:
            S = rng.sample(S, rng.randint(1, len(S)))
        want = frozenset.intersection(*(complement_set(w, v).words for v in S))
        assert candidate_set(w, S) == want
        assert find_u_all(w, S) == sorted(x for x in want if complement_set(w, x).words == set(S))


def test_find_u_on_a_large_complement_set():
    # |S| = 1,365: one table for min(S) and shuffle tests for the rest,
    # where intersecting 1,365 tables took 3.6 s
    rng = random.Random(35)
    w = tuple(rng.randint(1, 2) for _ in range(30))
    S = complement_set(w, w[::4]).words
    assert len(S) == 1365
    t0 = time.perf_counter()
    got = find_u(w, S)
    assert time.perf_counter() - t0 < 2.0
    assert got == word("bbbabaaa")
    assert complement_set(w, got).words == S

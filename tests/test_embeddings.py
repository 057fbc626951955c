import random
from itertools import combinations
from math import comb

import pytest

from scatcomp.embeddings import (
    complement_of_embedding,
    count_embeddings,
    enumerate_embeddings,
    group_equal_complements,
)
from scatcomp.errors import BudgetExceeded, ScatcompError
from scatcomp.words import word


def test_count_matches_enumeration():
    for w, u in [("ananas", "as"), ("peelwheel", "peel"), ("ababbaba", "ab")]:
        embs = enumerate_embeddings(word(w), word(u))
        assert count_embeddings(word(w), word(u)) == len(embs)
        assert len(set(embs)) == len(embs)


def test_unary_counts_are_binomial():
    for n in range(7):
        for k in range(n + 2):
            assert count_embeddings(word("a") * n, word("a") * k) == comb(n, k)


def test_no_embedding_counts_zero():
    assert count_embeddings(word("ab"), word("ba")) == 0
    assert enumerate_embeddings(word("ab"), word("ba")) == []


def test_empty_u_has_the_empty_embedding():
    assert count_embeddings(word("ab"), word("")) == 1
    assert enumerate_embeddings(word("ab"), word("")) == [()]


def test_embeddings_are_increasing_and_lex_sorted():
    embs = enumerate_embeddings(word("peelwheel"), word("peel"))
    assert len(embs) == 7
    assert embs == sorted(embs)
    for e in embs:
        assert all(p < q for p, q in zip(e, e[1:]))
        assert all(word("peelwheel")[p - 1] == word("peel")[i] for i, p in enumerate(e))


def test_alfalfa_has_four_embeddings_of_ala():
    # easy to undercount by hand: (4,5,7) hides behind the repeated alf
    embs = enumerate_embeddings(word("alfalfa"), word("ala"))
    assert embs == [(1, 2, 4), (1, 2, 7), (1, 5, 7), (4, 5, 7)]
    groups = group_equal_complements(word("alfalfa"), word("ala"))
    assert set(groups) == {word("alff"), word("falf"), word("flfa"), word("lfaf")}


def test_complement_of_embedding():
    # deleting the embedding (1, 3) from aba leaves position 2
    assert complement_of_embedding(word("aba"), (1, 3)) == word("b")
    assert complement_of_embedding(word("abc"), ()) == word("abc")
    with pytest.raises(ScatcompError):
        complement_of_embedding(word("abc"), (0,))
    with pytest.raises(ScatcompError):
        complement_of_embedding(word("abc"), (4,))


def test_group_equal_complements_partitions_embeddings():
    w, u = word("ababbaba"), word("ab")
    groups = group_equal_complements(w, u)
    assert sum(len(es) for es in groups.values()) == count_embeddings(w, u) == 8
    assert {k: len(v) for k, v in groups.items()} == {
        word("ababba"): 1,
        word("abbaba"): 3,
        word("abbbaa"): 1,
        word("bababa"): 2,
        word("babbaa"): 1,
    }
    assert list(groups) == sorted(groups)


def test_letter_square_forces_equal_complements():
    # w = x aa y with u using one of the doubled letters: strictly fewer
    # distinct complements than embeddings
    w, u = word("baab"), word("ba")
    groups = group_equal_complements(w, u)
    assert count_embeddings(w, u) > len(groups)


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_embeddings(word("a") * 30, word("a") * 15, budget=1000)


def _brute_embeddings(w, u):
    # every increasing choice of |u| positions, kept when it spells u
    return [e for e in combinations(range(1, len(w) + 1), len(u)) if all(w[p - 1] == a for p, a in zip(e, u))]


def test_enumeration_against_brute_force_in_order():
    codes = (-3, 0, 1, 2, 256, 2**40)
    rng = random.Random(12)
    for k in range(2400):
        alpha = rng.sample(codes, rng.randint(1, 4))
        w = tuple(rng.choice(alpha) for _ in range(rng.randint(0, 12)))
        if k % 8 == 0:  # u longer than w
            u = tuple(rng.choice(alpha) for _ in range(len(w) + rng.randint(1, 2)))
        elif k % 8 == 1:
            u = ()
        elif k % 2:  # a random word, often not a scattered factor
            u = tuple(rng.choice(alpha) for _ in range(rng.randint(1, 6)))
        else:  # a scattered factor of w
            u = tuple(w[p] for p in sorted(rng.sample(range(len(w)), rng.randint(0, len(w)))))
        assert enumerate_embeddings(w, u) == _brute_embeddings(w, u), (w, u)


def test_large_binary_enumeration_and_its_budget_boundary():
    rng = random.Random(15)
    w = tuple(rng.choice((1, 2)) for _ in range(24))
    u = w[::3]
    total = count_embeddings(w, u)
    assert total > 10**4
    embs = enumerate_embeddings(w, u, budget=total)
    assert len(embs) == total
    assert all(a < b for a, b in zip(embs, embs[1:]))
    assert all(all(w[p - 1] == a for p, a in zip(e, u)) and list(e) == sorted(set(e)) for e in embs)
    with pytest.raises(BudgetExceeded, match=f"^{total} embeddings exceed budget {total - 1}$"):
        enumerate_embeddings(w, u, budget=total - 1)


def _lane_dp(w, u):
    # the textbook DP: dp[i] counts embeddings of u[:i] into the prefix of w
    # read so far; letter a updates only the lanes i with u[i - 1] == a, and
    # in descending order, so that dp[i - 1] is still the old count
    lanes = {}
    for i in range(len(u), 0, -1):
        lanes.setdefault(u[i - 1], []).append(i)
    dp = [1] + [0] * len(u)
    for a in w:
        for i in lanes.get(a, ()):
            dp[i] += dp[i - 1]
    return dp[-1]


def test_packed_count_against_lane_dp():
    # one int holds every dp[i]; the lanes must never carry into each other,
    # for any letter codes, and lanes past 1,000 bits when |u| ~ |w| / 2
    codes = (-5, 0, 1, 255, 256, 2**40)
    rng = random.Random(7)
    cases = []
    for k in range(160):
        alpha = rng.sample(codes, rng.randint(1, 4))
        w = tuple(rng.choice(alpha) for _ in range(int(2 ** rng.uniform(0, 12))))
        m = rng.randint(0, min(64, len(w)))
        if k % 4 == 0:  # u longer than w
            u = tuple(rng.choice(alpha) for _ in range(len(w) + rng.randint(1, 3)))
        elif k % 4 == 1:  # letters w lacks
            u = tuple(rng.choice(alpha + [7]) for _ in range(m))
        else:  # a scattered factor of w
            u = tuple(w[p] for p in sorted(rng.sample(range(len(w)), m)))
        cases.append((w, u))
    for n in (1030, 1100):
        w = tuple(rng.choice((0, 2**40)) for _ in range(n))
        u = tuple(w[p] for p in sorted(rng.sample(range(n), n // 2)))
        assert comb(n, n // 2).bit_length() > 1000
        cases.append((w, u))
    for w, u in cases:
        assert count_embeddings(w, u) == _lane_dp(w, u), (len(w), len(u))
    assert count_embeddings((), ()) == 1
    assert count_embeddings((), (1,)) == 0

import random
import tracemalloc

import pytest

from scatcomp.complement import (
    complement_set,
    complement_set_with_multiplicity,
    complement_table,
)
from scatcomp.embeddings import count_embeddings
from scatcomp.errors import BudgetExceeded, NotAScatteredFactor
from scatcomp.oracle import brute_complement_set
from scatcomp.words import is_scattered_factor, text, word


def words(*texts):
    return {word(t) for t in texts}


def test_ananas():
    cs = complement_set(word("ananas"), word("as"))
    assert cs.words == words("anna", "nana", "anan")
    assert word("anna") in cs and word("naan") not in cs
    assert cs.total_embeddings is None  # no multiplicities asked for


def test_ababa_multiplicities():
    cs = complement_set_with_multiplicity(word("ababa"), word("aba"))
    assert dict(cs.multiplicities) == {word("ab"): 2, word("ba"): 2}
    assert cs.total_embeddings == 4


def test_ababbaba_multiplicities():
    cs = complement_set_with_multiplicity(word("ababbaba"), word("ab"))
    assert [(text(v), cs.multiplicities[v]) for v in cs.sorted_words()] == [
        ("ababba", 1),
        ("abbaba", 3),
        ("abbbaa", 1),
        ("bababa", 2),
        ("babbaa", 1),
    ]
    assert cs.total_embeddings == 8


def test_peelwheel():
    cs = complement_set_with_multiplicity(word("peelwheel"), word("peel"))
    assert len(cs) == 4
    assert cs.total_embeddings == 7
    assert dict(cs.multiplicities) == {
        word("eelwh"): 1,
        word("elwhe"): 4,
        word("lwhee"): 1,
        word("wheel"): 1,
    }


def test_extreme_deletions():
    assert complement_set(word("abba"), word("")).words == words("abba")
    assert complement_set(word("abba"), word("abba")).words == {word("")}


def test_requires_scattered_factor():
    with pytest.raises(NotAScatteredFactor):
        complement_set(word("ab"), word("ba"))
    with pytest.raises(NotAScatteredFactor):
        complement_set_with_multiplicity(word("ab"), word("aab"))


def test_plain_and_multiplicity_sets_agree():
    for w, u in [("ananas", "as"), ("ababbaba", "ab"), ("peelwheel", "peel")]:
        assert (
            complement_set(word(w), word(u)).words
            == complement_set_with_multiplicity(word(w), word(u)).words
        )


def test_complement_words_have_uniform_length():
    for w, u in [("ananas", "as"), ("ababbaba", "ab"), ("peelwheel", "peel")]:
        cs = complement_set(word(w), word(u))
        assert {len(v) for v in cs.words} == {len(w) - len(u)}


def test_multiplicity_sum_is_embedding_count():
    for w, u in [("ananas", "as"), ("ababbaba", "abb"), ("banana", "an")]:
        cs = complement_set_with_multiplicity(word(w), word(u))
        assert cs.total_embeddings == count_embeddings(word(w), word(u))


def test_symmetry_on_small_words():
    # v is a complement of u exactly when u is a complement of v
    w = word("abbaba")
    for k in range(len(w) + 1):
        from scatcomp.oracle import brute_all_scattered_factors

        for u in brute_all_scattered_factors(w, k):
            for v in complement_set(w, u).words:
                assert u in complement_set(w, v).words


def _check_table(w, u):
    # rows()[i - 1][j - 1] is cell (i, j), C(w[1..j], u[1..i-1]): |u| + 1
    # rows of |w| cells each
    rows = complement_table(w, u).rows()
    assert [len(row) for row in rows] == [len(w)] * (len(u) + 1)
    for i, row in enumerate(rows, 1):
        for j, cell in enumerate(row, 1):
            assert cell == brute_complement_set(w[:j], u[: i - 1]).words


def test_table_rows_are_prefix_complements():
    w, u = word("ananas"), word("as")
    rows = complement_table(w, u).rows()
    # row 1 deletes nothing: cell (1, j) holds the prefix w[1..j]
    assert rows[0] == [frozenset({w[:j]}) for j in range(1, len(w) + 1)]
    assert rows[-1][-1] == complement_set(w, u).words
    _check_table(w, u)
    # an empty w, and a u with letters w lacks, keep the shape
    assert complement_table((), word("ab")).rows() == [[], [], []]
    _check_table(word("ab"), word("c"))


def test_budget_exceeded():
    w = word("ab") * 14
    with pytest.raises(BudgetExceeded):
        complement_set(w, word("ab") * 5, budget=50)
    with pytest.raises(BudgetExceeded):
        complement_set_with_multiplicity(w, word("ab") * 5, budget=50)


def _random_pair(rng, max_n, sigma, min_m=0):
    w = tuple(rng.randint(1, sigma) for _ in range(rng.randint(max(min_m, 1), max_n)))
    k = rng.randint(min_m, len(w))
    return w, tuple(w[p] for p in sorted(rng.sample(range(len(w)), k)))


def test_prefix_budget_is_the_table_total():
    # the prefix table stores C(w[:j], u[:i]) for i, j >= 1; a call fits
    # its budget exactly when the sum of their sizes does
    rng = random.Random(3)
    for _ in range(150):
        w, u = _random_pair(rng, 9, rng.randint(1, 3), min_m=1)
        total = sum(
            len(brute_complement_set(w[:j], u[:i]))
            for i in range(1, len(u) + 1)
            for j in range(1, len(w) + 1)
        )
        with pytest.raises(BudgetExceeded):
            complement_set(w, u, budget=total - 1)
        assert complement_set(w, u, budget=total).words == brute_complement_set(w, u).words


def test_suffix_budget_is_the_live_total():
    # the suffix table stores C(w[j-1:], u[i:]) for i < |u| and the live
    # columns j, those with u[:i] a scattered factor of w[:j-1]; a call fits
    # its budget exactly when the sum of their sizes does
    rng = random.Random(5)
    for _ in range(150):
        w, u = _random_pair(rng, 9, rng.randint(1, 3), min_m=1)
        total = sum(
            len(brute_complement_set(w[j - 1 :], u[i:]))
            for i in range(len(u))
            for j in range(1, len(w) + 1)
            if is_scattered_factor(u[:i], w[: j - 1])
        )
        with pytest.raises(BudgetExceeded):
            complement_set_with_multiplicity(w, u, budget=total - 1)
        cs = complement_set_with_multiplicity(w, u, budget=total)
        assert dict(cs.multiplicities) == dict(brute_complement_set(w, u).multiplicities)


def test_suffix_table_against_brute_force():
    rng = random.Random(4)
    for _ in range(400):
        w, u = _random_pair(rng, 12, rng.randint(1, 4))
        cs = complement_set_with_multiplicity(w, u)
        assert dict(cs.multiplicities) == dict(brute_complement_set(w, u).multiplicities)


def test_tables_store_few_bytes_per_word():
    # one row of these tables holds millions of words; a per-cell budget
    # check stops them first, and at one byte per letter they peak at
    # 11-18 MB by then, where a tuple per word took 44-79 MB
    rng = random.Random(160)
    w = tuple(rng.randint(1, 2) for _ in range(160))
    for table in (complement_set, complement_set_with_multiplicity, complement_table):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                table(w, w[::4], budget=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, table.__name__


def test_wide_letter_codes_against_brute_force():
    # codes past one byte are stored in wider chunks; every width must
    # decode to the same words as the brute-force route
    codes = (1, 255, 256, 70000, 2**40)
    rng = random.Random(40)
    for _ in range(300):
        alpha = rng.sample(codes, rng.randint(1, 3))
        w = tuple(rng.choice(alpha) for _ in range(rng.randint(0, 9)))
        u = tuple(w[p] for p in sorted(rng.sample(range(len(w)), rng.randint(0, len(w)))))
        brute = brute_complement_set(w, u)
        assert complement_set(w, u).words == brute.words
        cs = complement_set_with_multiplicity(w, u)
        assert dict(cs.multiplicities) == dict(brute.multiplicities)
        _check_table(w, u)


def _runs_word(rng, alpha, max_n):
    # blocks of one repeated letter, so that many columns of a row shift
    # their neighbour's words without meeting the row letter
    w = ()
    while len(w) < max_n:
        w += (rng.choice(alpha),) * rng.randint(1, 4)
    return w[: rng.randint(0, max_n)]


def test_lazy_cells_against_brute_force():
    # every cell a caller can read: the answer cell of both tables and
    # every cell of the prefix table, also for u with letters w lacks
    codes = (1, 2, 3, 4, 255, 256, 70000, 2**40)
    rng = random.Random(6)
    for k in range(300):
        alpha = rng.sample(codes, rng.randint(1, 4)) if k % 2 else [1, 2, 3, 4][: rng.randint(1, 4)]
        w = _runs_word(rng, alpha, 10)
        u = tuple(w[p] for p in sorted(rng.sample(range(len(w)), rng.randint(0, len(w)))))
        brute = brute_complement_set(w, u)
        assert complement_set(w, u).words == brute.words
        cs = complement_set_with_multiplicity(w, u)
        assert dict(cs.multiplicities) == dict(brute.multiplicities)
        if k % 3 == 0:
            u = tuple(rng.choice(alpha + [9]) for _ in range(rng.randint(0, 4)))
        _check_table(w, u)


def test_long_shift_runs_stay_small():
    # a run of a letter that u lacks only shifts each cell's words, so a
    # cell there shares its neighbour's words; copying them into every
    # cell of the run peaked at 42 MB (prefix table, run after the head)
    # and 27 MB (suffix table, run before it)
    rng = random.Random(1)
    head = tuple(rng.randint(1, 2) for _ in range(32))
    run = (3,) * 150
    u = head[::4]
    for table, w in ((complement_set, head + run), (complement_set_with_multiplicity, run + head)):
        tracemalloc.start()
        try:
            got = table(w, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 1039
        assert peak < 6 * 2**20, table.__name__


def test_table_decodes_cells_when_read():
    # the long shift run again: decoding every cell of the table up front
    # took 3.9 s and peaked at 443 MB, holding the lazy rows takes little;
    # only rows() decodes the cells
    rng = random.Random(1)
    head = tuple(rng.randint(1, 2) for _ in range(32))
    w, u = head + (3,) * 150, head[::4]
    tracemalloc.start()
    try:
        complement_table(w, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20

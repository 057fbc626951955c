"""Acceptance gate: one printed pass/fail line per criterion item.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
Every suite runs once, at its default scale, in the session-scoped
`verify_all` fixture of `conftest.py`: one `run_suites(available_suites())`,
the same run as `scatcomp verify all`.
`PINNED` pins each suite's checks, violations and first violation from that
run, and the criteria of groups 2 and 3 read their reports from it.

Four claim suites (two-arch-singleton, three-letter-nontrivial,
modus-prefix-unique, second-occurrence-greedy) have genuine counterexamples
at these scales, pinned in the table.  The first three are also criterion
items, expected failures kept strict so an accidental pass is flagged.
"""

import time

import pytest

from scatcomp.complement import complement_set, complement_set_with_multiplicity
from scatcomp.embeddings import count_embeddings
from scatcomp.shuffle import (
    in_shuffle,
    is_self_shuffle_complement,
    perfect_shuffle,
    shuffle_set,
)
from scatcomp.words import Word, text, word


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# checks, violations and first violation of every suite at its default scale
PINNED = {
    "complement-prefix": (607_919, 0, None),
    "complement-suffix": (607_919, 0, None),
    "complement-symmetry": (917_340, 0, None),
    "embedding-lower-bound": (40_113, 0, None),
    "first-letter-modus": (4_774, 0, None),
    "length-uniformity": (607_919, 0, None),
    "letter-square-free": (4_926, 0, None),
    "letter-square-usage": (394_064, 0, None),
    "modus-prefix-unique": (518, 76, "w=abccacb: singletons of length 1 are {}, expected c"),
    "multiplicity-sum": (607_919, 0, None),
    "recover-deleted": (121_273, 0, None),
    "single-letter-run": (14_255, 0, None),
    "squarefree-embeddings": (8_630, 0, None),
    "superword-scan": (121_273, 0, None),
    "three-letter-nontrivial": (432, 4, "w=abccabbac u=cb: singleton below iota over 3 letters"),
    "two-arch-singleton": (5_333, 165, "w=abbab u=b: singleton=False form=True"),
    "universality-index": (14_767, 0, None),
    "equivariance": (300, 0, None),
    "find-w": (44_488, 0, None),
    "first-second-occurrence": (92_041, 0, None),
    "pairwise-disjoint": (3_580_120, 0, None),
    "perfectshuffle": (2_146, 0, None),
    "repetition-classes": (4_332, 0, None),
    "second-occurrence-greedy": (92_041, 17, "w=aabaab u=aab: greedy disagrees with shuffle set"),
    "selfshuffle-scan": (2_483_647, 0, None),
    "shuffle-membership": (175_173, 0, None),
}


def test_verify_all_reports_every_pinned_suite(verify_all):
    assert sorted(verify_all) == sorted(PINNED)


@pytest.mark.parametrize("name", PINNED)
def test_default_scale_outcome(verify_all, name):
    r = verify_all[name]
    first = r.violations[0] if r.violations else None
    assert (r.checked, len(r.violations) + r.overflow, first) == PINNED[name]


def _suite_criterion(name: str, report) -> None:
    _criterion(name, report.ok, report.line())


# --- criterion 1: known worked examples, reproduced exactly (< 1 s each) ---


def test_criterion_1_ananas():
    got, dt = _timed(lambda: complement_set(word("ananas"), word("as")).words)
    ok = got == {word("anna"), word("nana"), word("anan")} and dt < 1.0
    _criterion("1.1 C(ananas,as) = {anna,nana,anan}", ok, f"{dt * 1000:.1f} ms")


def test_criterion_1_ababa():
    cs, dt = _timed(lambda: complement_set_with_multiplicity(word("ababa"), word("aba")))
    ok = dict(cs.multiplicities) == {word("ab"): 2, word("ba"): 2} and dt < 1.0
    _criterion("1.2 C(ababa,aba) = {ab,ba} with multiplicity 2 each", ok, f"{dt * 1000:.1f} ms")


def test_criterion_1_ababbaba():
    cs, dt = _timed(lambda: complement_set_with_multiplicity(word("ababbaba"), word("ab")))
    mults = [cs.multiplicities[v] for v in cs.sorted_words()]
    ok = len(cs) == 5 and mults == [1, 3, 1, 2, 1] and sum(mults) == 8 and dt < 1.0
    _criterion("1.3 C(ababbaba,ab): 5 words, multiplicities (1,3,1,2,1), 8 embeddings", ok,
               f"{dt * 1000:.1f} ms")


def test_criterion_1_peelwheel():
    def job():
        return (
            count_embeddings(word("peelwheel"), word("peel")),
            len(complement_set(word("peelwheel"), word("peel"))),
        )

    (embs, size), dt = _timed(job)
    ok = embs == 7 and size == 4 and dt < 1.0
    _criterion("1.4 peelwheel/peel: 7 embeddings, |C| = 4", ok, f"{dt * 1000:.1f} ms")


def test_criterion_1_shuffles():
    def job():
        return (
            len(shuffle_set(word("ban"), word("ana"))),
            len(shuffle_set(word("abc"), word("abc"))),
            perfect_shuffle(word("bnn"), word("aaa")),
        )

    (ban, abc, ps), dt = _timed(job)
    ok = ban == 11 and abc == 5 and ps == word("banana") and dt < 1.0
    _criterion("1.5 |ban⧢ana| = 11, |abc⧢abc| = 5, bnn⊙aaa = banana", ok, f"{dt * 1000:.1f} ms")


def test_criterion_1_self_shuffle_membership():
    def job():
        w, u = word("abaabaaa"), word("abaa")
        return (
            in_shuffle(w, u, u),
            is_self_shuffle_complement(w, u),
            word("baaa") in complement_set(w, u).words,
        )

    flags, dt = _timed(job)
    ok = all(flags) and dt < 1.0
    _criterion("1.6 abaabaaa ∈ abaa⧢abaa and baaa ∈ C(abaabaaa,abaa)", ok, f"{dt * 1000:.1f} ms")


# --- criterion 2: oracle-equivalence suites (exhaustive, exact) ---


def test_criterion_2_prefix_algorithm_vs_brute(verify_all):
    _suite_criterion("2.1a prefix table = brute complements, |w| <= 9, sigma <= 3",
                     verify_all["complement-prefix"])


def test_criterion_2_suffix_algorithm_vs_brute(verify_all):
    _suite_criterion("2.1b suffix multiplicities = brute counts, |w| <= 9, sigma <= 3",
                     verify_all["complement-suffix"])


def test_criterion_2_pairwise_disjoint_vs_brute(verify_all):
    _suite_criterion("2.2 exists_word/reconstruct_word vs brute scan, r <= 2, n <= 6",
                     verify_all["pairwise-disjoint"])


def test_criterion_2_self_shuffle_vs_brute(verify_all):
    _suite_criterion("2.3 is_self_shuffle_complement vs membership, |w| <= 10",
                     verify_all["selfshuffle-scan"])


def test_criterion_2_find_u_round_trip(verify_all):
    _suite_criterion("2.4 find_u round-trip, |w| <= 8", verify_all["recover-deleted"])


# --- criterion 3: structural claim suites (exhaustive at stated scales) ---


def test_criterion_3_symmetry(verify_all):
    _suite_criterion("3.1a complement symmetry", verify_all["complement-symmetry"])


def test_criterion_3_length_uniformity(verify_all):
    _suite_criterion("3.1b complement length uniformity", verify_all["length-uniformity"])


def test_criterion_3_multiplicity_sum(verify_all):
    _suite_criterion("3.1c multiplicity sum = embedding count", verify_all["multiplicity-sum"])


def test_criterion_3_embedding_lower_bound(verify_all):
    _suite_criterion("3.2a embedding count >= binom(iota, |u|)", verify_all["embedding-lower-bound"])


@pytest.mark.xfail(
    strict=True,
    reason="stated two-arch condition ignores the rest; abbab (arches ab|ba, rest b) violates it",
)
def test_criterion_3_two_arch_singleton(verify_all):
    _suite_criterion("3.2b singleton complements of the first modus letter", verify_all["two-arch-singleton"])


def test_criterion_3_first_letter_modus(verify_all):
    _suite_criterion("3.2c singleton forces u[1] = modus[1]", verify_all["first-letter-modus"])


@pytest.mark.xfail(
    strict=True,
    reason="abccabbac/cb is a singleton below the universality index over three letters",
)
def test_criterion_3_three_letter_nontrivial(verify_all):
    _suite_criterion("3.2d no singletons below iota over three letters", verify_all["three-letter-nontrivial"])


@pytest.mark.xfail(
    strict=True,
    reason="the modus prefix of abccacb is not a singleton; the existence half fails over three letters",
)
def test_criterion_3_modus_prefix_unique(verify_all):
    _suite_criterion("3.2e modus prefixes are the unique singletons", verify_all["modus-prefix-unique"])


def test_criterion_3_squarefree(verify_all):
    _suite_criterion("3.3a square-free hosts: |C| = 1 forces one embedding",
                     verify_all["squarefree-embeddings"])


def test_criterion_3_letter_square_characterization(verify_all):
    _suite_criterion("3.3b no letter square iff |C| = 1 forces one embedding, both directions",
                     verify_all["letter-square-free"])


def test_criterion_3_letter_square_usage(verify_all):
    _suite_criterion("3.3c letter-square usage on singleton deletions", verify_all["letter-square-usage"])


def test_criterion_3_perfect_shuffle_characterization(verify_all):
    _suite_criterion("3.4 C(w,u) = {u} iff w = u⊙u, |u| <= 5", verify_all["perfectshuffle"])


# --- criterion 4: scaling smoke benchmark (informal, never gates) ---


def test_criterion_4_scaling_smoke():
    def prefix_dp_time(n: int) -> float:
        w = Word((1,)) + Word((2,)) * (n - 2) + Word((1,))
        u = Word((1, 1))  # binom(w, u) = 1 at every n
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            complement_set(w, u)
            best = min(best, time.perf_counter() - t0)
        return best

    t1, t2 = prefix_dp_time(800), prefix_dp_time(1600)
    ratio = t2 / t1 if t1 > 0 else float("inf")
    within = ratio <= 6.0  # ~4x expected; slack for timer noise
    detail = f"t(800)={t1 * 1000:.1f} ms, t(1600)={t2 * 1000:.1f} ms, ratio={ratio:.2f}"
    print(f"{'PASS' if within else 'FAIL'} 4.1 doubling |w| at binom=1"
          f"  [{detail}; informational, never gates]")
    assert True

"""The verification engine itself: registry, report shape, known outcomes.

Every suite's default-scale outcome is pinned in the acceptance tests, from
one `verify all` run; these stay at small scales, except that the six
short-factor claims, superword-scan and squarefree-embeddings also run
alone at their default scale against it.
"""

import gc
from itertools import combinations, permutations, product

import pytest

from scatcomp import complement, shuffle, verify
from scatcomp.errors import ScatcompError
from scatcomp.inverse_u import find_u_all
from scatcomp.verify import available_suites, canonical_words, run_suite, run_suites


def test_registry_is_complete():
    names = available_suites()
    assert len(names) == len(set(names))
    for expected in [
        "complement-prefix",
        "complement-suffix",
        "complement-symmetry",
        "multiplicity-sum",
        "pairwise-disjoint",
        "selfshuffle-scan",
        "perfectshuffle",
        "recover-deleted",
    ]:
        assert expected in names


def test_unknown_suite_raises():
    with pytest.raises(ScatcompError):
        run_suite("nope")


def test_unknown_suite_message_offers_only_python_names():
    # "all" is a CLI word, not a suite name
    with pytest.raises(ScatcompError) as exc:
        run_suite("all")
    assert str(exc.value) == f"unknown suite 'all'; available: {', '.join(available_suites())}"


def test_canonical_words_count_matters():
    # canonical representatives: first occurrences of letters appear in
    # increasing code order; over two letters that halves the full count
    ws = list(canonical_words(3, 2))
    assert len(ws) == 4  # aaa aab aba abb
    assert all(w[0] == 1 for w in ws)
    ws4 = list(canonical_words(4, 3))
    assert len(ws4) == len({tuple(w) for w in ws4})


def test_sweep_runs_multiple_names_in_one_pass(capsys):
    reports = {r.name: r for r in run_suites(["complement-prefix", "length-uniformity"], max_len=5)}
    assert set(reports) == {"complement-prefix", "length-uniformity"}
    assert all(r.ok and r.checked > 0 for r in reports.values())


def test_report_line_format():
    r = run_suite("complement-symmetry", max_len=5)
    assert r.ok
    line = r.line()
    assert line.startswith("complement-symmetry: pass")
    assert "checked=" in line


def test_small_scale_passes():
    for name in ["first-letter-modus", "squarefree-embeddings", "letter-square-free"]:
        assert run_suite(name, max_len=6).ok


def test_pinned_claims_fail_where_documented():
    # these four suites state claims with genuine counterexamples; the
    # smallest ones appear at the lengths used here
    r = run_suite("two-arch-singleton", max_len=5)
    assert not r.ok
    assert r.violations
    r = run_suite("second-occurrence-greedy", max_len=6)
    assert not r.ok
    r = run_suite("three-letter-nontrivial", max_len=6)
    assert r.ok  # first counterexamples only appear at length 9
    r = run_suite("modus-prefix-unique", max_len=7)
    assert not r.ok
    assert run_suite("modus-prefix-unique", max_len=6).ok


def test_seeded_suites_are_reproducible():
    a = run_suite("equivariance", max_len=6, seed=123)
    b = run_suite("equivariance", max_len=6, seed=123)
    assert a.checked == b.checked
    assert a.violations == b.violations
    assert a.ok and b.ok


def _outcome(r):
    return (r.name, r.checked, r.violations, r.overflow)


# claims that read only short factors: alone, each builds a census bounded
# at its length; in a grouped run they read the full census of other checkers
_BOUNDED = [
    "single-letter-run",
    "two-arch-singleton",
    "first-letter-modus",
    "three-letter-nontrivial",
    "modus-prefix-unique",
    "embedding-lower-bound",
]


def test_grouped_run_equals_one_run_per_suite(verify_all):
    # only sweep checkers share a pass; a standalone suite runs alone either way
    names = [nm for nm in available_suites() if verify._SUITES[nm].sweep]
    grouped = run_suites(names, max_len=5)
    assert list(map(_outcome, grouped)) == [_outcome(run_suite(nm, max_len=5)) for nm in names]
    # default scales: the grouped side is the shared `verify all` run;
    # superword-scan sweeps to length 8, the others to 9
    names = _BOUNDED + ["superword-scan", "squarefree-embeddings"]
    assert [_outcome(verify_all[nm]) for nm in names] == [_outcome(run_suite(nm)) for nm in names]


def _ordered_pairs(w, v):
    """Every pair (e1, e2) of embeddings of v that splits w with e1 < e2
    pointwise, e1 in combinations order and e2 built as its complement."""
    spots = range(1, len(w) + 1)
    return [
        (e1, e2)
        for e1 in combinations(spots, len(v))
        for e2 in [tuple(p for p in spots if p not in e1)]
        if all(w[p - 1] == a for p, a in zip(e1 + e2, tuple(v) * 2))
        and all(p < q for p, q in zip(e1, e2))
    ]


def test_pair_table_matches_shuffle_sets_and_the_complement_search():
    # membership from the enumerated shuffle set of v with itself, the least
    # pair from the explicit-complement search; odd words have no entries
    selfs = {}
    for sigma, top in ((1, 8), (2, 8), (3, 8), (4, 6)):
        for n in range(top + 1):
            for wt in canonical_words(n, sigma):
                got = verify._Lab(wt, sigma).halves
                if n % 2:
                    assert got == []
                    continue
                vs = list(product(range(1, sigma + 1), repeat=n // 2))
                assert [v for v, _ in got] == vs
                for v, least in got:
                    if v not in selfs:
                        selfs[v] = shuffle.shuffle_set(v, v, 10**9)
                    pairs = _ordered_pairs(wt, v) if wt in selfs[v] else [None]
                    assert least == pairs[0], (wt, v)


def test_first_second_suite_rejects_a_pair_that_is_not_the_least(monkeypatch):
    # a valid pointwise-ordered pair is not enough: the suite compares with
    # the least one, so returning the last valid pair must fail
    def last_pair(w, v):
        pairs = _ordered_pairs(w, v)
        return pairs[-1] if pairs else None

    monkeypatch.setattr(verify, "first_second_occurrence", last_pair)
    r = run_suite("first-second-occurrence", max_len=6)
    assert (r.checked, len(r.violations)) == (3427, 7)
    assert "w=aaaa v=aa: got ((1, 3), (2, 4)), want ((1, 2), (3, 4))" in r.violations


def test_selfshuffle_suite_catches_the_greedy_scan(monkeypatch):
    # the greedy second occurrence is a wrong membership test: run in place
    # of the scan, it fails exactly where second-occurrence-greedy does
    greedy = run_suite("second-occurrence-greedy", max_len=6)
    assert not greedy.ok
    monkeypatch.setattr(verify, "is_self_shuffle_complement", verify.self_shuffle_by_second_occurrence)
    r = run_suite("selfshuffle-scan", max_len=6)
    assert (r.checked, len(r.violations) + r.overflow) == (greedy.checked, len(greedy.violations) + greedy.overflow)


def test_listing_and_recovery_suites_catch_their_mutants(monkeypatch):
    # multiplicity-sum compares one listed probe per word with brute force,
    # recover-deleted asks find_u for the least u, not just a valid one,
    # shuffle-membership checks the frontier search's full enumeration of
    # each shuffle set against in_shuffle, and the table suites check every
    # row the kernels build: a prefix row short of a word fails
    # complement-prefix but keeps every word's length, and a suffix row with
    # doubled counts fails both suffix-table suites
    assert run_suite("multiplicity-sum", max_len=4).ok
    assert run_suite("recover-deleted", max_len=4).ok
    assert run_suite("shuffle-membership", max_len=4).ok
    listed = verify.enumerate_embeddings
    monkeypatch.setattr(verify, "enumerate_embeddings", lambda w, u, budget: listed(w, u, budget)[:-1])
    assert not run_suite("multiplicity-sum", max_len=4).ok
    monkeypatch.setattr(verify, "find_u", lambda w, S, budget: find_u_all(w, S, budget)[-1])
    assert not run_suite("recover-deleted", max_len=4).ok
    found = shuffle._interleavings
    monkeypatch.setattr(shuffle, "_interleavings", lambda pairs, budget: list(found(pairs, budget))[:-1])
    assert not run_suite("shuffle-membership", max_len=4).ok
    monkeypatch.undo()

    for name in ("complement-prefix", "length-uniformity", "complement-suffix"):
        assert run_suite(name, max_len=4).ok
    extend = complement._extend_row

    def short_row(*args):
        (base, affix), room = extend(*args)
        return ([c - {min(c)} if len(c) >= 2 else c for c in base], affix), room

    monkeypatch.setattr(complement, "_extend_row", short_row)
    assert not run_suite("complement-prefix", max_len=4).ok
    assert run_suite("length-uniformity", max_len=4).ok
    extend_suffix = complement._extend_suffix_row

    def doubled_row(*args):
        (base, affix), room = extend_suffix(*args)
        return ([{v: 2 * c for v, c in b.items()} for b in base], affix), room

    monkeypatch.setattr(complement, "_extend_suffix_row", doubled_row)
    assert not run_suite("complement-suffix", max_len=4).ok
    assert not run_suite("multiplicity-sum", max_len=4).ok


def test_length_and_sum_reports_alone_build_no_census(monkeypatch):
    # length-uniformity and multiplicity-sum compare nothing with the census:
    # run alone they walk the factor list, with the checks of a census run
    want = {nm: _outcome(run_suite(nm, max_len=5)) for nm in ("length-uniformity", "multiplicity-sum")}

    def no_census(*args):
        raise AssertionError("census built")

    monkeypatch.setattr(verify, "_complement_census", no_census)
    for nm, outcome in want.items():
        assert _outcome(run_suite(nm, max_len=5)) == outcome
        assert outcome[1:] == (957, [], 0)
    for nm in ("complement-prefix", "complement-suffix"):
        with pytest.raises(AssertionError, match="census built"):
            run_suite(nm, max_len=5)


def test_no_suite_leaves_reference_cycles():
    # a checker whose locals sit in a cycle keeps each word's census alive
    # until the cycle collector runs
    for name in available_suites():
        gc.collect()
        gc.disable()
        try:
            run_suite(name, max_len=4)
        finally:
            gc.enable()
        assert gc.collect() == 0, name


def _splits(w, v, u):
    n = len(w)
    return any(
        tuple(w[i] for i in range(n) if m >> i & 1) == v
        and tuple(w[i] for i in range(n) if not m >> i & 1) == u
        for m in range(1 << n)
    )


def test_pairwise_disjoint_suite_rejects_a_witness_that_is_not_the_least(monkeypatch):
    # returning the greatest common word must fail on every instance (one
    # pair or two) that has two or more common words, counted here by brute
    # force over the suite's normalized pairs v <= u
    def greatest(pairs):
        v, u = pairs[0]
        for w in sorted(set(permutations(v + u)), reverse=True):
            if all(_splits(w, a, b) for a, b in pairs):
                return w
        return None

    many = 0
    for n in range(4):
        admit = {}
        for w in product(range(1, 4), repeat=n):
            for m in range(1 << n):
                v = tuple(w[i] for i in range(n) if m >> i & 1)
                u = tuple(w[i] for i in range(n) if not m >> i & 1)
                admit.setdefault((v, u), set()).add(w)
        norm = sorted(p for p in admit if p[0] <= p[1])
        many += sum(len(admit[p]) >= 2 for p in norm)
        many += sum(
            len(admit[p] & admit[q]) >= 2 for i, p in enumerate(norm) for q in norm[i + 1:]
        )
    assert many == 45
    monkeypatch.setattr(verify, "reconstruct_word", greatest)
    r = run_suite("pairwise-disjoint", max_len=3)
    assert len(r.violations) + r.overflow == many

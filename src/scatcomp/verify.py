"""Exhaustive and randomized verification suites.

Each suite checks one algorithm or one combinatorial property against an
independent brute-force route over every small input, and reports the number
of checks plus any violations.  The registry `_SUITES` holds one record per
checker: the names of the suites it reports, listed there and nowhere else,
and its default max_len and sigma.  A sweep checker runs on every canonical
word up to max_len (letters first occur in increasing code order: one word
per relabeling class, which suffices because the solvers commute with
relabelings, as the "equivariance" suite spot-checks), reads the word's
census from a shared `_Lab`, and gets one report per name from the driver.
The census counts the complements of every scattered factor over all 2^|w|
position subsets, taken size by size with `itertools.combinations`; the
checkers walk it by length and hold no self-calling closure, so a word's
census and table rows are freed when its check ends.  complement-prefix and
complement-suffix compare the tables with the census; alone,
length-uniformity and multiplicity-sum walk `_Lab.factors`, the census's
keys from one pass that keeps no complement words.  Six claims read
only short factors: single-letter-run and two-arch-singleton single letters,
embedding-lower-bound factors up to iota, and first-letter-modus,
three-letter-nontrivial and modus-prefix-unique factors shorter than iota.
Each reads `_Lab.census_upto(k)` once per word: the full census if the word
has one, else a census bounded at k that only that check holds.  The three
self-shuffle suites read `_Lab.halves`, the least pair of embeddings of each
v that splits w, from one pass over position subsets.  A standalone body
enumerates its own cases.  The one driver, `run_suites`, creates every report
and runs the sweep checkers that share a (max_len, sigma) in one sweep, so
`verify all` builds each census and pair table once per default scale.
letter-square-usage reads its truth from w's letter runs and the census;
multiplicity-sum checks one probe's listed embeddings per word by brute
force; recover-deleted wants the least u with each census row.  find-w walks
every word in order and checks each (u, C(w, u)) at the first w that gives
it, keeping only the keys met at the current length.

Four suites (two-arch-singleton, three-letter-nontrivial, modus-prefix-unique,
second-occurrence-greedy) pin claims with genuine counterexamples and report
them rather than silently repairing; single-letter-run and selfshuffle-scan
check the repaired forms that do hold.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, groupby, product
from math import comb
from typing import Callable

from . import complement as _c
from .arch import arch_factorize
from .complement import complement_set, complement_set_with_multiplicity
from .disjoint_embed import _interleavings, exists_word, find_w, reconstruct_word
from .errors import ScatcompError
from .embeddings import count_embeddings, enumerate_embeddings
from .inverse_u import find_u
from .oracle import _complement_census, _scattered_factors, brute_all_scattered_factors, brute_complement_set, brute_exists_word
from .shuffle import (
    first_second_occurrence,
    in_shuffle,
    is_self_shuffle_complement,
    perfect_shuffle,
    self_shuffle_by_second_occurrence,
    shuffle_set,
    has_superword_complement,
)
from .words import Word, condensed, is_scattered_factor, contains_letter_square, is_square_free, text

_BIG = 10**18
_MAX_STORED_VIOLATIONS = 20


@dataclass
class SuiteReport:
    name: str
    checked: int = 0
    violations: list[str] = field(default_factory=list)
    overflow: int = 0  # violations beyond the stored sample
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.overflow

    def flag(self, msg: str) -> None:
        if len(self.violations) < _MAX_STORED_VIOLATIONS:
            self.violations.append(msg)
        else:
            self.overflow += 1

    def line(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.violations) + self.overflow} violations)"
        out = f"{self.name}: {status}  checked={self.checked} elapsed={self.elapsed:.2f}s"
        if self.violations:
            out += f"\n  first: {self.violations[0]}"
        return out


def _fmt(t) -> str:
    return text(t) if t else "''"


def canonical_words(n: int, sigma: int) -> list[tuple[int, ...]]:
    """Words of length n over codes 1..sigma whose letters first occur in
    increasing order, in lexicographic order; one representative per
    relabeling class."""
    words = [()]
    for _ in range(n):
        words = [v + (a,) for v in words for a in range(1, min(max(v, default=0) + 1, sigma) + 1)]
    return words


class _Lab:
    """Per-word data shared by the sweep checkers, each computed on first read.

    `census` is the full census; `census_upto(k)` serves a checker that
    reads only factors of length <= k, from the full census if the word
    already has one, else from a census bounded at k that it does not keep;
    `factors` lists the census's keys, in order, without building it."""

    def __init__(self, wt: tuple[int, ...], sigma: int):
        self.wt = wt
        self.n = len(wt)
        self.sigma = sigma

    @cached_property
    def census(self):
        return _complement_census(self.wt)

    @cached_property
    def factors(self):
        return self.census.keys() if "census" in self.__dict__ else _scattered_factors(self.wt)

    def census_upto(self, k: int):
        return self.census if "census" in self.__dict__ else _complement_census(self.wt, k)

    @cached_property
    def fact(self):
        return arch_factorize(self.wt)

    @cached_property
    def halves(self):
        """(v, least) for every v over 1..sigma of length |w|/2, none for odd
        |w|: the first pair (e1, e2) of position subsets, each the other's
        complement, that both spell v with e1 < e2 pointwise, else None."""
        wt, n = self.wt, self.n
        if n % 2:
            return []
        m = n // 2
        least = {}
        if all(wt.count(a) % 2 == 0 for a in set(wt)):
            spots = list(combinations(range(1, n + 1), m))
            spelled = list(combinations(wt, m))
            for e1, e2, s1, s2 in zip(spots, reversed(spots), spelled, reversed(spelled)):
                if s1 == s2 and s1 not in least and all(map(int.__lt__, e1, e2)):
                    least[s1] = (e1, e2)
        return [(v, least.get(v)) for v in product(range(1, self.sigma + 1), repeat=m)]


# --- sweep checkers ----------------------------------------------------------

def _ck_prefix_alg(lab: _Lab, rep: SuiteReport | None, lrep: SuiteReport | None) -> None:
    """Prefix-table algorithm vs the subset census, for every scattered
    factor of w at once, in factor order: u's row extends that of u[:-1],
    listed earlier.  Also checks that every complement key has |w| - |u|
    chunks, which alone reads only the factor list."""
    wt, n = lab.wt, lab.n
    census = lab.census if rep is not None else None
    ct, enc, dec = _c._codec(wt)
    width = len(ct[0]) if ct else 1
    rows = {}
    for u in census or lab.factors:
        row = rows[u] = _c._extend_row(ct, rows[u[:-1]], enc(u[-1]), _BIG, _BIG)[0] if u else _c._first_row(ct)
        final = _c._prefix_cell(row, n)
        if rep is not None:
            rep.checked += 1
            if set(map(dec, final)) != census[u].keys():
                rep.flag(f"w={_fmt(wt)} u={_fmt(u)}: prefix table disagrees with census")
        if lrep is not None:
            lrep.checked += 1
            k = (n - len(u)) * width
            if any(map(k.__ne__, map(len, final))):
                lrep.flag(f"w={_fmt(wt)} u={_fmt(u)}: complement of wrong length")
    if rep is not None and census:
        # spot-check the public entry point and the one-factor brute oracle
        # on a mid-sized factor (the census itself covers the rest)
        keys = sorted(census)
        probe = keys[len(keys) // 2]
        if complement_set(wt, probe, _BIG).words != census[probe].keys():
            rep.flag(f"w={_fmt(wt)} u={_fmt(probe)}: complement_set disagrees with census")
        if dict(brute_complement_set(wt, probe).multiplicities) != census[probe]:
            rep.flag(f"w={_fmt(wt)} u={_fmt(probe)}: census disagrees with brute oracle")


def _ck_suffix_alg(lab: _Lab, rep: SuiteReport | None, mrep: SuiteReport | None) -> None:
    """Suffix-matching algorithm vs the subset census, embedding counts
    included; multiplicities, as the answer cell stores them, must also sum
    to the embedding-count table, which alone reads only the factor list.
    In factor order, s's row extends that of s[1:], listed earlier.  On one
    mid-sized probe per word, the public multiplicities must equal the census
    and the listed embeddings a brute-force scan of position subsets."""
    wt = lab.wt
    census = lab.census if rep is not None else None
    ct, enc, dec = _c._codec(wt)
    rows = {}
    for s in census or lab.factors:
        row = rows[s] = _c._extend_suffix_row(ct, rows[s[1:]], enc(s[0]), _BIG, _BIG)[0] if s else _c._last_row(ct)
        if rep is not None:
            rep.checked += 1
            if {dec(v): c for v, c in _c._suffix_cell(row, 1).items()} != census[s]:
                rep.flag(f"w={_fmt(wt)} u={_fmt(s)}: suffix table disagrees with census")
        if mrep is not None:
            mrep.checked += 1
            if sum(row[0][1].values()) != count_embeddings(wt, s):
                mrep.flag(f"w={_fmt(wt)} u={_fmt(s)}: multiplicities do not sum to the embedding count")
    keys = sorted(census or lab.factors)
    probe = keys[len(keys) // 2]
    if rep is not None and dict(complement_set_with_multiplicity(wt, probe, _BIG).multiplicities) != census[probe]:
        rep.flag(f"w={_fmt(wt)} u={_fmt(probe)}: public multiplicities disagree with census")
    if mrep is not None:
        # position and letter subsets come out of combinations in step
        k = len(probe)
        brute = [e for e, s in zip(combinations(range(1, lab.n + 1), k), combinations(wt, k)) if s == probe]
        if enumerate_embeddings(wt, probe, _BIG) != brute:
            mrep.flag(f"w={_fmt(wt)} u={_fmt(probe)}: listed embeddings disagree with brute force")


def _ck_symmetry(lab: _Lab, rep: SuiteReport) -> None:
    """v in C(w,u) iff u in C(w,v)."""
    census = lab.census
    for u, per in census.items():
        for v in per:
            rep.checked += 1
            back = census.get(v)
            if back is None or u not in back:
                rep.flag(f"w={_fmt(lab.wt)}: {_fmt(v)} in C(w,{_fmt(u)}) but not vice versa")


def _ck_embedding_bound(lab: _Lab, rep: SuiteReport) -> None:
    """Every scattered factor no longer than the universality index has at
    least binom(iota, |u|) embeddings."""
    iota = lab.fact.universality_index
    for u, per in lab.census_upto(iota).items():
        if len(u) <= iota:
            rep.checked += 1
            total = sum(per.values())
            if total < comb(iota, len(u)):
                rep.flag(
                    f"w={_fmt(lab.wt)} u={_fmt(u)}: {total} embeddings < C({iota},{len(u)})"
                )


def _ck_universality(lab: _Lab, rep: SuiteReport) -> None:
    """iota(w) is the largest k with every length-k word over letters(w) a
    scattered factor, checked against brute-force factor enumeration."""
    wt, n = lab.wt, lab.n
    if n == 0:
        return
    sigma = len(set(wt))
    iota = lab.fact.universality_index
    rep.checked += 1
    for k in range(1, iota + 1):
        if len(brute_all_scattered_factors(wt, k)) != sigma**k:
            rep.flag(f"w={_fmt(wt)}: only partial coverage at length {k} <= iota={iota}")
            return
    if iota < n and len(brute_all_scattered_factors(wt, iota + 1)) == sigma ** (iota + 1):
        rep.flag(f"w={_fmt(wt)}: full coverage at length {iota + 1} > iota={iota}")


def _ck_two_arch(lab: _Lab, rep: SuiteReport) -> None:
    """For iota(w) = 2 and a single letter u: |C(w,u)| = 1 iff u is the first
    modus letter and the second arch is a run of it followed only by other
    letters.

    Stated this way the condition ignores the rest, and words like abbab
    (arches ab|ba, rest b: the rest hides another b) are genuine violations
    that the suite reports.  single-letter-run checks the characterization
    that does hold.
    """
    fact = lab.fact
    if fact.universality_index != 2:
        return
    m1 = fact.modus[0]
    runs = condensed(fact.arches[1])
    form = runs[0] == m1 and m1 not in runs[1:]
    census = lab.census_upto(1)
    for a in sorted(set(lab.wt)):
        rep.checked += 1
        singleton = len(census[(a,)]) == 1
        if singleton != (a == m1 and form):
            rep.flag(f"w={_fmt(lab.wt)} u={_fmt((a,))}: singleton={singleton} form={form}")


def _ck_single_letter_run(lab: _Lab, rep: SuiteReport) -> None:
    """For a single letter u: |C(w,u)| = 1 iff the occurrences of u in w are
    contiguous.  This is the repaired form of the two-arch claim and holds
    for every universality index."""
    wt, census = lab.wt, lab.census_upto(1)
    runs = condensed(wt)
    for a in sorted(set(wt)):
        rep.checked += 1
        contiguous = runs.count(a) == 1
        if (len(census[(a,)]) == 1) != contiguous:
            rep.flag(f"w={_fmt(wt)} u={_fmt((a,))}: contiguous={contiguous}")


def _ck_first_letter(lab: _Lab, rep: SuiteReport) -> None:
    """For iota(w) >= 2 and nonempty u shorter than iota: starting with a
    letter other than the first modus letter forces |C(w,u)| > 1."""
    fact = lab.fact
    iota = fact.universality_index
    if iota < 2:
        return
    m1 = fact.modus[0]
    for u, per in lab.census_upto(iota - 1).items():
        if 0 < len(u) < iota and u[0] != m1:
            rep.checked += 1
            if len(per) == 1:
                rep.flag(f"w={_fmt(lab.wt)} u={_fmt(u)}: singleton despite u[1] != modus[1]")


def _ck_three_letter(lab: _Lab, rep: SuiteReport) -> None:
    """Over at least three letters with iota(w) > 2, every nonempty u shorter
    than iota has more than one complement word.

    Not actually true: the modus prefix of length iota-1 can be a singleton
    (first counterexamples at length 9, e.g. w = abccabbac with u = cb, where
    all four embeddings of cb leave abcabac).  The suite reports them.
    """
    if len(set(lab.wt)) < 3:
        return
    iota = lab.fact.universality_index
    if iota <= 2:
        return
    for u, per in lab.census_upto(iota - 1).items():
        if 0 < len(u) < iota:
            rep.checked += 1
            if len(per) == 1:
                rep.flag(f"w={_fmt(lab.wt)} u={_fmt(u)}: singleton below iota over 3 letters")


def _ck_modus_prefix(lab: _Lab, rep: SuiteReport) -> None:
    """For empty rest and each modus letter opening the next arch, the modus
    prefix of length iota-1 is the unique factor of that length with a
    singleton complement set.

    The uniqueness half holds at every scale tried, but over three letters
    the modus prefix itself need not be a singleton (w = abccacb: the c's sit
    apart, so u = c has two complements), so the suite reports violations.
    Over two letters the claim is exhaustively clean through length 9.
    """
    fact = lab.fact
    iota = fact.universality_index
    if iota < 1 or len(fact.rest) != 0:
        return
    modus = tuple(fact.modus)
    if any(modus[i] != fact.arches[i + 1][0] for i in range(iota - 1)):
        return
    rep.checked += 1
    expected = modus[: iota - 1]
    census = lab.census_upto(iota - 1)
    singles = {u for u, per in census.items() if len(u) == iota - 1 and len(per) == 1}
    if singles != {expected}:
        rep.flag(
            f"w={_fmt(lab.wt)}: singletons of length {iota - 1} are "
            f"{{{', '.join(map(_fmt, sorted(singles)))}}}, expected {_fmt(expected)}"
        )


def _ck_squarefree(lab: _Lab, rep: SuiteReport) -> None:
    """In a square-free word, a singleton complement set forces a unique
    embedding (two embeddings always produce two complement words)."""
    if not is_square_free(lab.wt):
        return
    for u, per in lab.census.items():
        rep.checked += 1
        if len(per) == 1 and sum(per.values()) >= 2:
            rep.flag(f"w={_fmt(lab.wt)} u={_fmt(u)}: single complement, several embeddings")


def _ck_ls_char(lab: _Lab, rep: SuiteReport) -> None:
    """w has no letter square iff every factor with a singleton complement
    set has exactly one embedding (both directions, per word)."""
    rep.checked += 1
    square_free_letters = not contains_letter_square(lab.wt)
    unique_embeddings = all(
        sum(per.values()) == 1
        for per in lab.census.values()
        if len(per) == 1
    )
    if square_free_letters != unique_embeddings:
        rep.flag(
            f"w={_fmt(lab.wt)}: letter-square-free={square_free_letters} "
            f"but singleton-implies-unique={unique_embeddings}"
        )


def _ck_ls_usage(lab: _Lab, rep: SuiteReport) -> None:
    """In a word with letter squares, for u with a singleton complement set:
    if some embedding uses none-or-both positions of every letter square
    there is exactly one embedding, otherwise (every embedding splitting some
    square) there are at least two.  Such a clean embedding takes each letter
    run of w whole or not at all, so it exists iff u concatenates some of w's
    runs in order; the census's multiplicities sum to the embedding count."""
    wt = lab.wt
    if not contains_letter_square(wt):
        return
    runs = [tuple(g) for _, g in groupby(wt)]
    clean = {sum(pick, ()) for k in range(len(runs) + 1) for pick in combinations(runs, k)}
    for u, per in lab.census.items():
        if len(per) == 1:
            rep.checked += 1
            total = sum(per.values())
            if (u in clean) != (total == 1):
                rep.flag(f"w={_fmt(wt)} u={_fmt(u)}: clean-embedding={u in clean} embeddings={total}")


def _ck_superword(lab: _Lab, rep: SuiteReport) -> None:
    """The skipping two-cursor scan agrees with brute force on whether some
    complement word contains u again."""
    wt = lab.wt
    for u, per in lab.census.items():
        rep.checked += 1
        truth = any(is_scattered_factor(u, v) for v in per)
        if has_superword_complement(wt, u) != truth:
            rep.flag(f"w={_fmt(wt)} u={_fmt(u)}: scan={not truth} brute={truth}")


def _ck_recover(lab: _Lab, rep: SuiteReport) -> None:
    """find_u(w, C(w,u)) returns the least scattered factor whose census row
    is exactly C(w,u), for every scattered factor u."""
    wt, census = lab.wt, lab.census
    least = {frozenset(census[u]): u for u in sorted(census, reverse=True)}  # the least u is written last
    hits = {key: find_u(wt, key, _BIG) == u for key, u in least.items()}
    for u, per in census.items():
        rep.checked += 1
        if not hits[frozenset(per)]:
            rep.flag(f"w={_fmt(wt)} u={_fmt(u)}: find_u misses the least u with C(w,u)")


def _ck_selfshuffle(lab: _Lab, rep: SuiteReport) -> None:
    """Self-shuffle membership test vs the pair table, for every u of length
    |w|/2."""
    for u, least in lab.halves:
        rep.checked += 1
        if is_self_shuffle_complement(lab.wt, u) != (least is not None):
            rep.flag(f"w={_fmt(lab.wt)} u={_fmt(u)}: scan disagrees with shuffle set")


def _ck_second_occurrence(lab: _Lab, rep: SuiteReport) -> None:
    """Pins the claim that a greedy second occurrence decides self-shuffle
    membership, against the pair table.  The claim has genuine
    counterexamples (aabaab with aab) that this suite reports; `in_shuffle`
    is the working test."""
    for u, least in lab.halves:
        rep.checked += 1
        if self_shuffle_by_second_occurrence(lab.wt, u) != (least is not None):
            rep.flag(f"w={_fmt(lab.wt)} u={_fmt(u)}: greedy disagrees with shuffle set")


def _ck_first_second(lab: _Lab, rep: SuiteReport) -> None:
    """first_second_occurrence returns exactly the least pair of the pair
    table when w lies in the shuffle of v with itself, and None otherwise."""
    for v, least in lab.halves:
        rep.checked += 1
        got = first_second_occurrence(lab.wt, v)
        if got != least:
            rep.flag(f"w={_fmt(lab.wt)} v={_fmt(v)}: got {got}, want {least}")


# --- standalone suites -------------------------------------------------------

def suite_pairwise_disjoint(rep: SuiteReport, max_len: int, sigma: int, seed: int) -> None:
    """reconstruct_word vs brute force for every instance with at most two
    pairs and total pair length up to max_len: the answer must be exactly
    the lex-least word interleaving every pair, or None if there is none.

    Pairs are normalized to v <= u, which loses nothing because a word
    interleaves (v, u) iff it interleaves (u, v); a deterministic sample of
    swapped instances is kept to exercise the solver on both orders.
    """
    for n in range(max_len + 1):
        wordlist = list(product(range(1, sigma + 1), repeat=n))
        admit: dict[tuple, int] = {}
        for wi, w in enumerate(wordlist):
            bit = 1 << wi
            for u, per in _complement_census(w).items():
                for v in per:
                    if v <= u:
                        admit[(v, u)] = admit.get((v, u), 0) | bit
        norm = sorted(admit)
        # single-pair instances: always satisfiable
        for p in norm:
            rep.checked += 1
            got = reconstruct_word([p])
            want = wordlist[_lowest_bit(admit[p])]
            if got != want:
                rep.flag(f"pair {_fmt(p[0])}/{_fmt(p[1])}: got {got!r}, want {_fmt(want)}")
        # two-pair instances
        for i, p in enumerate(norm):
            ap = admit[p]
            for j in range(i + 1, len(norm)):
                q = norm[j]
                inter = ap & admit[q]
                want = wordlist[_lowest_bit(inter)] if inter else None
                Z = [p, q]
                if (i * len(norm) + j) % 16 == 0:
                    Z = [(p[1], p[0]), q]  # exercise the swapped orientation
                rep.checked += 1
                got = reconstruct_word(Z)
                if got != want:
                    rep.flag(f"{_two_pairs(p, q)}: got {got!r}, want {want!r}")
                elif (i * 7919 + j) % 997 == 0:
                    # anchor the bitmask sieve to the plain scanning oracle
                    if brute_exists_word(Z) != want:
                        rep.flag(f"{_two_pairs(p, q)}: sieve disagrees with scanning oracle")


def suite_find_w(rep: SuiteReport, max_len: int, sigma: int, seed: int) -> None:
    """find_w(u, C(w, u)) is the least w with that complement set of u, for
    every w up to max_len and scattered factor u, checked at the first w in
    order whose census gives (u, S); S fixes |w|, so one length's keys are kept."""
    for n in range(max_len + 1):
        met: set[tuple] = set()
        for wt in product(range(1, sigma + 1), repeat=n):  # all words, in order
            for u, per in _complement_census(wt).items():
                S = frozenset(per)
                if (u, S) not in met:
                    met.add((u, S))
                    rep.checked += 1
                    got = find_w(u, S)
                    if got != wt:
                        rep.flag(f"u={_fmt(u)} S={{{','.join(map(_fmt, sorted(S)))}}}: got {got!r}, want {_fmt(wt)}")


def _two_pairs(p, q) -> str:
    return f"Z={{({_fmt(p[0])},{_fmt(p[1])}), ({_fmt(q[0])},{_fmt(q[1])})}}"


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def suite_perfectshuffle(rep: SuiteReport, max_len: int, sigma: int, seed: int) -> None:
    """C(w,u) = {u} iff w is the perfect shuffle of u with itself.

    Checked for every canonical u with 2|u| <= max_len over all w in the
    self-shuffle of u, then for |u| <= 3 over every w of length 2|u|
    containing u at all, which covers the words outside the self-shuffle.
    """

    def check(wt, ut):
        rep.checked += 1
        singleton_self = complement_set(wt, ut, _BIG).words == {ut}
        if singleton_self != (Word(wt) == perfect_shuffle(ut, ut)):
            rep.flag(f"w={_fmt(wt)} u={_fmt(ut)}: C={{u}} is {singleton_self}")

    for m in range(max_len // 2 + 1):
        for ut in canonical_words(m, sigma):
            for w in _interleavings([(ut, ut)], _BIG):
                check(tuple(w), ut)
    for m in range(min(3, max_len // 2) + 1):
        for ut in canonical_words(m, sigma):
            for wt in product(range(1, sigma + 1), repeat=2 * m):
                if is_scattered_factor(ut, wt):
                    check(wt, ut)


def suite_shuffle_membership(rep: SuiteReport, max_len: int, sigma: int, seed: int) -> None:
    """in_shuffle vs explicit shuffle sets: every enumerated interleaving is
    accepted (|u|+|v| <= max_len), and for |u|+|v| <= 5 a full scan confirms
    nothing outside the set is accepted."""
    codes = range(1, sigma + 1)
    for a in range(max_len + 1):
        for ut in canonical_words(a, sigma):
            for b in range(max_len - a + 1):
                for vt in map(tuple, product(codes, repeat=b)):
                    S = shuffle_set(ut, vt, _BIG)
                    if len(S) > comb(a + b, a):
                        rep.flag(f"u={_fmt(ut)} v={_fmt(vt)}: shuffle set too large")
                    if a + b <= 5:
                        for wt in map(tuple, product(codes, repeat=a + b)):
                            rep.checked += 1
                            if in_shuffle(wt, ut, vt) != (wt in S):
                                rep.flag(f"w={_fmt(wt)} u={_fmt(ut)} v={_fmt(vt)}: membership")
                    else:
                        for w in S:
                            rep.checked += 1
                            if not in_shuffle(tuple(w), ut, vt):
                                rep.flag(f"w={_fmt(w)} u={_fmt(ut)} v={_fmt(vt)}: rejected member")


def suite_repetition(rep: SuiteReport, max_len: int | None, sigma: int, seed: int) -> None:
    """If w = x y^k z and u = x' y z' with x', z' scattered factors of x and
    z, then some complement word of u in w arises from at least k embeddings.
    The word shapes are fixed (|x|, |z| <= 2, |y| <= 2, k <= 3), so max_len
    is ignored, and sigma is capped at 3."""
    codes = range(1, min(sigma, 3) + 1)
    sides = [t for L in range(3) for t in product(codes, repeat=L)]
    bases = [t for L in range(1, 3) for t in product(codes, repeat=L)]
    subs = {t: sorted(f for k in range(len(t) + 1) for f in brute_all_scattered_factors(t, k)) for t in sides}
    for x in sides:
        for z in sides:
            for y in bases:
                for k in (2, 3):
                    wt = x + y * k + z
                    for xp in subs[x]:
                        for zp in subs[z]:
                            ut = xp + y + zp
                            rep.checked += 1
                            mult = complement_set_with_multiplicity(wt, ut, _BIG).multiplicities
                            if max(mult.values()) < k:
                                rep.flag(
                                    f"w={_fmt(wt)} u={_fmt(ut)}: largest class "
                                    f"{max(mult.values())} < k={k}"
                                )


def suite_equivariance(rep: SuiteReport, max_len: int, sigma: int, seed: int) -> None:
    """All solvers commute with letter relabelings (randomized; this is the
    fact that lets the exhaustive sweeps enumerate canonical words only).
    Each of the 300 samples draws its alphabet size from 2..sigma and its
    word length from 1..max_len."""
    rng = random.Random(seed)
    for _ in range(300):
        sig = rng.randint(2, sigma)
        n = rng.randint(1, max_len)
        wt = tuple(rng.randint(1, sig) for _ in range(n))
        m = rng.randint(0, n)
        positions = sorted(rng.sample(range(n), m))
        ut = tuple(wt[p] for p in positions)
        perm = list(range(1, sig + 1))
        rng.shuffle(perm)
        pi = {a: perm[a - 1] for a in range(1, sig + 1)}
        pw = tuple(pi[a] for a in wt)
        pu = tuple(pi[a] for a in ut)
        rep.checked += 1
        mapped = {tuple(pi[a] for a in v) for v in complement_set(wt, ut, _BIG).words}
        if mapped != set(map(tuple, complement_set(pw, pu, _BIG).words)):
            rep.flag(f"w={_fmt(wt)} u={_fmt(ut)}: complement set not equivariant")
        if count_embeddings(wt, ut) != count_embeddings(pw, pu):
            rep.flag(f"w={_fmt(wt)} u={_fmt(ut)}: embedding count not equivariant")
        fa, fb = arch_factorize(wt), arch_factorize(pw)
        if fa.universality_index != fb.universality_index or [
            tuple(pi[a] for a in ar) for ar in fa.arches
        ] != [tuple(ar) for ar in fb.arches]:
            rep.flag(f"w={_fmt(wt)}: arch factorization not equivariant")
        if n % 2 == 0:
            half = tuple(rng.randint(1, sig) for _ in range(n // 2))
            phalf = tuple(pi[a] for a in half)
            if is_self_shuffle_complement(wt, half) != is_self_shuffle_complement(pw, phalf):
                rep.flag(f"w={_fmt(wt)} u={_fmt(half)}: self-shuffle scan not equivariant")
        # two-pair instances: relabeling and pair order do not change truth
        ln = rng.randint(0, 3)
        pairs = []
        for _ in range(2):
            tot = rng.randint(0, ln)
            vv = tuple(rng.randint(1, sig) for _ in range(tot))
            uu = tuple(rng.randint(1, sig) for _ in range(ln - tot))
            pairs.append((vv, uu))
        truth = exists_word(pairs)
        ppairs = [(tuple(pi[a] for a in v), tuple(pi[a] for a in u)) for v, u in pairs]
        if truth != exists_word(ppairs) or truth != exists_word(
            [(u, v) for v, u in pairs]
        ):
            rep.flag(f"Z={pairs}: existence not invariant under relabeling/swap")


# --- registry and driver -----------------------------------------------------

@dataclass(frozen=True)
class _Suite:
    """One checker and the names of the suites it reports: the only place a
    suite is named.  A sweep checker (lab, *reports) reads the per-word
    census and gets one report per name, None for a name not being run; a
    standalone body (report, max_len, sigma, seed) has one name.  Also the
    default scale, and the least max_len and sigma accepted."""

    names: tuple[str, ...]
    run: Callable
    max_len: int | None  # None: the suite has fixed word shapes
    sigma: int = 3
    sweep: bool = True
    min_len: int = 0
    min_sigma: int = 1


_SUITES = {nm: s for s in (
    _Suite(("complement-prefix", "length-uniformity"), _ck_prefix_alg, 9),
    _Suite(("complement-suffix", "multiplicity-sum"), _ck_suffix_alg, 9),
    _Suite(("complement-symmetry",), _ck_symmetry, 9),
    _Suite(("embedding-lower-bound",), _ck_embedding_bound, 9),
    _Suite(("universality-index",), _ck_universality, 10),
    _Suite(("two-arch-singleton",), _ck_two_arch, 9),
    _Suite(("single-letter-run",), _ck_single_letter_run, 9),
    _Suite(("first-letter-modus",), _ck_first_letter, 9),
    _Suite(("three-letter-nontrivial",), _ck_three_letter, 9),
    _Suite(("modus-prefix-unique",), _ck_modus_prefix, 9),
    _Suite(("squarefree-embeddings",), _ck_squarefree, 9),
    _Suite(("letter-square-free",), _ck_ls_char, 9),
    _Suite(("letter-square-usage",), _ck_ls_usage, 9),
    _Suite(("superword-scan",), _ck_superword, 8),
    _Suite(("recover-deleted",), _ck_recover, 8),
    _Suite(("selfshuffle-scan",), _ck_selfshuffle, 10),
    _Suite(("second-occurrence-greedy",), _ck_second_occurrence, 8),
    _Suite(("first-second-occurrence",), _ck_first_second, 8),
    _Suite(("pairwise-disjoint",), suite_pairwise_disjoint, 6, sweep=False),
    _Suite(("find-w",), suite_find_w, 7, sweep=False),
    _Suite(("perfectshuffle",), suite_perfectshuffle, 10, sweep=False),
    _Suite(("shuffle-membership",), suite_shuffle_membership, 7, sweep=False),
    _Suite(("repetition-classes",), suite_repetition, None, sigma=2, sweep=False),
    _Suite(("equivariance",), suite_equivariance, 10, sigma=4, sweep=False, min_len=1, min_sigma=2),
) for nm in s.names}


def available_suites() -> list[str]:
    """Sweep suites, then standalone suites, each in name order."""
    return sorted(_SUITES, key=lambda nm: (not _SUITES[nm].sweep, nm))


def run_suites(names, max_len=None, sigma=None, seed=None) -> list[SuiteReport]:
    """Run the named suites, each at its default scale unless overridden, and
    return their reports in the order of names.

    The sweep checkers that end up at the same (max_len, sigma) share one
    `_run_sweep`, so each word's census is built once for all of them; the
    results equal those of one run per suite.  The randomized suite draws
    from seed (default 0).
    """
    names = list(names)
    reports: dict[str, SuiteReport] = {}
    scales: dict[_Suite, tuple] = {}
    for nm in names:
        suite = _SUITES.get(nm)
        if suite is None:
            raise ScatcompError(f"unknown suite {nm!r}; available: {', '.join(available_suites())}")
        if max_len is not None and max_len < suite.min_len:
            raise ScatcompError(f"--max-len must be at least {suite.min_len} for {nm}, got {max_len}")
        if sigma is not None and sigma < suite.min_sigma:
            raise ScatcompError(f"--sigma must be at least {suite.min_sigma} for {nm}, got {sigma}")
        reports[nm] = SuiteReport(nm)
        scales[suite] = (suite.max_len if max_len is None else max_len,
                         suite.sigma if sigma is None else sigma)
    groups: dict[tuple, list[_Suite]] = {}
    for suite, scale in scales.items():
        if suite.sweep:
            groups.setdefault(scale, []).append(suite)
            continue
        rep = reports[suite.names[0]]
        t0 = time.perf_counter()
        suite.run(rep, *scale, 0 if seed is None else seed)
        rep.elapsed = time.perf_counter() - t0
    for scale, suites in groups.items():
        _run_sweep([(s.run, [reports.get(nm) for nm in s.names]) for s in suites], *scale)
    return [reports[nm] for nm in names]


def _run_sweep(jobs, max_len: int, sigma: int) -> None:
    """Run each (checker, reports) job over all canonical words up to
    max_len, sharing each word's census, and charge every report its
    checker's time."""
    spent = [0.0] * len(jobs)
    for n in range(max_len + 1):
        for wt in canonical_words(n, sigma):
            lab = _Lab(wt, sigma)
            for k, (run, reps) in enumerate(jobs):
                t0 = time.perf_counter()
                run(lab, *reps)
                spent[k] += time.perf_counter() - t0
    for (_, reps), t in zip(jobs, spent):
        for rep in filter(None, reps):
            rep.elapsed = t


def run_suite(name: str, max_len=None, sigma=None, seed=None) -> SuiteReport:
    """Run one named suite at its default scale unless overridden."""
    return run_suites([name], max_len, sigma, seed)[0]

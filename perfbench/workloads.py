"""The three workloads: one pass of fixed work each, from pool.json in seed order.

A pass is a list of ``Op``: one closed-loop call into the library (or the
CLI) that the runner times, and a judge that decides whether its outcome is
correct.  Outcomes are checked two ways: against the answer digests and
suite counts pinned in pool.json when the benchmark was defined, and by cheap
independent checks written here (never ``scatcomp.oracle``).

WORKLOADS.md records why each workload, scale, ladder and share was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from math import comb

# --- verify -------------------------------------------------------------------

# Per-suite max_len (None: the suite's default), below the defaults of
# `scatcomp verify all`; sweep suites run over sigma = 3.
VERIFY_SCALES = {
    "complement-prefix": 7,
    "length-uniformity": 7,
    "complement-suffix": 7,
    "multiplicity-sum": 7,
    "complement-symmetry": 7,
    "embedding-lower-bound": 7,
    "universality-index": 8,
    "two-arch-singleton": 8,
    "single-letter-run": 7,
    "first-letter-modus": 7,
    "three-letter-nontrivial": 9,
    "modus-prefix-unique": 8,
    "squarefree-embeddings": 8,
    "letter-square-free": 7,
    "letter-square-usage": 7,
    "superword-scan": 7,
    "recover-deleted": 6,
    "pairwise-disjoint": 4,
    "selfshuffle-scan": 6,
    "second-occurrence-greedy": 6,
    "first-second-occurrence": 6,
    "shuffle-membership": 4,
    "perfectshuffle": 10,
    "repetition-classes": None,
    "equivariance": None,
}

# --- solve-mix ---------------------------------------------------------------

# class -> (library function, doubling size ladder, what the size is)
SOLVE_CLASSES = {
    "complement_set": ("complement_set", (6, 12, 24, 48), "|w|"),
    "complement_set_with_multiplicity": ("complement_set_with_multiplicity", (6, 12, 24, 48), "|w|"),
    "complement_budget": ("complement_set", (1000, 2000, 4000, 8000), "budget"),
    "count_embeddings": ("count_embeddings", (512, 1024, 2048, 4096), "|w|"),
    "find_u": ("find_u", (4, 8, 16), "|w|"),
    "find_w": ("find_w", (3, 6, 12), "|w|"),
    "exists_word": ("exists_word", (16, 32, 64, 128), "|w|"),
    "exists_word_unsat": ("exists_word", (1, 2, 4, 8), "run length m"),
    "reconstruct_word": ("reconstruct_word", (8, 16, 32, 64), "|w|"),
    "in_shuffle": ("in_shuffle", (64, 128, 256, 512), "|w|"),
    "is_self_shuffle_complement": ("is_self_shuffle_complement", (64, 128, 256, 512), "|w|"),
    "shuffle_set": ("shuffle_set", (2, 4, 8, 16), "|u|+|v|"),
}
# Calls per pass on each rung, largest rung last; a ladder of k rungs uses
# the last k entries.  A rung's pool holds exactly its calls and the seed
# sets their order: drawing a seed's calls from a larger pool moved
# op_p50_ms by 10 % between seeds, because the median falls on a steep
# part of the latency distribution.
RUNG_CALLS = (54, 28, 10, 2)


def rung_calls(ladder, size) -> int:
    return RUNG_CALLS[len(RUNG_CALLS) - len(ladder) + ladder.index(size)]


# --- cli-calls ---------------------------------------------------------------

# (template, expected exit code, calls per pass); half of each template's
# calls use --json.  As in solve-mix, the pool holds exactly one pass.
CLI_MIX = (
    ("complement", 0, 104),
    ("complement-counts", 0, 72),
    ("complement-table", 0, 36),
    ("embed-count", 0, 54),
    ("embed-group", 0, 36),
    ("embed-list", 0, 36),
    ("archfac", 0, 54),
    ("archfac-alphabet", 0, 36),
    ("find-u", 0, 72),
    ("find-u-all", 0, 36),
    ("exists-w", 0, 72),
    ("find-w", 0, 36),
    ("shuffle", 0, 54),
    ("perfect-shuffle", 0, 36),
    ("self-shuffle", 0, 36),
    ("verify-pass", 0, 18),
    ("embed-absent", 1, 28),
    ("self-shuffle-length", 1, 28),
    ("exists-w-unsat", 1, 26),
    ("verify-fail", 1, 8),
    ("bad-letter", 2, 28),
    ("bad-pair-line", 2, 26),
    ("perfect-shuffle-unequal", 2, 18),
    ("missing-set-file", 2, 18),
    ("budget-complement", 3, 28),
    ("budget-shuffle", 3, 18),
    ("budget-embed", 3, 8),
)
DIR_MARK = "{dir}"  # stands for the per-run file directory in pool argv


# --- words and independent checks --------------------------------------------

def word(s: str) -> tuple[int, ...]:
    return tuple(ord(ch) - 96 for ch in s)


def decode_arg(x):
    """pool.json argument -> library argument: str is a word, a list of str a
    set of words, a list of [v, u] a list of pairs, an int stays."""
    if isinstance(x, str):
        return word(x)
    if isinstance(x, list):
        return [tuple(word(p) for p in e) if isinstance(e, list) else word(e) for e in x]
    return x


def interleaves(w, u, v) -> bool:
    """True iff w is an interleaving of u and v (scan over split points)."""
    if len(w) != len(u) + len(v):
        return False
    reach = {0}
    for t, a in enumerate(w):
        reach = {i + 1 for i in reach if i < len(u) and u[i] == a} | {
            i for i in reach if t - i < len(v) and v[t - i] == a
        }
        if not reach:
            return False
    return len(u) in reach


def embedding_count(w, u) -> int:
    """Number of position subsets of w spelling u."""
    dp = [1] + [0] * len(u)
    for a in w:
        for i in range(len(u), 0, -1):
            if u[i - 1] == a:
                dp[i] += dp[i - 1]
    return dp[-1]


def _sample(words, k: int = 64) -> list:
    ordered = sorted(map(tuple, words))
    return ordered[:: max(1, len(ordered) // k)]


def canonical(x):
    """Order-independent form of a library result or raised exception."""
    if isinstance(x, BaseException):
        return ("raise", type(x).__name__)
    if hasattr(x, "multiplicities"):  # ComplementSet
        mult = x.multiplicities
        return ("cs", sorted(map(tuple, x.words)),
                None if mult is None else sorted((tuple(k), c) for k, c in mult.items()))
    if isinstance(x, (set, frozenset)):
        return ("set", sorted(map(tuple, x)))
    if isinstance(x, tuple):
        return ("word", tuple(x))
    return x


def digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


def solve_check(cls: str, args, extra, result) -> bool:
    """Independent check of one solve-mix outcome."""
    if isinstance(result, BaseException):
        return cls == "complement_budget" and type(result).__name__ == "BudgetExceeded"
    if cls in ("complement_set", "complement_set_with_multiplicity"):
        w, u = args
        ok = all(interleaves(w, u, v) for v in _sample(result.words))
        if cls == "complement_set_with_multiplicity":
            ok = ok and sum(result.multiplicities.values()) == embedding_count(w, u)
        return ok
    if cls == "count_embeddings":
        return result == embedding_count(*args)
    if cls == "find_u":
        w, S = args
        return result is None or all(interleaves(w, result, v) for v in S)
    if cls == "find_w":
        u, S = args
        return result is None or all(interleaves(result, u, v) for v in S)
    if cls in ("exists_word", "exists_word_unsat"):
        pairs = args[0]
        if extra is not None:  # built from a hidden word that interleaves every pair
            return result is True
        return result is False and len({tuple(sorted(v + u)) for v, u in pairs}) > 1
    if cls == "reconstruct_word":
        hidden = word(extra)
        return tuple(result) <= hidden and all(interleaves(result, v, u) for v, u in args[0])
    if cls == "in_shuffle":
        return result == interleaves(*args)
    if cls == "is_self_shuffle_complement":
        w, u = args
        return result == interleaves(w, u, u)
    if cls == "shuffle_set":
        u, v = args
        return len(result) <= comb(len(u) + len(v), len(u)) and all(
            interleaves(s, u, v) for s in _sample(result))
    raise KeyError(cls)


# --- ops ---------------------------------------------------------------------

class Op:
    """One timed call: ``call()`` is timed, ``judge(outcome)`` is not.

    ``units`` is how many operations the call counts as (checks for a suite
    call, 1 otherwise); ``cls`` and ``size`` place it in the per-class stats.
    """

    __slots__ = ("cls", "size", "units", "call", "judge")

    def __init__(self, cls, size, units, call, judge):
        self.cls, self.size, self.units, self.call, self.judge = cls, size, units, call, judge


def verify_ops(sc, pool, seed: int) -> list[Op]:
    names = sorted(VERIFY_SCALES)
    random.Random(seed).shuffle(names)
    ops = []
    for name in names:
        want = tuple(pool["suites"][name])  # (checked, violations)

        def call(name=name):
            return sc.run_suite(name, max_len=VERIFY_SCALES[name], seed=seed)

        def judge(r, want=want):
            return not isinstance(r, BaseException) and (
                r.checked, len(r.violations) + r.overflow) == want

        ops.append(Op(name, VERIFY_SCALES[name], want[0], call, judge))
    return ops


def solve_ops(sc, pool, seed: int) -> list[Op]:
    ops = []
    for cls, (fname, ladder, _) in SOLVE_CLASSES.items():
        rungs = pool["solve"][cls]
        for size in ladder:
            for item in rungs[str(size)]:
                args = [decode_arg(a) for a in item["args"]]
                kw = item.get("kw", {})

                def call(fname=fname, args=args, kw=kw):
                    return getattr(sc, fname)(*args, **kw)

                def judge(r, cls=cls, args=args, item=item):
                    return digest(canonical(r)) == item["digest"] and solve_check(
                        cls, args, item.get("hidden"), r)

                ops.append(Op(cls, size, 1, call, judge))
    random.Random(seed).shuffle(ops)
    return ops


def run_cli(sc, argv: list[str], budget):
    """scatcomp.cli.main(argv) in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("SCATCOMP_BUDGET")
    if budget is not None:
        os.environ["SCATCOMP_BUDGET"] = str(budget)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = sc.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        if budget is not None:
            if saved is None:
                del os.environ["SCATCOMP_BUDGET"]
            else:
                os.environ["SCATCOMP_BUDGET"] = saved
    return code, out.getvalue(), err.getvalue()


def cli_canonical(code: int, stdout: str, as_json: bool, dirname: str):
    """Exit code, plus the output for exits 0 and 1 without timings or paths.

    Error exits keep only their code: their message text is not part of the
    CLI's documented contract."""
    if code not in (0, 1):
        return (code,)
    stdout = stdout.replace(dirname, DIR_MARK)
    if as_json:
        env = json.loads(stdout)
        env["stats"].pop("elapsed_ms", None)
        if env["command"] == "verify":
            for suite in env["result"]:
                suite.pop("elapsed_s")
        stdout = json.dumps(env, sort_keys=True)
    return (code, re.sub(r"elapsed=[0-9.]+s", "elapsed=", stdout))


def cli_result(stdout: str, as_json: bool):
    if as_json:
        return json.loads(stdout)["result"]
    return stdout.splitlines()


def cli_check(item, code: int, stdout: str, as_json: bool) -> bool:
    """Independent checks on the answers of complement and exists-w calls."""
    check = item.get("check")
    if check is None or code != 0:
        return True
    res = cli_result(stdout, as_json)
    if check == "complement":
        w, u = item["argv"][1], item["argv"][2]
        return all(interleaves(w, u, v) for v in res)
    if check == "complement-counts":
        w, u = item["argv"][1], item["argv"][2]
        counts = res if as_json else dict(
            (ln.split("\t")[0], int(ln.split("\t")[1])) for ln in res)
        return sum(counts.values()) == embedding_count(w, u) and all(
            interleaves(w, u, v) for v in counts)
    if check == "exists-w":
        got = res if as_json else res[0]
        return all(interleaves(got, v, u) for v, u in item["pairs"])
    raise KeyError(check)


def cli_ops(sc, pool, seed: int, dirname: str) -> list[Op]:
    by_template: dict[str, list] = {}
    for item in pool["cli"]:
        by_template.setdefault(item["template"], []).append(item)
    ops = []
    for template, want_code, calls in CLI_MIX:
        picked = by_template[template]
        assert len(picked) == calls, template
        for n, item in enumerate(picked):
            for name, content in item.get("files", {}).items():
                with open(os.path.join(dirname, name), "w", encoding="ascii") as fh:
                    fh.write(content)
            as_json = n % 2 == 0
            argv = [a.replace(DIR_MARK, dirname) for a in item["argv"]]
            if as_json:
                argv = ["--json"] + argv

            def call(argv=argv, budget=item.get("budget")):
                return run_cli(sc, argv, budget)

            def judge(r, item=item, as_json=as_json, want_code=want_code):
                if isinstance(r, BaseException):
                    return False
                code, stdout, _ = r
                return (
                    code == want_code
                    and digest(cli_canonical(code, stdout, as_json, dirname))
                    == item["digests"][as_json]
                    and cli_check(item, code, stdout, as_json)
                )

            ops.append(Op(template, 0, 1, call, judge))
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = ("verify", "solve-mix", "cli-calls")


def build(name: str, sc, pool, seed: int, dirname: str) -> list[Op]:
    """The fixed work of one pass of the named workload."""
    if name == "verify":
        return verify_ops(sc, pool, seed)
    if name == "solve-mix":
        return solve_ops(sc, pool, seed)
    if name == "cli-calls":
        return cli_ops(sc, pool, seed, dirname)
    raise KeyError(name)

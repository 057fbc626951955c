"""Command line interface.

Words are given positionally in letters a-z; sets of words come from files
with one word per line, pairs from files with one `v<TAB>u` per line, and
either may open with `#alphabet:<letters>`.  One rule holds for every line
of both, the header included: ASCII only, and no whitespace but a pair
line's tab.  Every subcommand honors --json, which wraps the result in an
envelope with timing and size counters.  Plain output is that result rendered by the one rule
in `_render`; only complement --table, archfac, shuffle --size-only, verify
and find-u --all with no match print lines of their own.  Exit codes: 0
success or true, 1 no solution or false, 2 usage or validation error, 3
enumeration budget exceeded.  A failure never exits 1: RecursionError and
MemoryError exit 3, and any other exception exits 2 with "internal error:
<Type>: <message>" on stderr.  With --json, exits 2 and 3 also print an
error envelope on stdout,
{"error": {"type": <exception class>, "message": <text>}, "exit": <code>},
next to the same stderr line; argparse usage errors stay plain text.
SCATCOMP_BUDGET sets the budget argument of every solver call that takes one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import verify as verify_mod
from .arch import arch_factorize
from .complement import complement_set, complement_set_with_multiplicity, complement_table
from .disjoint_embed import find_w, reconstruct_word
from .embeddings import count_embeddings, enumerate_embeddings, group_equal_complements
from .errors import BudgetExceeded, NotAScatteredFactor, ScatcompError
from .inverse_u import find_u, find_u_all
from .shuffle import is_self_shuffle_complement, perfect_shuffle, shuffle_set
from .words import Alphabet, _read_file, read_word_file, text, word


def _budget_kwargs() -> dict:
    """Budget override from the environment, else each callee's default."""
    raw = os.environ.get("SCATCOMP_BUDGET")
    if raw is None:
        return {}
    try:
        value = int(raw)
        if value <= 0:
            raise ValueError
    except ValueError:
        raise ScatcompError(f"SCATCOMP_BUDGET must be a positive integer, got {raw!r}")
    return {"budget": value}


class _Emit:
    """Collects one subcommand's inputs/result and prints either form."""

    def __init__(self, command: str, as_json: bool, inputs: dict):
        self.command = command
        self.as_json = as_json
        self.inputs = inputs
        self.lines: list[str] = []
        self.result = None
        self.stats: dict = {"embeddings": None, "set_size": None}
        self.t0 = time.perf_counter()

    def say(self, line: str) -> None:
        self.lines.append(line)

    def close(self, status: int) -> int:
        """Print the JSON envelope, else the said lines or the rendered result."""
        if self.as_json:
            self.stats["elapsed_ms"] = round((time.perf_counter() - self.t0) * 1000, 3)
            envelope = {"command": self.command, "inputs": self.inputs,
                        "result": self.result, "stats": self.stats}
            print(json.dumps(envelope, indent=2, sort_keys=True))
        else:
            for line in self.lines or _render(self.result):
                print(line)
        return status


def _render(result) -> list[str]:
    """None as "no solution", a bool as true/false, a dict as key<TAB>value
    lines, a list as one line per item (an inner list comma-joined), else str."""
    if result is None:
        return ["no solution"]
    if isinstance(result, bool):
        return ["true" if result else "false"]
    if isinstance(result, dict):
        return [f"{k}\t{v}" for k, v in result.items()]
    if isinstance(result, list):
        return [",".join(map(str, x)) if isinstance(x, list) else str(x) for x in result]
    return [str(result)]


def _cmd_complement(args, out: _Emit) -> int:
    w, u = word(args.w), word(args.u)
    bk = _budget_kwargs()
    if args.table:
        rows = [" ".join("{" + ",".join(sorted(map(text, cell))) + "}" for cell in row)
                for row in complement_table(w, u, **bk).rows()]
        for i, row in enumerate(rows, 1):
            out.say(f"P[{i}] {row}")
        out.result = {"rows": rows}
        return 0
    cs = complement_set_with_multiplicity(w, u, **bk) if args.counts else complement_set(w, u, **bk)
    ordered = cs.sorted_words()
    out.stats["set_size"] = len(cs)
    out.stats["embeddings"] = cs.total_embeddings if args.counts else count_embeddings(w, u)
    if args.counts:
        out.result = {text(v): cs.multiplicities[v] for v in ordered}
    else:
        out.result = [text(v) for v in ordered]
    return 0


def _cmd_embed(args, out: _Emit) -> int:
    w, u = word(args.w), word(args.u)
    if args.count:
        n = out.result = count_embeddings(w, u)
    elif args.group:
        groups = group_equal_complements(w, u, **_budget_kwargs())
        n = sum(map(len, groups.values()))
        out.stats["set_size"] = len(groups)
        out.result = {text(v): len(es) for v, es in groups.items()}
    else:
        embs = enumerate_embeddings(w, u, **_budget_kwargs())
        n = len(embs)
        out.result = [list(e) for e in embs]
    out.stats["embeddings"] = n
    return 0 if n else 1


def _cmd_archfac(args, out: _Emit) -> int:
    alpha = None if args.alphabet is None else Alphabet(args.alphabet)
    fact = arch_factorize(word(args.w) if alpha is None else alpha.encode(args.w), alpha)
    dec = text if alpha is None else alpha.decode
    out.result = {
        "arches": [dec(a) for a in fact.arches],
        "rest": dec(fact.rest),
        "modus": dec(fact.modus),
        "iota": fact.universality_index,
    }
    out.say("|".join(dec(a) for a in fact.arches))
    out.say(f"rest={dec(fact.rest)}")
    out.say(f"modus={dec(fact.modus)}")
    out.say(f"iota={fact.universality_index}")
    return 0


def _word_or_none(out: _Emit, alpha: Alphabet, w) -> int:
    """Set the decoded word, or None for no solution, as the result."""
    out.result = None if w is None else alpha.decode(w)
    return 1 if w is None else 0


def _cmd_find_u(args, out: _Emit) -> int:
    S, alpha = read_word_file(args.set_file, args.w)
    w = alpha.encode(args.w)
    out.stats["set_size"] = len(S)
    try:
        found = (find_u_all if args.all else find_u)(w, S, **_budget_kwargs())
    except NotAScatteredFactor as exc:  # the words in the file's letters, not word()'s a..z
        part, whole = (f"word({alpha.decode(x)!r})" for x in exc.words)
        raise NotAScatteredFactor(f"{part} is not a scattered factor of {whole}") from None
    if not args.all:
        return _word_or_none(out, alpha, found)
    out.result = [alpha.decode(u) for u in found]
    if not found:
        out.say("no solution")
    return 0 if found else 1


def _cmd_exists_w(args, out: _Emit) -> int:
    pairs, alpha = _read_file(args.pairs, pairs=True)
    out.stats["set_size"] = len(pairs)
    return _word_or_none(out, alpha, reconstruct_word(pairs, **_budget_kwargs()))


def _cmd_find_w(args, out: _Emit) -> int:
    S, alpha = read_word_file(args.set_file, args.u)
    u = alpha.encode(args.u)
    out.stats["set_size"] = len(S)
    return _word_or_none(out, alpha, find_w(u, S, **_budget_kwargs()))


def _cmd_shuffle(args, out: _Emit) -> int:
    u, v = word(args.u), word(args.v)
    S = sorted(shuffle_set(u, v, **_budget_kwargs()))
    out.stats["set_size"] = len(S)
    out.result = [text(w) for w in S]
    if args.size_only:
        out.say(str(len(S)))
    return 0


def _cmd_perfect_shuffle(args, out: _Emit) -> int:
    out.result = text(perfect_shuffle(word(args.u), word(args.v)))
    return 0


def _cmd_self_shuffle(args, out: _Emit) -> int:
    ok = out.result = is_self_shuffle_complement(word(args.w), word(args.u))
    return 0 if ok else 1


def _cmd_verify(args, out: _Emit) -> int:
    suites = verify_mod.available_suites()
    if args.suite != "all" and args.suite not in suites:
        raise ScatcompError(f"unknown suite {args.suite!r}; available: all, {', '.join(suites)}")
    names = suites if args.suite == "all" else [args.suite]
    reports = verify_mod.run_suites(names, max_len=args.max_len, sigma=args.sigma, seed=args.seed)
    out.result = [
        {
            "name": r.name,
            "ok": r.ok,
            "checked": r.checked,
            "violations": len(r.violations) + r.overflow,
            "first_violation": r.violations[0] if r.violations else None,
            "elapsed_s": round(r.elapsed, 3),
        }
        for r in reports
    ]
    for r in reports:
        out.say(r.line())
    passed = sum(r.ok for r in reports)
    out.say(f"{passed}/{len(reports)} suites passed")
    return 0 if passed == len(reports) else 1


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subparser from clobbering --json given before the subcommand
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit a JSON envelope instead of plain text",
    )
    p = argparse.ArgumentParser(
        prog="scatcomp",
        parents=[common],
        description="Complement scattered factors: computation, inversion, verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *positionals):
        sp = sub.add_parser(name, parents=[common], help=help)
        for pos in positionals:
            sp.add_argument(pos)
        sp.set_defaults(fn=fn)
        return sp

    sp = command("complement", _cmd_complement, "complement scattered factors of u in w", "w", "u")
    layout = sp.add_mutually_exclusive_group()
    layout.add_argument("--counts", action="store_true", help="append embedding multiplicities")
    layout.add_argument("--table", action="store_true", help="print the full prefix table")

    sp = command("embed", _cmd_embed, "embeddings of u in w, one per line", "w", "u")
    layout = sp.add_mutually_exclusive_group()
    layout.add_argument("--count", action="store_true", help="print only the embedding count")
    layout.add_argument("--group", action="store_true",
                        help="group embeddings by complement word, print word<TAB>multiplicity")

    sp = command("archfac", _cmd_archfac, "arch factorization, modus and universality index", "w")
    sp.add_argument("--alphabet", help="letters to treat as the alphabet, e.g. abc")

    sp = command("find-u", _cmd_find_u, "recover u from w and the complement set", "w")
    sp.add_argument("--set-file", required=True)
    sp.add_argument("--all", action="store_true", help="list every u whose complement set matches")

    sp = command("exists-w", _cmd_exists_w, "word admitting disjoint embeddings for every pair")
    sp.add_argument("--pairs", required=True, help="file of tab-separated lines 'v<TAB>u'")

    sp = command("find-w", _cmd_find_w, "word whose complement set of u equals the given set", "u")
    sp.add_argument("--set-file", required=True)

    sp = command("shuffle", _cmd_shuffle, "all interleavings of u and v", "u", "v")
    sp.add_argument("--size-only", action="store_true")

    command("perfect-shuffle", _cmd_perfect_shuffle,
            "letterwise alternation of two equal-length words", "u", "v")
    command("self-shuffle", _cmd_self_shuffle, "is w an interleaving of u with itself", "w", "u")

    sp = command("verify", _cmd_verify, "run a verification suite (or 'all')", "suite")
    sp.add_argument("--max-len", type=int)
    sp.add_argument("--sigma", type=int)
    sp.add_argument("--seed", type=int)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    as_json = getattr(args, "json", False)
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("fn", "json", "command") and v is not None}
    out = _Emit(args.command, as_json, inputs)
    try:
        return out.close(args.fn(args, out))
    except BudgetExceeded as exc:
        return _fail(as_json, 3, exc, f"budget exceeded: {exc}")
    except (ScatcompError, ValueError, OSError) as exc:
        return _fail(as_json, 2, exc, f"error: {exc}")
    except (RecursionError, MemoryError) as exc:
        return _fail(as_json, 3, exc, f"resource limit exceeded: {type(exc).__name__}: {exc}")
    except Exception as exc:  # last resort: exit 1 would read as "no solution"
        return _fail(as_json, 2, exc, f"internal error: {type(exc).__name__}: {exc}")


def _fail(as_json: bool, code: int, exc: BaseException, line: str) -> int:
    """Report a failed call: `line` on stderr and, with --json, the error
    envelope on stdout."""
    print(line, file=sys.stderr)
    if as_json:
        envelope = {"error": {"type": type(exc).__name__, "message": str(exc)}, "exit": code}
        print(json.dumps(envelope, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())

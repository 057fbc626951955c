"""Regenerate pool.json: the input pools and the answers of the current library.

    python3 perfbench/pin.py

Every input comes from a fixed pool seed, so rerunning this on the same
library code rewrites the same file.  It pins the suite counts of the verify
workload, and for each solve-mix and cli-calls input the digest of its
canonical answer.  Run it only when the benchmark itself changes: a change
that claims a speed-up must pass against the existing pins.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
import tempfile

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import scatcomp as sc  # noqa: E402
import scatcomp.cli  # noqa: E402,F401

# Complement-set inputs with more words than this are redrawn, so that a
# rung's calls cost about the same whichever inputs a seed picks.
MAX_COMPLEMENT_WORDS = 3000
PROBE_LENGTH = 600  # exists_word recursion depth grows with the total pair length


def rand_word(rng, n, sigma):
    return "".join(rng.choice("abc"[:sigma]) for _ in range(n))


def subseq(rng, w, k):
    return "".join(w[p] for p in sorted(rng.sample(range(len(w)), k)))


def split(rng, w):
    """A random (v, u) whose interleaving gives w."""
    mask = [rng.random() < 0.5 for _ in w]
    return ("".join(a for a, m in zip(w, mask) if m), "".join(a for a, m in zip(w, mask) if not m))


def shuffle_of(rng, u, v):
    """A random interleaving of u and v."""
    picks = [0] * len(u) + [1] * len(v)
    rng.shuffle(picks)
    it = (iter(u), iter(v))
    return "".join(next(it[p]) for p in picks)


def perturb(rng, w):
    """w with one adjacent pair of distinct letters swapped (same letter counts)."""
    spots = [t for t in range(len(w) - 1) if w[t] != w[t + 1]]
    t = rng.choice(spots)
    return w[:t] + w[t + 1] + w[t] + w[t + 2:]


def brute_complements(w, u):
    """C(w, u) by trying every position subset, for small w."""
    out = set()
    for pos in itertools.combinations(range(len(w)), len(u)):
        if all(w[p] == u[i] for i, p in enumerate(pos)):
            chosen = set(pos)
            out.add("".join(a for j, a in enumerate(w) if j not in chosen))
    return sorted(out)


def unsat_pairs(m, k, idx):
    """k pairs (A^m, A^m B) with one (A^m, A^m C): no word interleaves them all."""
    a, b, c = list(itertools.permutations("abc"))[idx % 6]
    odd = idx % k
    return [[a * m, a * m + (c if i == odd else b)] for i in range(k)]


def solve_item(cls, size, idx):
    rng = random.Random(f"{cls}/{size}/{idx}")
    sigma = 2 + idx % 2
    if cls in ("complement_set", "complement_set_with_multiplicity"):
        w = rand_word(rng, size, sigma)
        return {"args": [w, subseq(rng, w, size // 4)]}
    if cls == "complement_budget":
        w = rand_word(rng, 40, 2)
        return {"args": [w, subseq(rng, w, 20)], "kw": {"budget": size}}
    if cls == "count_embeddings":
        w = rand_word(rng, size, 3)
        return {"args": [w, subseq(rng, w, 8)]}
    if cls in ("find_u", "find_w"):
        w = rand_word(rng, size, sigma)
        u = subseq(rng, w, size // 2)
        S = brute_complements(w, u)
        return {"args": [w, S] if cls == "find_u" else [u, S]}
    if cls in ("exists_word", "reconstruct_word"):
        w = rand_word(rng, size, sigma)
        k = 1 + idx % (6 if cls == "exists_word" else 4)
        return {"args": [[list(split(rng, w)) for _ in range(k)]], "hidden": w}
    if cls == "exists_word_unsat":
        return {"args": [unsat_pairs(size, 4, idx)]}
    if cls == "in_shuffle":
        u, v = rand_word(rng, size // 2, 2), rand_word(rng, size - size // 2, 2)
        w = shuffle_of(rng, u, v)
        return {"args": [perturb(rng, w) if idx % 2 else w, u, v]}
    if cls == "is_self_shuffle_complement":
        h = rand_word(rng, size // 2, 2)
        w = shuffle_of(rng, h, h)
        return {"args": [perturb(rng, w) if idx % 2 else w, h]}
    if cls == "shuffle_set":
        return {"args": [rand_word(rng, size // 2, 2), rand_word(rng, size - size // 2, 2)]}
    raise KeyError(cls)


def outcome(fn, args, kw):
    try:
        return fn(*args, **kw)
    except Exception as exc:  # the pinned answer may be an exception
        return exc


def pin_solve():
    pools = {}
    for cls, (fname, ladder, _) in wl.SOLVE_CLASSES.items():
        fn = getattr(sc, fname)
        pools[cls] = {}
        for size in ladder:
            items, idx = [], 0
            while len(items) < wl.rung_calls(ladder, size):
                item = solve_item(cls, size, idx)
                idx += 1
                args = [wl.decode_arg(a) for a in item["args"]]
                r = outcome(fn, args, item.get("kw", {}))
                if cls.startswith("complement_set") and (
                    isinstance(r, BaseException) or len(r) > MAX_COMPLEMENT_WORDS
                ):
                    continue
                if cls == "complement_budget" and not isinstance(r, BaseException):
                    continue  # this class pins the budget refusal
                if not wl.solve_check(cls, args, item.get("hidden"), r):
                    raise SystemExit(f"{cls} {size} #{idx - 1}: independent check failed")
                item["digest"] = wl.digest(wl.canonical(r))
                items.append(item)
            pools[cls][str(size)] = items
            print(f"pinned solve {cls} {size}: {len(items)} inputs, {idx} drawn", file=sys.stderr)
    return pools


def probe_items():
    """exists_word inputs deep enough to raise RecursionError in the current library."""
    items = []
    for k in (1, 2, 3):
        rng = random.Random(f"probe/{k}")
        w = rand_word(rng, PROBE_LENGTH, 2)
        items.append({"args": [[list(split(rng, w)) for _ in range(k)]], "hidden": w})
    return items


def cli_item(template, idx):
    rng = random.Random(f"cli/{template}/{idx}")
    name = f"{template}-{idx}"
    sigma = 2 + idx % 2
    if template.startswith("complement"):
        w = rand_word(rng, rng.randint(5, 8) if template != "complement-table" else 5, 3)
        u = subseq(rng, w, rng.randint(1, 3) if template != "complement-table" else 2)
        flag = {"complement": [], "complement-counts": ["--counts"],
                "complement-table": ["--table"]}[template]
        check = {"complement": "complement", "complement-counts": "complement-counts"}.get(template)
        return {"argv": ["complement", w, u, *flag], "check": check}
    if template.startswith("embed-") and template != "embed-absent":
        w = rand_word(rng, rng.randint(6, 10), sigma)
        u = subseq(rng, w, rng.randint(2, 3))
        flag = {"embed-count": ["--count"], "embed-group": ["--group"], "embed-list": []}[template]
        return {"argv": ["embed", w, u, *flag]}
    if template.startswith("archfac"):
        w = rand_word(rng, rng.randint(6, 12), 3)
        return {"argv": ["archfac", w] + (["--alphabet", "abcd"] if template == "archfac-alphabet" else [])}
    if template in ("find-u", "find-u-all", "find-w"):
        w = rand_word(rng, rng.randint(5, 7) if template != "find-w" else 5, sigma)
        u = subseq(rng, w, 2)
        files = {f"{name}.set": "\n".join(brute_complements(w, u)) + "\n"}
        pos = w if template != "find-w" else u
        argv = [template[:6], pos, "--set-file", f"{wl.DIR_MARK}/{name}.set"]
        return {"argv": argv + (["--all"] if template == "find-u-all" else []), "files": files}
    if template == "exists-w":
        w = rand_word(rng, rng.randint(5, 8), sigma)
        pairs = [list(split(rng, w)) for _ in range(rng.randint(1, 3))]
        files = {f"{name}.tsv": "".join(f"{v}\t{u}\n" for v, u in pairs)}
        return {"argv": ["exists-w", "--pairs", f"{wl.DIR_MARK}/{name}.tsv"], "files": files,
                "check": "exists-w", "pairs": pairs}
    if template == "exists-w-unsat":
        pairs = unsat_pairs(rng.randint(1, 3), rng.randint(2, 3), idx)
        files = {f"{name}.tsv": "".join(f"{v}\t{u}\n" for v, u in pairs)}
        return {"argv": ["exists-w", "--pairs", f"{wl.DIR_MARK}/{name}.tsv"], "files": files}
    if template == "shuffle":
        u, v = rand_word(rng, rng.randint(2, 4), 2), rand_word(rng, rng.randint(2, 4), 2)
        return {"argv": ["shuffle", u, v] + (["--size-only"] if idx % 2 else [])}
    if template == "perfect-shuffle":
        n = rng.randint(3, 6)
        return {"argv": ["perfect-shuffle", rand_word(rng, n, 3), rand_word(rng, n, 3)]}
    if template == "self-shuffle":
        h = rand_word(rng, rng.randint(3, 6), 2)
        return {"argv": ["self-shuffle", shuffle_of(rng, h, h), h]}
    if template == "verify-pass":
        suite = ("single-letter-run", "complement-symmetry", "universality-index", "squarefree-embeddings")[idx % 4]
        return {"argv": ["verify", suite, "--max-len", "4"]}
    if template == "embed-absent":
        w = rand_word(rng, rng.randint(4, 8), 2)
        return {"argv": ["embed", w, subseq(rng, w, 1) + "c"] + (["--count"] if idx % 2 else [])}
    if template == "self-shuffle-length":
        h = rand_word(rng, rng.randint(2, 4), 2)
        return {"argv": ["self-shuffle", shuffle_of(rng, h, h) + "a", h]}
    if template == "verify-fail":
        return {"argv": ["verify", "two-arch-singleton", "--max-len", str(5 + idx % 2)]}
    if template == "bad-letter":
        w = rand_word(rng, rng.randint(4, 7), 3)
        t = rng.randrange(len(w))
        return {"argv": ["complement", w[:t] + rng.choice("AZ1_") + w[t + 1:], w[0]]}
    if template == "bad-pair-line":
        files = {f"{name}.tsv": f"ab\tba\nab\tba\t{rand_word(rng, 2, 2)}\n"}
        return {"argv": ["exists-w", "--pairs", f"{wl.DIR_MARK}/{name}.tsv"], "files": files}
    if template == "perfect-shuffle-unequal":
        n = rng.randint(2, 5)
        return {"argv": ["perfect-shuffle", rand_word(rng, n, 3), rand_word(rng, n + 1, 3)]}
    if template == "missing-set-file":
        return {"argv": ["find-u", rand_word(rng, 5, 2)]}
    if template == "budget-complement":
        w = rand_word(rng, rng.randint(6, 8), 3)
        return {"argv": ["complement", w, subseq(rng, w, 2)], "budget": 1}
    if template == "budget-shuffle":
        return {"argv": ["shuffle", rand_word(rng, 2, 2), rand_word(rng, 2, 2)], "budget": 1}
    if template == "budget-embed":
        w = rand_word(rng, rng.randint(5, 8), 2)
        return {"argv": ["embed", "a" + w + "a", "a"], "budget": 1}
    raise KeyError(template)


def pin_cli():
    items = []
    with tempfile.TemporaryDirectory() as tmp:
        for template, want_code, calls in wl.CLI_MIX:
            for idx in range(calls):
                item = {"template": template, **cli_item(template, idx)}
                item = {k: v for k, v in item.items() if v is not None}
                for name, content in item.get("files", {}).items():
                    with open(os.path.join(tmp, name), "w", encoding="ascii") as fh:
                        fh.write(content)
                item["digests"] = []
                for as_json in (False, True):
                    argv = [a.replace(wl.DIR_MARK, tmp) for a in item["argv"]]
                    code, stdout, _ = wl.run_cli(sc, (["--json"] if as_json else []) + argv,
                                                 item.get("budget"))
                    if code != want_code or not wl.cli_check(item, code, stdout, as_json):
                        raise SystemExit(f"{template} #{idx} json={as_json}: exit {code}, want {want_code}")
                    item["digests"].append(wl.digest(wl.cli_canonical(code, stdout, as_json, tmp)))
                items.append(item)
            print(f"pinned cli {template}: {calls} calls", file=sys.stderr)
    return items


def pin_suites():
    out = {}
    for name, max_len in wl.VERIFY_SCALES.items():
        r = sc.run_suite(name, max_len=max_len, seed=0)
        out[name] = [r.checked, len(r.violations) + r.overflow]
        print(f"pinned suite {name}: {out[name]}", file=sys.stderr)
    return out


def main():
    pool = {"suites": pin_suites(), "solve": pin_solve(), "probe": probe_items(), "cli": pin_cli()}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(pool, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

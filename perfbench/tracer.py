"""Spans around the calls into each scatcomp module, for the traced run.

The library's modules import each other by name (``from .complement import
complement_set``), so a wrapper placed only on the defining module would
miss most calls.  ``Tracer.install`` therefore replaces every reference to a
wrapped function in every loaded ``scatcomp`` module namespace, including
the package itself; ``verify`` reaches ``complement._extend_row`` through the
module object, which the same replacement covers.  ``uninstall`` puts the
originals back.

A span is (kind, parent, start, end); kinds name a (layer, function) pair.
Spans live in flat arrays while the run goes and are only written out at the
end.  A layer's self time is its spans' durations minus the time their
direct child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
import types
from array import array
from collections import defaultdict

LAYERS = (
    "words", "embeddings", "complement", "inverse_u", "disjoint_embed",
    "shuffle", "arch", "oracle", "verify", "cli",
)

# Private functions that carry a layer's work and are called across modules.
_PRIVATE = {
    "complement": ("_first_row", "_extend_row", "_last_row", "_extend_suffix_row"),
    "oracle": ("_complement_census",),
}
_ROW_KINDS = ("complement._extend_row", "complement._extend_suffix_row")


def _error_class(exc: BaseException) -> str:
    if type(exc).__name__ == "BudgetExceeded":
        return "budget"
    if isinstance(exc, RecursionError):
        return "recursion"
    return "other"


def _n(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


# Counters read from a call's arguments and result: kind -> fn(args, result)
# giving (counter, amount) pairs.
_HOOKS = {
    "complement.complement_set": lambda a, r: (("complement.out_words", len(r)),),
    "complement.complement_set_with_multiplicity": lambda a, r: (
        ("complement.out_words", len(r)), ("complement.out_embeddings", r.total_embeddings)),
    "inverse_u.candidate_set": lambda a, r: (("inverse_u.candidates", len(r)),),
    "inverse_u.find_u": lambda a, r: (("inverse_u.matches", r is not None),),
    "inverse_u.find_u_all": lambda a, r: (("inverse_u.matches", len(r)),),
    "disjoint_embed.exists_word": lambda a, r: (("disjoint_embed.pairs", _n(a[0])),),
    "disjoint_embed.reconstruct_word": lambda a, r: (("disjoint_embed.pairs", _n(a[0])),),
    "disjoint_embed.find_w": lambda a, r: (
        ("disjoint_embed.pairs", _n(a[1])), ("disjoint_embed.matches", r is not None)),
    "shuffle.shuffle_set": lambda a, r: (("shuffle.out_words", len(r)),),
    "embeddings.enumerate_embeddings": lambda a, r: (("embeddings.out_embeddings", len(r)),),
    "oracle._complement_census": lambda a, r: (("oracle.census_subsets", 2 ** len(a[0])),),
    "verify.run_suite": lambda a, r: (
        ("verify.checks", r.checked), ("verify.violations", len(r.violations) + r.overflow)),
}


class Tracer:
    """Records spans and counters while installed into the scatcomp modules."""

    def __init__(self):
        self.kinds: list[tuple[str, str]] = []  # kind id -> (layer, "layer.func")
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        k = len(self.kinds)
        self.kinds.append((layer, name))
        kinds, kind, parent, start, end = self.kinds, self.kind, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            i = len(kind)
            p = stack[-1]
            kind.append(k)
            parent.append(p)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if p < 0 or kinds[kind[p]][0] != layer:
                    counts[f"{layer}.errors.{_error_class(exc)}"] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                for key, amount in hook(args, result):
                    counts[key] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap each layer's functions and rebind every reference to them."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"scatcomp.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in _PRIVATE.get(layer, ()):
                    continue
                if inspect.isgeneratorfunction(fn):  # a span would close before the work
                    continue
                wrapped[id(fn)] = self._wrap(layer, f"{layer}.{attr}", fn)
            if layer == "words":
                cls = mod.Alphabet
                for attr in ("encode", "decode"):
                    fn = cls.__dict__[attr]
                    self._restore.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(layer, f"words.Alphabet.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "scatcomp" and not modname.startswith("scatcomp."):
                continue
            for attr, value in list(vars(mod).items()):
                w = wrapped.get(id(value))
                if w is not None and w.__wrapped__ is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    # --- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and the counters the hooks gathered."""
        names = [nm for _, nm in self.kinds]
        layer_of = [layer for layer, _ in self.kinds]
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        n = len(kind)
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: defaultdict[str, float] = defaultdict(float, self.counts)
        self_ns: defaultdict[str, int] = defaultdict(int)
        for i in range(n):
            layer = layer_of[kind[i]]
            self_ns[layer] += end[i] - start[i] - child[i]
            p = parent[i]
            outer = p < 0 or layer_of[kind[p]] != layer
            if outer:
                out[f"{layer}.calls"] += 1
            name = names[kind[i]]
            if name in _ROW_KINDS and p >= 0 and layer_of[kind[p]] == "verify":
                out["complement.row_calls"] += 1
            if name == "complement.complement_set" and p >= 0:
                pname = names[kind[p]]
                if pname in ("inverse_u.find_u", "inverse_u.find_u_all"):
                    out["inverse_u.verify_calls"] += 1
                elif pname == "disjoint_embed.find_w":
                    out["disjoint_embed.verify_calls"] += 1
        for layer, ns in self_ns.items():
            out[f"{layer}.self_s"] = ns / 1e9
        for layer in LAYERS:
            out[f"{layer}.errors"] = sum(
                out[f"{layer}.errors.{c}"] for c in ("budget", "recursion", "other"))
        out["inverse_u.useful_ratio"] = _ratio(out["inverse_u.matches"], out["inverse_u.verify_calls"])
        out["disjoint_embed.useful_ratio"] = _ratio(
            out["disjoint_embed.matches"], out["disjoint_embed.verify_calls"])
        return out

    def write(self, path) -> None:
        """All spans as tab-separated text: id, root, parent, name, start_ns, end_ns."""
        names = [nm for _, nm in self.kinds]
        root = array("q", bytes(8 * len(self.kind)))
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\troot\tparent\tname\tstart_ns\tend_ns\n")
            for i, (k, p, s, e) in enumerate(zip(self.kind, self.parent, self.start, self.end)):
                root[i] = i if p < 0 else root[p]
                fh.write(f"{i}\t{root[i]}\t{p}\t{names[k]}\t{s}\t{e}\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0

"""Per-layer attribution of a cProfile run: self time and calls by layer.

A function belongs to the layer of the ``repro`` module that defines it
(``repro.verbs.express`` and ``repro.hw.fabric`` are layers of their own,
split from ``verbs`` and ``hw``), or to ``bench`` when the benchmark's
own files define it.  A C builtin, or a Python function from outside
both (the standard library, NumPy), has no layer of its own: its self
time goes to the layers of its callers, split along the profiler's
caller edges, so the shares cover all profiled time and sum to 1.

Calls are counted the same way, but only along edges whose caller has a
layer, so the count is a whole number and repeats exactly run to run.
"""

from __future__ import annotations

import os
from collections import defaultdict

__all__ = ["LAYERS", "BUCKETS", "attribute"]

#: The program's layers, most specific module prefix first.
LAYERS = ("sim", "verbs.express", "verbs", "hw.fabric", "hw", "tenancy",
          "load", "apps", "memory", "core")

#: Every bucket a share can land in: the layers, the benchmark's own
#: driver, and the rest of ``repro`` (workloads, bench, check, the
#: package root).
BUCKETS = LAYERS + ("bench", "other")


def _classifier(src_root: str, bench_root: str):
    pkg_root = os.path.join(src_root, "repro") + os.sep
    bench_root = bench_root.rstrip(os.sep) + os.sep
    prefixes = [(layer, pkg_root + layer.replace(".", os.sep))
                for layer in LAYERS]
    cache: dict = {}

    def layer_of(code) -> str | None:
        """Bucket of a code object, or None for builtins and foreign code."""
        if isinstance(code, str):           # a C builtin
            return None
        filename = code.co_filename
        hit = cache.get(filename, 0)
        if hit != 0:
            return hit
        if filename.startswith(bench_root):
            hit = "bench"
        elif filename.startswith(pkg_root):
            hit = "other"
            for layer, prefix in prefixes:
                if filename.startswith(prefix + os.sep) \
                        or filename == prefix + ".py":
                    hit = layer
                    break
        else:
            hit = None
        cache[filename] = hit
        return hit

    return layer_of


def attribute(profile_entries, src_root: str, bench_root: str
              ) -> tuple[dict, dict]:
    """``(self_s, calls)`` per bucket from ``cProfile.Profile.getstats()``.

    A foreign function's self time is split over its callers in
    proportion to the cumulative time of each caller edge; a foreign
    caller passes its share on to its own callers the same way.  Time in
    foreign code called straight from the frame that enabled the
    profiler (a benchmark frame) goes to ``bench``.
    """
    layer_of = _classifier(src_root, bench_root)
    entries = {id(e.code): e for e in profile_entries}
    # callee id -> [(caller entry, edge)], from the callers' sub-call lists.
    incoming: dict = defaultdict(list)
    for e in entries.values():
        for sub in e.calls or ():
            incoming[id(sub.code)].append((e, sub))
    memo: dict = {}

    def shares(entry, stack: frozenset) -> dict:
        """Bucket shares of a foreign entry's time, from its callers."""
        key = id(entry.code)
        got = memo.get(key)
        if got is not None:
            return got
        out: dict = defaultdict(float)
        seen = 0.0
        for caller, edge in incoming.get(key, ()):
            if caller is entry:             # recursion adds no information
                continue
            w = edge.totaltime
            seen += w
            layer = layer_of(caller.code)
            if layer is not None:
                out[layer] += w
            elif id(caller.code) in stack:  # foreign mutual recursion
                out["other"] += w
            else:
                for b, share in shares(caller, stack | {key}).items():
                    out[b] += w * share
        if entry.totaltime > seen:
            out["bench"] += entry.totaltime - seen
        total = sum(out.values())
        memo[key] = got = ({b: w / total for b, w in out.items()}
                           if total > 0 else {"bench": 1.0})
        return got

    self_s: dict = dict.fromkeys(BUCKETS, 0.0)
    calls: dict = dict.fromkeys(BUCKETS, 0)
    for e in entries.values():
        layer = layer_of(e.code)
        if layer is None:
            for b, share in shares(e, frozenset()).items():
                self_s[b] += e.inlinetime * share
            continue
        self_s[layer] += e.inlinetime
        calls[layer] += e.callcount
        for sub in e.calls or ():
            if layer_of(sub.code) is None:
                calls[layer] += sub.callcount
    return self_s, calls

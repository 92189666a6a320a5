"""The repo benchmark: host cost per simulated op, end to end and by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload onesided_mix --seed 1 \\
        --seconds 30 --trace 0

One process, no worker pool.  The run repeats *segments* until
``--seconds`` have passed: each segment builds a fresh rig from the
seeded inputs, warms it up, and runs the timed phase.  With ``--trace
0`` it prints the end-to-end metrics; with ``--trace 1`` every other
segment runs under cProfile and it prints the per-layer metrics.  Host
times are scaled by a reference loop timed around every segment, which
takes the shared machine's changing speed out of them.  The last line
of standard output is one JSON object.  The exit code is 1
when an output or validity check fails, 2 when the source tree is
missing.  perfbench/README.md documents every metric.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "perfbench")

if not __package__:                 # run as a script
    sys.path.insert(0, ROOT)
from perfbench.layers import BUCKETS, LAYERS, attribute  # noqa: E402

#: Segments a run makes at least, whatever ``--seconds`` says; a traced
#: run alternates traced and untraced segments, so it needs two of each.
MIN_SEGMENTS = 3
MIN_TRACED_SEGMENTS = 4


def _import_program():
    """Import the program from this checkout's ``src``; returns the
    benchmark's workload table and the import time in seconds."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import repro
    from perfbench.workloads import WORKLOADS
    import_s = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        print(f"perfbench: imported repro from {where}, not from {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return WORKLOADS, import_s


def run_segment(cls, seed: int, profile: bool = False):
    """One segment: fresh rig, warm-up, timed phase.  Returns the
    :class:`~perfbench.workloads.Segment` and the profiler's entries
    (None when not profiled)."""
    gc.collect()
    t0 = time.perf_counter()
    wl = cls(seed)
    wl.setup()
    t1 = time.perf_counter()
    prof = cProfile.Profile() if profile else None
    if prof is not None:
        prof.enable()
    wl.drive()
    if prof is not None:
        prof.disable()
    t2 = time.perf_counter()
    seg = wl.finish()
    seg.setup_s = t1 - t0
    seg.wall_s = t2 - t1
    return seg, (prof.getstats() if prof is not None else None)


#: Seconds one pass of :func:`reference_s` took on a quiet 2-vCPU VM at
#: 2.1 GHz.  Host times are scaled by ``REFERENCE_S`` over the pass's
#: time measured around them, so they read as seconds on that machine.
REFERENCE_S = 0.020


def reference_s() -> float:
    """Time one pass of a fixed pure-Python event loop: 64 generator
    processes on a heap, 30000 wake-ups.

    On a shared machine the same segment's cost swings by up to 2x over
    tens of seconds as neighbours contend for the core, and every
    Python loop swings with it.  Timed right before and after each
    segment, this loop measures the machine's speed at that moment.
    It is the benchmark's own code, so no change to the program moves
    it."""
    def proc(k: int):
        x = k
        while True:
            x = (x * 1103515245 + 12345) & 0xFFFF
            yield (x % 97) + 1.0

    t0 = time.perf_counter()
    procs = [proc(k) for k in range(64)]
    heap = [(next(p), i, i) for i, p in enumerate(procs)]
    heapq.heapify(heap)
    seq = len(heap)
    for _ in range(30000):
        t, _, i = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (t + procs[i].send(None), seq, i))
    return time.perf_counter() - t0


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the layer saw no work (``den == 0``)."""
    return num / den if den else 0.0


class Run:
    """What a run keeps: the first segment whole, and only a summary of
    each later one, so memory does not grow with the segment count."""

    def __init__(self) -> None:
        self.first = None
        #: Host µs per op of each segment, keyed by "was it traced".
        self.per_op_us: dict = {False: [], True: []}
        self.setup_s: list[float] = []
        self.ops = 0
        self.errors = 0
        self.problems: list[str] = []
        #: Self time by bucket over every traced segment, and the calls
        #: of the first traced segment.
        self.self_s = dict.fromkeys(BUCKETS, 0.0)
        self.calls: dict | None = None

    def add(self, seg, entries, scale: float) -> None:
        """Record a segment; ``scale`` converts its host times to the
        reference machine's speed."""
        first = self.first
        if first is None:
            self.first = first = seg
        elif (seg.digest, seg.events) != (first.digest, first.events):
            self.problems.append(
                f"segment {len(self.setup_s)} simulated {seg.digest[:12]} in "
                f"{seg.events} events; the first simulated "
                f"{first.digest[:12]} in {first.events}")
        self.per_op_us[entries is not None].append(
            1e6 * seg.wall_s / seg.ops * scale)
        self.setup_s.append(seg.setup_s * scale)
        self.ops += seg.ops
        self.errors += seg.errors
        self.problems.extend(p for p in seg.problems
                             if p not in self.problems)
        if entries is not None:
            self_s, calls = attribute(entries, SRC, BENCH)
            for b, t in self_s.items():
                self.self_s[b] += t
            if self.calls is None:
                self.calls = calls

    def end_to_end(self, import_s: float) -> tuple[dict, dict]:
        """End-to-end metrics ``{name: (value, unit)}`` and sample counts.
        Simulated metrics come from the first segment, host times from
        every untraced segment."""
        from repro.sim.stats import percentiles
        first = self.first
        per_op = self.per_op_us[False]
        lat = sorted(first.lat_ns)
        p50, p99 = percentiles(lat, (50, 99))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "host_us_per_op": (statistics.median(per_op), "us"),
            "setup_s": (import_s + statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "ok_op_share": (1.0 - first.not_ok / first.ops, "1"),
            "sim_goodput_mops": (first.ops / (first.sim_ns / 1e3), "op/us"),
            "sim_lat_p50_us": (p50 / 1e3, "us"),
            "sim_lat_p99_us": (p99 / 1e3, "us"),
        }
        samples = {"host_us_per_op": len(per_op),
                   "setup_s": len(self.setup_s),
                   "sim_lat_p50_us": len(lat), "sim_lat_p99_us": len(lat)}
        return metrics, samples

    def per_layer(self) -> dict:
        """Per-layer metrics ``{name: (value, unit)}`` of a traced run."""
        first, self_s, calls = self.first, self.self_s, self.calls
        total = sum(self_s.values())
        ops = first.ops
        c = first.counters
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_share"] = (self_s[layer] / total, "1")
            metrics[f"{layer}.calls_per_op"] = (calls[layer] / ops, "1/op")
        lookups = c["xlt_hits"] + c["xlt_misses"]
        submitted = c["plane_admitted"] + c["plane_rejected"]
        probes = c["cache_hits"] + c["cache_misses"]
        overhead = (statistics.median(self.per_op_us[True])
                    / statistics.median(self.per_op_us[False]))
        metrics.update({
            "sim.events_per_op": (first.events / ops, "1/op"),
            "sim.cancelled_per_op": (first.cancelled / ops, "1/op"),
            "verbs.express_post_share": (
                _ratio(c["express_wrs"], c["posted"]), "1"),
            "verbs.retransmissions_per_kop": (
                1e3 * c["retransmissions"] / ops, "1/kop"),
            "hw.fabric.drops_per_kop": (1e3 * c["link_drops"] / ops, "1/kop"),
            "hw.fabric.ecn_marks_per_kop": (
                1e3 * c["ecn_marks"] / ops, "1/kop"),
            "hw.sram_hit_ratio": (_ratio(c["xlt_hits"], lookups), "1"),
            "hw.pcie_dma_per_op": (c["pcie_dma"] / ops, "1/op"),
            "tenancy.admit_ratio": (
                _ratio(c["plane_admitted"], submitted), "1"),
            "tenancy.shed_share": (_ratio(c["plane_sheds"], submitted), "1"),
            "load.cache_hit_ratio": (_ratio(c["cache_hits"], probes), "1"),
            "trace.overhead_ratio": (overhead, "1"),
            "bench.driver_share": (self_s["bench"] / total, "1"),
            "other.self_share": (self_s["other"] / total, "1"),
        })
        return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workloads, import_s = _import_program()
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r} "
                 f"(one of {', '.join(workloads)})")
    cls = workloads[args.workload]

    min_segments = MIN_TRACED_SEGMENTS if args.trace else MIN_SEGMENTS
    run = Run()
    start = time.perf_counter()
    before = reference_s()
    import_s *= REFERENCE_S / before
    n = 0
    while n < min_segments or time.perf_counter() - start < args.seconds:
        seg, entries = run_segment(cls, args.seed,
                                   profile=bool(args.trace) and n % 2 == 0)
        after = reference_s()
        run.add(seg, entries, 2 * REFERENCE_S / (before + after))
        before = after
        n += 1

    if args.trace:
        metrics, samples = run.per_layer(), {}
    else:
        metrics, samples = run.end_to_end(import_s)
    first = run.first
    print(f"workload {args.workload} seed {args.seed} "
          f"segments {n} ops/segment {first.ops}")
    print(f"digest {first.digest} events {first.events}")
    for name, (value, unit) in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:32s} {value:.6g} {unit}{count}")
    for p in run.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.ops,
        "failed": run.errors,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if run.problems else 0


if __name__ == "__main__":
    sys.exit(main())

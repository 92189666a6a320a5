"""A/B harness: bench tables with the express lane on vs off.

Runs every figure/table/ext target twice in one process — once with
``REPRO_EXPRESS=0`` (stepped) and once with the lane enabled — and
diffs the rendered tables byte-for-byte.  Also reports dispatched
events per run, which is the lane's whole point.

Point-capable targets run through ``repro.bench.parallel.run_campaign``
serially with the point cache off (cache keys ignore ``REPRO_EXPRESS``);
meta targets run their ``run()``.

Usage::

    PYTHONPATH=src python tools/express_ab.py [target ...]

With no arguments, runs the full catalog (minutes).
"""

from __future__ import annotations

import importlib
import os
import sys
import time


META = {"summary", "scorecard"}


def run_target(name: str, module) -> tuple[str, int]:
    from repro.bench import parallel
    from repro.sim.engine import Simulator
    before = Simulator.total_events
    if parallel.point_capable(module):
        figs = parallel.run_campaign(name, quick=True, jobs=1,
                                     cache_dir=None).figures
    else:
        figs = [module.run(quick=True)]
    text = "\n".join(f.to_text() for f in figs)
    events = Simulator.total_events - before
    return text, events


def main(argv: list[str]) -> int:
    from repro.bench import TARGETS

    names = argv or [n for n in sorted(TARGETS) if n not in META]
    failures = []
    for name in names:
        module = importlib.import_module(TARGETS[name])
        os.environ["REPRO_EXPRESS"] = "0"
        t0 = time.time()
        text_off, ev_off = run_target(name, module)
        t_off = time.time() - t0
        os.environ["REPRO_EXPRESS"] = "1"
        t0 = time.time()
        text_on, ev_on = run_target(name, module)
        t_on = time.time() - t0
        ratio = ev_off / ev_on if ev_on else float("nan")
        ok = text_on == text_off
        print(f"{name:20s} {'OK ' if ok else 'DIFF'} "
              f"events {ev_off:>10d} -> {ev_on:>10d} ({ratio:4.2f}x) "
              f"wall {t_off:6.2f}s -> {t_on:6.2f}s")
        if not ok:
            failures.append(name)
            off_lines = text_off.splitlines()
            on_lines = text_on.splitlines()
            for i, (a, b) in enumerate(zip(off_lines, on_lines)):
                if a != b:
                    print(f"  line {i}:\n  - {a}\n  + {b}")
                    break
    os.environ.pop("REPRO_EXPRESS", None)
    if failures:
        print(f"\nFAILED: {', '.join(failures)}")
        return 1
    print("\nall targets bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

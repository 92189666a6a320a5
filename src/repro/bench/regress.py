"""Regression tracking for the figure suite.

Model development workflow: snapshot today's figures, change a constant or
mechanism, re-run, and see exactly which curves moved and by how much —
before the coarse-band benchmark assertions would catch anything.

::

    python -m repro.bench.regress save baseline.json
    ...edit the model...
    python -m repro.bench.regress diff baseline.json          # vs fresh run
    python -m repro.bench.regress diff baseline.json new.json # vs snapshot

Snapshots store every series of every (cheap) figure; ``diff`` reports the
worst relative deviation per series and flags anything beyond the
threshold (default 2%; the simulator is deterministic, so ANY drift means
the model changed).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Optional

from repro.bench import TARGETS
from repro.bench.report import FigureResult

__all__ = ["snapshot", "load", "diff", "main"]

#: Cheap targets snapshotted by default (whole set < ~1 minute).
DEFAULT_TARGETS = ["fig1", "fig4", "fig5", "fig8", "table2", "table3",
                   "fig10", "fig18", "breakdown"]


def _figures(names: list[str]) -> list[FigureResult]:
    from repro.bench import parallel
    figs = []
    for name in names:
        module = importlib.import_module(TARGETS[name])
        if parallel.point_capable(module):
            figs.extend(parallel.run_campaign(
                name, quick=True, jobs=1, cache_dir=None).figures)
        else:
            figs.append(module.run(True))
    return figs


def snapshot(names: Optional[list[str]] = None) -> dict:
    """Run the targets and return a JSON-serializable snapshot."""
    out: dict = {"format": 1, "figures": {}}
    for fig in _figures(names or DEFAULT_TARGETS):
        out["figures"][fig.name] = dict(fig.record(), title=fig.title)
    return out


def load(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if data.get("format") != 1:
        raise ValueError(f"{path} is not a regress snapshot")
    return data


def diff(baseline: dict, current: dict, threshold: float = 0.02
         ) -> list[tuple[str, str, float]]:
    """(figure, series, worst relative deviation) beyond ``threshold``.

    Added/removed figures or series are reported with deviation ``inf``.
    """
    drifts: list[tuple[str, str, float]] = []
    base_figs = baseline["figures"]
    cur_figs = current["figures"]
    for fig_name in sorted(set(base_figs) | set(cur_figs)):
        if fig_name not in base_figs or fig_name not in cur_figs:
            drifts.append((fig_name, "<figure>", float("inf")))
            continue
        b, c = base_figs[fig_name], cur_figs[fig_name]
        for label in sorted(set(b["series"]) | set(c["series"])):
            if label not in b["series"] or label not in c["series"]:
                drifts.append((fig_name, label, float("inf")))
                continue
            bv, cv = b["series"][label], c["series"][label]
            if len(bv) != len(cv) or b["x"] != c["x"]:
                drifts.append((fig_name, label, float("inf")))
                continue
            worst = 0.0
            for x, y in zip(bv, cv):
                denom = max(abs(x), abs(y), 1e-12)
                worst = max(worst, abs(x - y) / denom)
            if worst > threshold:
                drifts.append((fig_name, label, worst))
    return drifts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.bench.regress")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_save = sub.add_parser("save", help="snapshot the figure suite")
    p_save.add_argument("path")
    p_save.add_argument("--targets", nargs="*", default=None)
    p_diff = sub.add_parser("diff", help="compare against a snapshot")
    p_diff.add_argument("baseline")
    p_diff.add_argument("current", nargs="?", default=None)
    p_diff.add_argument("--threshold", type=float, default=0.02)
    args = parser.parse_args(argv)
    if args.cmd == "save":
        data = snapshot(args.targets)
        with open(args.path, "w") as fh:
            json.dump(data, fh, indent=1)
        print(f"saved {len(data['figures'])} figures to {args.path}")
        return 0
    baseline = load(args.baseline)
    current = load(args.current) if args.current else snapshot()
    drifts = diff(baseline, current, args.threshold)
    if not drifts:
        print("no drift beyond threshold — model output unchanged")
        return 0
    print(f"{len(drifts)} drifting series (threshold "
          f"{args.threshold:.0%}):")
    for fig_name, label, worst in sorted(drifts, key=lambda d: -d[2]):
        shown = "structure changed" if worst == float("inf") \
            else f"{worst:.1%}"
        print(f"  {fig_name} :: {label}: {shown}")
    return 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.run import BENCH, ROOT, SRC, run_segment

if SRC not in sys.path:
    sys.path.insert(0, SRC)

from perfbench.layers import BUCKETS, attribute  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

DETERMINISTIC = ("ok_op_share", "sim_goodput_mops", "sim_lat_p50_us",
                 "sim_lat_p99_us")


def _segment(name: str, seed: int, profile: bool = False):
    return run_segment(WORKLOADS[name], seed, profile)


def _cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _digest_line(stdout: str) -> str:
    return next(line for line in stdout.splitlines()
                if line.startswith("digest "))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_segment_checks_pass_and_seed_changes_digest(name):
    seg, _ = _segment(name, 1)
    assert seg.problems == []
    assert seg.ops > 0 and seg.events > 0
    other, _ = _segment(name, 2)
    assert other.problems == []
    assert other.digest != seg.digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_segment_reproduces_untraced(name):
    plain, entries = _segment(name, 3)
    assert entries is None
    traced, entries = _segment(name, 3, profile=True)
    assert (traced.digest, traced.events) == (plain.digest, plain.events)
    self_s, calls = attribute(entries, SRC, BENCH)
    assert set(self_s) == set(BUCKETS)
    total = sum(self_s.values())
    assert total > 0
    assert sum(t / total for t in self_s.values()) == pytest.approx(1.0,
                                                                    abs=1e-12)
    assert all(isinstance(n, int) and n >= 0 for n in calls.values())
    assert calls["sim"] > 0 and calls["bench"] > 0


def test_stepped_lane_simulates_the_same_outcome(monkeypatch):
    express, _ = _segment("onesided_mix", 4)
    monkeypatch.setenv("REPRO_EXPRESS", "0")
    stepped, _ = _segment("onesided_mix", 4)
    assert stepped.digest == express.digest
    assert stepped.events > express.events
    # The validity check notices that the lane did not run.
    assert any("express lane" in p for p in stepped.problems)


def test_same_seed_in_two_processes_is_bit_identical():
    runs = []
    for trace in ("0", "1"):
        for _ in range(2):
            proc = _cli("--workload", "onesided_mix", "--seed", "5",
                        "--seconds", "0.1", "--trace", trace)
            assert proc.returncode == 0, proc.stderr
            runs.append((_digest_line(proc.stdout),
                         json.loads(proc.stdout.splitlines()[-1])))
    (d0, e0), (d1, e1), (t0, l0), (t1, l1) = runs
    # Same simulated outcome and event count, traced or not.
    assert d0 == d1 == t0 == t1
    assert e0["correct"] and l0["correct"]
    for name in DETERMINISTIC:
        assert e0["metrics"][name] == e1["metrics"][name]
    for name, m in l0["metrics"].items():
        if not name.endswith("self_share") and not name.startswith(
                ("trace.", "bench.")):
            assert m == l1["metrics"][name], name
    shares = [m["value"] for name, m in l0["metrics"].items()
              if name.endswith("self_share") or name == "bench.driver_share"]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "onesided_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

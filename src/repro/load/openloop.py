"""Open-loop injection: fire requests on the arrival clock, not the
completion clock.

An :class:`OpenLoopGenerator` walks a precomputed arrival timeline
(:mod:`repro.workloads.arrivals`) and spawns one detached process
(:meth:`~repro.sim.Simulator.spawn`) per request — offered load is
independent of service progress, so when the plane saturates, queues
grow, deadlines lapse, and the shed rate (not the injection rate)
gives.  That is the behaviour closed-loop clients structurally cannot
show: they self-throttle to the service rate and the knee never
appears.

Requests report one of four outcomes (:class:`~repro.load.frontdoor.
KvResult` semantics): "hit" / "ok" count as delivered and contribute a
latency sample; "shed" and "error" are tallied separately.  Latency is
arrival-to-completion, so queueing delay — the tenant-visible number —
is included.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

from repro.sim import Simulator
from repro.sim.stats import percentiles

__all__ = ["OpenLoopGenerator", "drain_open_loop", "find_knee"]


class OpenLoopGenerator:
    """Injects ``request_fn(i)`` processes at absolute ``times_ns``.

    ``request_fn(i) -> Generator`` must return an object with an
    ``outcome`` attribute ("hit" | "ok" | "shed" | "error") or a bare
    outcome string.
    """

    def __init__(self, sim: Simulator, request_fn: Callable[[int], Generator],
                 times_ns: Sequence[float], name: str = "openloop"):
        self.sim = sim
        self.request_fn = request_fn
        self.times_ns = times_ns
        self.name = name
        self.offered = 0
        self.delivered = 0
        self.hits = 0
        self.sheds = 0
        self.errors = 0
        self.latencies: list[float] = []
        #: Unfinished work: the injector (until it has walked the whole
        #: timeline) plus every spawned request not yet finished;
        #: drain() runs until this reaches zero.
        self._pending = 0
        self._started = False
        #: Set only while drain() waits: fires when the last request
        #: finishes, or fails with the first request's error.
        self._idle = None

    # -- injection ------------------------------------------------------------
    def start(self) -> None:
        """Begin injecting (call before ``sim.run``)."""
        if self._started:
            raise RuntimeError(f"{self.name}: already started")
        self._started = True
        self._pending = 1  # the injector itself
        self.sim.spawn(self._inject(), name=f"{self.name}.inject")

    def _inject(self) -> Generator:
        sim = self.sim
        for i, t in enumerate(self.times_ns):
            delay = float(t) - sim.now
            if delay > 0:
                yield delay
            self.offered += 1
            self._pending += 1
            sim.spawn(self._request(i), name=f"{self.name}.r{i}")
        self._pending -= 1
        self._settle()

    def _request(self, i: int) -> Generator:
        t0 = self.sim.now
        try:
            result = yield from self.request_fn(i)
            outcome = getattr(result, "outcome", result)
            if outcome in ("hit", "ok"):
                self.delivered += 1
                if outcome == "hit":
                    self.hits += 1
                self.latencies.append(self.sim.now - t0)
            elif outcome == "shed":
                self.sheds += 1
            elif outcome == "error":
                self.errors += 1
            else:
                raise ValueError(
                    f"{self.name}: request {i} returned unknown outcome "
                    f"{outcome!r}")
        except Exception as exc:
            idle = self._idle
            if idle is None or idle._triggered:
                raise  # nobody drains: the crash surfaces from sim.run()
            # Hand drain() the request's own error, not a wrapped crash.
            idle.fail(exc)
            return
        self._pending -= 1
        self._settle()

    def _settle(self) -> None:
        # Fired by the last request just before it returns, the idle
        # event takes the key its end event would have had; the elided
        # end then consumes one more seq, so later keys shift by one.
        idle = self._idle
        if idle is not None and not idle._triggered and not self._pending:
            idle.succeed()

    # -- draining -------------------------------------------------------------
    def drain(self) -> None:
        """Run the simulation until the timeline is fully injected and
        every spawned request has finished."""
        if not self._started:
            raise RuntimeError(f"{self.name}: start() before drain()")
        if not self._pending:
            return
        self._idle = self.sim.event()
        try:
            self.sim.run(until=self._idle)
        finally:
            self._idle = None

    # -- results --------------------------------------------------------------
    @property
    def shed_rate(self) -> float:
        return self.sheds / self.offered if self.offered else 0.0

    def latency_percentiles(self) -> dict[str, float]:
        xs = sorted(self.latencies)
        p50, p99, p999 = percentiles(xs, [50, 99, 99.9])
        return {"p50": p50, "p99": p99, "p999": p999}


def drain_open_loop(gens: Sequence[OpenLoopGenerator]) -> None:
    """Drain several generators sharing one simulator (inject phases ran
    concurrently; stragglers settle in generator order)."""
    for g in gens:
        g.drain()


def find_knee(offered: Sequence[float], delivered: Sequence[float],
              tolerance: float = 0.95) -> Optional[int]:
    """Index of the saturation knee: the first offered rate whose
    delivered throughput falls below ``tolerance`` × offered.  None if
    the service kept up everywhere."""
    if len(offered) != len(delivered):
        raise ValueError("offered and delivered must have the same length")
    for i, (x, y) in enumerate(zip(offered, delivered)):
        if y < tolerance * x:
            return i
    return None

"""Contended resources for the DES kernel.

:class:`Resource` models a fixed number of service slots (RNIC execution
units, PCIe DMA engines, memory-controller banks): processes ``yield
res.acquire()`` and must ``res.release()`` when done, or ``yield
res.hold(duration)`` to occupy a slot for a fixed time in one event.
:class:`Store` is an unbounded-or-bounded FIFO of items (message queues,
work queues).

The engine's callback lane (:class:`repro.sim.Wake`) books the same
slots without a process: :meth:`Resource.hold_wake` is the Wake twin of
``hold`` and :meth:`Resource.request` the Wake twin of ``acquire``.
Every kind of request waits in one FIFO.

Both hand out grants in strict FIFO order, which keeps simulations
deterministic and mirrors the in-order behaviour of the hardware queues they
stand in for.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Optional

from repro.sim.engine import (
    NORMAL, Event, SimulationError, Simulator, Timeout, Wake)

__all__ = ["Resource", "Store"]


class Resource:
    """A counted resource with FIFO granting.

    Usage inside a process::

        grant = resource.acquire()
        yield grant
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()

    or, when the hold time is known up front, the fused equivalent
    ``yield resource.hold(service_time)`` (see :meth:`hold`).
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        # Events (acquire), Timeouts (hold), (duration, Wake) pairs
        # (hold_wake) and bare Wakes (request), in arrival order.
        self._waiters: deque = deque()
        # busy-time accounting for utilization reports
        self._busy_ns = 0.0
        self._busy_since: Optional[float] = None
        # One bound method for the resource's life: every hold's first
        # callback is this same object.
        self._on_hold_end = self._hold_end

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that fires when a slot is granted."""
        # Grants come from the simulator's event pool (hot path: one
        # acquire per pipeline stage per op) with the uncontended grant
        # inlined; FIFO order and schedules are unchanged.
        ev = self.sim.event()
        if self._in_use < self.capacity:
            if self._in_use == 0:
                self._busy_since = self.sim.now
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def hold(self, duration: float, value: Any = None,
             on_end: Optional[Callable[[Event], None]] = None) -> Event:
        """Acquire a slot, hold it ``duration`` ns and release it: one event.

        The returned event fires when the hold ends, *after* the slot is
        released (so the next waiter is already granted), then runs
        ``on_end(event)``, then resumes whoever yielded it with ``value``.
        Schedule-wise it is ``acquire()`` + sleep + ``release()`` minus the
        grant event: the end-wake's sequence number is allocated at the
        grant instant -- here when a slot is free, at the releaser's
        dispatch when the request queued -- exactly where the sleep of the
        three-step form would be allocated.  Queued holds share the FIFO
        with ``acquire()`` requests, count in :attr:`queue_len`, and can be
        withdrawn with :meth:`cancel`; a granted hold always runs to its
        end (interrupting its waiter does not release the slot early).
        """
        if not duration >= 0.0:  # also rejects NaN
            raise ValueError(f"hold duration must be >= 0, got {duration}")
        # A hold is a pooled Timeout whose push is deferred to its grant;
        # the type tag is what tells a queued hold from a queued acquire.
        ev = self.sim._pooled_timeout(duration, value)
        cbs = ev.callbacks
        cbs.append(self._on_hold_end)
        if on_end is not None:
            cbs.append(on_end)
        if self._in_use < self.capacity:
            self._grant(ev)
        else:
            self._waiters.append(ev)
        return ev

    def _hold_end(self, _ev: Event) -> None:
        self.release()

    def hold_wake(self, duration: float, wake: Wake) -> None:
        """:meth:`hold` for the callback lane: no Event, no process.

        ``wake`` is pushed for ``now + duration`` at the grant -- here
        when a slot is free, at the releaser's dispatch when queued --
        so its sequence number lands where a ``hold``'s end-wake would.
        ``wake.fn`` owns the end of the hold and must call
        :meth:`release` first, as a ``hold``'s first callback does.
        """
        if not duration >= 0.0:  # also rejects NaN
            raise ValueError(f"hold duration must be >= 0, got {duration}")
        if self._in_use < self.capacity:
            self._grant((duration, wake))
        else:
            self._waiters.append((duration, wake))

    def request(self, wake: Wake) -> None:
        """:meth:`acquire` for the callback lane: ``wake.fn(wake)`` runs
        at the grant, inline and without an event -- inside this call
        when a slot is free, inside the releaser's :meth:`release` when
        queued.  The slot is held until ``release()``."""
        if self._in_use < self.capacity:
            self._grant(wake)
        else:
            self._waiters.append(wake)

    def _grant(self, waiter) -> None:
        sim = self.sim
        if self._in_use == 0:
            self._busy_since = sim.now
        self._in_use += 1
        t = type(waiter)
        if t is Timeout:
            # A hold: its end-wake is allocated at the grant instant.
            waiter._triggered = True
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (sim.now + waiter.delay, NORMAL, seq, waiter))
        elif t is tuple:
            # hold_wake: the same push, with the caller's marker.
            duration, wake = waiter
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (sim.now + duration, NORMAL, seq, wake))
        elif t is Wake:
            waiter.fn(waiter)
        else:
            waiter.succeed(self)

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self._busy_ns += self.sim.now - self._busy_since
            self._busy_since = None
        while self._waiters and self._in_use < self.capacity:
            self._grant(self._waiters.popleft())

    def cancel(self, grant: Event) -> None:
        """Withdraw a not-yet-granted acquire or hold request."""
        try:
            self._waiters.remove(grant)
        except ValueError:
            return
        # Tombstone the abandoned grant so its waiter closures are freed
        # immediately (see Event.cancel) instead of leaking until GC.
        grant.cancel()

    def busy_time(self) -> float:
        """Total ns during which at least one slot was held."""
        extra = self.sim.now - self._busy_since if self._busy_since is not None else 0.0
        return self._busy_ns + extra

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the resource was busy."""
        return self.busy_time() / self.sim.now if self.sim.now > 0 else 0.0


class Store:
    """FIFO store of items with optional capacity bound.

    ``get()`` returns an event whose value is the item; ``put(item)`` returns
    an event that fires once the item is accepted (immediately unless the
    store is full).
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"), name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        ev = self.sim.event()
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            ev.succeed(None)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def put_nowait(self, item: Any) -> None:
        """:meth:`put` for a producer that never waits on acceptance.

        The acceptance event nobody would listen to is not scheduled; its
        sequence number is consumed all the same, so every event that
        does fire keeps the key it has under :meth:`put`.  A full store
        still queues the item behind a real put event.
        """
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
        elif len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self.put(item)
            return
        self.sim._seq += 1

    def get(self) -> Event:
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
            if self._putters:
                put_ev, item = self._putters.popleft()
                self._items.append(item)
                put_ev.succeed(None)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: pop and return an item, or ``None`` if empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        if self._putters:
            put_ev, pending = self._putters.popleft()
            self._items.append(pending)
            put_ev.succeed(None)
        return item

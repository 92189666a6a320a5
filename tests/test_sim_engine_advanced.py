"""Advanced DES engine tests: interrupts under resource holds, condition
failure propagation, nested processes, run() edge cases, detached
processes, the callback lane, and observer-free CQ deposits."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    Resource,
    SimulationError,
    Simulator,
    Store,
    Wake,
)
from repro.verbs.cq import CompletionQueue


def test_interrupt_while_waiting_on_resource_releases_nothing():
    """An interrupted waiter never held the resource; the holder's
    release must not grant to the ghost."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    got = []

    def holder():
        yield res.acquire()
        yield sim.timeout(100)
        res.release()

    def waiter():
        grant = res.acquire()
        try:
            yield grant
            got.append("granted")
            res.release()
        except Interrupt:
            res.cancel(grant)
            got.append("interrupted")

    def late_waiter():
        yield sim.timeout(50)
        yield res.acquire()
        got.append("late-granted")
        res.release()

    sim.process(holder())
    w = sim.process(waiter())
    sim.process(late_waiter())

    def interrupter():
        yield sim.timeout(10)
        w.interrupt()

    sim.process(interrupter())
    sim.run()
    assert got == ["interrupted", "late-granted"]
    assert res.in_use == 0


def test_allof_fails_fast_on_child_failure():
    sim = Simulator()
    bad = sim.event()
    slow = sim.timeout(1000)
    caught = []

    def waiter():
        try:
            yield AllOf(sim, [bad, slow])
        except RuntimeError as exc:
            caught.append((str(exc), sim.now))

    sim.process(waiter())
    bad.fail(RuntimeError("child died"))
    sim.run()
    assert caught == [("child died", 0)]


def test_anyof_failure_propagates():
    sim = Simulator()
    bad = sim.event()

    def waiter():
        yield AnyOf(sim, [bad, sim.timeout(100)])

    p = sim.process(waiter())
    bad.fail(ValueError("nope"))
    with pytest.raises(ValueError):
        sim.run(until=p)


def test_nested_process_three_levels():
    sim = Simulator()

    def leaf():
        yield sim.timeout(5)
        return "leaf"

    def middle():
        v = yield sim.process(leaf())
        yield sim.timeout(5)
        return v + "+middle"

    def root():
        v = yield sim.process(middle())
        return v + "+root"

    assert sim.run(until=sim.process(root())) == "leaf+middle+root"
    assert sim.now == 10


def test_process_interrupt_cause_roundtrip():
    sim = Simulator()
    seen = []

    def victim():
        try:
            yield sim.timeout(100)
        except Interrupt as i:
            seen.append(i.cause)

    p = sim.process(victim())

    def attacker():
        yield sim.timeout(1)
        p.interrupt({"reason": "test", "code": 7})

    sim.process(attacker())
    sim.run()
    assert seen == [{"reason": "test", "code": 7}]


def test_run_until_event_already_fired():
    sim = Simulator()
    t = sim.timeout(10, value="done")
    sim.run()           # processes the timeout
    assert sim.run(until=t) == "done"   # already processed: returns at once


def test_store_interleaved_producers_consumers_conserve_items():
    sim = Simulator()
    store = Store(sim, capacity=3)
    produced, consumed = [], []

    def producer(base, n, gap):
        for i in range(n):
            item = base + i
            yield store.put(item)
            produced.append(item)
            yield sim.timeout(gap)

    def consumer(n, gap):
        for _ in range(n):
            consumed.append((yield store.get()))
            yield sim.timeout(gap)

    sim.process(producer(0, 10, 3))
    sim.process(producer(100, 10, 7))
    sim.process(consumer(12, 5))
    sim.process(consumer(8, 11))
    sim.run()
    assert sorted(consumed) == sorted(produced)
    assert len(consumed) == 20
    assert len(store) == 0


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_resource_cancel_then_release_does_not_double_grant():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    g1 = res.acquire()
    g2 = res.acquire()
    g3 = res.acquire()
    res.cancel(g2)
    res.release()           # g1's slot; grants to g3, not the cancelled g2
    sim.run()
    assert g3.triggered and not g2.triggered
    assert res.in_use == 1


# ------------------------------------------------ detached processes
def test_spawn_returns_no_handle_and_schedules_no_end_event():
    sim = Simulator()
    seen = []

    def child():
        yield 2.0
        seen.append(sim.now)
        return "ignored"

    assert sim.spawn(child(), name="child") is None
    sim.run()
    assert seen == [2.0]
    # Boot + one sleep; the end event is elided but its seq is consumed.
    assert sim.events_processed == 2
    assert sim._seq == 3


def test_crash_in_detached_process_surfaces_from_run():
    sim = Simulator()

    def boom():
        yield 1.0
        raise KeyError("lost wr")

    sim.spawn(boom(), name="boom")
    with pytest.raises(SimulationError, match="boom") as info:
        sim.run()
    assert isinstance(info.value.__cause__, KeyError)


def test_crash_in_detached_process_stops_run_until_event():
    sim = Simulator()

    def boom():
        yield 1.0
        raise RuntimeError("bad cost")

    def waiter():
        yield 10.0

    sim.spawn(boom(), name="boom")
    with pytest.raises(SimulationError, match="boom"):
        sim.run(until=sim.process(waiter()))
    assert sim.now == 1.0


# ----------------------------------------------------- the callback lane
def test_wake_at_ties_dispatch_in_allocation_order():
    sim = Simulator()
    order = []

    def sleeper():
        yield 10.0
        order.append("sleep")

    sim.timeout(10.0).add_callback(lambda _e: order.append("timeout1"))
    sim.wake_at(10.0, Wake(lambda w: order.append(w.arg), "wake"))
    sim.process(sleeper())  # its sleep is allocated at boot, later
    sim.timeout(10.0).add_callback(lambda _e: order.append("timeout2"))
    sim.run()
    assert order == ["timeout1", "wake", "timeout2", "sleep"]
    assert sim.now == 10.0


def test_wake_marker_is_reusable_after_dispatch():
    sim = Simulator()
    hits = []

    def fn(wake):
        hits.append(sim.now)
        if len(hits) < 3:
            sim.wake_at(sim.now + wake.arg, wake)

    sim.wake_at(1.0, Wake(fn, 2.5))
    sim.run()
    assert hits == [1.0, 3.5, 6.0]
    assert sim.events_processed == 3


def test_wake_at_clamps_float_dust_to_now():
    sim = Simulator()
    sim.run(until=5.0)
    hits = []
    sim.wake_at(5.0 - 1e-9, Wake(lambda _w: hits.append(sim.now)))
    assert sim.peek() == 5.0
    sim.run()
    assert hits == [5.0]
    assert sim.now == 5.0


def test_wake_works_with_step_and_peek():
    sim = Simulator()
    hits = []
    sim.wake_at(4.0, Wake(lambda w: hits.append((sim.now, w.arg)), "x"))
    sim.timeout(7.0)
    assert sim.peek() == 4.0
    sim.step()
    assert hits == [(4.0, "x")]
    assert sim.now == 4.0
    assert sim.peek() == 7.0
    sim.step()
    assert sim.now == 7.0
    assert sim.peek() == float("inf")


# ------------------------------------------------ observer-free deposits
def test_cq_push_hands_cqe_to_a_blocked_waiter():
    sim = Simulator()
    cq = CompletionQueue(sim)
    got = []

    def reaper():
        cqe = yield cq.wait()
        got.append((sim.now, cqe))

    def hardware():
        yield 3.0
        for c in ("c1", "c2", "c3"):
            cq.push(c)

    sim.process(reaper())
    sim.process(hardware())
    sim.run()
    assert got == [(3.0, "c1")]
    assert [cq.poll(), cq.poll(), cq.poll()] == ["c2", "c3", None]
    assert (cq.produced, cq.consumed) == (3, 3)
    assert len(cq) == 0


@pytest.mark.parametrize("blocked", [False, True])
def test_put_nowait_keeps_every_surviving_key(blocked):
    """``Store.put_nowait`` dispatches the ``put`` timeline minus the
    acceptance events, with every other key unchanged."""
    def model(nowait):
        sim = Simulator()
        rec = []
        sim.trace_dispatch = lambda w, p, s: rec.append((w, p, s))
        store = Store(sim)
        got = []

        def getter():
            got.append((yield store.get()))

        def producer():
            yield 1.0
            for item in ("a", "b"):
                if nowait:
                    store.put_nowait(item)
                else:
                    store.put(item)
            yield 2.0

        if blocked:
            sim.process(getter())
        sim.process(producer())
        sim.run()
        return rec, got, list(store.items)

    full, got, items = model(False)
    lean, got2, items2 = model(True)
    assert (got, items) == (got2, items2)
    dropped = [k for k in full if k not in lean]
    assert len(dropped) == 2            # one acceptance event per item
    assert [k for k in full if k in lean] == lean


def test_put_nowait_on_a_full_store_still_queues():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.put_nowait("a")
    store.put_nowait("b")               # full: waits behind a put event
    assert store.items == ("a",)
    assert store.try_get() == "a"
    assert store.items == ("b",)

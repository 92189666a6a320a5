"""Unit tests for Resource and Store."""

import pytest

from repro.sim import (
    Interrupt, Resource, SimulationError, Simulator, Store, Wake)


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    g1, g2 = res.acquire(), res.acquire()
    g3 = res.acquire()
    sim.run()
    assert g1.triggered and g2.triggered
    assert not g3.triggered
    assert res.in_use == 2
    assert res.queue_len == 1


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag, hold):
        grant = res.acquire()
        yield grant
        order.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release()

    for i, hold in enumerate([10, 10, 10]):
        sim.process(worker(i, hold))
    sim.run()
    assert order == [(0, 0), (1, 10), (2, 20)]


def test_resource_release_idle_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_cancel_pending_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    g1 = res.acquire()
    g2 = res.acquire()
    res.cancel(g2)
    res.release()
    sim.run()
    assert g1.triggered
    assert not g2.triggered
    assert res.in_use == 0


def test_resource_busy_time_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        yield res.acquire()
        yield sim.timeout(30)
        res.release()
        yield sim.timeout(70)

    sim.process(worker())
    sim.run()
    assert sim.now == 100
    assert res.busy_time() == pytest.approx(30)
    assert res.utilization() == pytest.approx(0.3)


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)

    def proc():
        yield store.put("x")
        item = yield store.get()
        return item

    p = sim.process(proc())
    assert sim.run(until=p) == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter():
        item = yield store.get()
        got.append((item, sim.now))

    def putter():
        yield sim.timeout(40)
        yield store.put("late")

    sim.process(getter())
    sim.process(putter())
    sim.run()
    assert got == [("late", 40)]


def test_store_fifo_item_order():
    sim = Simulator()
    store = Store(sim)
    for i in range(5):
        store.put(i)
    out = []

    def drain():
        for _ in range(5):
            out.append((yield store.get()))

    sim.process(drain())
    sim.run()
    assert out == [0, 1, 2, 3, 4]


def test_store_capacity_blocks_putters():
    sim = Simulator()
    store = Store(sim, capacity=1)
    timeline = []

    def producer():
        yield store.put("a")
        timeline.append(("a-accepted", sim.now))
        yield store.put("b")
        timeline.append(("b-accepted", sim.now))

    def consumer():
        yield sim.timeout(25)
        item = yield store.get()
        timeline.append((f"got-{item}", sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert timeline == [("a-accepted", 0), ("got-a", 25), ("b-accepted", 25)]
    assert store.items == ("b",)


def test_store_try_get_nonblocking():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put("v")
    assert store.try_get() == "v"
    assert store.try_get() is None


def test_store_handoff_to_waiting_getter():
    """A put with a parked getter bypasses the buffer entirely."""
    sim = Simulator()
    store = Store(sim, capacity=1)
    got = []

    def getter():
        got.append((yield store.get()))

    sim.process(getter())
    sim.run()
    store.put("direct")
    sim.run()
    assert got == ["direct"]
    assert len(store) == 0


# ------------------------------------------------------------ fused holds

@pytest.mark.parametrize("capacity", [1, 2])
def test_hold_and_acquire_waiters_share_one_fifo(capacity):
    """Mixed acquire()/hold() requests are granted in arrival order."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    granted = []

    def acquirer(tag, service):
        yield res.acquire()
        granted.append((tag, sim.now))
        yield service
        res.release()

    def holder(tag, service):
        yield res.hold(service)
        # A hold wakes only at its end: its grant was one service earlier.
        granted.append((tag, sim.now - service))

    sim.process(acquirer("a0", 10.0))
    sim.process(holder("h1", 10.0))
    sim.process(acquirer("a2", 10.0))
    sim.process(holder("h3", 10.0))
    sim.process(acquirer("a4", 10.0))
    sim.run()
    starts = dict(granted)
    order = sorted(starts, key=lambda tag: (starts[tag], tag[1]))
    assert order == ["a0", "h1", "a2", "h3", "a4"]
    # Capacity c serves c requests per 10 ns wave.
    assert [starts[t] for t in order] == [
        10.0 * (i // capacity) for i in range(5)]
    assert res.in_use == 0 and res.queue_len == 0


def test_hold_value_and_end_callback_run_after_release():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    seen = []

    def on_end(ev):
        seen.append(("end", sim.now, res.in_use, ev.value))

    def proc():
        value = yield res.hold(25.0, value="v", on_end=on_end)
        seen.append(("resumed", sim.now, value))

    sim.process(proc())
    sim.run()
    assert seen == [("end", 25.0, 0, "v"), ("resumed", 25.0, "v")]


def test_hold_grants_the_next_waiter_before_its_end_callback():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []
    first = res.hold(5.0, on_end=lambda ev: log.append(
        ("end", res.in_use, res.queue_len)))
    res.hold(5.0)
    assert (res.in_use, res.queue_len) == (1, 1)
    sim.run(until=first)
    assert log == [("end", 1, 0)]
    sim.run()
    assert sim.now == 10.0 and res.in_use == 0


def test_hold_busy_time_matches_acquire_sleep_release():
    def run(fused):
        sim = Simulator()
        res = Resource(sim, capacity=2)

        def worker(start, service):
            yield start
            if fused:
                yield res.hold(service)
            else:
                yield res.acquire()
                yield service
                res.release()

        for start, service in [(0.0, 30.0), (5.0, 10.0), (10.0, 40.0),
                               (70.0, 5.0), (90.0, 0.0)]:
            sim.process(worker(start, service))
        sim.run(until=100.0)
        return res.busy_time(), res.utilization(), sim.events_processed

    (busy_a, util_a, ev_a) = run(fused=False)
    (busy_h, util_h, ev_h) = run(fused=True)
    assert busy_h == busy_a == pytest.approx(60.0)
    assert util_h == util_a == pytest.approx(0.6)
    assert ev_h < ev_a  # one event per hold instead of grant + sleep


def test_queued_hold_counts_in_queue_len_and_can_be_cancelled():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.hold(10.0)
    queued = res.hold(10.0)
    waiter = res.acquire()
    assert res.queue_len == 2
    res.cancel(queued)
    assert res.queue_len == 1
    assert queued.cancelled
    sim.run()
    assert first.processed and not queued.processed
    # The withdrawn hold never held the slot: the acquire got it at 10.
    assert waiter.processed and sim.now == 10.0
    assert res.in_use == 1
    res.release()
    assert res.busy_time() == pytest.approx(10.0)


def test_cancel_of_a_granted_hold_is_a_no_op():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    ev = res.hold(10.0)
    res.cancel(ev)
    sim.run()
    assert ev.processed and res.in_use == 0


@pytest.mark.parametrize("queued", [False, True])
def test_interrupting_a_hold_waiter_does_not_leak_the_slot(queued):
    sim = Simulator()
    res = Resource(sim, capacity=1)
    if queued:
        res.hold(10.0)
    caught = []

    def victim():
        try:
            yield res.hold(20.0)
        except Interrupt:
            caught.append(sim.now)

    def interrupter(proc):
        yield 1.0
        proc.interrupt()

    v = sim.process(victim())
    sim.process(interrupter(v))
    sim.run()
    assert caught == [1.0]
    # The hold ran to its end and released the slot.
    assert res.in_use == 0 and res.queue_len == 0
    assert sim.now == (30.0 if queued else 20.0)
    later = res.acquire()
    sim.run()
    assert later.processed


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_hold_rejects_bad_durations_at_the_call(bad):
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(ValueError):
        res.hold(bad)
    assert res.in_use == 0 and res.queue_len == 0
    assert not sim._heap


# ------------------------------------------------- callback-lane bookings

def _releasing_wake(res, log, tag):
    """A hold_wake end marker: release first, as a hold's end does."""
    def end(wake):
        res.release()
        log.append((tag, res.sim.now))
    return Wake(end)


@pytest.mark.parametrize("wake_first", [False, True])
def test_hold_wake_and_hold_share_one_fifo(wake_first):
    """Stepped holds and callback-lane holds queue in one FIFO, in
    arrival order, whichever kind arrives first."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []
    kinds = ["wake", "hold"] * 2 if wake_first else ["hold", "wake"] * 2
    for i, kind in enumerate(kinds):
        tag = f"{kind}{i}"
        if kind == "wake":
            res.hold_wake(10.0, _releasing_wake(res, log, tag))
        else:
            res.hold(10.0, on_end=lambda ev, tag=tag: log.append(
                (tag, sim.now)))
    assert res.in_use == 1 and res.queue_len == 3
    sim.run()
    assert log == [(f"{k}{i}", 10.0 * (i + 1)) for i, k in enumerate(kinds)]
    assert res.in_use == 0 and res.queue_len == 0


@pytest.mark.parametrize("queued", [False, True])
def test_hold_wake_end_seq_is_allocated_at_the_grant(queued):
    """A tie at the hold's end instant breaks by allocation order, and a
    queued hold_wake allocates its end-wake at the releaser's dispatch
    -- after a Timeout made at the call -- exactly as a queued hold."""
    def run(lane):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []
        if queued:
            res.hold(10.0)
        dur = 5.0 if queued else 15.0
        if lane == "wake":
            res.hold_wake(dur, _releasing_wake(res, log, "end"))
        else:
            res.hold(dur, on_end=lambda ev: log.append(("end", sim.now)))
        sim.timeout(15.0).callbacks.append(
            lambda ev: log.append(("timeout", sim.now)))
        sim.run()
        return log

    expected = ([("timeout", 15.0), ("end", 15.0)] if queued
                else [("end", 15.0), ("timeout", 15.0)])
    assert run("wake") == run("hold") == expected


def test_request_is_granted_inline_when_free_and_inside_release():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []
    res.request(Wake(lambda w: log.append(("first", res.in_use))))
    assert log == [("first", 1)]  # granted inside the call
    res.request(Wake(lambda w: log.append(("second", res.in_use))))
    assert res.queue_len == 1 and len(log) == 1
    seq = sim._seq
    res.release()
    assert log == [("first", 1), ("second", 1)]  # inside release()
    assert sim._seq == seq and not sim._heap  # and without an event
    assert res.in_use == 1 and res.queue_len == 0


def test_request_queued_behind_a_hold_runs_at_its_end_dispatch():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []
    res.hold(10.0, on_end=lambda ev: log.append(("hold-end", sim.now)))
    res.request(Wake(lambda w: log.append(("granted", sim.now))))
    sim.run()
    # The release inside the hold's end grants the request before the
    # hold's own end callback runs; the grant costs no event.
    assert log == [("granted", 10.0), ("hold-end", 10.0)]
    assert sim.events_processed == 1
    assert res.in_use == 1


def test_utilization_counts_callback_lane_holds():
    """hold_wake and request/release keep the same busy-time account as
    the stepped hold and acquire/release they stand in for."""
    def run(lane):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        log = []

        def start(service):
            if lane == "wake":
                return Wake(lambda w: res.hold_wake(
                    service, _releasing_wake(res, log, "end")))
            return Wake(lambda w: res.hold(service))

        for at, service in [(0.0, 30.0), (5.0, 10.0), (10.0, 40.0),
                            (70.0, 5.0), (90.0, 0.0)]:
            sim.wake_at(at, start(service))
        if lane == "wake":
            sim.wake_at(80.0, Wake(lambda w: res.request(Wake(
                lambda g: sim.wake_at(85.0, Wake(
                    lambda e: res.release()))))))
        else:
            def acquirer():
                yield 80.0
                yield res.acquire()
                yield 5.0
                res.release()
            sim.process(acquirer())
        sim.run(until=100.0)
        return res.busy_time(), res.utilization()

    assert run("wake") == run("hold") == (
        pytest.approx(65.0), pytest.approx(0.65))


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_hold_wake_rejects_bad_durations_at_the_call(bad):
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(ValueError):
        res.hold_wake(bad, Wake(lambda w: None))
    assert res.in_use == 0 and res.queue_len == 0
    assert not sim._heap

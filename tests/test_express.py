"""Express-lane equivalence (docs/PERFORMANCE.md, "Express lane").

The closed-form WR timeline must be *bit-identical* to the stepped
generator: same completion timestamps, same returned values, same
payload bytes in both memory regions, same final clock, same traced
stage records — while dispatching strictly fewer events.  Watching
never picks the lane: a tracer or a sanitizer, attached up front or
mid-run, leaves posts on it.  And when both lanes are live in one run
-- after a mid-run fault injector (which poisons the lane) or beside
SENDs (which always step) -- the outcome must still equal the
all-stepped run, bit for bit.
"""

import random

import pytest

from repro import build
from repro.check import Sanitizer
from repro.hw.faults import FaultInjector
from repro.verbs import Worker
from repro.verbs.trace import OpTracer
from repro.verbs.types import CompletionStatus, Opcode, Sge, WorkRequest

#: Transfer sizes straddling max_inline_bytes=220 so the mix exercises
#: both the inline WQE path and the separate payload-DMA path.
SIZES = (8, 32, 64, 220, 221, 256, 1024, 4096)


def _random_wr(rng: random.Random, lmr, rmr, i: int) -> WorkRequest:
    kind = rng.choice(("write", "write", "read", "read", "cas", "faa"))
    signaled = rng.random() < 0.8
    if kind in ("write", "read"):
        size = rng.choice(SIZES)
        loff = rng.randrange(0, lmr.size - size)
        roff = rng.randrange(0, rmr.size - size)
        return WorkRequest(
            opcode=Opcode.WRITE if kind == "write" else Opcode.READ,
            wr_id=i, sgl=[Sge(lmr, loff, size)], remote_mr=rmr,
            remote_offset=roff, signaled=signaled)
    # A handful of hot words so atomics contend on the word locks.
    roff = 8 * rng.randrange(8)
    if kind == "cas":
        return WorkRequest(opcode=Opcode.CAS, wr_id=i, remote_mr=rmr,
                           remote_offset=roff, compare=rng.randrange(4),
                           swap=rng.randrange(1 << 32), signaled=signaled)
    return WorkRequest(opcode=Opcode.FAA, wr_id=i, remote_mr=rmr,
                       remote_offset=roff, add=rng.randrange(1, 1000),
                       signaled=signaled)


def _row(comp) -> tuple:
    return (comp.wr_id, comp.opcode.value, comp.timestamp_ns, comp.value,
            comp.byte_len, comp.status.value)


def _run_mix(seed: int, express: bool, n_ops: int = 120, depth: int = 6,
             batch: int = 0, poison=None,
             tracer=None) -> tuple[dict, int, object]:
    """Drive a seeded random op mix, traced by ``tracer`` if given;
    returns (comparable outcome, events dispatched, the sim's express
    state or None)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_EXPRESS", "1" if express else "0")
        sim, cluster, ctx = build(machines=2)
    if tracer is not None:
        ctx.attach_tracer(tracer)
    lmr = ctx.register(0, 1 << 15)
    rmr = ctx.register(1, 1 << 15)
    lmr.write(0, bytes(range(256)) * (lmr.size // 256))
    qps = [ctx.create_qp(0, 1), ctx.create_qp(0, 1)]
    w = Worker(ctx, 0)
    rng = random.Random(seed)
    log: list[tuple] = []

    def client():
        inflight = []
        i = 0
        while i < n_ops:
            if poison is not None and i == n_ops // 2:
                poison(sim, ctx)
            qp = qps[rng.randrange(2)]
            if batch and rng.random() < 0.5:
                wrs = [_random_wr(rng, lmr, rmr, i + k)
                       for k in range(batch)]
                i += batch
                events = yield from w.post_batch(qp, wrs)
                inflight.extend(events)
            else:
                wr = _random_wr(rng, lmr, rmr, i)
                i += 1
                ev = yield from w.post(qp, wr)
                inflight.append(ev)
            while len(inflight) >= depth:
                comp = yield from w.wait(inflight.pop(0))
                log.append(_row(comp))
        for ev in inflight:
            comp = yield from w.wait(ev)
            log.append(_row(comp))

    p = sim.process(client())
    sim.run(until=p)
    outcome = {
        "log": log,
        "rmem": rmr.read(0, rmr.size),
        "lmem": lmr.read(0, lmr.size),
        "now": sim.now,
    }
    return outcome, sim.events_processed, sim.express


# ------------------------------------------------------ the property test
@pytest.mark.parametrize("seed", range(6))
def test_express_equals_stepped_random_mix(seed):
    stepped, ev_stepped, exp = _run_mix(seed, express=False)
    assert exp is None  # REPRO_EXPRESS=0 never attaches the lane
    express, ev_express, exp = _run_mix(seed, express=True)
    assert exp is not None and exp.on  # the lane engaged and stayed sunny
    assert express == stepped
    assert ev_express < ev_stepped  # fewer events is the lane's point


@pytest.mark.parametrize("seed", range(3))
def test_express_equals_stepped_batched_mix(seed):
    """Doorbell-batched posts ride the lane too (shared WQE fetch, mates
    chained off the lead) and must stay bit-identical."""
    stepped, ev_stepped, _ = _run_mix(seed, express=False, batch=4)
    express, ev_express, exp = _run_mix(seed, express=True, batch=4)
    assert exp is not None and exp.on
    assert express == stepped
    assert ev_express < ev_stepped


@pytest.mark.parametrize("seed,batch", [(0, 0), (1, 0), (2, 4), (3, 4)])
def test_traced_records_equal_across_lanes(seed, batch):
    """A traced run takes the lane: its OpRecords match the stepped
    run's stage for stage (doorbell batches included), and it dispatches
    exactly the events of the same run untraced."""
    runs, tracers = {}, {}
    for express in (False, True):
        tracers[express] = OpTracer()
        runs[express] = _run_mix(seed, express, batch=batch,
                                 tracer=tracers[express])
    (stepped, _, _), (traced, ev_traced, exp) = runs[False], runs[True]
    assert traced == stepped
    records = tracers[True].records
    assert len(records) == len(traced["log"])
    assert records == tracers[False].records
    assert {s for r in records for s in r.stages} == {
        "wqe_fetch", "exec", "network", "responder", "response_net",
        "delivery"}
    untraced, ev_untraced, _ = _run_mix(seed, express=True, batch=batch)
    assert untraced == traced
    assert ev_traced == ev_untraced
    assert exp.on


# ------------------------------------------------ mid-run hooks and poisoning
def _spy_posts(mp) -> list:
    """Record ``(qp, wrs, qp.tracer)`` at every post that takes the
    express lane."""
    from repro.verbs.express import ExpressState
    posts: list = []
    orig_post, orig_batch = ExpressState.post, ExpressState.post_batch

    def post(self, qp, wr, *a):
        posts.append((qp, [wr], qp.tracer))
        return orig_post(self, qp, wr, *a)

    def post_batch(self, qp, wrs, *a):
        posts.append((qp, list(wrs), qp.tracer))
        return orig_batch(self, qp, wrs, *a)

    mp.setattr(ExpressState, "post", post)
    mp.setattr(ExpressState, "post_batch", post_batch)
    return posts


def _check_mid_run_hook(hook, poisoned, seed=3):
    """Call ``hook(sim, ctx)`` mid-run under both lanes.

    The express run must equal the ``REPRO_EXPRESS=0`` run with the same
    hook, bit for bit: ops in flight on the lane and stepped ops posted
    after the hook share every unit and word lock.  Returns the express
    posts and how many of them preceded the hook.
    """
    stepped, _, _ = _run_mix(seed, express=False, poison=hook)
    at = {}

    def spy(sim, ctx):
        at["n"] = len(posts)
        hook(sim, ctx)

    with pytest.MonkeyPatch.context() as mp:
        posts = _spy_posts(mp)
        outcome, _, exp = _run_mix(seed, express=True, poison=spy)
    assert exp.poisoned == poisoned
    assert exp.on == (poisoned is None)
    assert 0 < at["n"] < 120
    # Every op completed successfully, in posting order per the reap loop.
    log = outcome["log"]
    assert len(log) == 120
    assert sorted(r[0] for r in log) == list(range(120))
    assert {r[5] for r in log} == {CompletionStatus.SUCCESS.value}
    for wr_id, opcode, ts, value, blen, status in log:
        if opcode in (Opcode.CAS.value, Opcode.FAA.value):
            assert blen == 8 and value is not None
        else:
            assert value is None
    assert outcome == stepped
    return posts, at["n"]


def test_fault_injector_mid_run_flips_to_stepped():
    for seed in (3, 4):
        posts, n_before = _check_mid_run_hook(
            lambda sim, ctx: FaultInjector(sim), "fault-injector", seed)
        # The lane ran before the poison and never after it.
        assert n_before == len(posts)


def test_tracer_mid_run_keeps_the_lane():
    """Attaching a tracer mid-run neither poisons nor bypasses the lane:
    later posts ride it traced, and the records equal the stepped run's
    (ops in flight at the attach stay untraced on both lanes)."""
    for seed in (3, 4):
        tracers = []

        def attach(sim, ctx):
            tracers.append(OpTracer())
            ctx.attach_tracer(tracers[-1])

        posts, n_before = _check_mid_run_hook(attach, None, seed)
        assert n_before < len(posts)
        assert all(tracer is None for _, _, tracer in posts[:n_before])
        assert all(tracer is not None for _, _, tracer in posts[n_before:])
        stepped, express = tracers
        assert express.records and express.records == stepped.records


@pytest.mark.parametrize("seed", (3, 4))
def test_send_mid_run_steps_without_poisoning(seed):
    """A SEND takes the stepped lane and leaves the lane on for later
    one-sided posts."""
    def send(sim, ctx):
        lmr = ctx.regions[0]
        ctx.qps[0].post_send(WorkRequest(
            opcode=Opcode.SEND, wr_id=10_000, sgl=[Sge(lmr, 0, 64)],
            payload=b"hello", payload_bytes=64))

    posts, _ = _check_mid_run_hook(send, None, seed)
    assert all(wr.opcode is not Opcode.SEND
               for _, wrs, _ in posts for wr in wrs)


def test_sanitizer_mid_run_keeps_the_lane():
    """A sanitizer never picks the lane: checked posts ride it (both
    lanes fire the same post/complete/dispatch hooks), and the outcome
    and the report equal the ``REPRO_EXPRESS=0`` run's.  (A WR posted
    before the install and completed after it is reported by both
    lanes alike as a completion without a post.)"""
    installed = []

    def install(sim, ctx):
        installed.append(Sanitizer(sim))

    for seed in (5, 6):
        posts, n_before = _check_mid_run_hook(install, None, seed)
        assert n_before < len(posts)
        stepped, express = (san.finalize().render()
                            for san in installed[-2:])
        assert express == stepped


# --------------------------------------------- concurrent mixed-lane clients
def _hot_wr(rng: random.Random, lmr, rmr, i: int) -> WorkRequest:
    """Mostly same-word atomics and 8-byte writes to those words (the
    lock-release path), plus some plain READ/WRITE traffic."""
    kind = rng.choice(("faa", "cas", "write8", "read", "write"))
    roff = 8 * rng.randrange(4)
    if kind == "faa":
        return WorkRequest(opcode=Opcode.FAA, wr_id=i, remote_mr=rmr,
                           remote_offset=roff, add=rng.randrange(1, 100))
    if kind == "cas":
        return WorkRequest(opcode=Opcode.CAS, wr_id=i, remote_mr=rmr,
                           remote_offset=roff, compare=rng.randrange(4),
                           swap=rng.randrange(1 << 32))
    if kind == "write8":
        return WorkRequest(opcode=Opcode.WRITE, wr_id=i,
                           sgl=[Sge(lmr, 8 * rng.randrange(64), 8)],
                           remote_mr=rmr, remote_offset=roff)
    size = rng.choice(SIZES)
    return WorkRequest(
        opcode=Opcode.WRITE if kind == "write" else Opcode.READ, wr_id=i,
        sgl=[Sge(lmr, rng.randrange(0, lmr.size - size), size)],
        remote_mr=rmr, remote_offset=256 + rng.randrange(rmr.size - 256 - size))


def _send_wr(lmr, i: int) -> WorkRequest:
    return WorkRequest(opcode=Opcode.SEND, wr_id=i, sgl=[Sge(lmr, 0, 64)],
                       payload=b"hello", payload_bytes=64)


def _run_clients(seed: int, express: bool, n_clients: int = 4,
                 n_ops: int = 40, depth: int = 4) -> tuple[dict, object]:
    """Concurrent clients spread over both ports of both machines, all
    hammering four hot words.  The first QP is traced directly (its
    ``tracer`` set, no context-wide attach) and posts every other WR as
    a SEND: each SEND steps, and while one is in flight every post on
    its port steps too, so both lanes take turns on the hot words."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_EXPRESS", "1" if express else "0")
        sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 1 << 14)
    rmr = ctx.register(1, 1 << 14)
    lmr.write(0, bytes(range(256)) * (lmr.size // 256))
    rng = random.Random(seed)
    log: list[tuple] = []
    procs = []
    for c in range(n_clients):
        port = c % 2
        qp = ctx.create_qp(0, 1, local_port=port, remote_port=port)
        if c == 0:
            qp.tracer = tracer = OpTracer()
        w = Worker(ctx, 0, socket=port)
        wrs = [_send_wr(lmr, c * n_ops + i) if c == 0 and i % 2
               else _hot_wr(rng, lmr, rmr, c * n_ops + i)
               for i in range(n_ops)]

        def client(qp=qp, w=w, wrs=wrs):
            inflight = []
            for wr in wrs:
                inflight.append((yield from w.post(qp, wr)))
                while len(inflight) >= depth:
                    log.append(_row((yield from w.wait(inflight.pop(0)))))
            for ev in inflight:
                log.append(_row((yield from w.wait(ev))))

        procs.append(sim.process(client()))
    sim.run(until=sim.all_of(procs))
    outcome = {"log": log, "rmem": rmr.read(0, rmr.size),
               "lmem": lmr.read(0, lmr.size), "now": sim.now,
               "records": tracer.records}
    return outcome, sim.express


@pytest.mark.parametrize("seed", range(3))
def test_traced_qp_beside_express_clients_equals_stepped(seed):
    """Both lanes live at once on both ports and on shared word locks:
    the outcome must still equal the all-stepped run, bit for bit."""
    stepped, _ = _run_clients(seed, express=False)
    with pytest.MonkeyPatch.context() as mp:
        posts = _spy_posts(mp)
        express, exp = _run_clients(seed, express=True)
    assert exp.on and exp.poisoned is None
    assert any(tracer is None for _, _, tracer in posts)
    assert any(tracer is not None for _, _, tracer in posts)
    assert all(wr.opcode is not Opcode.SEND
               for _, wrs, _ in posts for wr in wrs)
    assert len(express["log"]) == 4 * 40
    assert len(express["records"]) == 40
    assert express == stepped


def _run_back_to_back(seed: int, express: bool, n_rounds: int = 20) -> dict:
    """One process posts a SEND on one QP and then a one-sided WR on
    another QP of the same port in a single dispatch, round after
    round."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_EXPRESS", "1" if express else "0")
        sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 1 << 14)
    rmr = ctx.register(1, 1 << 14)
    rng = random.Random(seed)
    sender = ctx.create_qp(0, 1)
    plain = ctx.create_qp(0, 1)
    log: list[tuple] = []

    def client():
        for i in range(0, 2 * n_rounds, 2):
            events = [sender.post_send(_send_wr(lmr, i)),
                      plain.post_send(_hot_wr(rng, lmr, rmr, i + 1))]
            for ev in events:
                log.append(_row((yield ev)))
            yield rng.choice((0.0, 100.0, 1000.0))

    sim.run(until=sim.process(client()))
    return {"log": log, "rmem": rmr.read(0, rmr.size),
            "lmem": lmr.read(0, lmr.size), "now": sim.now}


@pytest.mark.parametrize("seed", range(2))
def test_express_post_never_overtakes_an_unbooted_stepped_wr(seed):
    """A stepped WR books its first unit at its process boot, after the
    dispatch that posted it; an express post later in that dispatch
    must not take the unit first.  ``RnicPort._stepped`` keeps such a
    post off the lane."""
    assert (_run_back_to_back(seed, express=True)
            == _run_back_to_back(seed, express=False))

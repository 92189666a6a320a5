"""The benchmark's three workloads: seeded inputs, set-up, timed drive, checks.

Each workload is one simulation per *segment*.  :meth:`setup` builds the
rig (``repro.build``, MRs, QPs, table preload) and runs a warm-up phase
in the same simulation; :meth:`drive` runs the timed phase; :meth:`finish`
reads the layers' public counters, checks the simulated outputs, and
returns a :class:`Segment`.  Inputs depend only on the seed, so every
segment of one run simulates the same inputs.

The drivers here are the benchmark's own clients.  They reap CQEs from
the CQs of the QPs they own, as a real client does; the front door's
pooled QPs are left as the program leaves them.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro import build
from repro.apps.hashtable.backend import HashTableBackend
from repro.apps.hashtable.layout import VALUE_BYTES, TableLayout
from repro.hw import HardwareParams
from repro.hw.params import ServiceConfig, TenantSpec
from repro.load import (InvalidationDirectory, KvFrontDoor, LeaseCache,
                        OpenLoopGenerator, drain_open_loop, preload_table,
                        sticky_owner_key)
from repro.sim.rng import spawn_rngs
from repro.tenancy import ServicePlane
from repro.verbs import (CompletionStatus, Opcode, QPState, Sge, Worker,
                         WorkRequest)
from repro.workloads import ZipfGenerator, make_arrivals

__all__ = ["WORKLOADS", "Segment"]

SUCCESS = CompletionStatus.SUCCESS


@dataclass
class Segment:
    """What one segment measured.  Everything but the two wall times is
    simulated, hence a pure function of the seed."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    #: Ops completed, whatever their outcome, in the timed phase.  Every
    #: op attempted completes, so this is also the attempted count.
    ops: int = 0
    #: Ops that did not succeed: errors, flushes, sheds, exhausted retries.
    not_ok: int = 0
    #: The part of ``not_ok`` that is an error (everything but sheds).
    errors: int = 0
    #: Simulated span of the timed phase, ns.
    sim_ns: float = 0.0
    #: Simulated latency samples of the timed phase, ns.
    lat_ns: list = field(default_factory=list)
    #: Engine events dispatched and cancelled in the timed phase.
    events: int = 0
    cancelled: int = 0
    #: Layer counters over the timed phase (see ``Workload.counters``).
    counters: dict = field(default_factory=dict)
    #: SHA-256 over every simulated outcome of the segment.
    digest: str = ""
    #: Failed output or validity checks, one message each.
    problems: list = field(default_factory=list)


class Workload:
    """Shared rig plumbing: counters, express-post counting, QP checks."""

    name = ""
    #: True when every post should take the express lane.
    express_expected = True

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.express_wrs = 0
        self.problems: list[str] = []

    # -- hooks the runner calls ------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def drive(self) -> None:
        raise NotImplementedError

    def finish(self) -> Segment:
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------------
    def _build(self, **kwargs) -> None:
        self.sim, self.cluster, self.ctx = build(**kwargs)
        self._count_express_posts()

    def _count_express_posts(self) -> None:
        """Count WRs booked on the express lane by wrapping the lane's
        two entry points on this simulator's instance."""
        exp = self.sim.express
        if exp is None:
            return
        post, post_batch = exp.post, exp.post_batch

        def counted_post(qp, wr, done, prev):
            self.express_wrs += 1
            return post(qp, wr, done, prev)

        def counted_post_batch(qp, wrs, events, prev):
            self.express_wrs += len(wrs)
            return post_batch(qp, wrs, events, prev)

        exp.post = counted_post
        exp.post_batch = counted_post_batch

    def _note(self, line: str) -> None:
        self._hash.update(line.encode())

    def counters(self) -> dict:
        """Public layer counters, summed over the rig."""
        sim, ctx, cluster = self.sim, self.ctx, self.cluster
        qps = ctx.qps
        ports = [port for m in cluster.machines for port in m.rnic.ports]
        links = cluster.fabric.all_links()
        c = {
            "events": sim.events_processed,
            "cancelled": sim.events_cancelled,
            "posted": sum(qp.posted for qp in qps),
            "express_wrs": self.express_wrs,
            "retransmissions": sum(qp.retransmissions for qp in qps),
            "xlt_hits": sum(m.rnic.translation_cache.hits
                            for m in cluster.machines),
            "xlt_misses": sum(m.rnic.translation_cache.misses
                              for m in cluster.machines),
            "pcie_dma": sum(port.pcie.dma_count for port in ports),
            "link_drops": sum(link.packets_dropped for link in links),
            "ecn_marks": sum(link.ecn_marks for link in links),
            "plane_admitted": 0, "plane_rejected": 0, "plane_sheds": 0,
            "cache_hits": 0, "cache_misses": 0,
        }
        plane = ctx.service_plane
        if plane is not None:
            c["plane_admitted"] = sum(plane.admission.admitted.values())
            c["plane_rejected"] = sum(plane.admission.rejected.values())
            slos = plane.metrics.tenants.values()
            c["plane_sheds"] = sum(s.rejected for s in slos)
            c["cache_hits"] = sum(s.cache_hits for s in slos)
            c["cache_misses"] = sum(s.cache_misses for s in slos)
        return c

    def _timed_start(self) -> None:
        self._c0 = self.counters()
        self._t0_ns = self.sim.now

    def _segment(self, ops: int, not_ok: int, errors: int,
                 lat_ns: list) -> Segment:
        c1 = self.counters()
        delta = {k: c1[k] - self._c0[k] for k in c1}
        self._check_express()
        self._check_qps()
        self._note(f"end {self.sim.now!r}\n")
        return Segment(ops=ops, not_ok=not_ok, errors=errors,
                       sim_ns=self.sim.now - self._t0_ns,
                       lat_ns=lat_ns, events=delta["events"],
                       cancelled=delta["cancelled"], counters=delta,
                       digest=self._hash.hexdigest(), problems=self.problems)

    def _check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(f"{self.name}: {message}")

    def _check_express(self) -> None:
        exp = self.sim.express
        if not self.express_expected:
            self._check(exp is None,
                        "the express lane attached on a queued fabric")
            return
        self._check(exp is not None and exp.poisoned is None,
                    "the express lane is missing or poisoned "
                    f"({exp.poisoned if exp is not None else 'not attached'})")
        posted = sum(qp.posted for qp in self.ctx.qps)
        self._check(self.express_wrs >= 0.99 * posted,
                    f"only {self.express_wrs} of {posted} posts took the "
                    "express lane")

    def _check_qps(self) -> None:
        for qp in self.ctx.qps:
            self._check(qp.posted == qp.completed,
                        f"QP {qp.qp_id} posted {qp.posted} WRs but completed "
                        f"{qp.completed} (flushed {qp.flushed_wrs})")


# ----------------------------------------------------------------- onesided_mix
class OnesidedMix(Workload):
    """Closed loop: 4 client QPs at depth 8 over the single switch, a
    seeded READ/WRITE/CAS/FAA mix at random offsets over 16 MB."""

    name = "onesided_mix"
    CLIENTS = 4
    DEPTH = 8
    WARMUP_POSTS = 100
    TIMED_POSTS = 1000
    REGION = 16 << 20           # 4x the 4 MB translation coverage
    SIZES = (8, 64, 128, 220, 221, 512, 1024, 4096)
    BATCH_SHARE = 0.1           # posts that ring one doorbell for 2-4 WRs
    CHECK_SHARE = 1 / 32        # READ/WRITEs that move data and are checked
    FAA_WORDS = 32              # atomics contend on 64 hot words
    CAS_WORDS = 32
    SLOT_BASE = 64 << 10        # unique 4 KB slots for checked transfers
    PATTERN_BASE = 8 << 20      # seeded bytes checked transfers copy from
    PATTERN_BYTES = 1 << 20

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        self._slots = 0
        self.plans = [
            ([self._post(rng) for _ in range(self.WARMUP_POSTS)],
             [self._post(rng) for _ in range(self.TIMED_POSTS)])
            for _ in range(self.CLIENTS)]
        self.local_pattern = rng.randbytes(self.PATTERN_BYTES)
        self.remote_pattern = rng.randbytes(self.PATTERN_BYTES)

    def _post(self, rng: random.Random) -> list:
        n = rng.randint(2, 4) if rng.random() < self.BATCH_SHARE else 1
        return [self._wr_spec(rng) for _ in range(n)]

    def _wr_spec(self, rng: random.Random) -> tuple:
        """(opcode, size, local offset, remote offset, move_data, arg)."""
        u = rng.random()
        if u < 0.1:
            return (Opcode.FAA, 8, 0, 8 * rng.randrange(self.FAA_WORDS),
                    False, rng.randrange(1, 1000))
        if u < 0.2:
            word = self.FAA_WORDS + rng.randrange(self.CAS_WORDS)
            return (Opcode.CAS, 8, 0, 8 * word, False,
                    (rng.randrange(4), rng.randrange(1, 1 << 32)))
        opcode = Opcode.WRITE if u < 0.6 else Opcode.READ
        size = rng.choice(self.SIZES)
        if rng.random() < self.CHECK_SHARE:
            slot = self.SLOT_BASE + 4096 * self._slots
            self._slots += 1
            src = self.PATTERN_BASE + rng.randrange(self.PATTERN_BYTES - size)
            if opcode is Opcode.WRITE:
                return (opcode, size, src, slot, True, None)
            return (opcode, size, slot, src, True, None)
        return (opcode, size, rng.randrange(self.REGION - size),
                rng.randrange(self.REGION - size), False, None)

    def setup(self) -> None:
        self._build(machines=2)
        ctx = self.ctx
        self.lmr = ctx.register(0, self.REGION)
        self.rmr = ctx.register(1, self.REGION)
        self.lmr.write(self.PATTERN_BASE, self.local_pattern)
        self.rmr.write(self.PATTERN_BASE, self.remote_pattern)
        self.qps = [ctx.create_qp(0, 1) for _ in range(self.CLIENTS)]
        self.workers = [Worker(ctx, 0, socket=0, name=f"client{i}")
                        for i in range(self.CLIENTS)]
        self.faa_sum = [0] * self.FAA_WORDS
        self.moved: list[tuple] = []
        self.counts = [0, 0]         # completed, not successful
        self.lat_ns: list[float] = []
        self._run_phase(0)

    def drive(self) -> None:
        self._timed_start()
        self.counts = [0, 0]
        self.lat_ns = []
        self._run_phase(1)

    def _run_phase(self, phase: int) -> None:
        procs = [self.sim.process(self._client(c, plans[phase]))
                 for c, plans in enumerate(self.plans)]
        for p in procs:
            self.sim.run(until=p)

    def _client(self, cid: int, posts: list):
        sim, worker, qp = self.sim, self.workers[cid], self.qps[cid]
        lmr, rmr = self.lmr, self.rmr
        inflight: deque = deque()
        wr_id = 0
        for specs in posts:
            while len(inflight) + len(specs) > self.DEPTH:
                yield from self._reap(cid, inflight)
            wrs = []
            for opcode, size, loff, roff, move, arg in specs:
                wr_id += 1
                if opcode is Opcode.FAA:
                    wr = WorkRequest(opcode, wr_id=wr_id, remote_mr=rmr,
                                     remote_offset=roff, add=arg)
                    self.faa_sum[roff // 8] += arg
                elif opcode is Opcode.CAS:
                    wr = WorkRequest(opcode, wr_id=wr_id, remote_mr=rmr,
                                     remote_offset=roff, compare=arg[0],
                                     swap=arg[1])
                else:
                    wr = WorkRequest(opcode, wr_id=wr_id,
                                     sgl=[Sge(lmr, loff, size)],
                                     remote_mr=rmr, remote_offset=roff,
                                     move_data=move)
                    if move:
                        self.moved.append((opcode, size, loff, roff))
                wrs.append(wr)
            t_post = sim.now
            if len(wrs) == 1:
                ev = yield from worker.post(qp, wrs[0])
                inflight.append((ev, t_post))
            else:
                events = yield from worker.post_batch(qp, wrs)
                inflight.extend((ev, t_post) for ev in events)
        while inflight:
            yield from self._reap(cid, inflight)

    def _reap(self, cid: int, inflight: deque):
        ev, t_post = inflight.popleft()
        qp = self.qps[cid]
        comp = yield from self.workers[cid].wait(ev)
        cqe = qp.cq.poll()
        if cqe is not comp:
            self._check(False, f"QP {qp.qp_id} CQ returned {cqe!r}, "
                               f"expected {comp!r}")
        self.counts[0] += 1
        if comp.status is not SUCCESS:
            self.counts[1] += 1
        self.lat_ns.append(comp.timestamp_ns - t_post)
        self._note(f"{cid} {comp.wr_id} {comp.opcode.value} "
                   f"{comp.timestamp_ns!r} {comp.value} {comp.status.value}\n")

    def finish(self) -> Segment:
        lmr, rmr = self.lmr, self.rmr
        for opcode, size, loff, roff in self.moved:
            if opcode is Opcode.WRITE:
                ok = rmr.read(roff, size) == lmr.read(loff, size)
            else:
                ok = lmr.read(loff, size) == rmr.read(roff, size)
            self._check(ok, f"{opcode.value} of {size} B did not move its "
                            "bytes")
        self._check(len(self.moved) > 0, "no checked transfers ran")
        for word, total in enumerate(self.faa_sum):
            self._check(rmr.read_u64(8 * word) == total,
                        f"FAA word {word} holds {rmr.read_u64(8 * word)}, "
                        f"expected {total}")
        self._note(hashlib.sha256(
            rmr.read(0, 8 * (self.FAA_WORDS + self.CAS_WORDS))).hexdigest())
        done, not_ok = self.counts
        return self._segment(done, not_ok, not_ok, self.lat_ns)


# ------------------------------------------------------------- serving_openloop
class ServingOpenloop(Workload):
    """Open loop: Poisson arrivals just past the saturation knee, zipf 0.99
    over 4096 keys, 5% sticky-routed writes, three front doors with lease
    caches, through the service plane into the hashtable."""

    name = "serving_openloop"
    DOORS = 3
    N_KEYS = 4096
    THETA = 0.99
    WRITE_SHARE = 0.05
    RATE_MOPS = 6.0
    WARMUP_NS = 100_000.0
    TIMED_NS = 700_000.0
    TENANT = "web"
    CONFIG = ServiceConfig(
        tenants=(TenantSpec(TENANT, max_inflight=192, max_queue_depth=128,
                            deadline_ns=25_000.0),),
        scheduler_slots=8)

    def __init__(self, seed: int):
        super().__init__()
        horizon = self.WARMUP_NS + self.TIMED_NS
        rngs = spawn_rngs(seed, 2 * self.DOORS)
        self.inputs = []
        for i in range(self.DOORS):
            times = make_arrivals("poisson", self.RATE_MOPS / self.DOORS) \
                .arrival_times(horizon, rngs[2 * i])
            n = len(times)
            keys = ZipfGenerator(self.N_KEYS, self.THETA,
                                 rngs[2 * i + 1]).sample(n)
            writes = rngs[2 * i + 1].random(n) < self.WRITE_SHARE
            owned = [sticky_owner_key(int(k), i, self.DOORS, self.N_KEYS)
                     for k in keys]
            self.inputs.append((times, [int(k) for k in keys],
                                writes.tolist(), owned))

    def setup(self) -> None:
        self._build(machines=self.DOORS + 1)
        sim, ctx = self.sim, self.ctx
        self.plane = ServicePlane(ctx, self.CONFIG)
        layout = TableLayout(n_keys=self.N_KEYS, hot_keys=0,
                             sockets=ctx.params.sockets_per_machine)
        self.backend = HashTableBackend(ctx, 0, layout)
        directory = InvalidationDirectory(sim)
        preload_table(self.backend, directory)
        self.resolved = []
        self.gens = []
        for i, (times, keys, writes, owned) in enumerate(self.inputs):
            cache = LeaseCache(sim, 128, 50_000.0, name=f"front{i}")
            door = KvFrontDoor(self.plane, self.backend, self.TENANT,
                               machine=1 + i, cache=cache,
                               directory=directory)
            self.resolved.append(bytearray(len(times)))
            fn = (lambda j, door=door, i=i, keys=keys, writes=writes,
                  owned=owned: self._request(door, i, j, keys[j], writes[j],
                                             owned[j]))
            self.gens.append(OpenLoopGenerator(sim, fn, times,
                                               name=f"door{i}"))
        self.tally = {"hit": 0, "ok": 0, "shed": 0, "error": 0}
        self.lat_ns: list[float] = []
        for g in self.gens:
            g.start()
        sim.run(until=self.WARMUP_NS)

    def drive(self) -> None:
        self._timed_start()
        self.tally = dict.fromkeys(self.tally, 0)
        self.lat_ns = []
        drain_open_loop(self.gens)

    def _request(self, door: KvFrontDoor, i: int, j: int, key: int,
                 write: bool, owned: int):
        sim = self.sim
        t0 = sim.now
        if write:
            res = yield from door.put(owned, b"w%07d" % owned)
            key = owned
        else:
            res = yield from door.get(key)
        outcome = res.outcome
        self.tally[outcome] += 1
        self.resolved[i][j] += 1
        if res.served:
            self.lat_ns.append(sim.now - t0)
            if not write:
                stem = b"v" if res.version == 1 else b"w"
                self._check(res.value == (stem + b"%07d" % key).ljust(
                    VALUE_BYTES, b"\x00"),
                    f"GET {key} returned {res.value!r} at version "
                    f"{res.version}")
        self._note(f"{i} {j} {outcome} {res.version} {sim.now!r}\n")
        return res

    def finish(self) -> Segment:
        for i, g in enumerate(self.gens):
            counts = self.resolved[i]
            self._check(g.offered == len(counts) and all(
                c == 1 for c in counts),
                f"door {i}: a request resolved to other than one outcome")
        t = self.tally
        self._check(t["shed"] > 0, "no request was shed")
        self._check(t["hit"] > 0, "no request hit the lease cache")
        ops = sum(t.values())
        not_ok = t["shed"] + t["error"]
        return self._segment(ops, not_ok, t["error"], self.lat_ns)


# --------------------------------------------------------------- fabric_incast
class FabricIncast(Workload):
    """Barrier incast: 16 senders burst 4 KB WRITEs into one host of the
    17-host leaf-spine each round, with DCQCN on."""

    name = "fabric_incast"
    express_expected = False
    NODES = 17
    SENDERS = 16
    OP_BYTES = 4096
    BLOCK = 4
    WARMUP_ROUNDS = 8
    TIMED_ROUNDS = 64
    SKEW_NS = 1000.0            # seeded per-sender start skew each round
    PARAMS = HardwareParams(machines=NODES, dcqcn_enabled=True,
                            link_queue_depth=32, retrans_timeout_ns=150e3,
                            retry_cnt=12, ecn_threshold=0.6)

    def __init__(self, seed: int):
        super().__init__()
        rng = np.random.default_rng(seed)
        rounds = self.WARMUP_ROUNDS + self.TIMED_ROUNDS
        self.skew = rng.uniform(0.0, self.SKEW_NS,
                                (rounds, self.SENDERS)).tolist()

    def setup(self) -> None:
        self._build(machines=self.NODES, params=self.PARAMS,
                    topology="leaf-spine")
        ctx = self.ctx
        self.rmr = ctx.register(0, self.OP_BYTES * self.SENDERS)
        self.senders = []
        for i in range(1, self.SENDERS + 1):
            lmr = ctx.register(i, self.OP_BYTES)
            self.senders.append((ctx.create_qp(i, 0), Worker(ctx, i),
                                 lmr))
        self.counts = [0, 0]         # completed, not successful
        self.lat_ns: list[float] = []
        self._run_rounds(0, self.WARMUP_ROUNDS)

    def drive(self) -> None:
        self._timed_start()
        self.counts = [0, 0]
        self.lat_ns = []
        self._run_rounds(self.WARMUP_ROUNDS,
                         self.WARMUP_ROUNDS + self.TIMED_ROUNDS)

    def _run_rounds(self, first: int, end: int) -> None:
        sim = self.sim
        self._barrier = [0, sim.event()]
        procs = [sim.process(self._sender(s, first, end))
                 for s in range(self.SENDERS)]
        for p in procs:
            sim.run(until=p)

    def _arrive(self):
        """Round barrier: the last sender releases everyone."""
        b = self._barrier
        b[0] += 1
        if b[0] < self.SENDERS:
            return b[1]
        ev = b[1]
        self._barrier = [0, self.sim.event()]
        ev.succeed()
        return None

    def _sender(self, s: int, first: int, end: int):
        sim, ctx = self.sim, self.ctx
        qp, worker, lmr = self.senders[s]
        cq = qp.cq
        for r in range(first, end):
            t0 = sim.now
            yield from worker.compute(self.skew[r][s])
            pending = self.BLOCK
            while pending:
                events = []
                for _ in range(pending):
                    wr = WorkRequest(Opcode.WRITE,
                                     sgl=[Sge(lmr, 0, self.OP_BYTES)],
                                     remote_mr=self.rmr,
                                     remote_offset=self.OP_BYTES * s,
                                     move_data=False)
                    ev = yield from worker.post(qp, wr)
                    events.append(ev)
                pending = 0
                for ev in events:
                    comp = yield from worker.wait(ev)
                    if cq.poll() is not comp:
                        self._check(False, f"QP {qp.qp_id} CQ out of order")
                    self.counts[0] += 1
                    if comp.status is not SUCCESS:
                        self.counts[1] += 1
                        pending += 1
                    self._note(f"{s} {r} {comp.timestamp_ns!r} "
                               f"{comp.status.value} {comp.retries}\n")
                if pending and qp.state is QPState.ERR:
                    # Retry budget exhausted: reconnect and re-issue, so
                    # every chunk of the round still lands.
                    yield ctx.reconnect_qp(qp)
            self.lat_ns.append(sim.now - t0)
            release = self._arrive()
            if release is not None:
                yield release

    def finish(self) -> Segment:
        c = self.counters()
        self._check(c["link_drops"] > 0, "no packet was tail-dropped")
        self._check(c["retransmissions"] > 0, "no WR was retransmitted")
        done, not_ok = self.counts
        return self._segment(done, not_ok, not_ok, self.lat_ns)


WORKLOADS = {w.name: w for w in (OnesidedMix, ServingOpenloop, FabricIncast)}

"""Express lane: closed-form WR timelines for the sunny one-sided path.

The stepped pipeline (:meth:`repro.verbs.qp.QueuePair._execute`) pays
9-12 engine events per WR (single-switch, signaled): a process boot,
one fused :meth:`Resource.hold` per occupied unit (WQE DMA, payload
fetch, tx unit, responder rx/atomic, response and delivery DMAs),
constant sleeps (forward wire, read turnaround, response wire, CQE DMA),
an ``all_of`` join per cut-through pair, and the final ``done`` event.
On the *sunny* path — QP in RTS, plain single-switch routes, no faults,
no DCQCN — every hold duration is pure arithmetic, known the moment the
unit is granted.

This module replays that timeline on the engine's callback lane and
with no process at all.  Each op owns one reusable :class:`Wake` marker
(plus a second one for the concurrent half of a cut-through pair);
every hold end, constant delay and join resume re-pushes it with
:meth:`Simulator.wake_at`, which dispatches ``wake.fn(wake)`` with no
Event object behind it.  That is 7-11 events per WR, with every
completion bit-identical to the stepped lane.

The load-bearing invariant is tie order: the engine breaks ties at an
instant by event *allocation order* (the global ``seq``), and the
stepped path allocates each hold's end event at its **grant** — at the
call when the unit is free, at the *releaser's* dispatch when it
queued (:meth:`Resource.hold`).  Anything keyed to arrival order
instead inverts same-instant completion ties under contention, and the
inversion propagates through shared LRU state (metadata SRAM) into
different tables.  So the lane books the very same units, through the
same FIFOs:

* Every occupied unit (``tx_unit``, ``rx_unit``, ``atomic_unit``, the
  PCIe bus) is booked with :meth:`Resource.hold_wake`, the Wake twin of
  ``hold``: the end-wake is pushed at the grant, so a queued booking's
  wake gets its ``seq`` at the releaser's dispatch, exactly as a queued
  stepped hold does.  Stepped and express requests share one FIFO per
  unit, so a capacity-1 unit is never granted twice, whichever lanes
  are live.
* Every end-wake handler *first* releases the unit — granting the next
  waiter at this very dispatch — then bumps the unit's counters
  (``tx_ops``/``rx_ops``/``dma_count``…) and only then continues its
  own op, matching the stepped hold's callback order (release, end
  callback, waiter resume).
* Cut-through pairs (payload fetch ∥ tx hold, responder rx ∥ drain
  DMA) join with one extra same-instant wake mirroring the stepped
  ``all_of`` resume; single holds continue inline in their end-wake,
  like the stepped process resuming from ``yield hold``.
* Constant delays (forward wire, read turnaround, response wire, CQE
  DMA) each get their own wake allocated at the same instant the
  stepped path allocates the corresponding sleep.
* Atomic word locks (``Rnic.atomic_word_lock``) are taken with
  :meth:`Resource.request`: the op parks in phase ``P_LOCK`` and its
  service bookings run at the grant, inline — in the post's own
  dispatch when the word is free, inside the releaser's ``release()``
  when it queued.
* RC in-order completion needs no arithmetic at all: an op whose
  predecessor's ``done`` has not yet *dispatched* parks by attaching
  a completion callback to that event — the very mechanism the stepped
  ``yield prev`` uses — so it resumes at the same dispatch, after any
  application waiters that subscribed earlier.

Because no booking ever lands at a *future* arrival, the timeline never
shifts once scheduled: there is no displacement, no repair pass, and
every scheduled wake is final.

SRAM evaluations (QP context + per-SGE translation) run inside the
wake handlers at the same instants — and therefore the same LRU order —
as the stepped path; unit counters are incremented at hold ends, not
batched, so mid-run observers see identical state.  Observers never
pick the lane: traced WRs are marked (``OpRecord.mark``) at the wakes
matching the stepped marks, and sanitizer hooks fire as stepped.

Fallback rules (the lane is chosen per post, never mid-flight):

* ineligible post (SEND, perturbed or lossy port, ...) -> stepped
  generator, unchanged schedules;
* stepped WRs in flight on either port -> stepped: an express post
  books its first unit inside the post call, a stepped WR only at its
  process boot after the posting dispatch, so an express post later in
  that dispatch could overtake it (see ``RnicPort._stepped``);
* fault injector construction *poisons* the lane for the whole run: a
  loss fault armed mid-flight must be sampled at every attempt's tx
  end, which only the stepped lane does.  Express ops already in
  flight at poison time drain on their booked timelines.

See docs/PERFORMANCE.md ("Express lane") for the eligibility predicate
and the digest-gate implications.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.sim import Wake
from repro.verbs.types import Completion, CompletionStatus, Opcode
from repro.verbs.qp import QPState, QueuePair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.cluster import Cluster
    from repro.sim import Event, Simulator
    from repro.verbs.types import WorkRequest

__all__ = ["ExpressState", "ExpressOp"]

# Op phases — the target of the op's *primary* wake marker (``wake``).
# The secondary marker (``wake2``) serves the concurrent half of a
# cut-through pair and is disambiguated by the same phase field.
(P_WQE,      # WQE DMA end: requester evals, exec bookings
 P_EXEC,     # tx-unit hold end (wake2: payload-fetch DMA end)
 P_EXEC_R,   # cut-through join resume (mirrors the all_of wake)
 P_Y,        # forward wire: request arrives at the responder
 P_LOCK,     # atomic word lock granted (Resource.request, no event)
 P_SVC,      # WRITE rx / atomic-unit hold end (wake2: drain DMA end)
 P_SVC_R,    # WRITE service join resume
 P_RX,       # READ responder hold end
 P_TURN,     # READ host-memory turnaround elapsed
 P_RDMA,     # READ response-fetch DMA end
 P_RTX,      # READ response serialization end
 P_BWD,      # READ response wire: data arrives back at the requester
 P_DLV,      # READ local delivery DMA end
 P_TAIL,     # WRITE/atomic response wire elapsed
 P_T,        # CQE DMA end: completion instant
 P_DONE) = range(16)


class ExpressOp:
    """One WR's closed-form timeline (flight state + cached facts)."""

    __slots__ = (
        "qp", "wr", "done",
        # the predecessor's done event (RC in-order completion); the op
        # parks on it when its own tail beats the predecessor's dispatch
        "prev",
        "phase", "opcode", "total_len", "signaled", "move_data",
        "outbound", "inline", "wire_payload", "wqe_bytes",
        # doorbell batch: every op of the batch, on the leader only
        "mates",
        # cut-through join countdown (payload∥tx, rx∥drain)
        "pending",
        # stashed hold durations (service hold, drain DMA)
        "h1", "h2",
        # held atomic word lock (WRITE-to-hot-word / atomics), else None
        "wl",
        "value",
        # wake markers: primary (phase-dispatched) and cut-through
        "wake", "wake2",
        # traced WRs: the OpRecord and the tracer that began it
        "rec", "tracer",
    )

    def __init__(self, state: "ExpressState", qp: "QueuePair",
                 wr: "WorkRequest", done: "Event") -> None:
        self.qp = qp
        self.wr = wr
        self.done = done
        self.prev = None
        self.phase = P_WQE
        opcode = wr.opcode
        self.opcode = opcode
        total_len = wr.total_length
        self.total_len = total_len
        self.signaled = wr.signaled
        self.move_data = wr.move_data
        outbound = total_len if opcode is Opcode.WRITE else 0
        self.outbound = outbound
        self.inline = outbound <= qp._params.max_inline_bytes
        self.wire_payload = outbound if outbound else 16
        self.wqe_bytes = 0
        self.mates = None
        self.pending = 0
        self.h1 = 0.0
        self.h2 = 0.0
        self.wl = None
        self.value = None
        self.wake = Wake(state._on_wake, self)
        self.wake2 = None
        self.rec = None
        self.tracer = None


class ExpressState:
    """Per-simulator express-lane state: the kill switch."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: False once poisoned; checked (with the per-post predicate) on
        #: every post.  Poisoning never touches in-flight express ops.
        self.on = True
        self.poisoned: Optional[str] = None

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def attach(cls, cluster: "Cluster") -> Optional["ExpressState"]:
        """Attach (or fetch) the express lane for ``cluster``'s simulator.

        Topology-level eligibility is decided once, here: only the plain
        single-switch fabric has closed-form routes, and DCQCN pacing is
        inherently stateful.  ``REPRO_EXPRESS=0`` disables the lane for
        A/B equivalence runs.
        """
        sim = cluster.sim
        state = sim.express
        if state is not None:
            return state
        if cluster.fabric.kind != "single":
            return None
        if cluster.params.dcqcn_enabled:
            return None
        if os.environ.get("REPRO_EXPRESS", "1") == "0":
            return None
        state = cls(sim)
        sim.express = state
        return state

    def poison(self, reason: str) -> None:
        """Permanently disable the lane for this run (new posts step)."""
        if self.on:
            self.on = False
            self.poisoned = reason

    # ------------------------------------------------------------- posting
    def post(self, qp: "QueuePair", wr: "WorkRequest", done: "Event",
             prev: Optional["Event"]) -> ExpressOp:
        """Book one WR's WQE fetch; the timeline unrolls wake by wake."""
        op = ExpressOp(self, qp, wr, done)
        op.prev = prev
        if qp.tracer is not None:
            self._begin(op, qp.tracer)
        op.wqe_bytes = wqe = qp._wqe_bytes(wr)
        lp = qp.local_port
        lp.pcie._bus.hold_wake(lp.pcie.dma_ns(wqe, qp.sq_socket), op.wake)
        return op

    def post_batch(self, qp: "QueuePair", wrs: list, events: list,
                   prev: Optional["Event"]) -> ExpressOp:
        """Doorbell batch: one chained WQE fetch, WR-ordered evaluation.

        The leader carries the shared fetch (and its DMA counters, with
        the chained total); each op chains in-order on its predecessor's
        ``done`` exactly like the stepped per-WR ``prev`` threading."""
        ops = [ExpressOp(self, qp, wr, ev) for wr, ev in zip(wrs, events)]
        lead = ops[0]
        lead.mates = ops
        total = 0
        for op, wr in zip(ops, wrs):
            total += qp._wqe_bytes(wr)
            op.prev = prev
            prev = op.done
        lead.wqe_bytes = total
        lp = qp.local_port
        lp.pcie._bus.hold_wake(lp.pcie.dma_ns(total, qp.sq_socket),
                               lead.wake)
        return ops[-1]

    def _begin(self, op: ExpressOp, tracer) -> None:
        """Open ``op``'s OpRecord; it commits to this tracer even if the
        QP's is swapped mid-flight."""
        op.tracer = tracer
        op.rec = tracer.begin(op.opcode.value, op.total_len, self.sim.now,
                              tags=op.qp.trace_tags)

    # ------------------------------------------------------------- wake-ups
    def _on_wake(self, wake: Wake) -> None:
        """Primary wake: advance ``op`` across the boundary ``op.phase``."""
        op = wake.arg
        phase = op.phase
        if phase == P_WQE:
            self._wqe_end(op)
        elif phase == P_EXEC:
            self._tx_end(op)
        elif phase == P_EXEC_R:
            self._exec_done(op)
        elif phase == P_Y:
            self._arrive(op)
        elif phase == P_LOCK:
            if op.opcode is Opcode.WRITE:
                self._write_granted(op)
            else:
                self._atomic_granted(op)
        elif phase == P_SVC:
            if op.opcode is Opcode.WRITE:
                self._write_rx_end(op)
            else:
                self._atomic_end(op)
        elif phase == P_SVC_R:
            self._svc_resume(op)
        elif phase == P_RX:
            self._read_rx_end(op)
        elif phase == P_TURN:
            self._turnaround_end(op)
        elif phase == P_RDMA:
            self._read_dma_end(op)
        elif phase == P_RTX:
            self._read_tx_end(op)
        elif phase == P_BWD:
            self._read_back(op)
        elif phase == P_DLV:
            self._deliver_end(op)
        elif phase == P_TAIL:
            self._tail_end(op)
        elif phase == P_T:
            self._try_finish(op)

    def _on_wake2(self, wake: Wake) -> None:
        """Secondary wake: the concurrent half of a cut-through pair."""
        op = wake.arg
        qp = op.qp
        if op.phase == P_EXEC:
            # Payload-fetch DMA end (streams beside the tx hold).
            pcie = qp.local_port.pcie
            pcie._bus.release()
            pcie.dma_bytes += op.outbound
            pcie.dma_count += 1
            self._exec_join(op)
        else:  # P_SVC: WRITE drain DMA end
            pcie = qp.remote_port.pcie
            pcie._bus.release()
            pcie.dma_bytes += op.total_len
            pcie.dma_count += 1
            self._svc_join(op)

    # -- requester side ----------------------------------------------------
    def _wqe_end(self, op: ExpressOp) -> None:
        qp = op.qp
        pcie = qp.local_port.pcie
        pcie._bus.release()
        pcie.dma_bytes += op.wqe_bytes
        pcie.dma_count += 1
        mates = op.mates
        if mates is None:
            self._eval_req(op)
        else:
            op.mates = None
            tracer = op.qp.tracer  # a batch WR's record opens here
            for m in mates:  # WR order == stepped spawn order
                if tracer is not None:
                    self._begin(m, tracer)
                self._eval_req(m)

    def _eval_req(self, op: ExpressOp) -> None:
        """Requester SRAM evaluations + exec-stage bookings.

        Runs at the WQE-DMA-end instant, in stepped order (QP context
        first, then each SGE's pages): these mutate LRU state, so the
        instant and order are part of the equivalence contract.
        """
        if op.rec is not None:
            op.rec.mark("wqe_fetch", self.sim.now)
        qp = op.qp
        wr = op.wr
        lp = qp.local_port
        lrnic = qp.local_machine.rnic
        extra = lrnic.qp_context(qp.qp_id)
        translate = lrnic.translate
        for sge in wr.sgl:
            extra += translate(sge.mr.page_keys(sge.offset, sge.length))
        exec_ns = qp._exec_ns[op.opcode]
        op.phase = P_EXEC
        if op.outbound and not op.inline:
            # Cut-through payload fetch rides the PCIe bus concurrently
            # with the tx hold; stepped spawns the fetch first.
            op.pending = 2
            op.wake2 = Wake(self._on_wake2, op)
            buf_socket = wr.sgl[0].mr.socket if wr.sgl else lp.socket
            lp.pcie._bus.hold_wake(
                lp.pcie.dma_ns(op.outbound, buf_socket, wr.n_sge), op.wake2)
        lp.tx_unit.hold_wake(
            lp.tx_occupancy_ns(exec_ns, op.wire_payload, wr.n_sge, extra),
            op.wake)

    def _tx_end(self, op: ExpressOp) -> None:
        qp = op.qp
        lp = qp.local_port
        lp.tx_unit.release()
        lp.tx_ops += 1
        if op.pending:
            self._exec_join(op)
        else:
            self._exec_done(op)

    def _exec_join(self, op: ExpressOp) -> None:
        op.pending -= 1
        if op.pending == 0:
            # Same-instant resume wake, mirroring the stepped all_of.
            op.phase = P_EXEC_R
            sim = self.sim
            sim.wake_at(sim.now, op.wake)

    def _exec_done(self, op: ExpressOp) -> None:
        """Exec stage complete: the request takes the forward wire."""
        op.phase = P_Y
        sim = self.sim
        if op.rec is not None:
            op.rec.mark("exec", sim.now)
        sim.wake_at(sim.now + op.qp._fwd_ns, op.wake)

    # -- responder side ----------------------------------------------------
    def _arrive(self, op: ExpressOp) -> None:
        """Request arrival: responder evals + service-stage bookings."""
        if op.rec is not None:
            op.rec.mark("network", self.sim.now)
        qp = op.qp
        wr = op.wr
        p = qp._params
        rp = qp.remote_port
        rrnic = qp.remote_machine.rnic
        r_extra = rrnic.qp_context(qp.qp_id)
        opcode = op.opcode
        total_len = op.total_len
        rmr = wr.remote_mr
        if opcode is Opcode.READ:
            r_extra += rrnic.translate(
                rmr.page_keys(wr.remote_offset, total_len))
            op.phase = P_RX
            rp.rx_unit.hold_wake(p.responder_ns + r_extra, op.wake)
            return
        if opcode is Opcode.WRITE:
            r_extra += rrnic.translate(
                rmr.page_keys(wr.remote_offset, total_len))
            # Inbound DMA to the alternate socket partially stalls the
            # responder pipeline (Section II-B4).
            r_extra += (p.responder_cross_exposure
                        * qp.remote_machine.topology.cross_penalty(
                            rp.socket, rmr.socket))
            if total_len:
                wire = rp._wire_cache.get(total_len)
                if wire is None:
                    wire = rp._wire_cache[total_len] = \
                        p.wire_time(total_len)
                base = p.responder_ns + r_extra
                op.h1 = base if base > wire else wire
            else:
                op.h1 = p.responder_ns + r_extra
            op.h2 = rp.pcie.dma_ns(total_len, rmr.socket)
            lock = None
            if total_len == 8:
                # An 8-byte write to a word atomics are hammering (a
                # lock release) serializes on the device RMW lock.
                lock = rrnic._atomic_locks.get(
                    (rmr.mr_id, wr.remote_offset))
            if lock is None:
                self._write_granted(op)
            else:
                op.wl = lock
                op.phase = P_LOCK
                lock.request(op.wake)
            return
        # CAS / FAA
        r_extra += rrnic.translate(rmr.page_keys(wr.remote_offset, 8))
        r_extra += qp.remote_machine.topology.cross_penalty(
            rp.socket, rmr.socket)
        op.h1 = p.exec_atomic_ns + r_extra
        lock = rrnic.atomic_word_lock((rmr.mr_id, wr.remote_offset))
        op.wl = lock
        op.phase = P_LOCK
        lock.request(op.wake)

    def _write_granted(self, op: ExpressOp) -> None:
        """WRITE holds the word lock (if any): cut-through rx ∥ drain."""
        qp = op.qp
        rp = qp.remote_port
        op.phase = P_SVC
        op.pending = 2
        if op.wake2 is None:
            op.wake2 = Wake(self._on_wake2, op)
        rp.rx_unit.hold_wake(op.h1, op.wake)
        rp.pcie._bus.hold_wake(op.h2, op.wake2)

    def _atomic_granted(self, op: ExpressOp) -> None:
        """Atomic holds the word lock: occupy the port's atomic unit."""
        op.phase = P_SVC
        op.qp.remote_port.atomic_unit.hold_wake(op.h1, op.wake)

    def _write_rx_end(self, op: ExpressOp) -> None:
        rp = op.qp.remote_port
        rp.rx_unit.release()
        rp.rx_ops += 1
        self._svc_join(op)

    def _svc_join(self, op: ExpressOp) -> None:
        op.pending -= 1
        if op.pending == 0:
            op.phase = P_SVC_R
            sim = self.sim
            sim.wake_at(sim.now, op.wake)

    def _svc_resume(self, op: ExpressOp) -> None:
        """WRITE service done: release the lock, land the data, respond."""
        wl = op.wl
        if wl is not None:
            op.wl = None
            wl.release()
        if op.move_data:
            op.qp._apply_write(op.wr)
        self._tail_start(op)

    def _atomic_end(self, op: ExpressOp) -> None:
        qp = op.qp
        rp = qp.remote_port
        rp.atomic_unit.release()
        rp.rx_ops += 1
        op.value = qp._apply_atomic(op.wr)
        wl = op.wl
        op.wl = None
        wl.release()
        self._tail_start(op)

    def _tail_start(self, op: ExpressOp) -> None:
        """WRITE/atomic response: the ACK takes the reverse wire."""
        op.phase = P_TAIL
        sim = self.sim
        if op.rec is not None:
            op.rec.mark("responder", sim.now)
        sim.wake_at(sim.now + op.qp._bwd_ns, op.wake)

    # -- READ response path -------------------------------------------------
    def _read_rx_end(self, op: ExpressOp) -> None:
        qp = op.qp
        rp = qp.remote_port
        rp.rx_unit.release()
        rp.rx_ops += 1
        # Host-memory fetch turnaround: pure latency, pipelined by the
        # hardware, so it does not occupy the responder unit.
        op.phase = P_TURN
        sim = self.sim
        sim.wake_at(sim.now + qp._params.read_turnaround_ns, op.wake)

    def _turnaround_end(self, op: ExpressOp) -> None:
        qp = op.qp
        rp = qp.remote_port
        op.phase = P_RDMA
        rp.pcie._bus.hold_wake(
            rp.pcie.dma_ns(op.total_len, op.wr.remote_mr.socket), op.wake)

    def _read_dma_end(self, op: ExpressOp) -> None:
        qp = op.qp
        rp = qp.remote_port
        pcie = rp.pcie
        pcie._bus.release()
        pcie.dma_bytes += op.total_len
        pcie.dma_count += 1
        # Response data serializes on the responder's link (this is why
        # outbound READ underperforms inbound WRITE — Section IV-C).
        op.phase = P_RTX
        rp.tx_unit.hold_wake(
            rp.tx_occupancy_ns(qp._params.responder_ns, op.total_len),
            op.wake)

    def _read_tx_end(self, op: ExpressOp) -> None:
        qp = op.qp
        rp = qp.remote_port
        rp.tx_unit.release()
        rp.tx_ops += 1
        op.phase = P_BWD
        sim = self.sim
        if op.rec is not None:
            op.rec.mark("responder", sim.now)
        sim.wake_at(sim.now + qp._bwd_ns, op.wake)

    def _read_back(self, op: ExpressOp) -> None:
        """Response landed: DMA the data into the local buffers."""
        if op.rec is not None:
            op.rec.mark("response_net", self.sim.now)
        qp = op.qp
        wr = op.wr
        lp = qp.local_port
        op.phase = P_DLV
        lp.pcie._bus.hold_wake(
            lp.pcie.dma_ns(op.total_len, wr.sgl[0].mr.socket, wr.n_sge),
            op.wake)

    def _deliver_end(self, op: ExpressOp) -> None:
        qp = op.qp
        pcie = qp.local_port.pcie
        pcie._bus.release()
        pcie.dma_bytes += op.total_len
        pcie.dma_count += 1
        if op.move_data:
            qp._apply_read(op.wr)
        self._cqe(op)

    # -- completion ---------------------------------------------------------
    def _tail_end(self, op: ExpressOp) -> None:
        if op.rec is not None:
            op.rec.mark("response_net", self.sim.now)
        self._cqe(op)

    def _cqe(self, op: ExpressOp) -> None:
        """Service + response done: CQE DMA (when signaled), then finish."""
        if op.signaled:
            op.phase = P_T
            sim = self.sim
            sim.wake_at(sim.now + op.qp._params.cqe_dma_ns, op.wake)
        else:
            self._try_finish(op)

    def _try_finish(self, op: ExpressOp) -> None:
        """RC in-order completion: never overtake an earlier WR.

        The stepped path parks with ``yield prev`` — a callback on the
        predecessor's done event, resuming at that event's dispatch
        after application waiters that subscribed earlier.  Attaching a
        callback to the same event reproduces that dispatch, order, and
        completion timestamp exactly.
        """
        prev = op.prev
        if prev is not None and not prev._processed:
            prev.add_callback(lambda _ev: self._complete(op))
            return
        self._complete(op)

    def _complete(self, op: ExpressOp) -> None:
        """Completion instant: deliver the Completion, unlink the chain."""
        op.phase = P_DONE
        op.prev = None
        sim = self.sim
        rec = op.rec
        if rec is not None:
            rec.mark("delivery", sim.now)
            op.tracer.commit(rec, sim.now)
        qp = op.qp
        wr = op.wr
        if qp._last_express_op is op:
            qp._last_express_op = None
        qp.completed += 1
        QueuePair.total_completions += 1
        opcode = op.opcode
        if qp.state is QPState.ERR:
            # The QP died while this (already executed) WR awaited
            # in-order delivery: RC reports it flushed — its data may
            # have landed, the same ambiguity the stepped path carries.
            qp.flushed_wrs += 1
            status = CompletionStatus.WR_FLUSH_ERR
            value = None
            byte_len = 0
        else:
            status = CompletionStatus.SUCCESS
            value = op.value
            byte_len = 8 if opcode.is_atomic else op.total_len
        completion = Completion(
            wr_id=wr.wr_id, opcode=opcode, status=status,
            timestamp_ns=sim.now, value=value, byte_len=byte_len,
            retries=0)
        check = sim.check  # fresh read: a sanitizer may attach mid-run
        if check is not None:
            check.on_completed(qp, wr, completion)
        if op.signaled:
            qp.cq.push(completion)
        op.done.succeed(completion)

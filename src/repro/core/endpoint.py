"""Per-unit message endpoint.

Every DSMTX unit (worker, try-commit, commit) owns one inbox: a FIFO
store into which all of its incoming traffic — queue batches and control
messages — is delivered by the MPI layer.  The endpoint multiplexes that
inbox in one of two styles:

* *streamed* (workers, try-commit): the unit blocks on a specific queue
  with :meth:`consume_from` or on a control kind with :meth:`wait_ctl`;
  envelopes for other queues are routed into their buffers meanwhile.
* *arrival-order* (commit unit): the unit is event-driven and takes
  whatever comes next with :meth:`next_message`.

Both styles apply epoch filtering: batches and control messages sent
before the last rollback are recognized by their epoch tag and dropped
(their flow-control credits are still released).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.core.messages import BatchEnvelope, ControlEnvelope
from repro.errors import RecoveryAbort
from repro.obs.tracer import CAT_MPI_RECV, PID_RUNTIME
from repro.sim import Event

__all__ = ["Endpoint"]


class Endpoint:
    """Inbox plus routing for one runtime unit."""

    def __init__(self, system: "DSMTXSystem", tid: int) -> None:  # noqa: F821
        self.system = system
        self.tid = tid
        self.inbox = system.inbox_of(tid)
        # Per-receive costs and the owning core, resolved once:
        # _recv_one runs for every envelope this unit takes in.
        cluster = system.cluster
        ipc = cluster.instructions_per_cycle
        self._core = system.core_of(tid)
        self._recv_ready_cycles = cluster.mpi_recv_ready_instructions / ipc
        self._recv_blocked_cycles = cluster.mpi_recv_instructions / ipc
        self._state = system.state
        #: Reliable transport (fault-tolerant mode) or ``None``.
        self._transport = system.transport
        #: Per-destination (core index, tag, inbox) for send_ctl, filled
        #: on first use — all three are fixed for the life of the system.
        self._ctl_dst: dict[int, tuple] = {}
        #: Control envelopes awaiting a wait_ctl caller.
        self.pending_ctl: deque[ControlEnvelope] = deque()
        #: Arrival-order records for next_message consumers.
        self.pending_messages: deque = deque()

    # -- receiving ---------------------------------------------------------------

    def _recv_one(self, check_state: bool = True) -> Generator[Event, Any, Any]:
        """Block for the next envelope, paying the MPI receive cost.

        A message that already arrived takes the fast polling path; a
        receive that actually blocks pays the full MPI_Recv cost.
        Re-checks the system state after realizing deferred work: the
        recovery (or termination) inbox flush may have happened while
        this unit was draining, in which case blocking now would hang.
        ``check_state=False`` is for units with no recovery-barrier
        obligations (COA replicas): they simply sleep through rollbacks.
        """
        core = self._core
        yield from core.drain()
        # Evaluate readiness only *after* realizing deferred work: the
        # recovery flush may have emptied the inbox meanwhile, and
        # blocking on it then would hang past the rollback.
        inbox = self.inbox
        ready = len(inbox.items) > 0
        state = self._state
        if check_state and not ready and (state.in_recovery or state.done):
            raise RecoveryAbort("system state changed while draining")
        obs = self.system.obs
        start = self.system.env.now if obs is not None else 0.0
        if ready:
            # A waiting envelope is taken without an event.
            envelope = inbox.try_get()[1]
        else:
            envelope = yield inbox.get()
        core.charge_cycles(self._recv_ready_cycles if ready else self._recv_blocked_cycles)
        if obs is not None:
            if not ready:
                # Only receives that actually blocked get a span; the
                # polling fast path would flood the trace with zero-width
                # events.
                obs.tracer.complete(
                    CAT_MPI_RECV, "inbox.recv", PID_RUNTIME, self.tid, start
                )
                obs.metrics.counter("endpoint.recv_blocked").inc()
            else:
                obs.metrics.counter("endpoint.recv_ready").inc()
        return envelope

    def _route(self, envelope: Any, arrival_order: bool) -> None:
        """File one envelope into the right buffer (or drop it as stale)."""
        if isinstance(envelope, BatchEnvelope):
            queue = self.system.queue_by_name(envelope.queue_name)
            accepted = queue.accept_batch(envelope)
            if accepted and arrival_order:
                self.pending_messages.append(("batch", queue))
        elif isinstance(envelope, ControlEnvelope):
            if envelope.epoch != self.system.state.epoch:
                return
            if arrival_order:
                self.pending_messages.append(("ctl", envelope))
            else:
                self.pending_ctl.append(envelope)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected inbox item: {envelope!r}")

    # -- streamed style -------------------------------------------------------------

    def consume_from(self, queue: "RuntimeQueue") -> Generator[Event, Any, tuple]:  # noqa: F821
        """Blocking consume of the next entry from ``queue``.

        Other queues' batches and control messages arriving meanwhile
        are buffered.  Raises :class:`RecoveryAbort` if the system
        enters recovery while waiting (the inbox flush wakes us).
        """
        delivered = queue.delivered
        while True:
            if delivered:
                return delivered.popleft()
            if self._state.in_recovery:
                raise RecoveryAbort("recovery started while consuming")
            envelope = yield from self._recv_one()
            self._route(envelope, arrival_order=False)

    def wait_ctl(self, kind: str, check_state: bool = True) -> Generator[Event, Any, ControlEnvelope]:
        """Blocking wait for the next control message of ``kind``."""
        while True:
            for i, envelope in enumerate(self.pending_ctl):
                if envelope.kind == kind:
                    del self.pending_ctl[i]
                    return envelope
            if check_state and self._state.in_recovery:
                raise RecoveryAbort("recovery started while waiting for control")
            envelope = yield from self._recv_one(check_state=check_state)
            self._route(envelope, arrival_order=False)

    # -- arrival-order style -----------------------------------------------------------

    def next_message(self) -> Generator[Event, Any, tuple]:
        """Next routed record in arrival order: ``("ctl", envelope)`` or
        ``("batch", queue)`` (whose entries are then popped from the
        queue's local buffer)."""
        while not self.pending_messages:
            envelope = yield from self._recv_one()
            self._route(envelope, arrival_order=True)
        return self.pending_messages.popleft()

    # -- sending control messages --------------------------------------------------------

    def send_ctl(
        self, dst_tid: int, kind: str, payload: Any, nbytes: int = 16
    ) -> Generator[Event, Any, None]:
        """Send one control message to unit ``dst_tid``."""
        envelope = ControlEnvelope(
            kind=kind,
            epoch=self._state.epoch,
            sender_tid=self.tid,
            payload=payload,
        )
        transport = self._transport
        dst = self._ctl_dst.get(dst_tid)
        if dst is None:
            dst = self._ctl_dst[dst_tid] = (
                self.system.core_of(dst_tid).index,
                ("inbox", dst_tid),
                self.system.inbox_of(dst_tid)
                if transport is None
                else transport.ingest_box(dst_tid),
            )
        payload_out = envelope
        if transport is not None:
            nbytes += transport.extra_bytes
            payload_out = transport.stamp(self.tid, dst_tid, envelope, nbytes)
        yield from self.system.mpi.send(
            self._core.index,
            dst[0],
            payload_out,
            nbytes,
            dst[1],
            mailbox=dst[2],
        )

    # -- recovery -----------------------------------------------------------------------

    def clear(self) -> int:
        """Drop all buffered envelopes (FLQ phase).  The inbox store
        itself is flushed by the recovery orchestrator."""
        dropped = len(self.pending_ctl) + len(self.pending_messages)
        self.pending_ctl.clear()
        self.pending_messages.clear()
        return dropped

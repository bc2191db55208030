"""Runtime message queues between DSMTX units.

These are the communication channels of Figure 3: they carry uncommitted
value forwarding between workers, access logs to the try-commit and
commit units, and application dataflow (``mtx_produce``/``mtx_consume``).

Like the stand-alone :class:`repro.cluster.channel.Channel`, a
:class:`RuntimeQueue` batches produced entries and issues one MPI send
per batch (section 4.2).  It differs in three runtime-specific ways:

* batches are delivered into the *consumer unit's inbox* (a unit
  multiplexes many queues plus control traffic over one mailbox);
* a bounded number of unacknowledged batches may be in flight
  (*credits*), bounding worker run-ahead — the decoupling buffer whose
  size trades throughput against wasted work on misspeculation
  (section 5.4);
* every batch is tagged with the recovery epoch so stale in-flight data
  is discarded after a rollback.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Iterable, Optional

from repro.core.messages import BatchEnvelope, entry_bytes
from repro.obs.tracer import CAT_QUEUE, PID_RUNTIME
from repro.sim import Event, Resource

__all__ = ["RuntimeQueue"]


class RuntimeQueue:
    """A unidirectional batched queue from one unit to another."""

    def __init__(
        self,
        system: "DSMTXSystem",  # noqa: F821 - circular type reference
        name: str,
        purpose: str,
        src_tid: int,
        dst_tid: int,
        flush_each_subtx: bool,
        durable: bool = False,
    ) -> None:
        self.system = system
        self.name = name
        self.purpose = purpose
        self.src_tid = src_tid
        self.dst_tid = dst_tid
        #: Durable queues carry *committed* state (the commit-standby
        #: replication stream): their batches survive epoch fences and
        #: FLQ flushes — rolling back speculation must never lose data
        #: that has already committed.
        self.durable = durable
        #: A retired queue drops everything still in flight (set when
        #: the replication stream's producer died at promotion).
        self.retired = False
        #: Whether the producer must flush at every subTX boundary
        #: (worker-to-worker forwarding and dataflow: yes; logs to the
        #: validation/commit units: no, they may lag by whole batches,
        #: which is exactly the delayed-detection effect of section 5.4).
        self.flush_each_subtx = flush_each_subtx

        config = system.config
        self._batch_bytes = config.effective_batch_bytes
        self._credits = Resource(system.env, capacity=config.max_inflight_batches)
        #: Credit holders (request events or nowait tokens) by credit id.
        self._outstanding_credits: dict[int, object] = {}
        self._next_credit_id = 0
        self._buffer: list[tuple] = []
        self._buffer_bytes = 0
        # Per-entry costs resolved once: produce() runs for every datum
        # a worker emits, so repeated config/core lookups add up.
        self._direct = config.channel_mode == "direct"
        self._src_core = system.core_of(src_tid)
        self._queue_op_instructions = system.cluster.queue_op_instructions
        self._queue_op_cycles = (
            self._queue_op_instructions / system.cluster.instructions_per_cycle
        )
        self._charge_src = self._src_core.charge_cycles
        self._stats = system.stats
        # Send-side constants for _push_batch: the destination core,
        # inbox and tag never change for the life of the queue.
        self._src_index = self._src_core.index
        self._dst_index = system.core_of(dst_tid).index
        self._transport = system.transport
        self._dst_inbox = (
            system.inbox_of(dst_tid)
            if self._transport is None
            else self._transport.ingest_box(dst_tid)
        )
        self._tag = ("inbox", dst_tid)

        #: Consumer-side entries routed here by the endpoint (FIFO).
        self.delivered: deque[tuple] = deque()

        self.bytes_produced = 0
        self.entries_produced = 0
        self.batches_sent = 0

    # -- producer side -------------------------------------------------------------

    def produce(self, entry: tuple, nbytes: Optional[int] = None) -> Iterable[Event]:
        """Append one entry; pushes a batch when the buffer fills.

        Returns an iterable of events — drive with ``yield from``.  The
        buffered fast path (the overwhelmingly common case) returns an
        empty tuple, so no generator is allocated per entry.

        In ``direct`` channel mode (the Figure 5(b) unoptimized
        baseline) every entry pays one full MPI send instead of a
        ring-buffer write.
        """
        if self.retired:
            # The consumer is gone (dead standby): producing would burn
            # credits nobody returns and block the producer forever.
            return ()
        size = entry_bytes(entry) if nbytes is None else nbytes
        self._buffer.append(entry)
        buffered = self._buffer_bytes + size
        self._buffer_bytes = buffered
        self.bytes_produced += size
        self.entries_produced += 1
        # RunStats.record_queue_bytes inlined: one per-entry call saved.
        stats = self._stats
        stats.queue_bytes += size
        purpose = self.purpose
        by_purpose = stats.queue_bytes_by_purpose
        by_purpose[purpose] = by_purpose.get(purpose, 0) + size
        if stats.observer is not None:
            stats.observer.metrics.counter(f"queue.bytes.{purpose}").inc(size)
        if self._direct:
            return self._push_batch()
        self._charge_src(self._queue_op_cycles)
        if buffered >= self._batch_bytes:
            return self._push_batch()
        return ()

    def flush_pending(self) -> Iterable[Event]:
        """Push a partial batch (subTX boundary / termination)."""
        if self._buffer and not self.retired:
            return self._push_batch()
        return ()

    def _push_batch(self) -> Generator[Event, Any, None]:
        # The span deliberately covers the credit wait: time blocked on
        # flow control is queue time, and it is exactly the decoupling
        # stall the section 5.4 trade-off is about.
        obs = self.system.obs
        start = self.system.env.now if obs is not None else 0.0
        credits = self._credits
        credit = credits.acquire_nowait()
        if credit is None:
            credit = credits.request()
            yield credit
            if self.retired:
                # Retired while blocked on flow control (the declaration
                # of the consumer's death released the credits): drop.
                credits.release(credit)
                return
        credit_id = self._next_credit_id
        self._next_credit_id += 1
        self._outstanding_credits[credit_id] = credit
        entries, self._buffer = tuple(self._buffer), []
        nbytes, self._buffer_bytes = self._buffer_bytes, 0
        self.batches_sent += 1
        self.system.stats.queue_batches += 1
        envelope = BatchEnvelope(
            queue_name=self.name,
            epoch=self.system.state.epoch,
            credit_id=credit_id,
            entries=entries,
            nbytes=nbytes,
        )
        payload = envelope
        if self._transport is not None:
            nbytes += self._transport.extra_bytes
            payload = self._transport.stamp(
                self.src_tid, self.dst_tid, envelope, nbytes
            )
        yield from self.system.mpi.send(
            self._src_index,
            self._dst_index,
            payload,
            nbytes,
            self._tag,
            mailbox=self._dst_inbox,
        )
        if obs is not None:
            obs.tracer.complete(
                CAT_QUEUE, f"push:{self.name}", PID_RUNTIME, self.src_tid, start,
                purpose=self.purpose, entries=len(entries), bytes=nbytes,
            )
            obs.metrics.counter(f"queue.batches.{self.purpose}").inc()
            obs.metrics.histogram("queue.batch_bytes").observe(nbytes)

    # -- consumer side ---------------------------------------------------------------

    def accept_batch(self, envelope: BatchEnvelope) -> bool:
        """Endpoint router callback: release the credit; keep the
        entries unless they are from a stale epoch.

        Returns True if the batch was accepted (current epoch).
        """
        credit = self._outstanding_credits.pop(envelope.credit_id, None)
        if credit is not None:
            self._credits.release(credit)
        if self.retired:
            return False
        if not self.durable and envelope.epoch != self.system.state.epoch:
            return False
        self.delivered.extend(envelope.entries)
        return True

    # -- recovery ----------------------------------------------------------------------

    def release_all_credits(self) -> None:
        """Release every outstanding credit so a producer blocked on
        flow control can make progress into the recovery protocol."""
        for credit in self._outstanding_credits.values():
            self._credits.release(credit)
        self._outstanding_credits.clear()

    def discard(self) -> int:
        """Drop producer and consumer buffers; release all credits.

        Returns the number of entries discarded locally (FLQ cost).
        Durable queues keep their data — they carry committed state
        that a speculative rollback must not touch — and only release
        credits.
        """
        if self.durable and not self.retired:
            self.release_all_credits()
            return 0
        discarded = len(self._buffer) + len(self.delivered)
        self._buffer.clear()
        self._buffer_bytes = 0
        self.delivered.clear()
        self.release_all_credits()
        return discarded

    # -- failover ----------------------------------------------------------------------

    def redirect(self, new_dst_tid: int) -> None:
        """Re-point this queue at a different consumer unit (commit
        standby promotion): future batches go to the new unit's inbox
        on a fresh transport link; frames still in flight to the dead
        unit are abandoned by ``ReliableTransport.forget_units``."""
        system = self.system
        self.dst_tid = new_dst_tid
        self._dst_index = system.core_of(new_dst_tid).index
        transport = self._transport
        self._dst_inbox = (
            system.inbox_of(new_dst_tid)
            if transport is None
            else transport.ingest_box(new_dst_tid)
        )
        self._tag = ("inbox", new_dst_tid)

    def retire(self) -> None:
        """Close the queue for good: drop buffers, refuse all future
        batches (promotion retires the replication stream — its
        producer is dead and its data has been replayed)."""
        self.retired = True
        self._buffer.clear()
        self._buffer_bytes = 0
        self.delivered.clear()
        self.release_all_credits()

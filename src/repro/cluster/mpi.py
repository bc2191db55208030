"""Simulated MPI point-to-point layer.

DSMTX is implemented on top of OpenMPI (paper section 4).  This module
models the three send flavours the paper measures — ``MPI_Send``,
``MPI_Bsend``, ``MPI_Isend`` — each paying a calibrated per-call
software overhead on the sender, and ``MPI_Recv`` paying the paper's
~2,295-instruction overhead on the receiver.  :meth:`MPI.send` also
prices the wire: the NIC model of
:mod:`repro.cluster.interconnect` runs here, in the sending process.

Ranks are global core indices: every runtime unit is pinned to one core
and communicates from it.  Messages between a fixed (source,
destination, tag) triple are delivered in FIFO order.  Each (source,
destination) pair is checked and resolved once, into a route.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Generator, Optional

from repro.cluster.interconnect import Interconnect, _Delivery
from repro.cluster.node import Core, Machine
from repro.cluster.spec import MPIVariant
from repro.errors import CommunicationError
from repro.obs.tracer import CAT_MPI_RECV, CAT_MPI_SEND, PID_CLUSTER
from repro.sim import Environment, Event, Store

__all__ = ["MPI", "MPIVariant"]

#: Fixed envelope (header) bytes added to every MPI message on the wire.
ENVELOPE_BYTES = 32


class _Route:
    """What every message between one (src, dst) rank pair looks up:
    both cores, whether the pair spans two nodes (and which), the wire
    parameters, and the pair's mailboxes by tag."""

    __slots__ = (
        "src_core", "dst_core", "inter_node", "src_node_index",
        "dst_node_index", "src_node", "dst_node", "wire", "boxes",
    )


class MPI:
    """Point-to-point messaging between cores with MPI-like costs."""

    def __init__(self, env: Environment, machine: Machine, interconnect: Interconnect) -> None:
        self.env = env
        self.machine = machine
        self.spec = machine.spec
        self.interconnect = interconnect
        self._mailboxes: dict[tuple[int, int, Any], Store] = {}
        self._routes: dict[tuple[int, int], _Route] = {}
        # Per-variant sender cost in cycles and send count, keyed by the
        # variant's value string, which hashes in C; an Enum member key
        # would run the Python-level Enum.__hash__ on every send.
        ipc = self.spec.instructions_per_cycle
        self._variant_cycles = {
            v._value_: instructions / ipc
            for v, instructions in self.spec.mpi_variant_sender_instructions.items()
        }
        self._sent = {v._value_: 0 for v in MPIVariant}
        self._recv_cycles = self.spec.mpi_recv_instructions / ipc
        # The receive overhead as Core.compute realizes it, and per core
        # the accounting a priced receive does in its place.
        self._recv_seconds = self._recv_cycles / self.spec.clock_hz
        self._recv_pay = [
            partial(core.account, self._recv_cycles) for core in machine.iter_cores()
        ]
        #: Cores by global index, for receives that take no route.
        self._cores = tuple(machine.iter_cores())

    @property
    def sent_count(self) -> dict[MPIVariant, int]:
        """Messages sent, per variant, for diagnostics."""
        return {v: self._sent[v._value_] for v in MPIVariant}

    def _new_route(self, src_rank: int, dst_rank: int) -> _Route:
        """Check the pair and resolve its route (first message only)."""
        if src_rank == dst_rank:
            raise CommunicationError(
                f"rank {src_rank} cannot send to or receive from itself"
            )
        cores = self.spec.total_cores
        for rank, role in ((src_rank, "source"), (dst_rank, "destination")):
            if not 0 <= rank < cores:
                raise IndexError(
                    f"no route from rank {src_rank} to rank {dst_rank}: "
                    f"{role} out of range for {cores} cores"
                )
        ic = self.interconnect
        route = _Route()
        route.src_core = self.machine.core(src_rank)
        route.dst_core = self.machine.core(dst_rank)
        route.src_node_index = ic._node_index_of[src_rank]
        route.dst_node_index = ic._node_index_of[dst_rank]
        route.inter_node = route.src_node_index != route.dst_node_index
        route.src_node = ic._node_of[src_rank]
        # _Delivery takes no destination node for an intra-node transfer.
        route.dst_node = ic._node_of[dst_rank] if route.inter_node else None
        route.wire = ic._inter if route.inter_node else ic._intra
        route.boxes = {}
        self._routes[(src_rank, dst_rank)] = route
        return route

    def mailbox(self, src_rank: int, dst_rank: int, tag: Any = 0) -> Store:
        """The FIFO mailbox for (src, dst, tag), created on first use."""
        route = self._routes.get((src_rank, dst_rank))
        if route is None:
            route = self._new_route(src_rank, dst_rank)
        store = route.boxes.get(tag)
        if store is None:
            store = route.boxes[tag] = Store(self.env)
            self._mailboxes[(src_rank, dst_rank, tag)] = store
        return store

    # -- sending ----------------------------------------------------------------

    def send(
        self,
        src_rank: int,
        dst_rank: int,
        payload: Any,
        nbytes: int,
        tag: Any = 0,
        variant: MPIVariant = MPIVariant.SEND,
        mailbox: Optional[Store] = None,
    ) -> Generator[Event, Any, None]:
        """Send ``payload`` (eager protocol): returns once the data has
        been handed to the network; delivery completes asynchronously.

        ``nbytes`` is the application-payload size; the envelope header
        is added on the wire.  Drive with ``yield from`` in the sending
        process.  ``mailbox`` overrides the per-(src, dst, tag) mailbox
        with an explicit delivery store — used by the runtime, where a
        unit multiplexes all senders over one inbox.
        """
        route = self._routes.get((src_rank, dst_rank))
        if route is None:
            route = self._new_route(src_rank, dst_rank)
        if nbytes < 0:
            raise ValueError(f"negative payload size: {nbytes}")
        env = self.env
        obs = env.obs
        start = env.now if obs is not None else 0.0
        name = variant._value_
        # Pending deferred work and the send overhead, as one wake-up.
        yield route.src_core.drain_then_compute(self._variant_cycles[name])
        self._sent[name] += 1
        if mailbox is None:
            mailbox = route.boxes.get(tag)
            if mailbox is None:
                mailbox = self.mailbox(src_rank, dst_rank, tag)
        # Transmit phase: NIC tx contention and serialization (inter-node)
        # or the memcpy (intra-node); a _Delivery runs the rest.
        wire_bytes = nbytes + ENVELOPE_BYTES
        stats = self.interconnect.stats
        stats.total_bytes += wire_bytes
        stats.total_messages += 1
        latency, bandwidth = route.wire
        verdict = 0  # chaos verdicts: 0 deliver, 1 drop, 2 duplicate, 3 corrupt
        if route.inter_node:
            stats.inter_node_bytes += wire_bytes
            chaos = env.chaos
            if chaos is not None:
                # Fault injection adjudicates inter-node traffic only;
                # the sender-side costs below are paid regardless (the
                # packets leave the NIC even if they die on the wire).
                verdict, latency, bandwidth = chaos.on_wire(
                    route.src_node_index, route.dst_node_index, latency, bandwidth,
                )
                if verdict == 3:
                    # Silent corruption: deliver once, but with bits
                    # flipped in a *copy* of the payload (the sender's
                    # retransmit buffer keeps the intact original).
                    payload = chaos.corrupt_payload(payload)
                    verdict = 0
            src_node = route.src_node
            src_node.bytes_sent += wire_bytes
            nic_tx = src_node.nic_tx
            tx = nic_tx.acquire_nowait()
            if tx is None:
                # Busy NIC: queue FIFO behind the senders ahead of us.
                tx = nic_tx.request()
                yield tx
            try:
                serialization = wire_bytes / bandwidth
                if serialization > 0:
                    yield env.sleep(serialization)
            finally:
                nic_tx.release(tx)
        else:
            stats.intra_node_bytes += wire_bytes
            # Intra-node: the sender pays the memcpy into the shared buffer.
            serialization = wire_bytes / bandwidth
            if serialization > 0:
                yield env.sleep(serialization)
        if verdict != 1:
            dst_node = route.dst_node
            _Delivery(env, dst_node, wire_bytes, latency, bandwidth, mailbox, payload)
            if verdict == 2:
                _Delivery(env, dst_node, wire_bytes, latency, bandwidth, mailbox, payload)
        if obs is not None:
            obs.tracer.complete(
                CAT_MPI_SEND, variant.value, PID_CLUSTER, src_rank, start,
                dst=dst_rank, bytes=nbytes,
            )
            obs.metrics.counter("mpi.sends").inc()
            obs.metrics.histogram("mpi.send_bytes").observe(nbytes)

    # -- receiving --------------------------------------------------------------

    def recv(
        self, dst_rank: int, src_rank: int, tag: Any = 0
    ) -> Generator[Event, Any, Any]:
        """Blocking receive; returns the payload.

        Drive with ``payload = yield from mpi.recv(...)`` in the
        receiving process.  The ranks are checked at the call, with the
        errors :meth:`send` raises.  Raises
        :class:`~repro.errors.ChannelFlushedError` if the mailbox is
        flushed (misspeculation recovery) while blocked.
        """
        route = self._routes.get((src_rank, dst_rank))
        if route is None:
            route = self._new_route(src_rank, dst_rank)
        box = route.boxes.get(tag)
        if box is None:
            box = self.mailbox(src_rank, dst_rank, tag)
        return self._receive(route.dst_core, box, src_rank)

    def recv_from(self, dst_rank: int, box: Store) -> Generator[Event, Any, Any]:
        """Take the next item of ``box`` at rank ``dst_rank``, priced as
        an ``MPI_Recv``, like :meth:`recv`.

        For stores that are not per-(src, dst, tag) mailboxes, such as a
        unit's multiplexed inbox.
        """
        if dst_rank < 0:
            raise IndexError(f"core index {dst_rank} out of range")
        return self._receive(self._cores[dst_rank], box, None)

    def _receive(
        self, core: Core, box: Store, src_rank: Optional[int]
    ) -> Generator[Event, Any, Any]:
        """The one generator of a receive: drain deferred work, take the
        item (a waiting one without an event), then pay the receive
        overhead.  A blocked receive waits on a priced get, which takes
        the item and pays the overhead in one wake-up whenever that is
        exact (see :class:`~repro.sim.engine.Handoff`)."""
        obs = self.env.obs
        start = self.env.now if obs is not None else 0.0
        yield from core.drain()
        if box.items:
            payload = box.try_get()[1]
            yield core.compute(self._recv_cycles)
        else:
            get = box.get_priced(self._recv_seconds, self._recv_pay[core.index])
            payload = yield get
            if not get.paid:
                yield core.compute(self._recv_cycles)
        if obs is not None:
            peer = {} if src_rank is None else {"src": src_rank}
            obs.tracer.complete(
                CAT_MPI_RECV, "MPI_Recv", PID_CLUSTER, core.index, start, **peer
            )
            obs.metrics.counter("mpi.recvs").inc()
        return payload

    def try_recv(self, dst_rank: int, src_rank: int, tag: Any = 0) -> tuple[bool, Any]:
        """Non-blocking probe+receive; charges the receive overhead as a
        deferred cost only when a message was available."""
        box = self.mailbox(src_rank, dst_rank, tag)
        ok, payload = box.try_get()
        if ok:
            self.machine.core(dst_rank).charge_instructions(self.spec.mpi_recv_instructions)
        return ok, payload

    # -- recovery support ---------------------------------------------------------

    def flush_all(self, predicate: Optional[Any] = None) -> int:
        """Flush every mailbox (or those whose key satisfies ``predicate``),
        discarding queued messages and aborting blocked receivers.

        Returns the number of discarded messages.
        """
        discarded = 0
        for key, store in self._mailboxes.items():
            if predicate is None or predicate(key):
                discarded += store.flush()
        return discarded

"""Wire-level interconnect model.

Transfers between cores pay three costs:

1. **transmit serialization** — ``nbytes / bandwidth`` on the sender
   node's NIC transmit side, a single FIFO server (so concurrent senders
   on one node contend, which is what makes bandwidth-hungry
   applications such as 164.gzip plateau in Figures 4/5a);
2. **propagation latency** — a one-way delay occupying neither NIC
   (messages pipeline through the network);
3. **receive serialization** — ``nbytes / bandwidth`` on the receiver
   node's NIC receive side, likewise a FIFO server.

Each NIC side is a one-slot :class:`~repro.sim.resources.Resource`.  A
free NIC is taken synchronously with ``acquire_nowait()``, at no event
cost; a busy one queues FIFO on ``request()`` and is handed on by
``release()``.  The grant chain is kept for that contended case, rather
than a ``free_at`` clock per NIC, because it fixes the order of
same-instant hand-offs: when two NICs drain at the same float time, the
next holders resume in release order, and the Fig. 6 results depend on
that order.

Intra-node transfers use the shared-memory parameters of the
:class:`~repro.cluster.spec.ClusterSpec` and skip NIC contention (the
"serialization" there is the memcpy cost paid by the sender).

A transfer is split into a synchronous **transmit phase**, executed in
the sending process by :meth:`~repro.cluster.mpi.MPI.send` (eager-protocol
semantics: the sender's call returns once the data has left its hands),
and an asynchronous **delivery phase**, a :class:`_Delivery` callback
chain.  Because the transmit phase of messages from one sender is
serialized — by the NIC resource across nodes, by program order within
a process — and the propagation latency per (src, dst) pair is constant,
deliveries between a fixed pair of cores arrive in the order they were
sent, which gives channels FIFO semantics for free.

:class:`Interconnect` holds what both phases look up per message: the
node of every core, the two wire-parameter pairs, and the transfer
statistics.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster.node import Machine
from repro.sim import Environment, Event

__all__ = ["Interconnect", "TransferStats"]


class TransferStats:
    """Aggregate transfer statistics for bandwidth analysis (Fig. 5a)."""

    def __init__(self) -> None:
        self.total_bytes = 0
        self.total_messages = 0
        self.inter_node_bytes = 0
        self.intra_node_bytes = 0

    def snapshot(self) -> dict:
        """Plain-dict view for reports."""
        return {
            "total_bytes": self.total_bytes,
            "total_messages": self.total_messages,
            "inter_node_bytes": self.inter_node_bytes,
            "intra_node_bytes": self.intra_node_bytes,
        }


class _Delivery:
    """The delivery phase of one in-flight message, driven as a chain of
    event callbacks.

    :meth:`~repro.cluster.mpi.MPI.send` starts one per message after its
    transmit phase: the propagation latency, then (inter-node) the
    receiver's NIC and receive serialization, then the hand-off.  A free
    receive NIC is taken on arrival, with no event; a busy one queues
    the message FIFO behind the ones already waiting for it.
    A callback chain instead of a process saves the Initialize event,
    the generator frame and the process-completion event.  The hand-off
    is a :meth:`~repro.sim.resources.Store.put_nowait` of ``payload``
    into ``mailbox``, with no put-acknowledge event.
    """

    __slots__ = ("env", "dst_node", "nbytes", "bandwidth", "mailbox",
                 "payload", "_rx")

    def __init__(
        self,
        env: "Environment",
        dst_node: Any,
        nbytes: int,
        latency: float,
        bandwidth: float,
        mailbox: Any,
        payload: Any,
    ) -> None:
        self.env = env
        self.nbytes = nbytes
        self.mailbox = mailbox
        self.payload = payload
        #: Destination node, or ``None`` for an intra-node transfer.
        self.dst_node = dst_node
        self.bandwidth = bandwidth
        self._rx: Optional[Event] = None
        # A zero latency still takes one trip through the event queue,
        # so the hand-off never happens synchronously inside the sender.
        env.sleep(latency).callbacks.append(self._after_latency)

    def _after_latency(self, _event: Event) -> None:
        node = self.dst_node
        if node is None:
            self._finish()
            return
        node.bytes_received += self.nbytes
        nic_rx = node.nic_rx
        rx = nic_rx.acquire_nowait()
        if rx is not None:
            self._rx = rx
            self._after_rx_grant(None)
            return
        # Busy NIC: queue FIFO behind the messages ahead of this one.
        self._rx = rx = nic_rx.request()
        rx.callbacks.append(self._after_rx_grant)

    def _after_rx_grant(self, _event: Optional[Event]) -> None:
        serialization = self.nbytes / self.bandwidth
        if serialization > 0:
            self.env.sleep(serialization).callbacks.append(self._after_serialization)
        else:
            self._after_serialization(_event)

    def _after_serialization(self, _event: Optional[Event]) -> None:
        self.dst_node.nic_rx.release(self._rx)
        self._finish()

    def _finish(self) -> None:
        self.mailbox.put_nowait(self.payload)


class Interconnect:
    """Per-core wire lookups and transfer statistics for the cluster's
    NICs; :meth:`~repro.cluster.mpi.MPI.send` prices each transfer."""

    def __init__(self, env: Environment, machine: Machine) -> None:
        self.env = env
        self.machine = machine
        self.spec = machine.spec
        self.stats = TransferStats()
        # Per-core node lookups and the two wire-parameter pairs,
        # resolved once: MPI.send runs for every batch and control message.
        spec = self.spec
        self._node_index_of = [spec.node_of_core(i) for i in range(spec.total_cores)]
        self._node_of = [machine.nodes[n] for n in self._node_index_of]
        self._intra = (spec.intra_node_latency_s, spec.intra_node_bandwidth_bps)
        self._inter = (spec.inter_node_latency_s, spec.inter_node_bandwidth_bps)

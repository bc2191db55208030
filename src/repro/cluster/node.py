"""Nodes and cores of the simulated cluster.

A :class:`Core` is the execution resource a runtime unit (worker,
try-commit unit, commit unit) is pinned to.  Computation is expressed in
clock cycles or instructions; a core converts them to simulated time.

To keep the event count low, cores support *deferred* accounting: cheap
bookkeeping costs accumulate in a pending counter and are realized as a
single timeout when the owning process next blocks (see
:meth:`Core.drain`).  This changes nothing observable — the paper's
runtime similarly only pays overheads on its own thread — but cuts the
number of simulator events by an order of magnitude.
"""

from __future__ import annotations

from typing import Iterator

from repro.cluster.spec import ClusterSpec
from repro.sim import Environment, Event, Resource

__all__ = ["Core", "Node", "Machine"]


class Core:
    """One processor core, identified by a global index."""

    def __init__(self, env: Environment, spec: ClusterSpec, index: int) -> None:
        self.env = env
        self.spec = spec
        self.index = index
        self.node_index = spec.node_of_core(index)
        #: Cycles of deferred (not yet realized) bookkeeping work.
        self.pending_cycles = 0.0
        #: Total busy cycles, realized + pending, for utilization stats.
        self.busy_cycles = 0.0
        # Divisors resolved once; compute/charge run per instruction
        # batch on the hot path.  Kept as divisors (not reciprocal
        # multipliers) so the float results stay bit-identical to
        # spec.cycles_to_seconds / instructions_to_seconds.
        self._clock_hz = spec.clock_hz
        self._ipc = spec.instructions_per_cycle

    # -- immediate costs -----------------------------------------------------

    def compute(self, cycles: float) -> Event:
        """Return an event realizing ``cycles`` of work right now."""
        if cycles < 0:
            raise ValueError(f"negative cycle count: {cycles}")
        self.busy_cycles += cycles
        return self.env.sleep(cycles / self._clock_hz)

    def execute_instructions(self, instructions: float) -> Event:
        """Return an event realizing ``instructions`` of work right now."""
        return self.compute(instructions / self._ipc)

    def account(self, cycles: float) -> None:
        """Count ``cycles`` of work starting now as busy, for a caller
        that schedules their wake-up itself (a priced receive)."""
        if cycles < 0:
            raise ValueError(f"negative cycle count: {cycles}")
        self.busy_cycles += cycles

    # -- deferred costs --------------------------------------------------------

    def charge_cycles(self, cycles: float) -> None:
        """Accumulate ``cycles`` of work to be realized at the next drain."""
        if cycles < 0:
            raise ValueError(f"negative cycle count: {cycles}")
        self.pending_cycles += cycles
        self.busy_cycles += cycles

    def charge_instructions(self, instructions: float) -> None:
        """Accumulate instruction cost to be realized at the next drain."""
        self.charge_cycles(instructions / self._ipc)

    def drain(self) -> tuple[Event, ...]:
        """Realize all pending cycles as simulated time.

        Returns a tuple of zero or one timeouts; drive with
        ``yield from core.drain()`` immediately before any blocking
        operation.  Returning a tuple instead of being a generator keeps
        the (very common) nothing-pending case free of generator
        allocation.
        """
        if self.pending_cycles > 0.0:
            cycles, self.pending_cycles = self.pending_cycles, 0.0
            return (self.env.sleep(cycles / self._clock_hz),)
        return ()

    def drain_then_compute(self, cycles: float) -> Event:
        """One wake-up realizing the pending cycles, then ``cycles`` more.

        It fires at ``(now + pending) + cycles``, the float instant that
        ``drain()`` followed by ``compute(cycles)`` reaches, with one
        event instead of two.
        """
        if cycles < 0:
            raise ValueError(f"negative cycle count: {cycles}")
        self.busy_cycles += cycles
        clock_hz = self._clock_hz
        when = self.env._now
        if self.pending_cycles > 0.0:
            pending, self.pending_cycles = self.pending_cycles, 0.0
            when += pending / clock_hz
        return self.env.sleep_until(when + cycles / clock_hz)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Core {self.index} on node {self.node_index}>"


class Node:
    """One cluster node: a set of cores sharing a NIC and local memory."""

    def __init__(self, env: Environment, spec: ClusterSpec, index: int) -> None:
        self.env = env
        self.spec = spec
        self.index = index
        first = index * spec.cores_per_node
        self.cores = [Core(env, spec, first + i) for i in range(spec.cores_per_node)]
        #: NIC transmit and receive sides are independent (full duplex).
        self.nic_tx = Resource(env, capacity=1)
        self.nic_rx = Resource(env, capacity=1)
        #: Bytes sent/received through this node's NIC (stats).
        self.bytes_sent = 0
        self.bytes_received = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.index} with {len(self.cores)} cores>"


class Machine:
    """The whole simulated cluster: all nodes and cores, plus the spec."""

    def __init__(self, env: Environment, spec: ClusterSpec) -> None:
        self.env = env
        self.spec = spec
        self.nodes = [Node(env, spec, i) for i in range(spec.nodes)]
        # Flat global-index view; core() is a hot lookup in the MPI layer.
        self._cores = [core for node in self.nodes for core in node.cores]

    def core(self, index: int) -> Core:
        """Global core lookup."""
        if index < 0:
            raise IndexError(f"core index {index} out of range")
        return self._cores[index]

    def iter_cores(self) -> Iterator[Core]:
        """All cores in global index order."""
        for node in self.nodes:
            yield from node.cores

    @property
    def total_cores(self) -> int:
        return self.spec.total_cores

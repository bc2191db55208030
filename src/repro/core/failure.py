"""Heartbeat-based failure detection (fault-tolerant mode).

Every node that hosts runtime units heartbeats to the commit node every
:attr:`ClusterSpec.heartbeat_period_s`.  The :class:`FailureDetector`,
co-located with the commit unit, sweeps the per-node last-heard times;
a node silent for longer than :attr:`ClusterSpec.suspicion_timeout_s`
is declared dead.  The detector only detects: the declaration itself is
:meth:`~repro.core.runtime.ClusterSystem.declare_dead`, one method for
both paradigms.  It queues the failover on
``SystemState.failover_pending`` (the authoritative signal the commit
unit's run loop consumes), lets the paradigm release what the dead
units held (DSMTX deregisters them from the recovery barriers, so a
rollback already in flight completes with the survivors instead of
deadlocking on parties that will never arrive), and injects a
``CTL_NODE_FAILED`` control envelope locally into the commit unit's
inbox as a wake-up ping, in case the commit unit is blocked on an empty
inbox.

Heartbeats travel the management path (the dedicated low-volume control
network alongside the data fabric), so they cost neither core time nor
NIC serialization; their overhead is pure accounting.  The suspicion
timeout budgets several heartbeat periods plus wire latency, so a
healthy node is never suspected: transient link faults only delay data
traffic (absorbed by the reliable transport) and never trigger a
spurious failover.

**One tick, per-node handles.**  The whole detector is one simulation
process.  Each tick — on the same ``t + period`` float chain a per-node
emitter would follow — first records a beat for every node that is
still alive, then runs the commit-side sweep round, then the
standby-side watcher step, each only while the node hosting it is
alive.  Each monitored node registers one small handle with the system
(:meth:`~repro.core.runtime.ClusterSystem.register_node_process`); a node
crash "interrupts" the handle, which silences the node's beat and stops
any detector duty hosted there.  This simulates exactly what separate
emitter, sweep and watcher processes would: started back to back and
each waiting on one ``sleep(period)`` per tick, their wake-ups would
hold adjacent heap keys, so nothing else could run between them; a
declaration schedules only same-instant events, so nothing created
mid-tick lands on the next tick; and a crash interrupt runs at priority
0, ahead of any tick at the same instant, which is where the handle's
synchronous silencing puts it too.

A crash of the DSMTX try-commit node is not survivable — the validation
pipeline has no replica — and raises
:class:`~repro.errors.ClusterFailedError`.  The same goes for the
commit node, *unless* commit replication is on
(``SystemConfig.commit_replication``): then the detection duty for the
primary moves to a **standby-side watcher** co-located with the (single)
hot standby, because the commit-side sweep dies with the primary.  The
watcher declares the primary dead only when

* the primary has been silent past the suspicion timeout, **and**
* a quorum of the *other* monitored nodes has been heard recently
  (:attr:`ClusterSpec.quorum_fraction` — a watcher that has itself been
  partitioned away hears from nobody and stays quiet rather than
  promote a second commit unit).

The declaration then also sets ``SystemState.promote_pending`` — the
signal the standby's run loop turns into a promotion — and pings the
standby instead of the commit unit.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import NodeCrashed, ProcessInterrupt

__all__ = ["FailureDetector"]


class _NodeHandle:
    """The detector's presence on one node: its heartbeat, plus the
    sweep or the watcher if the node hosts one.

    Registered with the system like a unit process, so the chaos
    engine's crash loop (``is_alive``, ``interrupt``) silences it.
    """

    __slots__ = ("detector", "node", "is_alive")

    def __init__(self, detector: "FailureDetector", node: int) -> None:
        self.detector = detector
        self.node = node
        self.is_alive = True

    def interrupt(self, cause: object = None) -> None:
        """Die with the node; silence is the signal.  Any other cause
        is a bug in the caller and raises, as it would in a process."""
        if not isinstance(cause, NodeCrashed):
            raise ProcessInterrupt(cause)
        if self.is_alive:
            self.is_alive = False
            self.detector._beating.remove(self.node)


class FailureDetector:
    """Heartbeats, the commit-side sweep and the standby-side watcher,
    driven by one tick process."""

    def __init__(self, system: "ClusterSystem") -> None:  # noqa: F821
        self.system = system
        spec = system.cluster
        self.period = spec.heartbeat_period_s
        self.suspicion_timeout = spec.suspicion_timeout_s
        #: Node hosting the commit unit (the sweep's home; the sweep
        #: cannot declare its own node dead).  Reassigned to the standby
        #: node at promotion, when the watcher takes over sweep duty.
        self.commit_node = system.node_of(system.commit_tid)
        #: Node hosting the commit standby; ``None`` without commit
        #: replication.
        self.standby_node = (
            system.node_of(system.standby_tid)
            if system.standby_tid is not None
            else None
        )
        #: tids hosted on each monitored node.
        self.tids_by_node: dict[int, list[int]] = {}
        for tid in range(system.num_units):
            self.tids_by_node.setdefault(system.node_of(tid), []).append(tid)
        self.last_heard: dict[int, float] = {}
        self.declared: set[int] = set()
        #: Nodes whose heartbeat is live, in ``tids_by_node`` order; a
        #: node crash removes its entry through the node's handle.
        self._beating: list[int] = []
        #: Handles of the nodes hosting the sweep and the standby-side
        #: watcher (commit replication only; without it the sweep shares
        #: the commit node, whose loss is fatal, so it never dies).
        self._sweep_host: _NodeHandle | None = None
        self._watch_host: _NodeHandle | None = None

    @property
    def replicated(self) -> bool:
        return self.standby_node is not None

    def start(self) -> None:
        """Register one crash handle per monitored node and spawn the
        detector's single tick process.

        Called by the system's run after unit processes exist, so
        the handles are registered for chaos-engine crash targeting
        after the units they share a node with.
        """
        system = self.system
        now = system.env.now
        handles: dict[int, _NodeHandle] = {}
        for node in self.tids_by_node:
            self.last_heard[node] = now
            # With commit replication the commit node beats too: its
            # silence is what the standby-side watcher detects.
            if node != self.commit_node or self.replicated:
                handles[node] = handle = _NodeHandle(self, node)
                self._beating.append(node)
                system.register_node_process(node, handle)
        if self.replicated:
            # The sweep is co-located with the commit unit: it dies with
            # the primary, and the watcher takes over its duty.
            self._sweep_host = handles[self.commit_node]
            self._watch_host = handles[self.standby_node]
        system.env.process(self._tick(), name="failure-detector")

    def _tick(self) -> Generator:
        """Every ``period``: one beat per live node, then the sweep
        round, then the watcher step, each only while its host lives.

        The beat is recorded at send time: the suspicion timeout already
        budgets the (microsecond-scale) management-path delay, so
        modelling the flight adds nothing but allocations.
        """
        system = self.system
        env = system.env
        state = system.state
        stats = system.stats
        period = self.period
        last_heard = self.last_heard
        beating = self._beating
        sweep_host = self._sweep_host
        watch_host = self._watch_host
        while not state.done:
            yield env.sleep(period)
            now = env.now
            for node in beating:
                last_heard[node] = now
            stats.ft_heartbeats += len(beating)
            if sweep_host is None or sweep_host.is_alive:
                self._sweep_round(now)
            if watch_host is not None and watch_host.is_alive:
                self._watch_round(now)

    def _sweep_round(self, now: float) -> None:
        for node, heard in self.last_heard.items():
            if node in self.declared or node == self.commit_node:
                continue
            if now - heard > self.suspicion_timeout:
                self._declare(node)

    def _watch_round(self, now: float) -> None:
        """Standby-side watcher step (commit replication only).

        Monitors the primary's heartbeats; after promotion — when
        :attr:`commit_node` has become the watcher's own node — it
        takes over the ordinary sweep duty from the dead primary's
        sweep.
        """
        commit_node = self.commit_node
        if commit_node == self.standby_node:
            # Promoted: the watcher is the survivors' sweep now.
            self._sweep_round(now)
        elif (
            commit_node not in self.declared
            and now - self.last_heard[commit_node] > self.suspicion_timeout
            and self._quorum_agrees(now)
        ):
            self._declare(commit_node)

    def _quorum_agrees(self, now: float) -> bool:
        """Majority-of-survivors gate on declaring the primary.

        Count the *other* monitored nodes (not the primary's, not our
        own, not already declared) heard within the suspicion timeout;
        require at least ``quorum_fraction`` of them.  A watcher that
        itself fell off the network hears from nobody and stays quiet
        instead of promoting a second commit unit.
        """
        others = [
            node
            for node in self.last_heard
            if node not in (self.commit_node, self.standby_node)
            and node not in self.declared
        ]
        if not others:
            return True
        heard = sum(
            1
            for node in others
            if now - self.last_heard[node] <= self.suspicion_timeout
        )
        return heard >= len(others) * self.system.cluster.quorum_fraction

    def _declare(self, node: int) -> None:
        """Declare ``node`` dead and hand the failover to the system."""
        system = self.system
        self.declared.add(node)
        dead_tids = tuple(self.tids_by_node[node])
        primary = system.commit_tid in dead_tids
        system.declare_dead(node, dead_tids, self.last_heard[node])
        if primary:
            # From here on this watcher's own node is the primary's.
            self.commit_node = self.standby_node

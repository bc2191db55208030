"""The rollback protocol (paper section 4.3).

When an MTX conflicts with an earlier one, the system rolls back:

1. **ERM** — all threads synchronize into recovery mode.  The commit
   unit (the orchestrator) releases queue credits and flushes every
   inbox so blocked units wake; everyone meets at the first barrier.
2. **FLQ** — message queues holding speculative state are flushed, and
   all threads but the commit unit reinstate the access protections on
   their heaps, discarding the remaining speculative state.  A second
   barrier ends the phase.
3. **SEQ** — the commit unit re-executes the uncommitted iterations up
   to and including the misspeculated one in single-threaded fashion
   against committed memory.
4. A final barrier releases everyone; the epoch advances, workers
   recompute their round-robin assignments from the new restart base,
   and Copy-On-Access guarantees they see fresh committed data.  The
   **RFP** (refill pipeline) cost — the squashed run-ahead work —
   follows implicitly, which is why it dominates Figure 6.

A node failure (fault-tolerant mode) rolls back by the same protocol,
with the re-partition onto the survivors in place of SEQ; participants
cannot tell the two apart.

This module provides the shared barriers and the participant-side
protocol; the orchestrator side lives in
:class:`~repro.core.commit.CommitUnit`, and the rollback in flight on
:class:`~repro.core.state.SystemState`.  Each barrier's generation
counts its releases, so a promoted commit unit can tell which barriers
a rollback it inherits has already passed.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import ChannelFlushedError, RecoveryAbort
from repro.obs.tracer import (
    CAT_RECOVERY_ERM,
    CAT_RECOVERY_FLQ,
    CAT_RECOVERY_SEQ,
    PID_RUNTIME,
)
from repro.sim import Barrier, Event

__all__ = ["RecoveryCoordinator"]


class RecoveryCoordinator:
    """Shared barriers plus the participant protocol."""

    def __init__(self, system: "DSMTXSystem", parties: int) -> None:  # noqa: F821
        self.system = system
        self.parties = parties
        env = system.env
        self.erm_barrier = Barrier(env, parties)
        self.flq_barrier = Barrier(env, parties)
        self.resume_barrier = Barrier(env, parties)
        #: The three barriers of one rollback, in protocol order.
        self.barriers = (self.erm_barrier, self.flq_barrier, self.resume_barrier)
        self._deregistered: set[int] = set()

    def deregister(self, dead_tids) -> None:
        """Remove dead units from the barrier protocol (failure detector).

        Called at declaration time, *before* the commit unit orchestrates
        the failover: a rollback already in progress must complete with
        the survivors instead of deadlocking on parties that will never
        arrive.  Shrinks every barrier and withdraws any arrival the dead
        unit already made (it may have died waiting at a barrier).
        """
        fresh = [tid for tid in dead_tids if tid not in self._deregistered]
        if not fresh:
            return
        self._deregistered.update(fresh)
        self.parties -= len(fresh)
        for barrier in self.barriers:
            for tid in fresh:
                barrier.drop(tid)
            barrier.set_parties(self.parties)

    def substitute(self, old_tid: int, new_tid: int) -> None:
        """Pass a dead orchestrator's barrier seat to its replacement
        (commit-standby promotion).

        Unlike :meth:`deregister`, the party count is *unchanged*: the
        promoted unit arrives at every barrier under its own tid.  Any
        arrival the dead unit already made is withdrawn (it may have
        died waiting at a barrier mid-recovery).
        """
        if old_tid in self._deregistered:
            return
        self._deregistered.add(old_tid)
        for barrier in self.barriers:
            barrier.drop(old_tid)

    def _barrier_cost(self, unit) -> Generator[Event, Any, None]:
        """Software + wire cost of one barrier round for one unit."""
        unit.core.charge_instructions(self.system.config.barrier_instructions)
        yield from unit.core.drain()

    def participate(self, unit) -> Generator[Event, Any, None]:
        """Run the participant side of recovery for a worker or the
        try-commit unit.  Returns after the resume barrier (or at once
        if the run terminated instead)."""
        system = self.system
        obs = system.obs
        env = system.env
        entered = env.now if obs is not None else 0.0
        # Wait for the commit unit to actually enter recovery mode; the
        # inbox flush it performs will wake us if we block meanwhile.
        # Termination is re-checked on *every* pass: the commit unit may
        # decide the run is done (rather than entering recovery) while
        # this unit sits in this loop — e.g. when a drain was requested
        # but every remaining iteration commits cleanly, or when the
        # terminating inbox flush itself raised the error that brought
        # us here.  Joining the ERM barrier after termination would
        # strand this unit (nobody else will ever arrive).
        while not system.state.in_recovery:
            if system.state.done:
                return
            try:
                envelope = yield from unit.endpoint._recv_one()
                unit.endpoint._route(envelope, arrival_order=False)
            except (ChannelFlushedError, RecoveryAbort):
                continue
        # ERM: synchronize into recovery mode.
        yield from self._barrier_cost(unit)
        yield self.erm_barrier.wait(unit.tid)
        if obs is not None:
            obs.tracer.complete(
                CAT_RECOVERY_ERM, "erm", PID_RUNTIME, unit.tid, entered
            )
            erm_done = env.now
        # FLQ: reinstate protections, discard local speculative state.
        dropped_pages = unit.discard_speculative_state()
        unit.core.charge_instructions(
            dropped_pages * system.config.reprotect_instructions_per_page
        )
        yield from self._barrier_cost(unit)
        yield self.flq_barrier.wait(unit.tid)
        if obs is not None:
            obs.tracer.complete(
                CAT_RECOVERY_FLQ, "flq", PID_RUNTIME, unit.tid, erm_done,
                dropped_pages=dropped_pages,
            )
            flq_done = env.now
        # SEQ runs at the commit unit; we wait for the resume barrier.
        yield from self._barrier_cost(unit)
        yield self.resume_barrier.wait(unit.tid)
        # Propagation of the resume notification.
        yield system.env.timeout(2 * system.cluster.inter_node_latency_s)
        if obs is not None:
            obs.tracer.complete(
                CAT_RECOVERY_SEQ, "seq.wait", PID_RUNTIME, unit.tid, flq_done
            )

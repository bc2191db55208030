"""Global system state shared by all DSMTX units.

The paper's API returns a system *state* from ``mtx_begin``/``mtx_end``
so workers can detect misspeculation or termination without blocking
(Table 1).  Physically this is a small control word broadcast by the
commit unit; modelling it as a shared object is safe because only the
commit unit writes it, all other units poll it at MTX boundaries, and
the propagation delay is charged explicitly by the recovery barriers.

The *epoch* increments on every recovery.  Every queue batch is tagged
with the epoch at send time, so data that was in flight across a
rollback is recognized as stale and discarded at the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RecoveryError

__all__ = ["Rollback", "RunMode", "SystemState"]


class RunMode:
    """Execution modes of the parallel region."""

    RUN = "run"
    RECOVERY = "recovery"
    DONE = "done"


@dataclass
class Rollback:
    """One rollback (paper section 4.3): a misspeculation's, with the
    aborted iteration as ``target``, or a node failure's, with the
    declaration as ``request``.  ``generations`` holds the ERM, FLQ and
    resume barriers' generations at its start: a barrier whose
    generation has moved on has released for this rollback."""

    target: int | None = None
    request: tuple | None = None
    #: When the misspeculation's drain began, or the node was declared.
    detected_at: float = 0.0
    started_at: float = 0.0
    generations: tuple = (0, 0, 0)
    #: Speculative iterations past the commit frontier at the start:
    #: squashed by a misspeculation, lost to a node failure.
    squashed: int = 0
    #: Queue entries discarded at FLQ.
    discarded: int = 0
    #: Iterations SEQ re-executed, over every run of it.
    reexecuted: int = 0
    erm_done: float | None = None
    flq_done: float | None = None
    seq_done: float | None = None


class SystemState:
    """Control state: mode, recovery epoch, and iteration restart base."""

    def __init__(self) -> None:
        self.mode = RunMode.RUN
        self.epoch = 0
        #: First iteration of the current epoch (workers schedule
        #: round-robin relative to this base).
        self.restart_base = 0
        #: True while the system drains committed-side work up to the
        #: misspeculated iteration before rolling back.  Workers pause
        #: at their next MTX boundary at or past ``pause_target``;
        #: everything earlier validates and commits normally, so the
        #: SEQ phase re-executes only the aborted iteration itself.
        self.draining = False
        #: First doomed iteration (the earliest reported misspeculation).
        self.pause_target: int | None = None
        #: When the current drain began.
        self.drain_started_at = 0.0
        #: Pending node-failure declarations from the failure detector:
        #: ``(node, dead_tids, detected_at, last_heard_at)`` tuples.
        #: Appended by the detector; the commit unit rolls back for the
        #: first one (one failover at a time), which leaves the list at
        #: that rollback's resume.  Authoritative over the
        #: CTL_NODE_FAILED wake-up ping (which may be filtered or arrive
        #: late).
        self.failover_pending: list = []
        #: Pending commit-standby promotion: the ``(node, dead_tids,
        #: detected_at, last_heard_at)`` declaration that took the
        #: commit unit's node, set by the standby-side watcher and
        #: consumed by the standby's run loop (commit replication only).
        #: The matching entry also sits on ``failover_pending``: the
        #: *promoted* commit unit rolls back for it after the promotion
        #: replay (and after finishing any rollback in flight).
        self.promote_pending: tuple | None = None
        #: Nodes declared dead so far (grows monotonically).
        self.failed_nodes: set[int] = set()
        #: The rollback in flight, from ``begin_recovery`` until the
        #: commit unit has written its records; ``None`` otherwise.  Kept
        #: here, not in the orchestrator's generator frame, so a standby
        #: promoted mid-rollback can finish it.
        self.rollback: Rollback | None = None

    @property
    def in_recovery(self) -> bool:
        return self.mode == RunMode.RECOVERY

    @property
    def done(self) -> bool:
        return self.mode == RunMode.DONE

    def begin_draining(self, misspec_iteration: int, at: float) -> None:
        """Start the pre-recovery drain at time ``at`` (commit unit only)."""
        if self.mode == RunMode.DONE:
            raise RecoveryError("cannot start draining after termination")
        self.draining = True
        self.pause_target = misspec_iteration
        self.drain_started_at = at

    def lower_pause_target(self, misspec_iteration: int) -> None:
        """An earlier misspeculation arrived while draining."""
        if not self.draining:
            raise RecoveryError("lower_pause_target outside draining")
        self.pause_target = min(self.pause_target, misspec_iteration)

    def request_failover(
        self, node: int, dead_tids: tuple, detected_at: float, last_heard_at: float
    ) -> None:
        """Record a node-failure declaration (failure detector only).

        Only the first declaration per node sticks; the commit unit
        rolls back for one declaration at a time and re-checks the queue
        at its loop top, so back-to-back failures serialize naturally.
        """
        if self.mode == RunMode.DONE or node in self.failed_nodes:
            return
        self.failed_nodes.add(node)
        self.failover_pending.append((node, dead_tids, detected_at, last_heard_at))

    def begin_recovery(
        self, target: int | None = None, request: tuple | None = None, **start
    ) -> Rollback:
        """Enter recovery mode proper and open the :class:`Rollback` in
        flight (commit unit only): ``target`` for a misspeculation,
        ``request`` for a node failure, ``start`` its other fields."""
        if self.mode == RunMode.DONE:
            raise RecoveryError("cannot start recovery after termination")
        self.mode = RunMode.RECOVERY
        self.rollback = Rollback(target, request, **start)
        return self.rollback

    def resume(self, restart_base: int) -> None:
        """Leave recovery: bump the epoch and set the new restart base.
        A node failure's declaration leaves ``failover_pending`` here."""
        if self.mode != RunMode.RECOVERY:
            raise RecoveryError("resume called outside recovery")
        self.mode = RunMode.RUN
        self.epoch += 1
        self.restart_base = restart_base
        self.draining = False
        self.pause_target = None
        if self.rollback is not None and self.rollback.request is not None:
            self.failover_pending.remove(self.rollback.request)

    def terminate(self) -> None:
        """Mark the parallel region finished."""
        self.mode = RunMode.DONE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SystemState {self.mode} epoch={self.epoch} "
            f"base={self.restart_base}>"
        )

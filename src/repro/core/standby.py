"""Hot-standby replica of the commit unit (commit replication).

DSMTX centralizes all non-speculative program state in the commit unit,
which makes its node the one failure the fault-tolerant runtime cannot
otherwise survive.  With ``SystemConfig.commit_replication`` on, a
:class:`StandbyUnit` runs on a node other than the primary's and is kept
current by two mechanisms, both priced on the simulated wire through the
reliable transport:

* **streaming replication** — after every group-commit round (and every
  SEQ re-execution) the primary streams the committed writes followed by
  a ``REPL_FRONTIER`` marker down a *durable* runtime queue.  The
  standby accumulates them in a replay log; at each marker the log is a
  consistent sequential prefix of master memory.
* **checkpoint mirroring** — when the primary takes an epoch checkpoint
  it appends a ``REPL_CHECKPOINT`` marker; the standby folds its replay
  log into its base image, so the image tracks the primary's checkpoints
  and the replay log stays short (promotion replay cost is bounded by
  the checkpoint interval).

The stream is durable because it carries *committed* state: epoch fences
and FLQ flushes — which exist to destroy speculative state — must never
touch it, and the standby is exempt from recovery barriers and inbox
flushes for the same reason.

When the standby-side watcher (:mod:`repro.core.failure`) declares the
primary's node dead, the standby discards any half-replicated round,
replays the log onto its checkpoint image, and is promoted: it becomes
the system's commit unit (:meth:`DSMTXSystem.promote_standby` swaps the
layout, redirects the write-log and validation queues, and substitutes
the barrier party), then drives the ordinary degraded-mode restart from
the last replicated frontier.  Iterations the primary committed past
that frontier died with its master memory and are re-executed by the
survivors — deterministically, so the final committed memory is byte-
identical to the fault-free run.

:class:`ReservationStandby` does the same for the ``speculative_for``
reservation service.  Both sit on one replicated-image core: the base
image and replay log, the checkpoint fold with its integrity digest
check, and the promotion replay, refusal and accounting.  Each class
adds only its stream's ingest loop and its paradigm's hand-off.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.core.integrity import space_digest
from repro.core.messages import (
    REPL_CHECKPOINT,
    REPL_FRONTIER,
    SF_REPL_CHECKPOINT,
    SF_REPL_ROUND,
    SF_STOP,
    WRITE,
    ControlEnvelope,
)
from repro.core.reservations import (
    ReservationStats,
    RoundRecord,
    next_round_size,
)
from repro.core.stats import FailureRecord
from repro.errors import (
    ChannelFlushedError,
    ClusterFailedError,
    NodeCrashed,
    ProcessInterrupt,
    RecoveryAbort,
)
from repro.memory import AddressSpace
from repro.obs.tracer import (
    CAT_FT_PROMOTION,
    CAT_FT_REPLICATION,
    CAT_INTEGRITY,
    PID_RUNTIME,
)
from repro.sim import Event

__all__ = ["StandbyUnit", "ReservationStandby"]


class _ImageReplica:
    """The replicated-image core both standbys share.

    It owns a base image (the primary's committed state as of the last
    mirrored epoch checkpoint) and a replay log (committed writes since
    then).  A checkpoint marker folds the log into the image; in
    integrity mode the marker carries the primary's master digest, and
    the folded image is checked against it.  At promotion the core
    refuses a corrupted image, replays the log onto the image, and
    accounts the promotion.  Subclasses add their stream's ingest loop
    and their paradigm's hand-off.
    """

    def __init__(self, system: Any, tid: int, name: str) -> None:
        self.system = system
        self.tid = tid
        self.core = system.core_of(tid)
        #: Base image: master memory as of the last mirrored checkpoint.
        self.image = AddressSpace(name, faulting=False)
        #: Committed writes since the last checkpoint fold, complete up
        #: to :attr:`frontier` (replayed onto the image at promotion).
        self.replay_log: list[tuple[int, int]] = []
        #: Last replicated commit frontier: image + replay log hold
        #: exactly the committed effects up to it (DSMTX: iterations
        #: below it; speculative_for: that many committed iterations).
        self.frontier = 0
        #: True once this unit has been promoted.
        self.promoted = False
        #: Integrity mode: verify every fold's result against the
        #: primary's checkpoint digest.
        self._integrity = system.config.integrity
        #: Sticky corruption flag: a fold whose folded image failed its
        #: digest check.  Promotion *refuses* a corrupted image; a later
        #: fold that verifies clean (the corrupt word was overwritten by
        #: replayed writes) clears it and counts a repair.
        self.image_corrupt = False
        #: Digest of the image at the last *clean* fold.
        self._verified_digest = None

    def seed_image(self, master: AddressSpace) -> None:
        """Bootstrap the base image from the initial master memory.

        The workload's sequential prologue writes program state into the
        primary's master before the parallel region starts; that initial
        image is the epoch-0 checkpoint, distributed with the program
        (process launch, not the simulated wire).  Without it a promoted
        standby would resurrect an empty heap and every committed result
        derived from the initial data would be wrong.

        Each master page with present words is installed as a
        :meth:`~repro.memory.page.Page.snapshot`: image and master share
        its frozen word array until either side writes the page.
        """
        image = self.image
        for page in master.iter_pages():
            if page.present_mask:
                image.install_page(page.snapshot())

    # -- checkpoint folds --------------------------------------------------------------

    def _fold(self, frontier: int, digest=None) -> None:
        """Checkpoint marker: fold the replay log into the base image
        (the standby-side mirror of the primary's epoch checkpoint).

        In integrity mode the marker carries the primary's master
        digest; after the fold, image and master hold the same
        committed prefix, so any mismatch means the image (or the
        stream) was silently corrupted — the image is flagged and a
        promotion will refuse it."""
        system = self.system
        words = len(self.replay_log)
        if words:
            self.image.apply_writes(self.replay_log)
            self.replay_log = []
            self.core.charge_instructions(
                words * system.config.checkpoint_word_instructions
            )
            system.stats.ft_repl_folded_words += words
        if digest is not None:
            self._verify_image(digest, frontier)
        if not words:
            return
        obs = system.obs
        if obs is not None:
            obs.tracer.instant(
                CAT_FT_REPLICATION, f"fold:{frontier}", PID_RUNTIME, self.tid,
                frontier=frontier, words=words,
            )
            obs.metrics.counter("ft.repl_folds").inc()

    def _verify_image(self, digest: int, frontier: int) -> None:
        """Compare the folded image against the primary's checkpoint
        digest; flag (or heal) the sticky corruption state."""
        system = self.system
        stats = system.stats
        actual = space_digest(self.image)
        self.core.charge_instructions(
            sum(page.word_count for page in self.image.iter_pages())
            * system.config.checkpoint_word_instructions
        )
        obs = system.obs
        if actual == digest:
            self._verified_digest = digest
            if self.image_corrupt:
                # The corrupted words were overwritten by replayed
                # committed writes: the image verifies clean again.
                self.image_corrupt = False
                stats.ft_corruptions_repaired += 1
                if obs is not None:
                    obs.metrics.counter("integrity.image_healed").inc()
            return
        if not self.image_corrupt:
            self.image_corrupt = True
            stats.ft_corruptions_detected += 1
            if obs is not None:
                obs.tracer.instant(
                    CAT_INTEGRITY, "checkpoint_digest_mismatch",
                    PID_RUNTIME, self.tid, frontier=frontier,
                )
                obs.metrics.counter("integrity.image_corrupt").inc()

    # -- promotion ---------------------------------------------------------------------

    def _begin_promotion(self, request) -> None:
        """First step of a promotion: consume the request, and in
        integrity mode refuse (fail-stop) to promote a corrupted image
        into the new truth."""
        system = self.system
        system.state.promote_pending = None
        if not self._integrity:
            return
        # With nothing left to replay, the fold-verified image is
        # promoted verbatim: re-check its digest to catch corruption
        # that landed *after* the last fold.  (A nonempty log has no
        # reference digest at this frontier; the sticky fold-time flag
        # is the authority there.)
        if not self.replay_log and self._verified_digest is not None:
            if space_digest(self.image) != self._verified_digest:
                self.image_corrupt = True
                system.stats.ft_corruptions_detected += 1
        if not self.image_corrupt:
            return
        node, dead_tids, detected_at, last_heard_at = request
        stats = system.stats
        stats.ft_corruptions_unrepairable += 1
        stats.failures.append(
            FailureRecord(
                node=node,
                dead_tids=tuple(dead_tids),
                last_heard_at=last_heard_at,
                detected_at=detected_at,
                resumed_at=system.env.now,
                promoted_tid=self.tid,
                corrupt_image=True,
            )
        )
        obs = system.obs
        if obs is not None:
            obs.tracer.instant(
                CAT_INTEGRITY, "promotion_refused", PID_RUNTIME,
                self.tid, node=node, frontier=self.frontier,
            )
            obs.metrics.counter("integrity.promotions_refused").inc()
        raise ClusterFailedError(
            f"standby tid {self.tid} refuses promotion: its checkpoint "
            f"image failed the digest check (silent corruption with no "
            f"clean copy to repair from)"
        )

    def _replay(self) -> Generator[Event, Any, int]:
        """Replay the log onto the checkpoint image and pay for it;
        returns the number of words replayed."""
        config = self.system.config
        replayed = len(self.replay_log)
        if replayed:
            self.image.apply_writes(self.replay_log)
            self.replay_log = []
        self.core.charge_instructions(
            config.checkpoint_base_instructions
            + replayed * config.commit_instructions
        )
        yield from self.core.drain()
        self.promoted = True
        return replayed

    def _account_promotion(
        self, node: int, detected_at: float, replayed: int, recommitted: int
    ) -> None:
        """Count a completed promotion in the run statistics and trace."""
        system = self.system
        stats = system.stats
        stats.ft_promotions += 1
        stats.ft_replayed_words += replayed
        obs = system.obs
        if obs is not None:
            obs.tracer.complete(
                CAT_FT_PROMOTION, f"promote:node{node}", PID_RUNTIME, self.tid,
                detected_at, replayed_words=replayed,
                frontier=self.frontier, recommitted=recommitted,
            )
            obs.metrics.counter("ft.promotions").inc()
            obs.metrics.counter("ft.replayed_words").inc(replayed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} tid={self.tid} frontier={self.frontier} "
            f"log={len(self.replay_log)}>"
        )


class StandbyUnit(_ImageReplica):
    """Commit-unit hot standby: replication sink, promotion candidate."""

    def __init__(self, system: "DSMTXSystem", tid: int) -> None:  # noqa: F821
        super().__init__(system, tid, f"standby{tid}")
        self.endpoint = system.endpoint_of_unit(tid)
        #: Writes of the round in progress (no frontier marker yet);
        #: discarded at promotion — a half-replicated round is not
        #: known-consistent, its iterations are simply re-executed.
        self._round: list[tuple[int, int]] = []

    # -- main process ------------------------------------------------------------------

    def run(self) -> Generator[Event, Any, None]:
        system = self.system
        state = system.state
        endpoint = self.endpoint
        try:
            while True:
                if state.promote_pending is not None:
                    yield from self._promote(state.promote_pending)
                    return
                if endpoint.pending_messages:
                    kind, item = endpoint.pending_messages.popleft()
                    if kind == "batch":
                        yield from self._drain_repl(item)
                    # "ctl" records are wake-up pings (CTL_PROMOTE); the
                    # authoritative signal is state.promote_pending.
                    continue
                if state.done:
                    return
                try:
                    envelope = yield from endpoint._recv_one(check_state=False)
                except (ChannelFlushedError, RecoveryAbort):
                    # Termination flush (recovery flushes skip us).
                    continue
                endpoint._route(envelope, arrival_order=True)
        except ProcessInterrupt as interrupt:
            if isinstance(interrupt.cause, NodeCrashed):
                # The standby's own node died; the primary notices via
                # the ordinary declaration path and stops streaming.
                return
            raise

    # -- replication sink --------------------------------------------------------------

    def _drain_repl(self, queue) -> Generator[Event, Any, None]:
        """Ingest newly delivered replication entries."""
        system = self.system
        op_instructions = system.cluster.queue_op_instructions
        delivered = queue.delivered
        words = 0
        while delivered:
            entry = delivered.popleft()
            kind = entry[0]
            if kind == WRITE:
                self._round.append((entry[1], entry[2]))
                words += 1
            elif kind == REPL_FRONTIER:
                self.replay_log.extend(self._round)
                self._round = []
                self.frontier = entry[1]
            elif kind == REPL_CHECKPOINT:
                # A 3rd element is the primary's master digest at the
                # checkpoint (integrity mode).
                self._fold(entry[1], entry[2] if len(entry) > 2 else None)
            self.core.charge_instructions(op_instructions)
        if words:
            system.stats.ft_repl_words += words
            obs = system.obs
            if obs is not None:
                obs.metrics.counter("ft.repl_words").inc(words)
        yield from self.core.drain()

    # -- promotion ---------------------------------------------------------------------

    def _promote(self, request) -> Generator[Event, Any, None]:
        """Become the commit unit: replay the log onto the checkpoint
        image, take over the primary's seat, then drive the ordinary
        degraded-mode restart from the replicated frontier."""
        system = self.system
        node, _dead_tids, detected_at, _last_heard_at = request
        self._begin_promotion(request)
        # A half-replicated round is not known-consistent; its
        # iterations are at or past the frontier and re-execute anyway.
        self._round = []
        replayed = yield from self._replay()
        commit = system.promote_standby(self)
        commit._promotion = (node, dict(
            promoted_tid=self.tid,
            promotion_seconds=system.env.now - detected_at,
            replayed_words=replayed,
            recommitted_iterations=commit._recommitted,
        ))
        self._account_promotion(node, detected_at, replayed, commit._recommitted)
        # From here on this process *is* the commit unit.  It finishes
        # any rollback in flight, then rolls back for the declaration
        # that took the primary's node: the degraded-mode restart with
        # the survivors.
        yield from commit.run()


class ReservationStandby(_ImageReplica):
    """Hot standby of the ``speculative_for`` reservation service.

    The reservation service owns the committed image, the ``write_min``
    table, and the round scheduler's state — all of it a single point of
    failure without replication.  The primary streams one
    ``SF_REPL_ROUND`` record per completed round (the round record, the
    committed delta, the carried list, and the table counters); because
    every scheduling decision — batch prefix, round size, carry order —
    is a pure function of that per-round state, the standby can *shadow*
    the scheduler exactly: it maintains its own pending queue, round
    size, stats, and table counters one replicated round at a time, and
    folds the delta stream into a base image on ``SF_REPL_CHECKPOINT``
    markers (mirroring the primary's epoch checkpoints, which bound the
    promotion replay).

    At promotion the standby replays the log tail onto its checkpoint
    image, resumes a round engine at its shadow of the scheduling state,
    and runs the service loop itself, re-broadcasting the full image so
    workers rebuild their snapshots.  Rounds the primary completed past
    the replicated frontier died with its memory and simply re-execute —
    deterministically, so winners, stats, and the committed image stay
    byte-identical to the fault-free run.
    """

    def __init__(self, system: "SpecForSystem", tid: int) -> None:  # noqa: F821
        super().__init__(system, tid, f"sf.standby{tid}")
        #: Shadow of the primary's :class:`ReservationStats` (rounds up
        #: to the replicated frontier; becomes the promoted service's
        #: stats object).
        self.shadow_stats = ReservationStats()
        iterations = system.workload.iterations
        #: Shadow of the scheduler state (mirrors ``_RoundEngine``).
        self.max_round = iterations // system.granularity + 1
        self.shadow_pending: deque[int] = deque(range(iterations))
        self.shadow_size = max(1, self.max_round // 2)
        self.shadow_round_index = 0
        #: Shadow of the reservation-table counters at the frontier.
        self.table_counters: tuple[int, int] = (0, 0)

    # -- main process ------------------------------------------------------------------

    def run(self) -> Generator[Event, Any, None]:
        system = self.system
        state = system.state
        recv = system._receiver(self.tid)
        try:
            while True:
                if state.promote_pending is not None:
                    yield from self._promote(state.promote_pending)
                    return
                if state.done:
                    return
                msg = yield from recv()
                if isinstance(msg, ControlEnvelope):
                    # CTL_PROMOTE wake-up ping; the loop top consumes the
                    # authoritative state.promote_pending.
                    continue
                kind = msg[0]
                if kind == SF_REPL_ROUND:
                    self._ingest_round(msg)
                    yield from self.core.drain()
                elif kind == SF_REPL_CHECKPOINT:
                    # A 3rd element is the primary's master digest at
                    # the checkpoint (integrity mode).
                    self._fold(msg[1], msg[2] if len(msg) > 2 else None)
                    yield from self.core.drain()
                elif kind == SF_STOP:
                    return
        except ProcessInterrupt as interrupt:
            if isinstance(interrupt.cause, NodeCrashed):
                # Our own node died; the service-side sweep declares it
                # and the run degrades to unreplicated.
                return
            raise

    # -- replication sink --------------------------------------------------------------

    def _ingest_round(self, payload) -> None:
        """Advance the shadow by one replicated round (no yields: the
        shadow mutates atomically, so any prefix of the stream is a
        consistent promotion point)."""
        system = self.system
        _kind, fields, entries, carried, counters = payload
        record = RoundRecord.from_tuple(fields)
        self.shadow_stats.record_round(record)
        self.replay_log.extend(entries)
        # Mirror _RoundEngine.begin_round and complete: the primary took
        # the batch as the pending prefix of length ``attempted``;
        # carried losers come back in front of the rest.
        pending = self.shadow_pending
        for _ in range(record.attempted):
            pending.popleft()
        pending.extendleft(reversed(carried))
        self.shadow_size = next_round_size(
            self.shadow_size, record.attempted, record.carried, self.max_round
        )
        self.shadow_round_index = record.round_index + 1
        self.table_counters = counters
        self.frontier = self.shadow_stats.committed
        words = len(entries)
        self.core.charge_instructions(
            system.cluster.queue_op_instructions * (words + len(carried) + 2)
        )
        if words:
            system.stats.ft_repl_words += words
            obs = system.obs
            if obs is not None:
                obs.metrics.counter("ft.repl_words").inc(words)

    # -- promotion ---------------------------------------------------------------------

    def _promote(self, request) -> Generator[Event, Any, None]:
        """Become the reservation service: replay the log onto the
        checkpoint image, resume the round engine at the shadow state,
        and drive the service loop with the survivors."""
        system = self.system
        env = system.env
        node, dead_tids, detected_at, last_heard_at = request
        self._begin_promotion(request)
        # The primary's declaration also sits on failover_pending; the
        # promotion record below is its accounting, and the promoted
        # loop must not re-consume it as a worker failover.
        system.state.failover_pending = [
            entry for entry in system.state.failover_pending if entry[0] != node
        ]
        system.apply_node_failure(node, dead_tids)
        if not system.live_workers:
            raise ClusterFailedError(
                f"node {node} hosted the reservation service and every "
                f"remaining worker; nothing survives to re-execute"
            )
        replayed = yield from self._replay()
        # Rounds the primary committed past the replicated frontier died
        # with its master memory; the promoted service re-executes them.
        recommitted = max(
            0, system.service.stats.committed - self.shadow_stats.committed
        )
        _service, engine = system.promote_reservation_service(self)
        system.stats.failures.append(
            FailureRecord(
                node=node,
                dead_tids=tuple(dead_tids),
                last_heard_at=last_heard_at,
                detected_at=detected_at,
                resumed_at=env.now,
                restart_base=self.shadow_round_index,
                lost_iterations=recommitted,
                surviving_workers=len(system.live_workers),
                promoted_tid=self.tid,
                promotion_seconds=env.now - detected_at,
                replayed_words=replayed,
                recommitted_iterations=recommitted,
            )
        )
        self._account_promotion(node, detected_at, replayed, recommitted)
        # From here on this process *is* the reservation service; its
        # first broadcast carries the full image, so every worker
        # rebuilds its snapshot from the replicated one.
        yield from system._service_loop(self.tid, engine)

"""Runtime statistics.

Collects everything the paper's evaluation reports:

* execution time (speedup once divided into the sequential time);
* bytes transferred through DSMTX, for the bandwidth analysis of
  Figure 5(a);
* misspeculation counts and the per-phase recovery time breakdown of
  Figure 6 — ERM (enter recovery mode), FLQ (flush queues / reinstall
  protections), SEQ (sequential re-execution), with RFP (refill
  pipeline) recovered as the residual against a misspeculation-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RecoveryRecord", "FailureRecord", "CheckpointRecord", "RunStats"]


@dataclass
class RecoveryRecord:
    """Timing of one misspeculation recovery episode."""

    misspec_iteration: int
    #: Simulated time at which the commit unit saw the misspeculation.
    detected_at: float
    #: Time spent draining: committing every MTX before the aborted one
    #: while speculative run-ahead past it goes to waste.  Squash-related
    #: waiting, i.e. part of what the paper buckets as RFP.
    drain_seconds: float = 0.0
    #: Duration of the ERM phase (signal to all-units-in-recovery barrier).
    erm_seconds: float = 0.0
    #: Duration of the FLQ phase (queue flush + protection reinstatement).
    flq_seconds: float = 0.0
    #: Duration of the SEQ phase (sequential re-execution).
    seq_seconds: float = 0.0
    #: Iterations squashed (validated or in flight but not committed).
    squashed_iterations: int = 0
    #: Iterations re-executed sequentially by the commit unit.
    reexecuted_iterations: int = 0

    @property
    def accounted_seconds(self) -> float:
        """Directly measured overhead (everything except pipeline refill)."""
        return self.erm_seconds + self.flq_seconds + self.seq_seconds


@dataclass
class FailureRecord:
    """One node failure and the degraded-mode restart it triggered."""

    #: Node declared dead by the failure detector.
    node: int
    #: Units (tids) hosted on the dead node.
    dead_tids: tuple = ()
    #: Simulated time of the node's last heartbeat heard.
    last_heard_at: float = 0.0
    #: Simulated time at which the detector declared the node dead.
    detected_at: float = 0.0
    #: Simulated time at which survivors resumed in degraded mode.
    resumed_at: float = 0.0
    #: Iteration the survivors restarted from (the commit frontier).
    restart_base: int = 0
    #: Speculative iterations in flight past the restart base that were
    #: thrown away — the lost work of the failure.
    lost_iterations: int = 0
    #: Surviving worker count after re-partitioning.
    surviving_workers: int = 0
    #: Tid of the standby promoted to commit unit, or -1 when the
    #: failure did not take the commit unit (plain degraded restart).
    promoted_tid: int = -1
    #: Detection-to-promotion latency: time from declaring the primary
    #: dead to the promoted unit finishing its replay and taking over.
    promotion_seconds: float = 0.0
    #: Replication-log words replayed onto the standby's checkpoint
    #: image at promotion.
    replayed_words: int = 0
    #: Iterations the dead primary had committed past the last
    #: replicated frontier — lost with its master memory and
    #: re-executed (re-committed) by the survivors.
    recommitted_iterations: int = 0
    #: True when the standby's checkpoint image failed its digest check
    #: at promotion and the failover was refused (integrity mode).
    corrupt_image: bool = False

    @property
    def recovery_seconds(self) -> float:
        """Detection-to-resume latency of the degraded-mode restart."""
        return self.resumed_at - self.detected_at


@dataclass
class CheckpointRecord:
    """One epoch checkpoint taken by the commit unit."""

    #: Commit frontier (first uncommitted iteration) at checkpoint time.
    iteration: int
    #: Words committed since the previous checkpoint (checkpoint size).
    words: int
    #: Simulated time the checkpoint completed.
    at: float = 0.0


@dataclass
class RunStats:
    """Aggregated statistics for one parallel run."""

    #: MTXs (loop iterations) committed.
    committed_mtxs: int = 0
    #: Misspeculations that triggered recovery.
    misspeculations: int = 0
    #: Copy-On-Access page transfers served by the commit unit.
    coa_pages_served: int = 0
    #: Copy-On-Access single-word transfers (word-granularity ablation).
    coa_words_served: int = 0
    #: Payload bytes moved through runtime queues (all purposes).
    queue_bytes: int = 0
    #: Payload bytes, by queue purpose ("forward", "log", "data", ...).
    queue_bytes_by_purpose: dict = field(default_factory=dict)
    #: Queue batches sent.
    queue_batches: int = 0
    #: Read-log entries validated by the try-commit unit.
    reads_checked: int = 0
    #: Words group-committed by the commit unit.
    words_committed: int = 0
    #: Per-episode recovery records, in detection order.
    recoveries: list = field(default_factory=list)
    #: Node failures survived (degraded-mode restarts), in order.
    failures: list = field(default_factory=list)
    #: Epoch checkpoints taken by the commit unit (fault-tolerant mode).
    checkpoints: list = field(default_factory=list)
    #: Heartbeats recorded for live nodes (fault-tolerant mode).
    ft_heartbeats: int = 0
    #: Cumulative acks sent by reliable-transport ingest boxes.
    ft_acks: int = 0
    #: Frames re-sent after a retransmit timeout.
    ft_retransmits: int = 0
    #: Frames abandoned after ``max_retransmits`` attempts.
    ft_retransmit_giveups: int = 0
    #: Duplicate frames discarded by ingest-box sequence filtering.
    ft_duplicates_dropped: int = 0
    #: Frames that arrived ahead of sequence and were parked for reorder.
    ft_frames_reordered: int = 0
    #: Frames discarded because their source or destination unit was on
    #: a node already declared dead.
    ft_frames_from_dead_dropped: int = 0
    #: Committed words streamed to the commit standby (replication).
    ft_repl_words: int = 0
    #: Replay-log words the standby folded into its base image on
    #: checkpoint markers (the incremental checkpoint mirror).
    ft_repl_folded_words: int = 0
    #: Standby promotions to commit unit (commit-node failovers).
    ft_promotions: int = 0
    #: Replication-log words replayed at promotion time.
    ft_replayed_words: int = 0
    #: ``speculative_for`` round attempts voided and re-issued because a
    #: worker died mid-round (the re-execution cost of survival).
    ft_round_reexecutions: int = 0
    #: Corruptions caught by an integrity check: checksum-mismatched
    #: frames dropped at ingest, digest-mismatched checkpoint images,
    #: and scrub-detected committed-page corruption (integrity mode).
    ft_corruptions_detected: int = 0
    #: Detected corruptions healed — a dropped frame's intact
    #: retransmission ingested, or a corrupted page re-fetched/re-run.
    ft_corruptions_repaired: int = 0
    #: Detected corruptions with no clean copy to repair from (e.g. a
    #: corrupted checkpoint image at promotion): the run refuses to
    #: serve the data instead of silently using it.
    ft_corruptions_unrepairable: int = 0
    #: Scrub sweeps completed over committed memory (integrity mode).
    ft_scrub_rounds: int = 0
    #: Page audits performed across all scrub sweeps.
    ft_scrub_pages: int = 0
    #: Rounds executed by a ``speculative_for`` run (deterministic
    #: reservations; zero for the pipeline schemes).
    specfor_rounds: int = 0
    #: ``write_min`` reservations applied by the reservation service.
    specfor_reservations: int = 0
    #: Iterations that lost at least one reservation and were carried.
    specfor_reservation_failures: int = 0
    #: Iterations whose commit step declined after winning reservations.
    specfor_commit_failures: int = 0
    #: Iteration retries: carried-forward work summed over rounds.
    specfor_carried: int = 0
    #: Wall-clock (simulated) duration of the parallel region.
    elapsed_seconds: float = 0.0
    #: Observability hub (:class:`repro.obs.Observability`) mirroring the
    #: byte accounting into its metrics registry; ``None`` when the run
    #: is not instrumented.
    observer: object = field(default=None, repr=False, compare=False)

    def record_queue_bytes(self, purpose: str, nbytes: int) -> None:
        self.queue_bytes += nbytes
        self.queue_bytes_by_purpose[purpose] = (
            self.queue_bytes_by_purpose.get(purpose, 0) + nbytes
        )
        if self.observer is not None:
            self.observer.metrics.counter(f"queue.bytes.{purpose}").inc(nbytes)

    @property
    def erm_seconds(self) -> float:
        return sum(r.erm_seconds for r in self.recoveries)

    @property
    def flq_seconds(self) -> float:
        return sum(r.flq_seconds for r in self.recoveries)

    @property
    def seq_seconds(self) -> float:
        return sum(r.seq_seconds for r in self.recoveries)

    @property
    def lost_iterations(self) -> int:
        """Speculative iterations thrown away across all node failures."""
        return sum(f.lost_iterations for f in self.failures)

    @property
    def failure_recovery_seconds(self) -> float:
        """Total detection-to-resume latency across all node failures."""
        return sum(f.recovery_seconds for f in self.failures)

    def ft_counters(self) -> tuple:
        """``(name, value)`` of the heartbeat and transport counters.

        Any nonzero one means fault-tolerant mode ran.  Heartbeats alone
        do not tell: a run shorter than one heartbeat period has none,
        yet its transport acked every frame.
        """
        return (
            ("heartbeats", self.ft_heartbeats),
            ("acks", self.ft_acks),
            ("retransmits", self.ft_retransmits),
            ("retransmit_giveups", self.ft_retransmit_giveups),
            ("duplicates_dropped", self.ft_duplicates_dropped),
            ("frames_reordered", self.ft_frames_reordered),
            ("frames_from_dead_dropped", self.ft_frames_from_dead_dropped),
        )

    @property
    def ft_ran(self) -> bool:
        """True when fault-tolerant mode left any counter behind."""
        return any(value for _name, value in self.ft_counters())

    def bandwidth_bps(self) -> float:
        """Application bandwidth: bytes through DSMTX over run time
        (the Figure 5(a) metric)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.queue_bytes / self.elapsed_seconds

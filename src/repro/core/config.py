"""System and pipeline configuration for the DSMTX runtime.

A parallelization is described by a :class:`PipelineConfig` — an ordered
list of :class:`StageSpec` entries, each sequential (``S``) or parallel
(``DOALL``), matching the paper's ``Spec-DSWP+[S,DOALL,S]`` notation.
Given a total core budget, :meth:`PipelineConfig.allocate` decides how
many worker replicas each stage receives: sequential stages get exactly
one, parallel stages split the remainder, and two cores are reserved for
the try-commit and commit units.

:class:`SystemConfig` bundles the cluster spec with runtime tunables —
queue batch size, flow-control depth, placement policy, and the channel
mode used for the Figure 5(b) communication-optimization comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.cluster.spec import DEFAULT_CLUSTER, ClusterSpec
from repro.errors import ConfigurationError

__all__ = ["StageKind", "StageSpec", "PipelineConfig", "SystemConfig"]


class StageKind:
    """Stage kinds of the DSWP+ notation."""

    SEQUENTIAL = "S"
    PARALLEL = "DOALL"

    ALL = (SEQUENTIAL, PARALLEL)


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage of a (Spec-)DSWP parallelization."""

    name: str
    kind: str = StageKind.SEQUENTIAL

    def __post_init__(self) -> None:
        if self.kind not in StageKind.ALL:
            raise ConfigurationError(
                f"stage kind must be one of {StageKind.ALL}, got {self.kind!r}"
            )

    @property
    def is_parallel(self) -> bool:
        return self.kind == StageKind.PARALLEL


@dataclass(frozen=True)
class PipelineConfig:
    """An ordered pipeline of stages."""

    stages: tuple[StageSpec, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError("a pipeline needs at least one stage")
        object.__setattr__(self, "stages", tuple(self.stages))

    @classmethod
    def from_kinds(cls, kinds: Sequence[str]) -> "PipelineConfig":
        """Build from a kind list, e.g. ``["S", "DOALL", "S"]``."""
        stages = tuple(
            StageSpec(name=f"stage{i}", kind=kind) for i, kind in enumerate(kinds)
        )
        return cls(stages=stages)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def min_cores(self) -> int:
        """Smallest core count this pipeline runs on: one worker per
        stage plus the try-commit and commit units."""
        return self.num_stages + 2

    def allocate(self, total_cores: int, reserved_units: int = 2) -> list[int]:
        """Worker replica counts per stage for a ``total_cores`` budget.

        ``reserved_units`` cores go to the speculation-management units
        (try-commit and commit, plus any COA replicas); sequential
        stages take one worker each; parallel stages share the
        remainder as evenly as possible (earlier parallel stages get
        the odd extras).
        """
        if reserved_units < 2:
            raise ConfigurationError("at least try-commit and commit are reserved")
        if total_cores < self.num_stages + reserved_units:
            raise ConfigurationError(
                f"pipeline {self.describe()} needs at least "
                f"{self.num_stages + reserved_units} cores, got {total_cores}"
            )
        worker_budget = total_cores - reserved_units
        parallel_stages = [i for i, s in enumerate(self.stages) if s.is_parallel]
        replicas = [1] * self.num_stages
        spare = worker_budget - self.num_stages
        if parallel_stages:
            per_stage, extra = divmod(spare, len(parallel_stages))
            for rank, stage_index in enumerate(parallel_stages):
                replicas[stage_index] += per_stage + (1 if rank < extra else 0)
        # With no parallel stage, spare cores stay idle (pipeline width
        # is fixed) — matches DSWP's bounded scalability (section 2.1).
        return replicas

    def describe(self) -> str:
        """The paper's bracket notation, e.g. ``[S,DOALL,S]``."""
        return "[" + ",".join(stage.kind for stage in self.stages) + "]"


@dataclass(frozen=True)
class SystemConfig:
    """Tunables for one DSMTX run."""

    cluster: ClusterSpec = DEFAULT_CLUSTER
    #: Total cores used by this run (workers + try-commit + commit).
    total_cores: int = 8
    #: Queue batch size in bytes; ``None`` uses the cluster default.
    batch_bytes: Optional[int] = None
    #: Maximum unacknowledged batches per queue (worker run-ahead bound).
    max_inflight_batches: int = 8
    #: Thread placement policy ("pack" or "spread").
    placement: str = "pack"
    #: Channel transport: "batched" (DSMTX queue) or "direct" (one MPI
    #: call per datum; the Figure 5(b) unoptimized baseline).
    channel_mode: str = "batched"
    #: Extra units serving Copy-On-Access for read-only pages (an
    #: extension: shards the commit unit's COA hot spot; see
    #: :mod:`repro.core.replica`).  Each takes one core off the budget.
    coa_replicas: int = 0
    #: Instructions charged per mtx_read/mtx_write bookkeeping.
    access_instructions: int = 12
    #: Instructions to install one COA-transferred page (local memcpy).
    coa_install_instructions: int = 200
    #: Copy-On-Access transfer granularity.  The paper argues (section
    #: 4.2) that word-granularity COA would be prohibitive on a cluster
    #: because every word costs a round trip; page granularity amortizes
    #: it as constructive prefetching.  False switches to word
    #: granularity for the ablation bench.
    coa_page_granularity: bool = True
    #: Instructions charged by the try-commit unit per log entry checked.
    check_instructions: int = 30
    #: Instructions charged by the commit unit per committed word.
    commit_instructions: int = 20
    #: Instructions charged per unit at each recovery barrier.
    barrier_instructions: int = 400
    #: Instructions to reinstate protection on one page during recovery.
    reprotect_instructions_per_page: int = 150
    #: Enable the failure-aware runtime: heartbeat failure detection,
    #: sequence-numbered ack/retransmit on unit traffic, epoch
    #: checkpointing, and degraded-mode restart after a node crash
    #: (docs/RESILIENCE.md).  Off by default — the fault-free fast path
    #: is byte-identical with this disabled.
    fault_tolerance: bool = False
    #: Commits between epoch checkpoints of the commit unit's state.
    checkpoint_interval_mtxs: int = 64
    #: Fixed instructions per checkpoint (metadata + fsync analogue).
    checkpoint_base_instructions: int = 5000
    #: Instructions per word written since the previous checkpoint.
    checkpoint_word_instructions: int = 4
    #: Run a hot-standby replica of the commit unit on a survivor node,
    #: kept current by epoch checkpoints plus streaming replication of
    #: committed write logs, and promoted when the failure detector
    #: declares the primary's node dead (docs/RESILIENCE.md).  Requires
    #: ``fault_tolerance``; takes one core off the worker budget.
    commit_replication: bool = False
    #: End-to-end integrity mode: every framed send carries a CRC32 of
    #: its payload (verified and dropped-on-mismatch at the receiver, so
    #: silent wire corruption becomes a loss the retransmit machinery
    #: repairs), epoch checkpoints and replication folds carry state
    #: digests (a corrupted image is *refused* at promotion), and a
    #: periodic scrubber audits committed pages against the commit
    #: unit's digest table (docs/RESILIENCE.md).  Requires
    #: ``fault_tolerance`` — detection without retransmission could only
    #: turn silent corruption into a hang.
    integrity: bool = False
    #: Seconds between committed-page scrub sweeps (integrity mode).
    scrub_interval_s: float = 0.005

    def __post_init__(self) -> None:
        if self.total_cores < 3:
            raise ConfigurationError(
                f"DSMTX needs at least 3 cores (worker + try-commit + commit), "
                f"got {self.total_cores}"
            )
        if self.total_cores > self.cluster.total_cores:
            raise ConfigurationError(
                f"requested {self.total_cores} cores but the cluster has "
                f"{self.cluster.total_cores}"
            )
        if self.max_inflight_batches < 1:
            raise ConfigurationError("max_inflight_batches must be >= 1")
        if self.checkpoint_interval_mtxs < 1:
            raise ConfigurationError("checkpoint_interval_mtxs must be >= 1")
        if self.commit_replication and not self.fault_tolerance:
            raise ConfigurationError(
                "commit_replication needs the failure-aware runtime: "
                "set fault_tolerance=True"
            )
        if self.integrity and not self.fault_tolerance:
            raise ConfigurationError(
                "integrity needs the failure-aware runtime (checksummed "
                "frames repair via retransmission): set fault_tolerance=True"
            )
        if self.scrub_interval_s <= 0:
            raise ConfigurationError("scrub_interval_s must be positive")

    @property
    def reserved_units(self) -> int:
        """Cores reserved off the worker budget: try-commit + commit,
        the COA replicas, and the commit standby when replicated."""
        return 2 + self.coa_replicas + (1 if self.commit_replication else 0)

    def with_cores(self, total_cores: int) -> "SystemConfig":
        """A copy of this config at a different core count."""
        return replace(self, total_cores=total_cores)

    @property
    def effective_batch_bytes(self) -> int:
        return self.batch_bytes if self.batch_bytes is not None else self.cluster.queue_batch_bytes

"""The cluster runtime both paradigms share, and DSMTX on top of it.

:class:`ClusterSystem` is the part of a run that does not depend on the
paradigm: the simulated cluster, the unit layout and inboxes, the run's
state and statistics, and the fault-tolerance shell (reliable
transport, failure detector, failure declaration, re-partition).
:class:`DSMTXSystem` adds the pipeline's units (stage workers,
try-commit unit, commit unit, COA replicas, commit standby), their
queues, the shared recovery coordinator and the committed-page
scrubber; :class:`~repro.paradigms.specfor.SpecForSystem` adds the
``speculative_for`` workers and reservation service.
:meth:`DSMTXSystem.run` executes the workload's parallel region to
completion and returns a :class:`RunResult` with the simulated duration
and full statistics.

DSMTX unit thread ids (tids) are assigned stage-major: workers of stage
0 first, then stage 1, ..., then the try-commit unit, then the commit
unit.  Tids map to global core indices through the placement policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.cluster import MPI, Interconnect, Machine, place_units
from repro.core.commit import CommitUnit
from repro.core.replica import CoaReplica
from repro.core.config import PipelineConfig, SystemConfig
from repro.core.endpoint import Endpoint
from repro.core.failure import FailureDetector
from repro.core.messages import CTL_NODE_FAILED, CTL_PROMOTE, ControlEnvelope
from repro.core.queues import RuntimeQueue
from repro.core.recovery import RecoveryCoordinator
from repro.core.standby import StandbyUnit
from repro.core.state import SystemState
from repro.core.stats import RunStats
from repro.core.transport import ReliableTransport
from repro.core.try_commit import TryCommitUnit
from repro.core.worker import Worker
from repro.errors import ClusterFailedError, ConfigurationError
from repro.memory import UnifiedVirtualAddressSpace
from repro.sim import Environment, Store

__all__ = ["ClusterSystem", "DSMTXSystem", "RunResult", "place_standby"]


def place_standby(
    cluster, core_indices: list, commit_tid: int, standby_tid: int
) -> None:
    """Put a hot standby on a node other than its primary's.

    A standby sharing the primary's node is useless — the one crash it
    exists to survive would take both.  The standby keeps the seat the
    placement policy gave it when that seat is already off the commit
    node (spread placement typically arranges this); otherwise it
    deterministically moves to the first free core on the
    lowest-numbered other node, preferring nodes that host no unit at
    all (a pure survivor).  Mutates ``core_indices`` in place.
    """
    commit_node = cluster.node_of_core(core_indices[commit_tid])
    if cluster.node_of_core(core_indices[standby_tid]) != commit_node:
        return
    used = {
        index
        for tid, index in enumerate(core_indices)
        if tid != standby_tid
    }
    occupied = {cluster.node_of_core(index) for index in used}
    candidates = sorted(
        range(cluster.nodes),
        key=lambda node: (node in occupied, node),
    )
    for node in candidates:
        if node == commit_node:
            continue
        base = node * cluster.cores_per_node
        for core in range(base, base + cluster.cores_per_node):
            if core not in used:
                core_indices[standby_tid] = core
                return
    raise ConfigurationError(
        "no free core outside the commit unit's node for the standby; "
        "commit_replication needs at least two nodes with capacity"
    )


@dataclass
class RunResult:
    """Outcome of one parallel run."""

    #: Simulated wall-clock duration of the parallel region (seconds).
    elapsed_seconds: float
    #: Full runtime statistics.
    stats: RunStats
    #: Iterations executed (committed MTXs, including SEQ re-executions).
    iterations: int
    #: Total cores the run used (workers + try-commit + commit).
    total_cores: int

    def speedup_over(self, sequential_seconds: float) -> float:
        """Speedup against a sequential execution time."""
        if self.elapsed_seconds <= 0:
            raise ConfigurationError("run has no elapsed time")
        return sequential_seconds / self.elapsed_seconds


class ClusterSystem:
    """One run's cluster, unit layout and fault-tolerance shell.

    ``num_units`` units are placed on cores by the configured policy.
    ``commit_tid`` is the unit that owns committed memory (the DSMTX
    commit unit, the ``speculative_for`` reservation service), and
    ``standby_tid`` its hot standby, seated off the commit unit's node;
    ``None`` without ``commit_replication``.  A paradigm assigns its tids
    before calling this constructor, names its units in
    :meth:`unit_labels`, hands their main loops to :meth:`_run_units`,
    and keeps its live lists in :meth:`_drop_dead_units` and
    :meth:`_lose_units`.
    """

    #: Perfetto process name of the runtime's unit tracks.
    runtime_name: str

    def __init__(
        self, workload: Any, config: SystemConfig, num_units: int,
        commit_tid: int, standby_tid: Optional[int],
    ) -> None:
        self.workload = workload
        self.config = config
        self.cluster = config.cluster
        self.env = Environment()
        self.machine = Machine(self.env, self.cluster)
        self.interconnect = Interconnect(self.env, self.machine)
        self.mpi = MPI(self.env, self.machine, self.interconnect)
        self.state = SystemState()
        self.stats = RunStats()
        #: Observability hub (:func:`repro.obs.instrument` attaches one);
        #: every runtime hook site no-ops while this is ``None``.
        self.obs = None
        self.num_units = num_units
        #: Reassigned to the standby's tid at promotion.
        self.commit_tid = commit_tid
        self.standby_tid = standby_tid
        #: Units lost to node failures so far.
        self.dead_tids: set[int] = set()
        self._core_indices = place_units(self.cluster, num_units, config.placement)
        if standby_tid is not None:
            place_standby(self.cluster, self._core_indices, commit_tid, standby_tid)
        #: Reliable ack/retransmit transport; ``None`` keeps the
        #: fault-free fast path untouched (a single is-None check).
        self.transport = ReliableTransport(self) if config.fault_tolerance else None
        #: One inbox per unit: every message to the unit, plus the
        #: failure declaration's wake-up pings under fault tolerance.
        self._inboxes = [Store(self.env) for _ in range(num_units)]
        self.uva = UnifiedVirtualAddressSpace(owners=num_units)
        #: Heartbeat failure detection; ``None`` outside fault-tolerant
        #: mode.  Started by :meth:`_run_units` once unit processes exist.
        self.failure_detector = (
            FailureDetector(self) if config.fault_tolerance else None
        )
        #: Simulation processes hosted on each node (unit main loops,
        #: the failure detector's per-node handles): the kill set of a
        #: node-crash fault.
        self._node_processes: dict[int, list] = {}

    # -- layout queries ---------------------------------------------------------------------

    def core_of(self, tid: int):
        return self.machine.core(self._core_indices[tid])

    def node_of(self, tid: int) -> int:
        """Node hosting unit ``tid``."""
        return self.cluster.node_of_core(self._core_indices[tid])

    def inbox_of(self, tid: int) -> Store:
        return self._inboxes[tid]

    @property
    def standby_alive(self) -> bool:
        return self.standby_tid is not None and self.standby_tid not in self.dead_tids

    def unit_labels(self) -> dict:
        """``{label: tid}`` of every unit, in tid order before the run.

        Computed at call time: after a promotion the commit unit's label
        follows :attr:`commit_tid` to the standby's seat.
        """
        raise NotImplementedError

    def utilization(self) -> dict:
        """Busy fraction of every unit's core over the run so far.

        Keys are the :meth:`unit_labels`; values are busy-cycles divided
        by elapsed cycles.  Useful for spotting the bottleneck unit (e.g.
        a saturated sequential stage or the commit unit's COA service).
        """
        elapsed = self.env.now
        if elapsed <= 0:
            return {}
        clock = self.cluster.clock_hz
        return {
            label: self.core_of(tid).busy_cycles / (elapsed * clock)
            for label, tid in self.unit_labels().items()
        }

    # -- node failure -----------------------------------------------------------------------

    def register_node_process(self, node: int, process) -> None:
        """Track a simulation process (or anything with ``is_alive``
        and ``interrupt(cause)``) as hosted on ``node`` so a node-crash
        fault kills it along with the node."""
        self._node_processes.setdefault(node, []).append(process)

    def processes_on_node(self, node: int) -> list:
        """Every registered simulation process hosted on ``node``."""
        return list(self._node_processes.get(node, ()))

    def declare_dead(self, node: int, dead_tids: tuple, last_heard_at: float) -> None:
        """The failure detector's verdict: ``node`` and its units died.

        Queues the failover on ``SystemState.failover_pending`` (the
        authoritative signal the commit unit consumes), and the
        promotion on ``promote_pending`` when the node hosted the commit
        unit, which needs a live standby elsewhere.  Then the paradigm
        lets go of the dead units (:meth:`_lose_units`), and last a
        wake-up ping goes into the commit unit's inbox, or the standby's,
        in case it is blocked on an empty one.
        """
        state = self.state
        now = self.env.now
        primary = self.commit_tid in dead_tids
        if primary and (not self.standby_alive or self.standby_tid in dead_tids):
            raise ClusterFailedError(
                f"node {node} hosted the commit unit; committed state is "
                f"unrecoverable without a live replicated standby"
            )
        state.request_failover(node, dead_tids, now, last_heard_at)
        if primary:
            state.promote_pending = (node, dead_tids, now, last_heard_at)
        self._lose_units(dead_tids)
        kind, tid = (CTL_PROMOTE, self.standby_tid) if primary else (
            CTL_NODE_FAILED, self.commit_tid
        )
        self.inbox_of(tid).put_nowait(ControlEnvelope(kind, state.epoch, -1, node))

    def _lose_units(self, dead_tids: tuple) -> None:
        """Paradigm hook at declaration time: release whatever the dead
        units held that survivors may be blocked on."""

    def apply_node_failure(self, node: int, dead_tids) -> None:
        """Re-partition onto the survivors (degraded-mode restart).

        Records the dead tids, drops them from the paradigm's live
        scheduling lists (:meth:`_drop_dead_units`, which raises when no
        survivor can take over their work) and from the reliable
        transport (frames to or from them are abandoned).
        """
        self.dead_tids.update(dead_tids)
        self._drop_dead_units(node)
        if self.transport is not None:
            self.transport.forget_units(dead_tids)

    def _drop_dead_units(self, node: int) -> None:
        raise NotImplementedError

    # -- execution --------------------------------------------------------------------------------

    def _start_auxiliaries(self) -> None:
        """Paradigm hook: start processes outside the completion set."""

    def _run_units(self, mains: list) -> float:
        """Run the units' main loops to completion; returns the elapsed
        simulated time.

        ``mains[tid]`` is unit ``tid``'s main generator.  Each unit is
        spawned on its node under its label, in tid order; then the
        failure detector's tick, the paradigm's auxiliaries and the
        chaos engine's binding start, in that order.
        """
        env = self.env
        start = env.now
        labels = {tid: label for label, tid in self.unit_labels().items()}
        processes = []
        for tid, main in enumerate(mains):
            process = env.process(main, name=labels[tid])
            self.register_node_process(self.node_of(tid), process)
            processes.append(process)
        if self.failure_detector is not None:
            self.failure_detector.start()
        self._start_auxiliaries()
        if env.chaos is not None:
            env.chaos.bind_system(self)
        env.run(until=env.all_of(processes))
        elapsed = env.now - start
        self.stats.elapsed_seconds = elapsed
        return elapsed


class DSMTXSystem(ClusterSystem):
    """One configured DSMTX runtime instance: the pipeline's units, their
    queues and the recovery coordinator on the shared cluster shell."""

    runtime_name = "dsmtx runtime units"

    def __init__(self, workload: Any, config: SystemConfig) -> None:
        pipeline: PipelineConfig = workload.pipeline()
        self.pipeline = pipeline
        self.replicas = pipeline.allocate(
            config.total_cores, reserved_units=config.reserved_units
        )
        self.num_workers = sum(self.replicas)
        self.trycommit_tid = self.num_workers
        #: Tids of the COA read replicas (empty unless configured).
        self.replica_tids = [
            self.num_workers + 2 + index for index in range(config.coa_replicas)
        ]
        #: Replicas still alive (node failures remove entries).
        self.live_replica_tids = list(self.replica_tids)
        # The commit-unit hot standby (commit_replication) is assigned
        # last so the worker / try-commit / commit / COA-replica layout
        # is unchanged.
        super().__init__(
            workload, config,
            num_units=self.num_workers + config.reserved_units,
            commit_tid=self.num_workers + 1,
            standby_tid=(
                self.num_workers + 2 + config.coa_replicas
                if config.commit_replication
                else None
            ),
        )
        #: First worker tid of each stage.
        self.stage_base_tid: list[int] = []
        base = 0
        for count in self.replicas:
            self.stage_base_tid.append(base)
            base += count
        #: Live worker tids per stage.  Identical to the static layout
        #: until a node failure; degraded-mode restart removes the dead
        #: tids and survivors re-partition the iteration space over
        #: these lists (relative to the new restart base).
        self.live_by_stage: list[list[int]] = [
            list(range(b, b + count))
            for b, count in zip(self.stage_base_tid, self.replicas)
        ]
        self._endpoints = [Endpoint(self, tid) for tid in range(self.num_units)]

        #: Runtime queues by name (created before the units: the commit
        #: unit opens its replication stream at construction time).
        self._queues: dict[str, RuntimeQueue] = {}

        self.workers: list[Worker] = []
        for stage_index, count in enumerate(self.replicas):
            for replica in range(count):
                tid = self.stage_base_tid[stage_index] + replica
                self.workers.append(Worker(self, tid, stage_index, replica))
        self.try_commit = TryCommitUnit(self, self.trycommit_tid)
        self.commit = CommitUnit(self, self.commit_tid)
        self.coa_replicas = [CoaReplica(self, tid) for tid in self.replica_tids]
        #: Commit-unit hot standby; ``None`` without commit replication.
        self.standby = (
            StandbyUnit(self, self.standby_tid)
            if self.standby_tid is not None
            else None
        )
        # Replicas and the standby hold no speculative state: they are
        # not barrier parties (the standby joins the barriers only once
        # promoted, substituting for the dead primary).
        self.recovery = RecoveryCoordinator(self, parties=self.num_workers + 2)

        self.total_iterations = 0
        self._stage_bodies: dict[int, Callable] = {}

    # -- layout queries ---------------------------------------------------------------------

    @property
    def num_stages(self) -> int:
        return self.pipeline.num_stages

    def worker_tid_for(self, stage_index: int, iteration: int) -> int:
        """Tid of the worker executing ``iteration``'s subTX of a stage.

        Round-robin over the stage's *live* replicas, relative to the
        current epoch's restart base, so the mapping stays consistent
        across rollbacks and re-partitions itself after a node failure
        (every failover bumps the epoch and resets the base).
        """
        live = self.live_by_stage[stage_index]
        return live[(iteration - self.state.restart_base) % len(live)]

    def endpoint_of_unit(self, tid: int) -> Endpoint:
        return self._endpoints[tid]

    def coa_target_tid(self, page_no: int, requester_tid: int) -> int:
        """Unit that serves a COA request for ``page_no``.

        Read-only pages may be served by a replica (sharded by the
        requester so each worker sticks to one cache); everything else
        goes to the commit unit, the owner of mutable committed state.
        """
        live = self.live_replica_tids
        if live and self.uva.page_is_read_only(page_no):
            return live[requester_tid % len(live)]
        return self.commit_tid

    def unit_labels(self) -> dict:
        labels = {
            f"worker[{worker.stage_index}.{worker.replica}]": worker.tid
            for worker in self.workers
        }
        labels["try-commit"] = self.trycommit_tid
        labels["commit"] = self.commit_tid
        for index, tid in enumerate(self.replica_tids):
            labels[f"coa-replica[{index}]"] = tid
        if self.standby_tid is not None:
            labels["commit-standby"] = self.standby_tid
        return labels

    # -- queues -----------------------------------------------------------------------------

    def _queue(self, name: str, purpose: str, src_tid: int, dst_tid: int,
               flush_each_subtx: bool, durable: bool = False) -> RuntimeQueue:
        queue = self._queues.get(name)
        if queue is None:
            queue = RuntimeQueue(
                self, name, purpose, src_tid, dst_tid, flush_each_subtx,
                durable=durable,
            )
            self._queues[name] = queue
        return queue

    def forward_queue(self, src_tid: int, dst_tid: int) -> RuntimeQueue:
        """Uncommitted-value-forwarding queue between two workers."""
        return self._queue(
            f"fw:{src_tid}>{dst_tid}", "forward", src_tid, dst_tid, flush_each_subtx=True
        )

    def tclog_queue(self, worker_tid: int) -> RuntimeQueue:
        """Access-log stream from a worker to the try-commit unit."""
        return self._queue(
            f"tclog:{worker_tid}", "log", worker_tid, self.trycommit_tid,
            flush_each_subtx=False,
        )

    def clog_queue(self, worker_tid: int) -> RuntimeQueue:
        """Write-log stream from a worker to the commit unit."""
        return self._queue(
            f"clog:{worker_tid}", "log", worker_tid, self.commit_tid,
            flush_each_subtx=False,
        )

    def validated_queue(self) -> RuntimeQueue:
        """Validation-notice stream from try-commit to commit."""
        return self._queue(
            "validated", "log", self.trycommit_tid, self.commit_tid,
            flush_each_subtx=False,
        )

    def sync_queue(self, label: str, src_tid: int, dst_tid: int) -> RuntimeQueue:
        """TLS synchronized-dependence queue (flushed per value)."""
        return self._queue(
            f"sync:{label}:{src_tid}>{dst_tid}", "sync", src_tid, dst_tid,
            flush_each_subtx=True,
        )

    def repl_queue(self) -> RuntimeQueue:
        """Commit-to-standby replication stream (commit replication).

        Durable: it carries *committed* state, so epoch fences and FLQ
        flushes must never drop its batches.
        """
        return self._queue(
            "repl", "repl", self.commit_tid, self.standby_tid,
            flush_each_subtx=False, durable=True,
        )

    def queue_by_name(self, name: str) -> RuntimeQueue:
        return self._queues[name]

    def all_queues(self):
        return self._queues.values()

    def flush_all_inboxes(self) -> None:
        """Flush every unit inbox, waking blocked receivers (recovery
        kick-off and termination).

        The standby's inbox is exempt until termination: it may hold
        replication batches of *committed* state, which a speculative
        rollback must not destroy.  At termination the flush goes
        through — it is exactly what wakes a blocked standby so it can
        observe ``state.done`` and exit.
        """
        skip = self.standby_tid if not self.state.done else None
        for tid, inbox in enumerate(self._inboxes):
            if tid == skip:
                continue
            inbox.flush()

    # -- node failure -----------------------------------------------------------------------

    def declare_dead(self, node: int, dead_tids: tuple, last_heard_at: float) -> None:
        """The try-commit unit has no replica: its node's loss is fatal
        before anything is queued."""
        if self.trycommit_tid in dead_tids:
            raise ClusterFailedError(
                f"node {node} hosted the try-commit unit; the validation "
                f"pipeline has no replica and its loss is unrecoverable"
            )
        super().declare_dead(node, dead_tids, last_heard_at)

    def _lose_units(self, dead_tids: tuple) -> None:
        # Survivors must not wait for the dead at recovery barriers —
        # this also un-wedges a rollback already in progress.
        self.recovery.deregister([tid for tid in dead_tids if tid < self.num_workers])
        if self.commit_tid in dead_tids:
            # The dead primary's barrier seat passes to the standby: the
            # promoted unit orchestrates the failover under its own tid.
            self.recovery.substitute(self.commit_tid, self.standby_tid)
        elif self.standby_tid in dead_tids:
            # The replication consumer died: retire the stream *now* so
            # a primary blocked on its flow control wakes up (a dead
            # standby can never return credits).  The run degrades to
            # unreplicated; the primary drops its stream handle when it
            # orchestrates the failover.
            repl = self._queues.get("repl")
            if repl is not None:
                repl.retire()

    def _drop_dead_units(self, node: int) -> None:
        """A stage whose every replica died is unrecoverable — the lost
        subTX logs cannot be regenerated by anyone — as is (checked
        earlier, at declaration) the loss of the commit or try-commit
        unit."""
        for stage_index, live in enumerate(self.live_by_stage):
            survivors = [tid for tid in live if tid not in self.dead_tids]
            if not survivors:
                raise ClusterFailedError(
                    f"node {node} took stage {stage_index}'s last worker "
                    f"replica; the pipeline cannot be re-partitioned"
                )
            self.live_by_stage[stage_index] = survivors
        self.live_replica_tids = [
            tid for tid in self.live_replica_tids if tid not in self.dead_tids
        ]

    def promote_standby(self, standby) -> CommitUnit:
        """Swap the promoted standby in as the system's commit unit.

        Called by :meth:`StandbyUnit._promote` after the replay: builds
        a fresh :class:`CommitUnit` over the standby's replayed image
        with its frontier, retires the replication stream, swaps the
        layout, and redirects every queue that fed the dead primary
        (worker write logs, the validation-notice stream) to the new
        unit.  Control traffic (COA requests, misspeculation notices)
        follows ``self.commit_tid`` and needs no redirection.  Returns
        the new unit; the caller drives its run loop.
        """
        old_tid = self.commit_tid
        old_commit = self.commit
        frontier = standby.frontier
        #: Iterations the dead primary committed past the replicated
        #: frontier: lost with its master memory, re-executed by the
        #: survivors — so their first count is backed out here.
        recommitted = max(0, old_commit.next_commit - frontier)
        repl = self._queues.get("repl")
        if repl is not None:
            repl.retire()
        # Construct *before* the layout swap: with tid != commit_tid the
        # new unit does not open a replication stream to itself (a
        # promoted unit runs without a second standby).
        unit = CommitUnit(self, standby.tid)
        unit.master = standby.image
        unit.next_commit = frontier
        unit._last_checkpoint_iteration = frontier
        unit._recommitted = recommitted
        self.commit = unit
        self.commit_tid = standby.tid
        for queue in self._queues.values():
            if queue.dst_tid == old_tid and not queue.retired:
                queue.redirect(standby.tid)
        self.stats.committed_mtxs -= recommitted
        return unit

    # -- workload access ---------------------------------------------------------------------

    def workload_stage_body(self, stage_index: int) -> Callable:
        body = self._stage_bodies.get(stage_index)
        if body is None:
            body = self.workload.stage_body(stage_index)
            self._stage_bodies[stage_index] = body
        return body

    def workload_sequential_body(self) -> Callable:
        return self.workload.sequential_body

    # -- execution --------------------------------------------------------------------------------

    def stage_utilization(self) -> dict:
        """Mean busy fraction per pipeline stage plus the units."""
        per_unit = self.utilization()
        if not per_unit:
            return {}
        summary: dict = {}
        for stage_index in range(self.num_stages):
            fractions = [
                per_unit[f"worker[{stage_index}.{replica}]"]
                for replica in range(self.replicas[stage_index])
            ]
            summary[f"stage{stage_index}"] = sum(fractions) / len(fractions)
        summary["try-commit"] = per_unit["try-commit"]
        summary["commit"] = per_unit["commit"]
        return summary

    def _scrub_process(self):
        """Periodic page-digest audit of committed memory.

        Re-reads ``self.commit`` every sweep so the scrubber follows a
        standby promotion, and sits out sweeps while the commit unit's
        node is dead (the promotion races the detector) or a recovery
        is rolling master forward (SEQ writes words across many yield
        points; auditing half-applied state would read legitimate
        re-execution as corruption)."""
        from repro.core.state import RunMode

        interval = self.config.scrub_interval_s
        while not self.state.done:
            yield self.env.timeout(interval)
            if self.state.done:
                return
            if self.state.mode != RunMode.RUN:
                continue
            commit = self.commit
            if commit.tid in self.dead_tids:
                continue
            commit.scrub_once()

    def _start_auxiliaries(self) -> None:
        if self.config.integrity:
            # Auxiliary process (not in the completion set): abandoned
            # when the run's own processes finish.
            self.env.process(self._scrub_process(), name="scrubber")

    def run(self, iterations: Optional[int] = None) -> RunResult:
        """Execute the workload's parallel region to completion."""
        self.total_iterations = (
            iterations if iterations is not None else self.workload.iterations
        )
        if self.total_iterations < 1:
            raise ConfigurationError("need at least one iteration")
        self.workload.setup(self)
        mains = [worker.run() for worker in self.workers]
        mains.append(self.try_commit.run())
        mains.append(self.commit.run())
        mains.extend(replica.run() for replica in self.coa_replicas)
        if self.standby is not None:
            # The initial image is the epoch-0 checkpoint: the standby
            # starts from the same program state as the primary.
            self.standby.seed_image(self.commit.master)
            mains.append(self.standby.run())
        elapsed = self._run_units(mains)
        return RunResult(
            elapsed_seconds=elapsed,
            stats=self.stats,
            iterations=self.stats.committed_mtxs,
            total_cores=self.config.total_cores,
        )

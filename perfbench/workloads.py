"""The benchmark's five simulated jobs, their reference check and counters.

Each workload is one fixed simulated job that a user of ``repro run``, a
figure bench or a campaign would run, sized to about one second of host
time.  Everything goes through the package's public API.

Inputs come from ``(seed, variant)``: the seed picks the misspeculating
iterations, the fault-plan draws and the crash victim.  A run measures
several variants of one seed, so its median does not hang on one draw.
``pipeline_scale`` and ``specfor_conflict`` have fixed inputs, so every
variant is the same job.

The check: a job is correct when its committed image equals the
``memory_fingerprint`` of a sequential reference built with the same
UVA owner count and owner.  That holds for parser, crc32 and
spanning_forest, fault-injected runs included.  It does not hold for
gzip, bzip2 or h264ref, whose images differ from the sequential loop's
in words the loop never writes, so those are not used here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro import DSMTXSystem, SystemConfig
from repro.analysis import memory_fingerprint
from repro.chaos import ChaosEngine, FaultPlan, MessageCorruption, MessageLoss, NodeCrash
from repro.core import SequentialMeter
from repro.memory import AddressSpace, UnifiedVirtualAddressSpace
from repro.paradigms import SpecForSystem
from repro.workloads import ALL_BENCHMARKS, WriteThroughStore, run_body


def _pipeline_scale(iterations: int, rng: random.Random):
    """197.parser as Spec-DSWP+[S,DOALL,S] on 64 cores, fault-free."""
    workload = ALL_BENCHMARKS["197.parser"](iterations=iterations)
    config = SystemConfig(total_cores=64)
    return workload, config, lambda: DSMTXSystem(workload.dsmtx_plan(), config)


def _misspec_coa(iterations: int, rng: random.Random):
    """crc32 on 16 cores with one misspeculating iteration in 48."""
    bad = set(rng.sample(range(iterations), max(1, iterations // 48)))
    workload = ALL_BENCHMARKS["crc32"](iterations=iterations, misspec_iterations=bad)
    config = SystemConfig(total_cores=16)
    return workload, config, lambda: DSMTXSystem(workload.dsmtx_plan(), config)


def _specfor_conflict(iterations: int, rng: random.Random):
    """spanning_forest under speculative_for, 4 workers, density 0.8."""
    workload = ALL_BENCHMARKS["spanning_forest"](iterations=iterations, density=0.8)
    config = SystemConfig(total_cores=5)
    return workload, config, lambda: SpecForSystem(workload, config, workers=4)


def _ft_chaos(iterations: int, rng: random.Random):
    """crc32 on 16 spread cores with FT, a commit standby and integrity;
    2% wire corruption and a crash of the commit node at 42 ms of the
    384-iteration run (scaled with the iteration count)."""
    workload = ALL_BENCHMARKS["crc32"](iterations=iterations)
    config = SystemConfig(
        total_cores=16, placement="spread", fault_tolerance=True,
        commit_replication=True, integrity=True,
    )
    plan_seed = rng.randrange(1 << 32)
    crash_at_s = 0.042 * iterations / 384

    def construct():
        system = DSMTXSystem(workload.dsmtx_plan(), config)
        node = system.core_of(system.commit_tid).node_index
        plan = FaultPlan(
            faults=(MessageCorruption(probability=0.02), NodeCrash(node=node, at_s=crash_at_s)),
            seed=plan_seed,
        )
        ChaosEngine(plan).attach(system.env)
        return system

    return workload, config, construct


def _specfor_ft(iterations: int, rng: random.Random):
    """spanning_forest under fault-tolerant speculative_for with a
    reservation standby; 1% message loss and a crash of a seed-chosen
    worker's node at 12 ms of the 6144-iteration run (scaled)."""
    workload = ALL_BENCHMARKS["spanning_forest"](iterations=iterations, density=0.8)
    config = SystemConfig(
        total_cores=6, placement="spread", fault_tolerance=True,
        commit_replication=True,
    )
    plan_seed = rng.randrange(1 << 32)
    victim = rng.randrange(4)
    crash_at_s = 0.012 * iterations / 6144

    def construct():
        system = SpecForSystem(workload, config, workers=4)
        node = system.core_of(victim).node_index
        plan = FaultPlan(
            faults=(MessageLoss(probability=0.01), NodeCrash(node=node, at_s=crash_at_s)),
            seed=plan_seed,
        )
        ChaosEngine(plan).attach(system.env)
        return system

    return workload, config, construct


#: Workload name -> (full-size iteration count, factory).  A factory takes
#: ``(iterations, rng)`` and returns ``(workload, config, construct)``,
#: where ``construct()`` makes the system ready to run.
WORKLOADS: dict[str, tuple[int, Callable]] = {
    "pipeline_scale": (2048, _pipeline_scale),
    "misspec_coa": (768, _misspec_coa),
    "specfor_conflict": (12288, _specfor_conflict),
    "ft_chaos": (384, _ft_chaos),
    "specfor_ft": (6144, _specfor_ft),
}

#: Workloads that inject no fault and run without FT or integrity.
FAULT_FREE = ("pipeline_scale", "misspec_coa", "specfor_conflict")


class Job:
    """One simulated job: inputs drawn up front, then construct and run.

    The benchmark times :meth:`construct` plus :meth:`run`; building the
    inputs and checking the result happen outside the timed region.
    """

    def __init__(self, name: str, seed: int, variant: int, iterations: int | None = None) -> None:
        full, factory = WORKLOADS[name]
        rng = random.Random(f"{name}:{seed}:{variant}")
        self.label = f"{name} seed {seed} variant {variant}"
        self.workload, self.config, self._construct = factory(iterations or full, rng)
        self.system = None
        self.result = None

    def __str__(self) -> str:
        return self.label

    def construct(self) -> None:
        self.system = self._construct()

    def run(self) -> None:
        self.result = self.system.run()

    @property
    def uva_layout(self) -> tuple[int, int]:
        """``(owners, owner)`` the program state was built with.  Read it
        before :meth:`run`: a standby promotion reassigns ``commit_tid``.
        speculative_for always builds from owner 0."""
        system = self.system
        owner = system.commit_tid if isinstance(system, DSMTXSystem) else 0
        return system.num_units, owner


@dataclass(frozen=True)
class Reference:
    """The sequential loop's committed image and its simulated time."""

    image: list
    seconds: float


def reference(job: Job, layout: tuple[int, int]) -> Reference:
    """Run ``job``'s loop sequentially in a fresh address space laid out
    like the system's.  Use a job that will not itself be run: ``build``
    records addresses on the workload."""
    owners, owner = layout
    space = AddressSpace("reference")
    meter = SequentialMeter(job.config, space)
    workload = job.workload
    workload.build(UnifiedVirtualAddressSpace(owners=owners), owner, WriteThroughStore(space))
    for iteration in range(workload.iterations):
        meter.begin_iteration(iteration)
        run_body(workload.sequential_body(meter))
    return Reference(image=memory_fingerprint(space), seconds=meter.seconds)


def matches(job: Job, ref: Reference) -> bool:
    """True when the job committed exactly the reference's image."""
    return memory_fingerprint(job.system.commit.master) == ref.image


def counters(job: Job) -> dict[str, float]:
    """Simulated per-layer counters of a finished job (exact)."""
    system, stats = job.system, job.result.stats
    squashed = sum(record.squashed_iterations for record in stats.recoveries)
    committed = stats.committed_mtxs
    util = system.utilization()
    workers = [v for k, v in util.items() if "worker" in k]
    specfor = stats.specfor_rounds > 0
    return {
        "sim.engine.events": system.env.events_processed,
        "core.queues.batches": stats.queue_batches,
        "core.queues.bytes": stats.queue_bytes,
        "core.try_commit.reads_checked": stats.reads_checked,
        "core.commit.words_committed": stats.words_committed,
        "core.commit.coa_pages": stats.coa_pages_served,
        "core.recovery.misspeculations": stats.misspeculations,
        "core.recovery.squashed": squashed,
        "core.recovery.useful_ratio": committed / (committed + squashed) if committed else 0.0,
        "core.transport.retransmits": stats.ft_retransmits,
        "core.transport.duplicates_dropped": stats.ft_duplicates_dropped,
        "core.transport.acks": stats.ft_acks,
        "core.failure.heartbeats": stats.ft_heartbeats,
        "core.standby.repl_words": stats.ft_repl_words,
        "core.standby.promotions": stats.ft_promotions,
        "core.standby.replayed_words": stats.ft_replayed_words,
        "core.integrity.scrub_pages": stats.ft_scrub_pages,
        "core.integrity.corruptions_detected": stats.ft_corruptions_detected,
        "core.integrity.corruptions_repaired": stats.ft_corruptions_repaired,
        "core.reservations.reservations": stats.specfor_reservations,
        "core.reservations.failures": stats.specfor_reservation_failures,
        "paradigms.specfor.rounds": stats.specfor_rounds,
        "paradigms.specfor.carried": stats.specfor_carried,
        "paradigms.specfor.reexecutions": stats.ft_round_reexecutions,
        "paradigms.specfor.useful_ratio": (
            committed / (committed + stats.specfor_carried) if specfor else 0.0
        ),
        "sim.util.workers": sum(workers) / len(workers) if workers else 0.0,
        "sim.util.commit": util.get("commit", util.get("specfor-service", 0.0)),
        "sim.util.try_commit": util.get("try-commit", 0.0),
    }

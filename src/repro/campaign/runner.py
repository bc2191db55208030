"""Campaign sweep runner: fan scenarios across host cores.

``repro campaign run`` hands the expanded scenario list to
:func:`run_campaign`, which executes each scenario with
:func:`run_scenario` — either inline (``workers=1``) or across a
``multiprocessing`` pool.  Every scenario is an independent,
deterministic simulation (fresh :class:`~repro.sim.Environment`,
seeded fault plan, virtual clock), so the fan-out is embarrassingly
parallel and the *result records are byte-identical whatever the
worker count* — the determinism suite pins exactly that.

A scenario's outcome is reduced to a :class:`ScenarioResult`: the
scenario digest (spec identity), the outcome digest (the
``repro chaos`` run digest: committed memory word-for-word, failure
records, transport counters), headline statistics, and the verdict of
the scenario's expectations.  ``record()`` is the canonical,
deterministic dict the store persists; host wall-clock time rides
alongside but is excluded from it.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.campaign.schema import ScenarioSpec

__all__ = ["ScenarioResult", "build_scenario", "run_reference",
           "sequential_seconds", "run_scenario", "run_campaign", "RECORD_SCHEMA"]

#: Schema version of the result record.
RECORD_SCHEMA = 1


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    name: str
    index: int
    scenario_digest: str
    outcome_digest: str
    #: ``ok`` | ``failed`` (expectation missed) | ``error`` (run raised).
    status: str
    #: Human-readable reasons when status is not ``ok``.
    failures: list = field(default_factory=list)
    benchmark: str = ""
    scheme: str = "dsmtx"
    cores: int = 0
    seed: int = 0
    committed_mtxs: int = 0
    misspeculations: int = 0
    words_committed: int = 0
    queue_bytes: int = 0
    queue_batches: int = 0
    coa_pages_served: int = 0
    #: Simulated duration of the parallel region.
    elapsed_sim_seconds: float = 0.0
    #: Single-core sequential execution time (speedup base).
    sequential_seconds: float = 0.0
    speedup: float = 0.0
    #: Node-failure recovery episodes: detection-to-resume latency each.
    recovery_seconds: list = field(default_factory=list)
    #: Speculative iterations lost across all node failures.
    lost_iterations: int = 0
    #: Standby promotions (commit-unit failovers).
    promotions: int = 0
    #: Epoch checkpoints taken.
    checkpoints: int = 0
    #: Conflict-density knob of the scenario (irregular workloads only).
    density: Optional[float] = None
    #: Reservation rounds, ``write_min`` losses, and carried iterations
    #: (scheme ``specfor`` only; all zero elsewhere).
    specfor_rounds: int = 0
    specfor_reservation_failures: int = 0
    specfor_carried: int = 0
    #: Host wall-clock seconds this scenario took.  NOT part of the
    #: canonical record — it varies run to run by construction.
    wall_seconds: float = 0.0

    def record(self) -> dict:
        """The canonical, deterministic result record (no wall clock)."""
        return {
            "schema": RECORD_SCHEMA,
            "name": self.name,
            "index": self.index,
            "scenario_digest": self.scenario_digest,
            "outcome_digest": self.outcome_digest,
            "status": self.status,
            "failures": list(self.failures),
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "cores": self.cores,
            "seed": self.seed,
            "committed_mtxs": self.committed_mtxs,
            "misspeculations": self.misspeculations,
            "words_committed": self.words_committed,
            "queue_bytes": self.queue_bytes,
            "queue_batches": self.queue_batches,
            "coa_pages_served": self.coa_pages_served,
            "elapsed_sim_seconds": self.elapsed_sim_seconds,
            "sequential_seconds": self.sequential_seconds,
            "speedup": self.speedup,
            "recovery_seconds": list(self.recovery_seconds),
            "lost_iterations": self.lost_iterations,
            "promotions": self.promotions,
            "checkpoints": self.checkpoints,
            "density": self.density,
            "specfor_rounds": self.specfor_rounds,
            "specfor_reservation_failures": self.specfor_reservation_failures,
            "specfor_carried": self.specfor_carried,
        }

    def record_json(self) -> str:
        """Canonical JSON of :meth:`record` (byte-comparable)."""
        return json.dumps(self.record(), sort_keys=True, separators=(",", ":"))

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# -- one scenario ----------------------------------------------------------------


def _workload_kwargs(spec: ScenarioSpec) -> dict:
    kwargs = {}
    if spec.iterations is not None:
        kwargs["iterations"] = spec.iterations
    if spec.density is not None:
        kwargs["density"] = spec.density
    return kwargs


def _build_system(spec: ScenarioSpec, config):
    """A fresh system for ``spec`` under ``config``."""
    from repro.core import DSMTXSystem
    from repro.workloads import ALL_BENCHMARKS

    factory = ALL_BENCHMARKS[spec.benchmark]
    kwargs = _workload_kwargs(spec)
    workload = factory(**kwargs)
    bad = spec.resolved_misspec_iterations(workload.iterations)
    if bad is not None:
        workload = factory(misspec_iterations=bad, **kwargs)
    if spec.scheme == "specfor":
        from repro.paradigms import SpecForSystem

        return SpecForSystem(workload, config, workers=spec.specfor_workers)
    plan = (workload.dsmtx_plan() if spec.scheme == "dsmtx"
            else workload.tls_plan())
    return DSMTXSystem(plan, config)


def _system_config(spec: ScenarioSpec):
    from repro.core import SystemConfig

    kwargs = dict(
        total_cores=spec.cores,
        placement=spec.placement,
        coa_replicas=spec.coa_replicas,
        fault_tolerance=spec.fault_tolerance,
        commit_replication=spec.commit_replication,
        integrity=spec.integrity,
    )
    if spec.batch_bytes is not None:
        kwargs["batch_bytes"] = spec.batch_bytes
    return SystemConfig(**kwargs)


def build_scenario(spec: ScenarioSpec, config=None):
    """The system ``spec`` describes, with its fault plan attached.

    Returns ``(system, engine, config)``: ``config`` defaults to the
    spec's own :class:`~repro.core.SystemConfig`, and ``engine`` is the
    attached :class:`~repro.chaos.ChaosEngine`, or ``None`` when the
    spec schedules no fault (a fault-free run carries no engine, so its
    digest holds no chaos summary).  ``crash_commit`` and
    ``crash_worker`` resolve against the built system's placement.
    """
    if config is None:
        config = _system_config(spec)
    system = _build_system(spec, config)
    worker_nodes = None
    if spec.scheme == "specfor":
        worker_nodes = tuple(
            system.node_of(tid) for tid in range(system.num_workers))
    fault_plan = spec.faults.build_plan(
        spec.seed,
        commit_node=system.node_of(system.commit_tid),
        worker_nodes=worker_nodes,
    )
    engine = None
    if fault_plan is not None:
        from repro.chaos import ChaosEngine

        engine = ChaosEngine(fault_plan).attach(system.env)
    return system, engine, config


def run_reference(spec: ScenarioSpec, config):
    """Run the fault-free reference of ``spec`` and return its system.

    The reference must be layout-identical to the faulted run, whose
    ``config`` is given: a commit standby reserves a unit slot, so
    replication stays on; plain fault tolerance adds no units and is
    dropped for speed.  Integrity adds no units either, and
    :class:`~repro.core.SystemConfig` rejects it without fault
    tolerance, so it follows the same switch.
    """
    ref_config = replace(
        config,
        fault_tolerance=spec.commit_replication,
        commit_replication=spec.commit_replication,
        integrity=spec.integrity and spec.commit_replication,
    )
    system = _build_system(spec, ref_config)
    system.run()
    return system


def sequential_seconds(spec: ScenarioSpec, config) -> float:
    """Single-core sequential time of ``spec``'s workload (the speedup
    base), built without the spec's injected misspeculations."""
    from repro.workloads import ALL_BENCHMARKS

    workload = ALL_BENCHMARKS[spec.benchmark](**_workload_kwargs(spec))
    return workload.sequential_seconds(config)


def _trace_path(trace_dir: Path, spec: ScenarioSpec) -> Path:
    safe = spec.name.replace("/", "_").replace(" ", "_")
    return trace_dir / f"{safe}.trace.json"


def run_scenario(
    spec: ScenarioSpec,
    index: int = 0,
    trace_dir: Optional[Path] = None,
) -> ScenarioResult:
    """Execute one scenario and reduce it to a :class:`ScenarioResult`.

    Never raises for a failing *run*: simulation errors (an
    unsurvivable fault plan, a deadlock) are folded into an ``error``
    record so one bad scenario cannot sink a 500-scenario sweep.
    """
    began = time.perf_counter()
    result = ScenarioResult(
        name=spec.name,
        index=index,
        scenario_digest=spec.digest(),
        outcome_digest="",
        status="ok",
        benchmark=spec.benchmark,
        scheme=spec.scheme,
        cores=spec.cores,
        seed=spec.seed,
        density=spec.density,
    )
    try:
        _execute(spec, result, trace_dir)
    except Exception as exc:  # noqa: BLE001 - fold any run failure into the record
        result.status = "error"
        result.failures.append(f"{type(exc).__name__}: {exc}")
    result.wall_seconds = time.perf_counter() - began
    return result


def _execute(spec: ScenarioSpec, result: ScenarioResult,
             trace_dir: Optional[Path]) -> None:
    from repro.analysis import run_digest

    system, engine, config = build_scenario(spec)

    hub = None
    if spec.trace and trace_dir is not None:
        from repro.obs import instrument

        hub = instrument(system)

    run = system.run()
    stats = run.stats
    if hub is not None:
        from repro.obs import write_chrome_trace

        hub.finalize(system)
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(
            hub.tracer, _trace_path(trace_dir, spec),
            metadata={"scenario": spec.name,
                      "scenario_digest": result.scenario_digest},
        )

    result.outcome_digest = run_digest(
        stats, master=system.commit.master, chaos=engine)
    result.committed_mtxs = stats.committed_mtxs
    result.misspeculations = stats.misspeculations
    result.words_committed = stats.words_committed
    result.queue_bytes = stats.queue_bytes
    result.queue_batches = stats.queue_batches
    result.coa_pages_served = stats.coa_pages_served
    result.elapsed_sim_seconds = stats.elapsed_seconds
    result.recovery_seconds = [f.recovery_seconds for f in stats.failures]
    result.lost_iterations = stats.lost_iterations
    result.promotions = stats.ft_promotions
    result.checkpoints = len(stats.checkpoints)
    result.specfor_rounds = stats.specfor_rounds
    result.specfor_reservation_failures = stats.specfor_reservation_failures
    result.specfor_carried = stats.specfor_carried

    result.sequential_seconds = sequential_seconds(spec, config)
    if stats.elapsed_seconds > 0:
        result.speedup = result.sequential_seconds / stats.elapsed_seconds

    _check_expectations(spec, result, system, config)
    if result.failures:
        result.status = "failed"


def _check_expectations(spec: ScenarioSpec, result: ScenarioResult,
                        system, config) -> None:
    expect = spec.expect
    if (expect.committed_mtxs is not None
            and result.committed_mtxs != expect.committed_mtxs):
        result.failures.append(
            f"committed_mtxs: expected {expect.committed_mtxs}, "
            f"got {result.committed_mtxs}")
    if (expect.max_misspeculations is not None
            and result.misspeculations > expect.max_misspeculations):
        result.failures.append(
            f"misspeculations: expected <= {expect.max_misspeculations}, "
            f"got {result.misspeculations}")
    if (expect.min_speedup is not None
            and result.speedup < expect.min_speedup):
        result.failures.append(
            f"speedup: expected >= {expect.min_speedup:g}, "
            f"got {result.speedup:.3g}")
    if expect.matches_reference:
        from repro.analysis import memory_fingerprint

        reference = run_reference(spec, config)
        ref_mtxs = reference.stats.committed_mtxs
        if result.committed_mtxs != ref_mtxs:
            result.failures.append(
                f"reference: committed {result.committed_mtxs} MTXs, "
                f"fault-free run committed {ref_mtxs}")
        elif (memory_fingerprint(system.commit.master)
                != memory_fingerprint(reference.commit.master)):
            result.failures.append(
                "reference: committed memory differs from the fault-free run")


# -- the sweep -------------------------------------------------------------------


def _child(payload: tuple) -> ScenarioResult:
    spec_dict, index, trace_dir = payload
    spec = ScenarioSpec.from_dict(spec_dict)
    return run_scenario(
        spec, index, Path(trace_dir) if trace_dir else None)


def run_campaign(
    scenarios: Sequence[ScenarioSpec],
    workers: int = 1,
    trace_dir: Optional[Path] = None,
    progress: Optional[Callable[[int, int, ScenarioResult], None]] = None,
) -> list[ScenarioResult]:
    """Run every scenario; results in scenario order.

    ``workers > 1`` fans the list across a ``multiprocessing`` pool
    (one scenario per task, so stragglers rebalance); ``progress`` is
    called after each completion with ``(done, total, result)``.
    Records are byte-identical across worker counts.
    """
    total = len(scenarios)
    results: list[ScenarioResult] = []
    if workers <= 1 or total <= 1:
        for index, spec in enumerate(scenarios):
            result = run_scenario(spec, index, trace_dir)
            results.append(result)
            if progress is not None:
                progress(len(results), total, result)
        return results

    payloads = [
        (spec.to_dict(), index, str(trace_dir) if trace_dir else None)
        for index, spec in enumerate(scenarios)
    ]
    with multiprocessing.Pool(processes=min(workers, total)) as pool:
        for result in pool.imap(_child, payloads, chunksize=1):
            results.append(result)
            if progress is not None:
                progress(len(results), total, result)
    return results


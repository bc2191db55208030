"""Tier-1 guard: observability is free when disabled.

Three claims, strongest first:

1. An uninstrumented run records nothing anywhere (no events can leak
   through a stale hook).
2. Instrumentation does not perturb the simulation: an instrumented run
   reproduces the uninstrumented run's simulated results *exactly* —
   the hooks only read the clock.
3. The disabled hooks' wall-clock cost is in the noise: a run without
   instrumentation is no more than 5% slower than the same run with it
   (the instrumented run does strictly more work, so this bounds the
   disabled-path overhead without comparing two noisy equals).
"""

import time

import pytest

from repro.analysis import run_digest
from repro.chaos import ChaosEngine, FaultPlan, MessageLoss, NodeCrash
from repro.core import DSMTXSystem, SystemConfig
from repro.obs import detach, instrument
from repro.paradigms import SpecForSystem
from repro.workloads import ALL_BENCHMARKS, Crc32


def _build(instrumented):
    workload = Crc32(iterations=24, misspec_iterations={12})
    system = DSMTXSystem(workload.dsmtx_plan(), SystemConfig(total_cores=8))
    hub = instrument(system) if instrumented else None
    return system, hub


def _fingerprint(system):
    stats = system.stats
    return (
        stats.elapsed_seconds,
        stats.committed_mtxs,
        stats.misspeculations,
        stats.queue_bytes,
        stats.queue_batches,
        stats.coa_pages_served,
        stats.words_committed,
        system.env.events_processed,
        tuple((r.misspec_iteration, r.erm_seconds, r.flq_seconds, r.seq_seconds)
              for r in stats.recoveries),
    )


def test_disabled_records_zero_events():
    system, _ = _build(instrumented=False)
    system.run()
    assert system.obs is None
    assert system.env.obs is None
    assert system.stats.observer is None
    for worker in system.workers:
        assert worker.space.obs is None


def test_detach_stops_recording():
    system, hub = _build(instrumented=True)
    detach(system)
    system.run()
    assert len(hub.tracer) == 0
    assert len(hub.metrics) == 0


def test_instrumentation_is_timing_invariant():
    plain, _ = _build(instrumented=False)
    plain.run()
    traced, hub = _build(instrumented=True)
    traced.run()
    assert _fingerprint(plain) == _fingerprint(traced)
    assert len(hub.tracer) > 0  # and it actually recorded something


def test_fused_loop_reports_every_event_to_step_listeners():
    # The fused run() loop keeps a local alias of the step-listener
    # list; it must still observe every processed event — including the
    # fast-path timeouts created by env.sleep() — when instrumentation
    # is attached before the run.
    system, _ = _build(instrumented=True)
    seen = []
    system.env.add_step_listener(lambda event: seen.append(event))
    system.run()
    assert len(seen) == system.env.events_processed


def test_listener_attached_mid_run_sees_remaining_events():
    # add/remove_step_listener mutate the list in place, so attaching a
    # listener from inside a step takes effect within the fused loop.
    from repro.sim import Environment

    env = Environment()
    seen = []

    def late():
        yield env.sleep(1.0)
        env.add_step_listener(lambda event: seen.append(event))
        yield env.sleep(1.0)
        yield env.sleep(1.0)

    env.process(late())
    env.run()
    # Listeners are notified after an event's callbacks run, so the
    # attaching event itself is seen too: the sleep that attached, the
    # two later sleeps, and the process-completion event.
    assert len(seen) == 4


def test_disabled_wall_clock_overhead_under_5_percent():
    def best_of(instrumented, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            system, _ = _build(instrumented)
            begin = time.perf_counter()
            system.run()
            best = min(best, time.perf_counter() - begin)
        return best

    disabled = best_of(False)
    enabled = best_of(True)
    # The enabled run does strictly more work, so the disabled hooks'
    # cost is bounded by any margin the enabled run needs.
    assert disabled <= enabled * 1.05, (disabled, enabled)


def _specfor_run(instrumented, fault_tolerant):
    """A speculative_for run, fault-free or with FT, a standby, loss and a
    worker crash; returns its digest, the hub and the system."""
    workload = ALL_BENCHMARKS["spanning_forest"](iterations=48, density=0.7)
    config = SystemConfig(
        total_cores=6, placement="spread", fault_tolerance=fault_tolerant,
        commit_replication=fault_tolerant,
    )
    system = SpecForSystem(workload, config, workers=4)
    engine = None
    if fault_tolerant:
        plan = FaultPlan(
            faults=(MessageLoss(0.05), NodeCrash(node=1, at_s=0.00015)), seed=3
        )
        engine = ChaosEngine(plan).attach(system.env)
    hub = instrument(system) if instrumented else None
    system.run()
    digest = run_digest(system.stats, master=system.commit.master, chaos=engine)
    return digest, hub, system


@pytest.mark.parametrize("fault_tolerant", [False, True])
def test_specfor_instrumentation_is_timing_invariant(fault_tolerant):
    plain, _hub, _system = _specfor_run(False, fault_tolerant)
    traced, hub, system = _specfor_run(True, fault_tolerant)
    assert traced == plain
    snapshot = hub.metrics.snapshot()
    assert snapshot["mpi.recvs"] > 0
    assert snapshot["specfor.rounds"] > 0
    names = hub.tracer.thread_names
    assert names[(0, system.num_workers)] == "specfor-service"
    assert names[(0, 0)] == "specfor-worker[0]"
    if fault_tolerant:
        assert names[(0, system.num_workers + 1)] == "specfor-standby"
    detach(system)
    assert system.obs is None and system.env.obs is None
    assert system.commit.master.obs is None

"""End-to-end fault injection against the fault-tolerant runtime.

The acceptance bar for the whole subsystem: a run that loses a node (or
suffers a lossy/duplicating fabric) mid-flight must finish with exactly
the committed results of the fault-free run, and the whole episode must
be byte-reproducible from the plan's seed.
"""

import pytest

from repro.analysis import memory_fingerprint, run_digest
from repro.chaos import (
    ChaosEngine,
    FaultPlan,
    LinkDegrade,
    MessageDuplication,
    MessageLoss,
    NodeCrash,
)
from repro.core import DSMTXSystem, SystemConfig
from repro.errors import ClusterFailedError
from tests.core.toys import ToyDoall

ITERATIONS = 32


def build(fault_tolerance=False, cores=8):
    workload = ToyDoall(iterations=ITERATIONS)
    return workload, DSMTXSystem(
        workload.dsmtx_plan(),
        SystemConfig(total_cores=cores, fault_tolerance=fault_tolerance),
    )


def run_chaotic(plan, cores=8):
    workload, system = build(fault_tolerance=True, cores=cores)
    engine = ChaosEngine(plan).attach(system.env)
    result = system.run()
    return workload, system, result, engine


@pytest.fixture(scope="module")
def reference():
    """Fault-free run of the same workload (module-cached)."""
    workload, system = build()
    result = system.run()
    return workload, system, result


def assert_same_results(system, result, reference):
    _workload, ref_system, ref_result = reference
    assert result.stats.committed_mtxs == ref_result.stats.committed_mtxs
    assert memory_fingerprint(system.commit.master) == memory_fingerprint(
        ref_system.commit.master
    )


def crash_plan(reference, node=0, fraction=0.4, seed=7):
    """Crash ``node`` mid-run (at ``fraction`` of the fault-free time)."""
    _workload, _system, ref_result = reference
    return FaultPlan(
        faults=(NodeCrash(node=node, at_s=fraction * ref_result.elapsed_seconds),),
        seed=seed,
    )


def test_node_crash_recovers_with_identical_results(reference):
    plan = crash_plan(reference)
    _workload, system, result, engine = run_chaotic(plan)
    assert engine.dead_nodes == {0}
    assert_same_results(system, result, reference)
    # The failover was recorded with its cost accounting.
    (record,) = result.stats.failures
    assert record.node == 0
    assert record.dead_tids == (0, 1, 2, 3)
    assert record.surviving_workers == 2
    assert record.recovery_seconds > 0
    assert record.detected_at > record.last_heard_at
    assert result.stats.lost_iterations == record.lost_iterations >= 0
    # Survivors carried the re-partitioned iteration space.
    assert system.live_by_stage == [[4, 5]]
    assert system.dead_tids == {0, 1, 2, 3}


def test_chaotic_run_is_byte_deterministic(reference):
    plan = crash_plan(reference)
    digests = set()
    for _ in range(2):
        _workload, system, result, engine = run_chaotic(plan)
        digests.add(
            run_digest(result.stats, master=system.commit.master, chaos=engine)
        )
    assert len(digests) == 1


def test_message_loss_is_absorbed_by_retransmission(reference):
    plan = FaultPlan(faults=(MessageLoss(probability=0.05),), seed=3)
    _workload, system, result, engine = run_chaotic(plan)
    assert engine.messages_dropped > 0
    assert result.stats.ft_retransmits > 0
    assert_same_results(system, result, reference)


def test_message_duplication_is_deduplicated(reference):
    plan = FaultPlan(faults=(MessageDuplication(probability=0.10),), seed=5)
    _workload, system, result, engine = run_chaotic(plan)
    assert engine.messages_duplicated > 0
    assert result.stats.ft_duplicates_dropped > 0
    assert_same_results(system, result, reference)


def test_link_degradation_slows_but_does_not_corrupt(reference):
    _workload, _system, ref_result = reference
    plan = FaultPlan(faults=(
        LinkDegrade(at_s=0.0, duration_s=1.0, latency_factor=10.0,
                    bandwidth_factor=10.0),
    ))
    _workload, system, result, engine = run_chaotic(plan)
    assert engine.messages_delayed > 0
    assert result.elapsed_seconds > ref_result.elapsed_seconds
    assert_same_results(system, result, reference)


def test_commit_node_crash_is_unrecoverable(reference):
    # Pack placement puts the commit unit on the last node (node 1 here);
    # master memory has no replica, so this must fail loudly, not hang.
    plan = crash_plan(reference, node=1)
    with pytest.raises(ClusterFailedError, match="commit"):
        run_chaotic(plan)


def test_fault_tolerant_mode_alone_preserves_results(reference):
    # FT machinery on, no faults: acks/heartbeats flow, results identical.
    workload, system = build(fault_tolerance=True)
    result = system.run()
    assert result.stats.ft_acks > 0
    assert result.stats.ft_heartbeats > 0
    assert result.stats.ft_retransmit_giveups == 0
    assert not result.stats.failures
    assert_same_results(system, result, reference)


def test_ft_run_shorter_than_one_heartbeat_still_reports_its_transport():
    """A fault-tolerant run that ends before the first heartbeat acked
    its frames all the same: the resilience report and the hub's
    ``run.ft.*`` gauges must show the transport, exactly as the run
    fingerprint does, instead of keying off the heartbeat count."""
    from repro.analysis import render_resilience_report, run_fingerprint
    from repro.obs import Observability
    from repro.paradigms import SpecForSystem
    from repro.workloads import ALL_BENCHMARKS

    workload = ALL_BENCHMARKS["spanning_forest"](iterations=1)
    config = SystemConfig(total_cores=6, placement="spread", fault_tolerance=True)
    system = SpecForSystem(workload, config, workers=4)
    stats = system.run().stats
    assert stats.elapsed_seconds < system.cluster.heartbeat_period_s
    assert stats.ft_heartbeats == 0 and stats.ft_acks > 0

    assert f"ft.acks={stats.ft_acks}" in run_fingerprint(stats)
    report = render_resilience_report(stats)
    assert f"transport: {stats.ft_acks} acks" in report
    assert "heartbeats: 0" in report
    hub = Observability(system.env)
    hub.finalize(system)
    gauges = hub.metrics.snapshot()
    assert gauges["run.ft.acks"] == stats.ft_acks
    assert gauges["run.ft.heartbeats"] == 0

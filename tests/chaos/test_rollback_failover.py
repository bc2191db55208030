"""A commit standby promoted mid-rollback finishes the rollback.

The section 4.3 rollback keeps its progress on the system state, so
when the commit node dies while a rollback is in flight — a worker
node's failover, or a misspeculation's ERM → FLQ → SEQ — the promoted
standby re-enters it at the first barrier that has not released and
re-runs a SEQ the crash cut short.  Then it rolls back for the commit
node's own declaration, and the run commits the fault-free image.

Every run is cut at a simulated-time horizon, so a rollback that
strands its survivors at a barrier fails here instead of hanging.
"""

import pytest

from repro.analysis import memory_fingerprint
from repro.chaos import ChaosEngine, FaultPlan, NodeCrash
from repro.core import DSMTXSystem, SystemConfig
from repro.workloads import Crc32

ITERATIONS = 24

#: Simulated-time cut-off, about ten times a fault-free run.
HORIZON_S = 0.2


class _Unfinished(Exception):
    """The run was still going at its simulated-time horizon."""


def run(crashes=(), misspec=None, **config):
    """crc32 on 8 spread cores with FT and commit replication, small
    batches; ``crashes`` holds ``(unit, at_ms)`` pairs, each crashing the
    node that hosts worker 0 (``"worker"``) or the commit unit.  Returns
    the system and the crashed nodes, in crash order."""
    config = SystemConfig(
        total_cores=8, batch_bytes=64, placement="spread",
        fault_tolerance=True, commit_replication=True, **config,
    )
    workload = Crc32(iterations=ITERATIONS, misspec_iterations=misspec)
    system = DSMTXSystem(workload.dsmtx_plan(), config)
    env = system.env
    tids = {"worker": 0, "commit": system.commit_tid}
    faults = tuple(
        NodeCrash(node=system.node_of(tids[unit]), at_s=at_ms * 1e-3)
        for unit, at_ms in crashes
    )
    if faults:
        ChaosEngine(FaultPlan(faults=faults, seed=1)).attach(env)

    def horizon():
        yield env.sleep_until(HORIZON_S)
        raise _Unfinished(f"still running at {env.now} s")

    env.process(horizon(), name="horizon")
    system.run()
    return system, [fault.node for fault in faults]


@pytest.fixture(scope="module")
def reference_image():
    """Committed image of the fault-free run, which a misspeculating or
    crashed run must commit too."""
    system, _ = run()
    assert system.stats.committed_mtxs == ITERATIONS
    return memory_fingerprint(system.commit.master)


def assert_finished_like_the_reference(system, image, dead_nodes):
    """The fault-free image and MTX count, one failure record per dead
    node, and the promotion on the commit node's record only (the
    standby's tid became the commit unit's at promotion)."""
    assert system.stats.committed_mtxs == ITERATIONS
    assert memory_fingerprint(system.commit.master) == image
    records = system.stats.failures
    assert sorted(record.node for record in records) == sorted(dead_nodes)
    commit_node = dead_nodes[-1]
    for record in records:
        expected = system.commit_tid if record.node == commit_node else -1
        assert record.promoted_tid == expected
    assert system.stats.ft_promotions == 1


@pytest.mark.parametrize("commit_at_ms", [2.0, 3.0, 4.6])
def test_promotion_during_a_worker_failover_finishes_it(
    reference_image, commit_at_ms
):
    """Worker node 0 dies at 1.0 ms; its failover runs from 1.25 ms to
    about 4.7 ms.  A commit-node crash at 2.0 or 3.0 ms lands while the
    survivors wait at ERM, and the promoted unit must still re-partition
    without worker 0.  By 4.6 ms the dead primary's own ERM arrival has
    released the survivors to FLQ, where the promoted unit must meet
    them."""
    system, dead_nodes = run((("worker", 1.0), ("commit", commit_at_ms)))
    assert 0 not in system.live_by_stage[0]
    assert_finished_like_the_reference(system, reference_image, dead_nodes)


@pytest.mark.parametrize("commit_at_ms", [14.5, 17.0])
def test_promotion_during_a_misspeculation_rollback_finishes_it(
    reference_image, commit_at_ms
):
    """The fault-free rollback of iteration 12 spans 14.04–17.78 ms, most
    of it SEQ.  A commit-node crash inside it leaves the survivors at
    the resume barrier: the promoted unit must re-run SEQ from its
    replicated frontier and meet them there, rolling back once."""
    system, dead_nodes = run((("commit", commit_at_ms),), misspec={12})
    assert system.stats.misspeculations == 1
    assert [r.misspec_iteration for r in system.stats.recoveries] == [12]
    assert_finished_like_the_reference(system, reference_image, dead_nodes)


def test_promotion_with_nothing_left_to_commit_still_meets_the_survivors(
    reference_image,
):
    """The last iteration misspeculates, and a 10 µs barrier makes the
    primary reach the resume barrier after SEQ's words and frontier have
    reached the standby: the fault-free SEQ ends at 21.855 ms.  A crash
    at 21.86 ms leaves a promoted unit with all 24 MTXs committed and
    the survivors waiting for it at the resume barrier.  The commit
    node's declaration then needs no rollback, but it still gets its
    record, with the promotion on it."""
    system, dead_nodes = run(
        (("commit", 21.86),), misspec={23}, barrier_instructions=40_000
    )
    assert system.standby.frontier == ITERATIONS
    assert [r.misspec_iteration for r in system.stats.recoveries] == [23]
    assert_finished_like_the_reference(system, reference_image, dead_nodes)
    [record] = system.stats.failures
    assert record.promoted_tid == system.commit_tid
    assert record.lost_iterations == 0
    assert record.restart_base == ITERATIONS

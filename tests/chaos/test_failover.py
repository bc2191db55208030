"""Commit-unit failover end-to-end: hot-standby promotion.

The acceptance bar for commit replication: a run that loses the commit
unit's node mid-flight must finish via standby promotion with committed
memory byte-identical to the fault-free run, the whole episode must be
byte-reproducible from the plan's seed, and the unreplicated loss modes
(try-commit node, commit node with a dead standby) must still fail
loudly instead of hanging.

The fault-free reference uses the *same* replicated configuration:
workload addresses derive from the unit layout (the standby reserves a
unit slot), so only a layout-identical run is byte-comparable.
"""

import pytest

from repro.analysis import memory_fingerprint, run_digest
from repro.chaos import ChaosEngine, FaultPlan, NodeCrash
from repro.core import DSMTXSystem, SystemConfig
from repro.errors import ClusterFailedError
from tests.core.toys import ToyDoall

ITERATIONS = 96

# Small batches so worker write logs flush (and the primary group-commits)
# throughout the run rather than once at drain time: the crash then lands
# between commits and the replication stream is genuinely exercised.
CONFIG = dict(
    total_cores=8,
    fault_tolerance=True,
    commit_replication=True,
    placement="spread",
    batch_bytes=64,
    checkpoint_interval_mtxs=16,
)


def build(plan=None, **overrides):
    config = dict(CONFIG)
    config.update(overrides)
    workload = ToyDoall(iterations=ITERATIONS)
    system = DSMTXSystem(workload.dsmtx_plan(), SystemConfig(**config))
    if plan is not None:
        ChaosEngine(plan).attach(system.env)
    return workload, system


@pytest.fixture(scope="module")
def reference():
    """Fault-free run of the same replicated configuration."""
    workload, system = build()
    result = system.run()
    return workload, system, result


def crash_commit_plan(reference, fraction, seed=7):
    _workload, system, result = reference
    return FaultPlan(
        faults=(
            NodeCrash(
                node=system.node_of(system.commit_tid),
                at_s=fraction * result.elapsed_seconds,
            ),
        ),
        seed=seed,
    )


def assert_same_results(system, result, reference):
    _workload, ref_system, ref_result = reference
    assert result.stats.committed_mtxs == ref_result.stats.committed_mtxs
    assert memory_fingerprint(system.commit.master) == memory_fingerprint(
        ref_system.commit.master
    )


# -- the happy path: promotion ------------------------------------------------


def test_commit_node_crash_promotes_the_standby(reference):
    _w, ref_system, _r = reference
    standby_tid = ref_system.standby_tid
    plan = crash_commit_plan(reference, fraction=0.7)
    workload, system = build(plan)
    result = system.run()

    # The standby took over as the commit unit and the run finished.
    assert system.commit_tid == standby_tid
    assert system.commit.master is system.standby.image
    assert result.stats.ft_promotions == 1
    assert_same_results(system, result, reference)

    # The failover was recorded with its promotion accounting.
    (record,) = result.stats.failures
    assert record.promoted_tid == standby_tid
    assert record.promotion_seconds > 0
    assert record.detected_at > record.last_heard_at
    assert record.replayed_words == result.stats.ft_replayed_words >= 0
    assert record.recommitted_iterations >= 0


def test_streaming_replication_bounds_the_restart(reference):
    """A late crash must resume from the replicated frontier, not from
    iteration zero: the standby's checkpoint image plus replay log carry
    every commit the stream delivered before the primary died."""
    plan = crash_commit_plan(reference, fraction=0.7)
    _workload, system = build(plan)
    result = system.run()
    (record,) = result.stats.failures
    assert result.stats.ft_repl_words > 0  # the stream actually flowed
    assert record.restart_base > 0  # and promotion resumed mid-loop
    assert record.restart_base <= ITERATIONS
    assert_same_results(system, result, reference)


def test_crash_before_any_commit_replays_nothing_and_still_converges(reference):
    """An early crash finds an empty replay log: promotion restarts from
    the seeded initial image (the epoch-0 checkpoint) and the survivors
    re-execute everything — slower, never wrong."""
    plan = crash_commit_plan(reference, fraction=0.1)
    _workload, system = build(plan)
    result = system.run()
    (record,) = result.stats.failures
    assert record.restart_base == 0
    assert result.stats.ft_promotions == 1
    assert_same_results(system, result, reference)


def test_failover_is_byte_reproducible(reference):
    plan = crash_commit_plan(reference, fraction=0.7)
    digests = set()
    for _ in range(2):
        _workload, system = build(plan)
        result = system.run()
        digests.add(
            run_digest(result.stats, master=system.commit.master,
                       chaos=system.env.chaos)
        )
    assert len(digests) == 1


def test_fault_free_replicated_run_streams_and_commits_everything(reference):
    _workload, system, result = reference
    assert result.stats.committed_mtxs == ITERATIONS
    assert result.stats.ft_repl_words > 0
    assert result.stats.ft_repl_folded_words > 0
    assert result.stats.ft_promotions == 0
    assert not result.stats.failures
    assert system.commit_tid != system.standby_tid


# -- the loss modes that stay fatal -------------------------------------------


def test_try_commit_node_loss_is_still_fatal(reference):
    """The validation pipeline has no replica: losing its node must
    raise, with a message saying exactly which unit was lost."""
    _w, ref_system, ref_result = reference
    plan = FaultPlan(
        faults=(
            NodeCrash(
                node=ref_system.node_of(ref_system.trycommit_tid),
                at_s=0.5 * ref_result.elapsed_seconds,
            ),
        ),
        seed=7,
    )
    _workload, system = build(plan)
    with pytest.raises(ClusterFailedError, match="try-commit"):
        system.run()


def test_standby_node_crash_degrades_to_an_unreplicated_run(reference):
    """Losing the standby itself is survivable: the primary detects the
    silence, stops streaming (the replication queue would otherwise
    block on credits a dead consumer can never return), and finishes
    the run unreplicated."""
    _w, ref_system, ref_result = reference
    plan = FaultPlan(
        faults=(
            NodeCrash(node=ref_system.node_of(ref_system.standby_tid),
                      at_s=0.3 * ref_result.elapsed_seconds),
        ),
        seed=7,
    )
    _workload, system = build(plan)
    result = system.run()
    assert result.stats.ft_promotions == 0
    assert system.commit._repl is None  # streaming stopped at declaration
    assert_same_results(system, result, reference)


def test_commit_crash_with_a_dead_standby_is_still_fatal(reference):
    """Replication only helps while the standby lives: kill its node
    first, then the primary's — the second crash must fail loudly."""
    _w, ref_system, ref_result = reference
    elapsed = ref_result.elapsed_seconds
    plan = FaultPlan(
        faults=(
            NodeCrash(node=ref_system.node_of(ref_system.standby_tid),
                      at_s=0.3 * elapsed),
            NodeCrash(node=ref_system.node_of(ref_system.commit_tid),
                      at_s=0.6 * elapsed),
        ),
        seed=7,
    )
    _workload, system = build(plan)
    with pytest.raises(ClusterFailedError, match="standby"):
        system.run()

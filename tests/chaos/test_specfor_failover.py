"""Reservation-service failover end-to-end: crash-survivable specfor.

The acceptance bar for fault-tolerant deterministic reservations: a
``speculative_for`` run that loses a worker node or the reservation
service's node mid-round must finish with winners, round statistics,
and committed memory byte-identical to the fault-free run — at every
worker count, under every seeded crash schedule.  The property test
below drives exactly that claim with hypothesis; the directed tests
pin the individual episodes (worker-round re-execution, standby
promotion, standby-death degradation) and the loss modes that must
stay fatal.

The byte-identity reference is the *plain* (non-fault-tolerant) run:
unlike the DSMTX pipeline, specfor workload addresses do not derive
from the unit layout, so the fault-tolerant runs — whatever their
standby seat — are directly comparable to the unreplicated run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import memory_fingerprint
from repro.chaos import ChaosEngine, FaultPlan, NodeCrash
from repro.core import SystemConfig
from repro.errors import ClusterFailedError
from repro.paradigms import SpecForSystem
from repro.workloads import ALL_BENCHMARKS

ITERATIONS = 48
DENSITY = 0.7
WORKER_COUNTS = (2, 3, 4, 6)


def build(workers, plan=None, fault_tolerance=True, commit_replication=True):
    workload = ALL_BENCHMARKS["spanning_forest"](
        iterations=ITERATIONS, density=DENSITY)
    # Spread placement seats every unit on its own node: workers on
    # nodes 0..N-1, the reservation service on node N, the standby on
    # node N+1 — so a single-node crash takes out exactly one unit.
    config = SystemConfig(
        total_cores=workers + 2,
        fault_tolerance=fault_tolerance,
        commit_replication=commit_replication,
        placement="spread",
    )
    system = SpecForSystem(workload, config, workers=workers)
    if plan is not None:
        ChaosEngine(plan).attach(system.env)
    return system


@pytest.fixture(scope="module")
def reference():
    """The fault-free, non-fault-tolerant run: the paradigm's ground
    truth (its winners are a pure function of the iteration space)."""
    workload = ALL_BENCHMARKS["spanning_forest"](
        iterations=ITERATIONS, density=DENSITY)
    system = SpecForSystem(workload, workers=4)
    system.run()
    return system


@pytest.fixture(scope="module")
def ft_elapsed():
    """Fault-free fault-tolerant elapsed time per worker count, for
    placing crashes mid-run whatever the configuration's pace."""
    elapsed = {}
    for workers in WORKER_COUNTS:
        system = build(workers)
        result = system.run()
        elapsed[workers] = result.stats.elapsed_seconds
    return elapsed


def assert_same_results(system, reference):
    assert system.service.stats == reference.service.stats
    assert memory_fingerprint(system.commit.master) == memory_fingerprint(
        reference.commit.master
    )


# -- the headline claim, property-tested ---------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    workers=st.sampled_from(WORKER_COUNTS),
    target=st.sampled_from(("worker", "service")),
    victim=st.integers(min_value=0, max_value=5),
    fraction=st.sampled_from((0.25, 0.4, 0.55, 0.7)),
    seed=st.integers(min_value=0, max_value=9),
)
def test_any_seeded_crash_reproduces_the_fault_free_run(
    reference, ft_elapsed, workers, target, victim, fraction, seed
):
    """Crashing any worker, or the service itself, at any sampled time
    under any seed leaves winners, stats, and committed memory equal to
    the fault-free run — and independent of the worker count."""
    node = victim % workers if target == "worker" else workers
    plan = FaultPlan(
        faults=(NodeCrash(node=node, at_s=fraction * ft_elapsed[workers]),),
        seed=seed,
    )
    system = build(workers, plan)
    result = system.run()
    assert_same_results(system, reference)
    assert len(result.stats.failures) == 1
    if target == "service":
        assert result.stats.ft_promotions == 1


# -- directed episodes ---------------------------------------------------------


def test_worker_crash_voids_and_reissues_the_round(reference, ft_elapsed):
    plan = FaultPlan(
        faults=(NodeCrash(node=1, at_s=0.4 * ft_elapsed[4]),), seed=3)
    system = build(4, plan)
    result = system.run()

    assert result.stats.ft_round_reexecutions >= 1
    assert result.stats.ft_promotions == 0
    (record,) = result.stats.failures
    assert record.node == 1
    assert record.surviving_workers == 3
    assert record.promoted_tid == -1
    assert_same_results(system, reference)


def test_service_crash_promotes_the_standby(reference, ft_elapsed):
    standby_tid = build(4).standby_tid
    plan = FaultPlan(
        faults=(NodeCrash(node=4, at_s=0.4 * ft_elapsed[4]),), seed=3)
    system = build(4, plan)
    result = system.run()

    # The standby took over as the reservation service and finished.
    assert system.commit_tid == standby_tid
    assert system.standby_tid is None  # the seat was consumed
    assert result.stats.ft_promotions == 1
    (record,) = result.stats.failures
    assert record.promoted_tid == standby_tid
    assert record.promotion_seconds > 0
    assert record.detected_at > record.last_heard_at
    assert_same_results(system, reference)


def test_standby_crash_degrades_to_an_unreplicated_run(reference, ft_elapsed):
    """Losing the standby itself is survivable: the service stops
    streaming round records and finishes the run unreplicated — no
    round is aborted, nothing is re-executed.  The crash comes early:
    nothing ever blocks on the standby, so a late crash ends the run
    before the suspicion timeout even expires (equally survivable, but
    then there is no declaration to observe)."""
    plan = FaultPlan(
        faults=(NodeCrash(node=5, at_s=0.1 * ft_elapsed[4]),), seed=3)
    system = build(4, plan)
    result = system.run()

    assert result.stats.ft_promotions == 0
    assert result.stats.ft_round_reexecutions == 0
    assert not system.standby_alive  # streaming stopped at declaration
    (record,) = result.stats.failures
    assert record.node == 5
    assert_same_results(system, reference)


# -- the loss modes that stay fatal --------------------------------------------


def test_service_crash_without_a_standby_is_fatal(ft_elapsed):
    """Plain fault tolerance survives worker crashes only: without a
    replicated standby, losing the service loses the committed image."""
    plan = FaultPlan(
        faults=(NodeCrash(node=4, at_s=0.4 * ft_elapsed[4]),), seed=3)
    system = build(4, plan, commit_replication=False)
    # The chaos engine fails the run at the point of impact: the
    # failure detector lives with the service, so nothing is left to
    # even declare the crash.
    with pytest.raises(ClusterFailedError, match="without a live.*standby"):
        system.run()


def test_service_crash_with_a_dead_standby_is_fatal(ft_elapsed):
    """Replication only helps while the standby lives: kill its node
    first, then the service's — the second crash must fail loudly."""
    elapsed = ft_elapsed[4]
    plan = FaultPlan(
        faults=(
            NodeCrash(node=5, at_s=0.3 * elapsed),
            NodeCrash(node=4, at_s=0.6 * elapsed),
        ),
        seed=3,
    )
    system = build(4, plan)
    with pytest.raises(ClusterFailedError, match="without a live.*standby"):
        system.run()


# -- zero cost when disabled ---------------------------------------------------


def test_disabled_fault_tolerance_leaves_no_trace(reference):
    """With ``fault_tolerance`` off the same round loop sends every
    message into the destination inbox unframed: no heartbeats, no
    acks, no retransmits, no checkpoints, no standby seat — the golden
    fingerprints pin its simulated timing too."""
    system = build(4, fault_tolerance=False, commit_replication=False)
    result = system.run()

    assert system.standby_tid is None
    stats = result.stats
    assert stats.ft_heartbeats == 0
    assert stats.ft_acks == 0
    assert stats.ft_retransmits == 0
    assert stats.ft_repl_words == 0
    assert stats.ft_round_reexecutions == 0
    assert not stats.failures
    assert not stats.checkpoints
    assert_same_results(system, reference)

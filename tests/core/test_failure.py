"""Failure detection, barrier deregistration, and the participant
protocol's termination/interruption races.

The detector runs as one tick process with per-node crash handles; a
differential test holds it to the per-node emitter, sweep and watcher
processes it replaced, kept here as the reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import run_digest
from repro.chaos import ChaosEngine, FaultPlan, NodeCrash
from repro.core import DSMTXSystem, SystemConfig
from repro.core.failure import FailureDetector
from repro.core.messages import CTL_NODE_FAILED
from repro.core.recovery import RecoveryCoordinator
from repro.errors import ClusterFailedError, NodeCrashed, ProcessInterrupt
from repro.paradigms import SpecForSystem
from repro.workloads import ALL_BENCHMARKS, Crc32
from tests.core.toys import ToyDoall


def build(cores=8, fault_tolerance=True):
    return DSMTXSystem(
        ToyDoall(iterations=8).dsmtx_plan(),
        SystemConfig(total_cores=cores, fault_tolerance=fault_tolerance),
    )


# -- detection ----------------------------------------------------------------


def test_silent_node_is_declared_within_the_suspicion_timeout():
    system = build()
    detector = system.failure_detector
    detector.start()
    env = system.env
    # Kill node 0's heartbeat emitter: silence without any other change.
    (emitter,) = system.processes_on_node(0)
    cause = NodeCrashed(0)

    def killer():
        yield env.timeout(0.001)
        emitter.interrupt(cause)

    env.process(killer())
    deadline = 0.001 + detector.suspicion_timeout + 3 * detector.period
    env.run(until=env.timeout(deadline))

    ((node, dead_tids, detected_at, last_heard_at),) = (
        system.state.failover_pending
    )
    assert node == 0
    assert dead_tids == (0, 1, 2, 3)
    assert last_heard_at <= 0.001
    assert detected_at <= deadline
    assert system.state.failed_nodes == {0}
    # Dead workers left the barrier protocol at declaration time.
    assert system.recovery.parties == system.num_workers + 2 - 4
    # And the commit unit got its wake-up ping.
    ok, envelope = system.inbox_of(system.commit_tid).try_get()
    assert ok and envelope.kind == CTL_NODE_FAILED and envelope.payload == 0


def test_heartbeats_from_a_crashed_node_stop_at_crash_time():
    """A dead node must fall silent at the instant of the crash: its
    emitter is interrupted with everything else on the node, so its
    last-heard time freezes and the suspicion clock starts from there.
    An emitter that kept beating would mask the failure forever."""
    from repro.chaos import ChaosEngine, FaultPlan, NodeCrash

    system = build(cores=12)  # three nodes: a survivor node beside the victim
    detector = system.failure_detector
    crash_at = 10.5 * detector.period  # mid-interval, several beats in
    engine = ChaosEngine(
        FaultPlan(faults=(NodeCrash(node=0, at_s=crash_at),))
    ).attach(system.env)
    engine.bind_system(system)
    detector.start()
    env = system.env
    env.run(until=env.timeout(crash_at + detector.suspicion_timeout + 5 * detector.period))

    # The node beat while alive, then went silent exactly at the crash.
    assert 0.0 < detector.last_heard[0] <= crash_at
    # Survivors kept beating past the crash.
    assert any(
        heard > crash_at
        for node, heard in detector.last_heard.items()
        if node != 0 and node != detector.commit_node
    )
    # And the silence was eventually declared.
    assert system.state.failed_nodes == {0}


def test_healthy_nodes_are_never_suspected():
    system = build()
    system.failure_detector.start()
    env = system.env
    env.run(until=env.timeout(50 * system.failure_detector.suspicion_timeout))
    assert not system.state.failover_pending
    assert system.stats.ft_heartbeats > 0


def test_losing_the_commit_units_node_is_fatal():
    system = build()
    detector = system.failure_detector
    detector.start()
    # Node 1 hosts the try-commit and commit units under pack placement.
    with pytest.raises(ClusterFailedError, match="unrecoverable"):
        detector._declare(1)


# -- barrier deregistration ---------------------------------------------------


def test_deregister_shrinks_barriers_and_drops_dead_arrivals():
    system = build()
    recovery = system.recovery
    before = recovery.parties
    # Unit 0 died *at* the ERM barrier.
    recovery.erm_barrier.wait(owner=0)
    recovery.deregister([0, 1])
    assert recovery.parties == before - 2
    assert recovery.erm_barrier.arrived == 0  # the ghost arrival is gone
    assert recovery.erm_barrier.parties == before - 2
    # Deregistering the same units again is a no-op.
    recovery.deregister([0, 1])
    assert recovery.parties == before - 2


def test_deregister_releases_a_barrier_the_survivors_completed():
    system = build()
    recovery = system.recovery
    released = []
    # All parties but the (dead) last one have arrived.
    for tid in range(recovery.parties - 1):
        recovery.erm_barrier.wait(owner=tid).callbacks.append(
            lambda _e: released.append(True)
        )
    recovery.deregister([99])
    system.env.run(until=system.env.timeout(0.0))
    assert len(released) == recovery.parties


# -- participant protocol races ----------------------------------------------


def test_participate_returns_when_the_run_terminates_instead():
    """Regression: a unit waiting pre-ERM must not join the barriers if
    the commit unit terminates the run rather than entering recovery —
    the flush that wakes the unit is the *termination* flush, and
    arriving at the ERM barrier then would strand it forever."""
    system = build(fault_tolerance=False)
    env = system.env
    worker = system.workers[0]

    def terminator():
        yield env.timeout(1e-6)
        system.state.terminate()
        system.flush_all_inboxes()

    env.process(terminator())
    proc = env.process(system.recovery.participate(worker))
    env.run(until=proc)
    assert system.recovery.erm_barrier.arrived == 0


def test_participate_survives_flush_churn_before_recovery_begins():
    """ChannelFlushedError in the pre-ERM receive loop is absorbed and
    the loop re-checks the system mode each pass."""
    system = build(fault_tolerance=False)
    env = system.env
    worker = system.workers[0]
    solo = RecoveryCoordinator(system, parties=1)

    def driver():
        # Two spurious flushes while the unit waits, then real recovery.
        for _ in range(2):
            yield env.timeout(1e-6)
            system.flush_all_inboxes()
        yield env.timeout(1e-6)
        system.state.begin_recovery(0)
        system.flush_all_inboxes()

    env.process(driver())
    proc = env.process(solo.participate(worker))
    env.run(until=proc)
    # The unit made it through ERM, FLQ, and resume alone.
    assert solo.erm_barrier.generation == 1
    assert solo.flq_barrier.generation == 1
    assert solo.resume_barrier.generation == 1


def test_participate_joins_immediately_when_already_in_recovery():
    system = build(fault_tolerance=False)
    env = system.env
    worker = system.workers[0]
    solo = RecoveryCoordinator(system, parties=1)
    system.state.begin_recovery(0)
    proc = env.process(solo.participate(worker))
    env.run(until=proc)
    assert solo.resume_barrier.generation == 1


# -- unit main loops under node crashes ---------------------------------------


def test_unit_main_loops_absorb_node_crash_interrupts():
    system = build()
    env = system.env
    worker = system.workers[0]
    system.total_iterations = 8
    system.workload.setup(system)
    process = env.process(worker.run())
    cause = NodeCrashed(0)

    def killer():
        yield env.timeout(1e-6)
        process.interrupt(cause)

    env.process(killer())
    env.run(until=process)  # returns silently, no exception propagates


def test_unit_main_loops_reraise_foreign_interrupts():
    system = build()
    env = system.env
    worker = system.workers[0]
    system.total_iterations = 8
    system.workload.setup(system)
    process = env.process(worker.run())

    def killer():
        yield env.timeout(1e-6)
        process.interrupt("not a crash")

    env.process(killer())
    with pytest.raises(ProcessInterrupt):
        env.run(until=process)


# -- the one-tick detector against per-node processes --------------------------


class _PerProcessLoops:
    """The detector as separate processes: one heartbeat emitter per
    node, the commit-side sweep and the standby-side watcher, each
    registered on its host node.  The single tick must simulate exactly
    what these do."""

    def start(self):
        system = self.system
        env = system.env
        now = env.now
        for node in self.tids_by_node:
            self.last_heard[node] = now
            if node != self.commit_node or self.replicated:
                process = env.process(self._emit(node), name=f"heartbeat[node{node}]")
                system.register_node_process(node, process)
        sweep = env.process(self._sweep(), name="failure-detector")
        if self.replicated:
            system.register_node_process(self.commit_node, sweep)
            watcher = env.process(self._watch_primary(), name="standby-watcher")
            system.register_node_process(self.standby_node, watcher)

    def _emit(self, node):
        system = self.system
        env = system.env
        period = self.period
        try:
            while not system.state.done:
                yield env.sleep(period)
                self.last_heard[node] = env.now
                system.stats.ft_heartbeats += 1
        except ProcessInterrupt as interrupt:
            if isinstance(interrupt.cause, NodeCrashed):
                return
            raise

    def _sweep(self):
        system = self.system
        env = system.env
        period = self.period
        try:
            while not system.state.done:
                yield env.sleep(period)
                self._sweep_round(env.now)
        except ProcessInterrupt as interrupt:
            if isinstance(interrupt.cause, NodeCrashed):
                return
            raise

    def _watch_primary(self):
        # The single-standby promotion tie-break was always true and is
        # left out.
        system = self.system
        env = system.env
        period = self.period
        try:
            while not system.state.done:
                yield env.sleep(period)
                now = env.now
                if self.commit_node == self.standby_node:
                    self._sweep_round(now)
                    continue
                if self.commit_node in self.declared:
                    continue
                if now - self.last_heard[self.commit_node] <= self.suspicion_timeout:
                    continue
                if not self._quorum_agrees(now):
                    continue
                self._declare(self.commit_node)
        except ProcessInterrupt as interrupt:
            if isinstance(interrupt.cause, NodeCrashed):
                return
            raise


class _ReferenceDetector(_PerProcessLoops, FailureDetector):
    pass


#: Crash targets that exist, per (runtime, replicated).
TARGETS = {
    (runtime, replicated): tuple(
        target
        for target in ("worker", "commit", "standby", "try-commit")
        if (replicated or target != "standby")
        and (runtime == "dsmtx" or target != "try-commit")
    )
    for runtime in ("dsmtx", "specfor")
    for replicated in (False, True)
}


#: Simulated-time cut-off of one differential run, about ten times a
#: fault-free run.  A run still going there has hung while the detector
#: beats on, and fails the test.
HORIZON_S = {"dsmtx": 0.2, "specfor": 0.02}


class _Unfinished(Exception):
    """The run was still going at its simulated-time horizon."""


def _differential_build(runtime, replicated):
    common = dict(placement="spread", fault_tolerance=True, commit_replication=replicated)
    if runtime == "dsmtx":
        config = SystemConfig(total_cores=8, batch_bytes=64, **common)
        return DSMTXSystem(Crc32(iterations=24).dsmtx_plan(), config)
    workload = ALL_BENCHMARKS["spanning_forest"](iterations=192, density=0.7)
    return SpecForSystem(workload, SystemConfig(total_cores=6, **common), workers=4)


def _differential_outcome(reference, runtime, replicated, crashes):
    """Run one crash scenario under the tick detector or the reference
    processes; return everything the two must agree on.

    ``crashes`` holds ``(target, beat, offset, after_tick)``: crash the
    node hosting ``target`` at ``offset`` periods past beat instant
    ``beat``; with ``after_tick`` (offset 0 only) the crash lands on
    the beat instant behind that instant's tick rather than ahead of it.
    A run still going at ``HORIZON_S`` raises ``_Unfinished``.
    """
    system = _differential_build(runtime, replicated)
    detector_cls = _ReferenceDetector if reference else FailureDetector
    detector = system.failure_detector = detector_cls(system)
    tids = {
        "worker": 0,
        "commit": system.commit_tid,
        "standby": system.standby_tid,
        "try-commit": getattr(system, "trycommit_tid", None),
    }
    env = system.env
    scheduled, killed = [], []
    for target, beat, offset, after_tick in crashes:
        node = system.core_of(tids[target]).node_index
        # Beat instants follow the detector's own float chain from 0.
        instant = 0.0
        for _ in range(beat):
            instant += detector.period
        if after_tick:
            killed.append(NodeCrash(node=node, at_s=instant))
        else:
            at_s = instant + offset * detector.period
            scheduled.append(NodeCrash(node=node, at_s=at_s))
    # Crashes the engine schedules before the run starts run ahead of
    # the tick at their instant.
    engine = ChaosEngine(FaultPlan(faults=tuple(scheduled), seed=3)).attach(env)

    def killer(crash):
        # Lands behind the tick at its instant: the killer's wake-up is
        # created after the detector's.
        previous = crash.at_s - detector.period
        yield env.sleep_until(previous)
        yield env.sleep(0.0)  # behind the tick at `previous`
        yield env.sleep_until(crash.at_s)
        engine._execute_crash(crash)

    for crash in killed:
        env.process(killer(crash))

    def horizon():
        yield env.sleep_until(HORIZON_S[runtime])
        raise _Unfinished(f"still running at {env.now} s")

    env.process(horizon(), name="horizon")
    assert env.now == 0.0
    error = None
    try:
        system.run()
    except ClusterFailedError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return (
        error,
        run_digest(system.stats, master=system.commit.master, chaos=engine),
        system.stats.ft_heartbeats,
        dict(detector.last_heard),
        env.now,
    )


@st.composite
def crash_scenarios(draw):
    runtime = draw(st.sampled_from(("dsmtx", "specfor")))
    replicated = draw(st.booleans())
    # DSMTX runs span hundreds of beats, specfor runs tens.
    scale = 10 if runtime == "dsmtx" else 1
    targets = list(TARGETS[runtime, replicated])
    crashes = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        target = draw(st.sampled_from(targets))
        targets.remove(target)  # one crash per node
        if target in ("commit", "standby") and replicated:
            # Losing both leaves no detector to declare either loss: the
            # survivors would beat forever.
            targets = [t for t in targets if t not in ("commit", "standby")]
        beat = scale * draw(st.integers(min_value=2, max_value=30))
        offset = draw(st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=0.95)))
        after_tick = offset == 0.0 and draw(st.booleans())
        crashes.append((target, beat, offset, after_tick))
    return runtime, replicated, crashes


@settings(max_examples=60, deadline=None)
@given(crash_scenarios())
def test_one_tick_detector_simulates_exactly_the_per_node_processes(scenario):
    """Crash worker, commit, standby or try-commit nodes — one or two,
    at or between beat instants, ahead of or behind that instant's tick
    — in both runtimes, replicated or not: the tick detector and the
    per-node emitter, sweep and watcher processes give the same run
    digest, heartbeat count, last-heard table and error."""
    new = _differential_outcome(False, *scenario)
    old = _differential_outcome(True, *scenario)
    assert new == old


def test_node_handle_dies_with_its_node_and_rejects_foreign_causes():
    system = build()
    system.failure_detector.start()
    (handle,) = system.processes_on_node(0)
    assert handle.is_alive
    with pytest.raises(ProcessInterrupt):
        handle.interrupt("not a crash")
    assert handle.is_alive
    handle.interrupt(NodeCrashed(0))
    assert not handle.is_alive
    handle.interrupt(NodeCrashed(0))  # a second crash is a no-op
    assert 0 not in system.failure_detector._beating

"""A blocked MPI receive takes its item and pays its overhead in one event.

``MPI`` waits on ``Store.get_priced``: where that is exact, the receiver
resumes once, at hand-off + overhead, instead of waking at the hand-off
and then sleeping the overhead.  ``TwoStepMPI`` keeps the two-step
receive as the reference.  Every run here is made with both: the priced
run must process the reference's ``(time, key)`` sequence with some
receive wake-ups deleted and nothing else changed, and give the same
results, error, end time and busy cycles on every core.
"""

import dataclasses
import heapq
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import run_digest
from repro.chaos import (
    ChaosEngine,
    FaultPlan,
    MessageCorruption,
    MessageDuplication,
    MessageLoss,
    NodeCrash,
)
from repro.cluster import MPI, Interconnect, Machine, MPIVariant
from repro.cluster.channel import CLOSE_TOKEN, Channel
from repro.cluster.spec import DEFAULT_CLUSTER
from repro.core import SystemConfig
from repro.errors import (
    ChannelFlushedError,
    ClusterFailedError,
    NodeCrashed,
    ProcessInterrupt,
)
from repro.paradigms import SpecForSystem
from repro.sim import Environment
from repro.workloads import ALL_BENCHMARKS


class TwoStepMPI(MPI):
    """The receive before it was priced in one event: a plain get, then
    a separate sleep for the receive overhead.  ``wakeups`` holds every
    get it blocked on; only those may be missing from a priced run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.wakeups = set()

    def _receive(self, core, box, src_rank):
        yield from core.drain()
        if box.items:
            payload = box.try_get()[1]
        else:
            get = box.get()
            self.wakeups.add(get)
            payload = yield get
        yield core.compute(self._recv_cycles)
        return payload


def run_recorded(build, mpi_class):
    """``build(mpi_class)`` sets up one simulation and returns ``(mpi,
    finish)``; ``finish()`` runs it and returns its outcome.  Returns the
    outcome and the ``(time, key, is_wakeup)`` of every popped event."""
    mpi, finish = build(mpi_class)
    wakeups = getattr(mpi, "wakeups", set())
    log = []

    def pop(queue):
        item = heapq.heappop(queue)
        log.append((item[0], item[1], item[2] in wakeups))
        return item

    with patch("repro.sim.engine.heappop", pop):
        outcome = finish()
    return outcome, log


def deleted_wakeups(build):
    """Run ``build`` with the priced and the two-step receive, check that
    they agree, and return how many reference wake-ups the priced run
    deleted."""
    outcome, log = run_recorded(build, MPI)
    ref_outcome, ref_log = run_recorded(build, TwoStepMPI)
    assert outcome == ref_outcome
    processed = [(time, key) for time, key, _ in log]
    kept = set(processed)
    assert len(kept) == len(processed)
    assert [(t, k) for t, k, _ in ref_log if (t, k) in kept] == processed
    deleted = [wakeup for t, k, wakeup in ref_log if (t, k) not in kept]
    assert all(deleted)
    return len(deleted)


#: A cluster whose every cost is a dyadic number of seconds, so sums are
#: exact and messages, timers and hand-offs often meet at one instant.
DYADIC = dataclasses.replace(
    DEFAULT_CLUSTER,
    nodes=4, cores_per_node=2, clock_hz=2.0**31, instructions_per_cycle=1.0,
    intra_node_latency_s=2.0**-24, inter_node_latency_s=2.0**-19,
    intra_node_bandwidth_bps=2.0**34, inter_node_bandwidth_bps=2.0**30,
    mpi_recv_instructions=2**11,
    mpi_variant_sender_instructions={
        MPIVariant.SEND: 2**9, MPIVariant.BSEND: 2**10, MPIVariant.ISEND: 2**11,
    },
    queue_op_instructions=2**5,
)
#: The receive overhead on DYADIC, in seconds.
OVERHEAD = 2.0**-20


def cluster_build(setup, spec=DYADIC):
    """A ``build`` for a bare cluster: ``setup(env, mpi)`` starts the
    processes and returns a list the run's observations go into."""
    def build(mpi_class):
        env = Environment()
        machine = Machine(env, spec)
        mpi = mpi_class(env, machine, Interconnect(env, machine))
        seen = setup(env, mpi)

        def finish():
            env.run()
            busy = [core.busy_cycles for core in machine.iter_cores()]
            return seen, env.now, busy

        return mpi, finish

    return build


def receiver(env, mpi, seen, dst, src, count=1):
    def body():
        for _ in range(count):
            payload = yield from mpi.recv(dst, src)
            seen.append((dst, payload, env.now))

    return env.process(body())


def at(env, when, action):
    """Run ``action`` in an event callback at the absolute time ``when``."""
    env.sleep_until(when).callbacks.append(lambda _event: action())


# -- deterministic cases --------------------------------------------------------


def test_a_blocked_receive_resumes_once_after_the_overhead():
    def setup(env, mpi):
        seen = []
        receiver(env, mpi, seen, 2, 0)
        at(env, 2.0**-10, lambda: mpi.mailbox(0, 2).put_nowait("x"))
        return seen

    assert deleted_wakeups(cluster_build(setup)) == 1
    seen, _now, _busy = run_recorded(cluster_build(setup), MPI)[0]
    assert seen == [(2, "x", 2.0**-10 + OVERHEAD)]


def test_same_instant_handoffs_to_two_blocked_receivers():
    # Two messages whose deliveries end at one instant, each in its own
    # event: each hand-off sees the other's event due, so both keep
    # their two events.
    def two_deliveries(env, mpi):
        seen = []
        receiver(env, mpi, seen, 2, 0)
        receiver(env, mpi, seen, 6, 4)
        for src, dst in ((0, 2), (4, 6)):
            env.process(mpi.send(src, dst, src, 8))
        return seen

    assert deleted_wakeups(cluster_build(two_deliveries)) == 0
    seen = run_recorded(cluster_build(two_deliveries), MPI)[0][0]
    assert [time for _dst, _payload, time in seen] == [seen[0][2]] * 2

    # One callback handing items to both: settled in hand-off order,
    # both fuse, each with the key its own overhead sleep would take.
    def one_callback(env, mpi):
        seen = []
        receiver(env, mpi, seen, 2, 0)
        receiver(env, mpi, seen, 6, 4)

        def hand_off_both():
            mpi.mailbox(0, 2).put_nowait("a")
            mpi.mailbox(4, 6).put_nowait("b")

        at(env, 2.0**-10, hand_off_both)
        return seen

    assert deleted_wakeups(cluster_build(one_callback)) == 2


def test_a_handoff_with_another_event_due_keeps_two_events():
    def setup(env, mpi):
        seen = []
        receiver(env, mpi, seen, 2, 0)
        at(env, 2.0**-10, lambda: mpi.mailbox(0, 2).put_nowait("x"))
        at(env, 2.0**-10, lambda: seen.append(("tick", env.now)))
        return seen

    assert deleted_wakeups(cluster_build(setup)) == 0


def test_a_crash_between_the_handoff_and_the_overhead():
    # The receiver dies while it pays the overhead: it has the item, the
    # overhead is already counted busy, and the wake-up it would have
    # had still fires, with nobody waiting on it.
    def setup(env, mpi):
        seen = []

        def body():
            try:
                yield from mpi.recv(2, 0)
            except ProcessInterrupt as interrupt:
                seen.append((type(interrupt.cause).__name__, env.now))

        process = env.process(body())
        at(env, 2.0**-10, lambda: mpi.mailbox(0, 2).put_nowait("x"))
        at(env, 2.0**-10 + OVERHEAD / 2,
           lambda: process.interrupt(NodeCrashed(node=1)))
        return seen

    assert deleted_wakeups(cluster_build(setup)) == 1
    (seen, now, busy), _log = run_recorded(cluster_build(setup), MPI)
    assert seen == [("NodeCrashed", 2.0**-10 + OVERHEAD / 2)]
    assert now == 2.0**-10 + OVERHEAD
    assert busy[2] == DYADIC.mpi_recv_instructions


def test_a_flush_while_blocked_raises_and_leaves_no_stale_state():
    def setup(env, mpi):
        seen = []

        def body():
            try:
                yield from mpi.recv(2, 0)
            except ChannelFlushedError:
                stale = len(env._handoffs) + len(mpi.mailbox(0, 2)._getters)
                seen.append(("flushed", env.now, stale))
            payload = yield from mpi.recv(2, 0)
            seen.append((payload, env.now))

        env.process(body())
        at(env, 2.0**-12, mpi.flush_all)
        at(env, 2.0**-10, lambda: mpi.mailbox(0, 2).put_nowait("after"))
        return seen

    assert deleted_wakeups(cluster_build(setup)) == 1
    (seen, _now, _busy), _log = run_recorded(cluster_build(setup), MPI)
    assert seen == [("flushed", 2.0**-12, 0), ("after", 2.0**-10 + OVERHEAD)]


def test_zero_receive_overhead_keeps_two_events():
    def setup(env, mpi):
        seen = []
        receiver(env, mpi, seen, 2, 0)
        at(env, 2.0**-10, lambda: mpi.mailbox(0, 2).put_nowait("x"))
        return seen

    free = dataclasses.replace(DYADIC, mpi_recv_instructions=0)
    assert deleted_wakeups(cluster_build(setup, spec=free)) == 0


# -- properties -----------------------------------------------------------------


@st.composite
def channel_streams(draw):
    """Up to four channels on the dyadic cluster: (src, dst, items,
    batch bytes, mode, producer gap, consumer cycles per item)."""
    core = st.integers(min_value=0, max_value=DYADIC.total_cores - 1)
    stream = st.tuples(
        core, core, st.integers(min_value=0, max_value=12),
        st.sampled_from((8, 24, 64)), st.sampled_from(("batched", "direct")),
        st.sampled_from((0.0, 2.0**-21, 2.0**-18)), st.sampled_from((0, 2**10)),
    ).filter(lambda s: s[0] != s[1])
    return draw(st.lists(stream, min_size=1, max_size=4))


@settings(max_examples=40, deadline=None)
@given(channel_streams())
def test_channel_streams_pay_their_receives_exactly(streams):
    def setup(env, mpi):
        seen = []
        for index, (src, dst, items, batch, mode, gap, cycles) in enumerate(streams):
            channel = Channel(mpi, src, dst, f"s{index}", batch_bytes=batch, mode=mode)

            def produce(channel=channel, items=items, gap=gap):
                for value in range(items):
                    yield from channel.produce(value)
                    if gap:
                        yield env.sleep(gap)
                yield from channel.close()

            def consume(channel=channel, index=index, cycles=cycles):
                core = mpi.machine.core(channel.dst_core)
                while (value := (yield from channel.consume())) is not CLOSE_TOKEN:
                    seen.append((index, value, env.now))
                    if cycles:
                        yield core.compute(cycles)

            env.process(produce())
            env.process(consume())
        return seen

    deleted_wakeups(cluster_build(setup))


#: Simulated-time cut-off of one fault-tolerant run (as in
#: test_transport): a run still going there has hung, and fails the test.
HORIZON_S = 0.02


class _Unfinished(Exception):
    """The run was still going at its simulated-time horizon."""


@st.composite
def specfor_runs(draw):
    fault_tolerant = draw(st.booleans())
    name = draw(st.sampled_from(
        ("spanning_forest", "maximal_independent_set", "list_contraction")))
    iterations = draw(st.integers(min_value=8, max_value=96))
    density = draw(st.sampled_from((0.3, 0.7, 0.9)))
    cluster = draw(st.sampled_from((DEFAULT_CLUSTER, DYADIC)))
    if not fault_tolerant:
        workers = draw(st.integers(min_value=1, max_value=6))
        placement = draw(st.sampled_from(("pack", "spread")))
        return name, iterations, density, cluster, workers, placement, None
    faults = []
    for kind in (MessageLoss, MessageDuplication):
        probability = draw(st.sampled_from((0.0, 0.03, 0.15)))
        if probability:
            faults.append(kind(probability))
    integrity = draw(st.booleans())
    if integrity and draw(st.booleans()):
        faults.append(MessageCorruption(draw(st.sampled_from((0.03, 0.15)))))
    crashes = draw(st.lists(
        st.tuples(st.sampled_from(("worker", "service")),
                  st.floats(min_value=2e-5, max_value=1e-3)),
        max_size=2, unique_by=lambda crash: crash[0],
    ))
    ft = (draw(st.booleans()), tuple(faults), integrity, tuple(crashes),
          draw(st.integers(min_value=0, max_value=3)))
    return name, iterations, density, cluster, 4, "spread", ft


def specfor_build(scenario):
    name, iterations, density, cluster, workers, placement, ft = scenario

    def build(mpi_class):
        workload = ALL_BENCHMARKS[name](iterations=iterations, density=density)
        if ft is None:
            config = SystemConfig(
                total_cores=max(3, workers + 1), placement=placement, cluster=cluster)
        else:
            replicated, _faults, integrity, _crashes, _seed = ft
            config = SystemConfig(
                total_cores=6, placement=placement, cluster=cluster,
                fault_tolerance=True, commit_replication=replicated,
                integrity=integrity,
            )
        with patch("repro.core.runtime.MPI", mpi_class):
            system = SpecForSystem(workload, config, workers=workers)
        env = system.env
        chaos = None
        if ft is not None:
            _replicated, faults, _integrity, crashes, seed = ft
            tids = {"worker": 0, "service": system.service_tid}
            faults += tuple(
                NodeCrash(node=system.core_of(tids[target]).node_index, at_s=at_s)
                for target, at_s in crashes
            )
            chaos = ChaosEngine(FaultPlan(faults=faults, seed=seed)).attach(env)

            def horizon():
                yield env.sleep_until(HORIZON_S)
                raise _Unfinished(f"still running at {env.now} s")

            env.process(horizon(), name="horizon")

        def finish():
            error = None
            try:
                system.run()
            except ClusterFailedError as exc:
                error = f"{type(exc).__name__}: {exc}"
            digest = run_digest(system.stats, master=system.commit.master, chaos=chaos)
            return error, digest, env.now, system.utilization()

        return system.mpi, finish

    return build


@settings(max_examples=40, deadline=None)
@given(specfor_runs())
def test_specfor_runs_pay_their_receives_exactly(scenario):
    """Fault-free runs, and fault-tolerant runs under loss, duplication,
    corruption with integrity, and worker and service crashes."""
    deleted_wakeups(specfor_build(scenario))

"""Reliable transport: sequencing, dedup, reorder, ack, retransmit.

Acks are applied lazily and each link keeps one retransmit alarm; a
differential test holds that transport to the one-timer-per-frame,
one-delivery-per-ack transport it replaced, kept here as the reference."""

import dataclasses
from contextlib import contextmanager
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import run_digest
from repro.analysis.resilience import memory_fingerprint
from repro.chaos import (
    ChaosEngine,
    FaultPlan,
    MessageCorruption,
    MessageDuplication,
    MessageLoss,
    NodeCrash,
)
from repro.cluster.interconnect import _Delivery
from repro.cluster.spec import DEFAULT_CLUSTER
from repro.core import DSMTXSystem, SystemConfig
from repro.core.integrity import payload_checksum
from repro.core.messages import Frame
from repro.core.stats import RunStats
from repro.core.transport import IngestBox, ReliableTransport, _SenderLink
from repro.errors import ClusterFailedError
from repro.paradigms import SpecForSystem
from repro.workloads import ALL_BENCHMARKS, Crc32
from tests.core.toys import ToyDoall


class FakeTransport:
    """Just enough surface for IngestBox unit tests."""

    def __init__(self):
        self.stats = RunStats()
        self.dead = set()
        self.acks = []
        self.integrity = False

    def is_dead_unit(self, tid):
        return tid in self.dead

    def send_ack(self, src_tid, dst_tid, upto):
        self.acks.append((src_tid, dst_tid, upto))


class FakeInbox:
    def __init__(self):
        self.items = []

    def put_nowait(self, item):
        self.items.append(item)


def make_box():
    transport = FakeTransport()
    inbox = FakeInbox()
    return transport, inbox, IngestBox(transport, dst_tid=9, inbox=inbox)


def frame(seq, payload=None, src=3):
    return Frame(src, 9, seq, payload if payload is not None else f"m{seq}")


def test_in_order_frames_unwrap_into_the_inbox():
    transport, inbox, box = make_box()
    box.put_nowait(frame(0))
    box.put_nowait(frame(1))
    assert inbox.items == ["m0", "m1"]
    # Each ingest acked cumulatively.
    assert transport.acks == [(3, 9, 0), (3, 9, 1)]


def test_duplicate_frames_are_dropped_but_reacked():
    transport, inbox, box = make_box()
    box.put_nowait(frame(0))
    box.put_nowait(frame(0, payload="dup"))
    assert inbox.items == ["m0"]
    assert transport.stats.ft_duplicates_dropped == 1
    # The re-ack lets a sender whose ack was lost clear its buffer.
    assert transport.acks[-1] == (3, 9, 0)


def test_out_of_order_frames_park_and_drain_in_order():
    transport, inbox, box = make_box()
    box.put_nowait(frame(2))
    box.put_nowait(frame(1))
    assert inbox.items == []  # nothing deliverable yet
    assert transport.stats.ft_frames_reordered == 2
    box.put_nowait(frame(0))
    assert inbox.items == ["m0", "m1", "m2"]  # program order restored
    assert transport.acks[-1] == (3, 9, 2)  # cumulative


def test_duplicate_of_a_parked_frame_is_dropped():
    transport, inbox, box = make_box()
    box.put_nowait(frame(2))
    box.put_nowait(frame(2))
    assert transport.stats.ft_duplicates_dropped == 1


def test_sources_are_sequenced_independently():
    _transport, inbox, box = make_box()
    box.put_nowait(frame(0, payload="a0", src=3))
    box.put_nowait(frame(0, payload="b0", src=4))
    assert inbox.items == ["a0", "b0"]


def test_frames_involving_dead_units_are_dropped():
    transport, inbox, box = make_box()
    transport.dead.add(3)
    box.put_nowait(frame(0))
    assert inbox.items == []
    assert transport.stats.ft_frames_from_dead_dropped == 1
    assert transport.acks == []  # the dead hear no acks


def test_forget_source_discards_reorder_state():
    _transport, inbox, box = make_box()
    box.put_nowait(frame(5))
    box.forget_source(3)
    box.put_nowait(frame(0))
    assert inbox.items == ["m0"]  # parked frame 5 is gone


# -- sender side against the real runtime ------------------------------------


def ft_system():
    return DSMTXSystem(
        ToyDoall(iterations=8).dsmtx_plan(),
        SystemConfig(total_cores=8, fault_tolerance=True),
    )


def test_stamp_assigns_per_link_sequence_numbers():
    system = ft_system()
    transport = system.transport
    a = transport.stamp(0, 5, "x", 100)
    b = transport.stamp(0, 5, "y", 100)
    c = transport.stamp(1, 5, "z", 100)
    assert (a.seq, b.seq) == (0, 1)
    assert c.seq == 0  # a different (src, dst) link
    assert a.payload == "x" and a.src_tid == 0 and a.dst_tid == 5


def test_unacked_frames_retransmit_until_giveup():
    system = ft_system()
    transport = system.transport
    # Sever the ack path: the receiver ingests every (re)delivery but
    # the sender never learns, so the timer escalates to give-up.
    transport.send_ack = lambda src, dst, upto: None
    transport.stamp(0, 5, "payload", 100)
    spec = system.cluster
    worst_case = spec.retransmit_timeout_cap_s * (spec.max_retransmits + 2)
    system.env.run(until=system.env.timeout(worst_case))
    assert system.stats.ft_retransmits == spec.max_retransmits
    assert system.stats.ft_retransmit_giveups == 1
    # Every retransmission after the first ingest was deduplicated.
    assert system.stats.ft_duplicates_dropped == spec.max_retransmits - 1


def test_ack_clears_the_retransmit_buffer():
    system = ft_system()
    transport = system.transport
    frame = transport.stamp(0, 5, "p", 64)
    # stamp() only queues the deadline; the send path delivers.  Deliver
    # now: the link's alarm applies the ingest ack at the first deadline.
    transport.ingest_box(5).put_nowait(frame)
    spec = system.cluster
    system.env.run(until=system.env.timeout(spec.retransmit_timeout_s * 4))
    assert system.stats.ft_retransmits == 0
    assert not transport._links[(0, 5)].unacked


def test_forget_units_stops_retransmits_for_dead_links():
    system = ft_system()
    transport = system.transport
    transport.send_ack = lambda src, dst, upto: None  # acks never arrive
    transport.stamp(0, 5, "p", 64)
    transport.forget_units({5})
    system.env.run(until=system.env.timeout(1.0))
    assert system.stats.ft_retransmits == 0
    assert system.stats.ft_retransmit_giveups == 0


def test_fault_free_mode_constructs_no_transport():
    system = DSMTXSystem(
        ToyDoall(iterations=8).dsmtx_plan(), SystemConfig(total_cores=8)
    )
    assert system.transport is None
    assert system.failure_detector is None


# -- reference: one timer per frame, one delivery per ack ---------------------


class _AckSink:
    """Mailbox end of a reference ack delivery."""

    def __init__(self, transport, src_tid, dst_tid):
        self.transport = transport
        self.src_tid = src_tid
        self.dst_tid = dst_tid

    def put_nowait(self, upto):
        self.transport._on_ack(self.src_tid, self.dst_tid, upto)


class PerFrameTransport(ReliableTransport):
    """The transport before lazy acks and per-link alarms: every frame
    arms its own retransmit timer, and every ack is a management-path
    delivery that prunes the sender's buffer on arrival."""

    def stamp(self, src_tid, dst_tid, envelope, wire_bytes):
        link = self._links.get((src_tid, dst_tid))
        if link is None:
            link = self._links[(src_tid, dst_tid)] = _SenderLink()
        seq = link.next_seq
        link.next_seq = seq + 1
        if self.integrity:
            frame = Frame(src_tid, dst_tid, seq, envelope, payload_checksum(envelope))
        else:
            frame = Frame(src_tid, dst_tid, seq, envelope)
        link.unacked[seq] = (frame, wire_bytes)
        self._arm_timer(link, frame, self._rto, 0)
        return frame

    def _arm_timer(self, link, frame, timeout, attempt):
        self.env.sleep(timeout).callbacks.append(
            lambda _event: self._on_timer(link, frame, timeout, attempt)
        )

    def _on_timer(self, link, frame, timeout, attempt):
        if frame.seq not in link.unacked or self.system.state.done:
            return
        if frame.dst_tid in self._dead_tids or frame.src_tid in self._dead_tids:
            del link.unacked[frame.seq]
            return
        if attempt >= self._max_retransmits:
            self.stats.ft_retransmit_giveups += 1
            del link.unacked[frame.seq]
            return
        self.stats.ft_retransmits += 1
        _frame, wire_bytes = link.unacked[frame.seq]
        latency, bandwidth = self._wire_of(frame.src_tid, frame.dst_tid)
        _Delivery(
            self.env, None, wire_bytes, latency, bandwidth,
            self.ingest_box(frame.dst_tid), _frame,
        )
        next_timeout = min(timeout * self._backoff, self._rto_cap)
        self._arm_timer(link, frame, next_timeout, attempt + 1)

    def send_ack(self, src_tid, dst_tid, upto):
        self.stats.ft_acks += 1
        latency, bandwidth = self._wire_of(dst_tid, src_tid)
        _Delivery(
            self.env, None, 0, latency, bandwidth,
            _AckSink(self, src_tid, dst_tid), upto,
        )

    def _on_ack(self, src_tid, dst_tid, upto):
        link = self._links.get((src_tid, dst_tid))
        if link is None or not link.unacked:
            return
        for seq in [s for s in link.unacked if s <= upto]:
            del link.unacked[seq]


@contextmanager
def transport_class(cls):
    """Systems built inside the block run on ``cls`` as their transport."""
    with patch("repro.core.runtime.ReliableTransport", cls):
        yield


# -- exact ties ----------------------------------------------------------------

#: Dyadic timings, so sums and differences of them are exact floats.
TIE_RTO = 2.0**-12
TIE_LATENCY = 2.0**-20


def tie_system(transport_cls, rto=TIE_RTO, latency=TIE_LATENCY):
    cluster = dataclasses.replace(
        DEFAULT_CLUSTER, retransmit_timeout_s=rto, inter_node_latency_s=latency,
    )
    with transport_class(transport_cls):
        system = DSMTXSystem(
            ToyDoall(iterations=8).dsmtx_plan(),
            SystemConfig(total_cores=8, fault_tolerance=True, cluster=cluster),
        )
    # Units 0 and 1 sit on node 0, units 5 and 6 on node 1.
    assert system.transport._wire_of(5, 0)[0] == latency
    return system


def at(env, when, action):
    """Run ``action`` at the absolute time ``when``."""
    env.sleep_until(when).callbacks.append(lambda _event: action())


def ft_tally(system):
    return dict(system.stats.ft_counters()), system.env.now


def test_an_ack_arriving_at_a_first_deadline_loses_the_tie():
    """The ack is sent after the frame's timer was created, so at the
    shared instant the timer fires first and retransmits."""
    def run(transport_cls):
        system = tie_system(transport_cls)
        env, transport = system.env, system.transport
        frame = transport.stamp(0, 5, "p", 64)
        box = transport.ingest_box(5)
        at(env, TIE_RTO - TIE_LATENCY, lambda: box.put_nowait(frame))
        env.run(until=env.timeout(8 * TIE_RTO))
        return ft_tally(system)

    outcome = run(ReliableTransport)
    assert outcome == run(PerFrameTransport)
    assert outcome[0]["retransmits"] == 1
    assert outcome[0]["duplicates_dropped"] == 1


def test_an_ack_sent_before_a_retransmit_timer_wins_its_tie():
    """An ack sent before the first expiry but arriving exactly at the
    second deadline precedes that retransmit timer, which then finds
    the frame acked."""
    latency = 5 * 2.0**-13  # 2.5 RTOs: arrives at 3 RTOs, sent at 0.5
    def run(transport_cls):
        system = tie_system(transport_cls, latency=latency)
        env, transport = system.env, system.transport
        frame = transport.stamp(0, 5, "p", 64)
        box = transport.ingest_box(5)
        at(env, 3 * TIE_RTO - latency, lambda: box.put_nowait(frame))
        env.run(until=env.timeout(16 * TIE_RTO))
        return ft_tally(system)

    outcome = run(ReliableTransport)
    assert outcome == run(PerFrameTransport)
    assert outcome[0]["retransmits"] == 1


def test_frames_stamped_at_one_instant_expire_in_stamp_order():
    """Equal deadlines: each frame's timer keeps the place its stamp
    gave it among the events of that instant."""
    def run(transport_cls):
        system = tie_system(transport_cls)
        env, transport, stats = system.env, system.transport, system.stats
        transport.send_ack = lambda src, dst, upto: None  # acks never arrive
        seen = []

        def probe():
            env.sleep(TIE_RTO).callbacks.append(
                lambda _event: seen.append(stats.ft_retransmits)
            )

        transport.stamp(0, 5, "a", 64)
        probe()
        transport.stamp(0, 5, "b", 64)
        probe()
        env.run(until=env.timeout(1.5 * TIE_RTO))
        return seen, ft_tally(system), list(transport.ingest_box(5).inbox.items)

    outcome = run(ReliableTransport)
    assert outcome == run(PerFrameTransport)
    seen, (counters, _now), inbox = outcome
    assert seen == [1, 2]
    assert counters["retransmits"] == 2
    assert inbox == ["a", "b"]


def test_forget_units_drops_pending_acks_of_dead_links_only():
    def run(transport_cls):
        system = tie_system(transport_cls)
        env, transport = system.env, system.transport
        to_dead = transport.stamp(0, 5, "to-dead", 64)
        to_live = transport.stamp(1, 6, "to-live", 64)
        transport.ingest_box(5).put_nowait(to_dead)
        transport.ingest_box(6).put_nowait(to_live)
        transport.forget_units({5})  # both acks still on the wire
        links = [transport._links[(0, 5)], transport._links[(1, 6)]]
        pending = [len(link.acks) for link in links]
        at(env, TIE_RTO / 2, lambda: transport.stamp(0, 5, "late", 64))
        env.run(until=env.timeout(8 * TIE_RTO))
        return ft_tally(system), pending, [dict(link.unacked) for link in links]

    outcome = run(ReliableTransport)
    assert outcome[0] == run(PerFrameTransport)[0]
    (counters, _now), pending, unacked = outcome
    assert pending == [0, 1]
    assert counters["acks"] == 2
    assert counters["retransmits"] == 0
    assert counters["retransmit_giveups"] == 0
    # The late frame to the dead unit was dropped at its deadline, and
    # the live link applied its ack.
    assert unacked == [{}, {}]


# -- differential: the whole runtime under faults ------------------------------

#: Simulated-time cut-off of one differential run (as in test_failure):
#: a run still going there has hung, and fails the test.
HORIZON_S = {"dsmtx": 0.2, "specfor": 0.02}


class _Unfinished(Exception):
    """The run was still going at its simulated-time horizon."""


@st.composite
def transport_scenarios(draw):
    runtime = draw(st.sampled_from(("dsmtx", "specfor")))
    replicated = draw(st.booleans())
    faults = []
    for kind in (MessageLoss, MessageDuplication):
        probability = draw(st.sampled_from((0.0, 0.03, 0.15)))
        if probability:
            faults.append(kind(probability))
    integrity = draw(st.booleans())
    if integrity and draw(st.booleans()):
        faults.append(MessageCorruption(draw(st.sampled_from((0.03, 0.15)))))
    span = 20e-3 if runtime == "dsmtx" else 1e-3
    crashes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("worker", "commit")),
                st.floats(min_value=0.02 * span, max_value=span),
            ),
            max_size=2,
            unique_by=lambda crash: crash[0],
        )
    )
    rto = draw(st.sampled_from((150e-6, 20e-6, 2e-6, 0.5e-6)))
    max_retransmits = draw(st.sampled_from((16, 2)))
    seed = draw(st.integers(min_value=0, max_value=3))
    return runtime, replicated, tuple(faults), integrity, tuple(crashes), rto, max_retransmits, seed


def _transport_outcome(transport_cls, scenario):
    runtime, replicated, faults, integrity, crashes, rto, max_retransmits, seed = scenario
    cluster = dataclasses.replace(
        DEFAULT_CLUSTER, retransmit_timeout_s=rto, max_retransmits=max_retransmits,
    )
    common = dict(
        placement="spread", fault_tolerance=True, commit_replication=replicated,
        integrity=integrity, cluster=cluster,
    )
    with transport_class(transport_cls):
        if runtime == "dsmtx":
            config = SystemConfig(total_cores=8, batch_bytes=64, **common)
            system = DSMTXSystem(Crc32(iterations=24).dsmtx_plan(), config)
        else:
            workload = ALL_BENCHMARKS["spanning_forest"](iterations=96, density=0.7)
            system = SpecForSystem(workload, SystemConfig(total_cores=6, **common), workers=4)
    assert type(system.transport) is transport_cls
    tids = {"worker": 0, "commit": system.commit_tid}
    faults += tuple(
        NodeCrash(node=system.core_of(tids[target]).node_index, at_s=at_s)
        for target, at_s in crashes
    )
    env = system.env
    engine = ChaosEngine(FaultPlan(faults=faults, seed=seed)).attach(env)

    def horizon():
        yield env.sleep_until(HORIZON_S[runtime])
        raise _Unfinished(f"still running at {env.now} s")

    env.process(horizon(), name="horizon")
    error = None
    try:
        system.run()
    except ClusterFailedError as exc:
        error = f"{type(exc).__name__}: {exc}"
    master = system.commit.master
    outcome = (
        error,
        run_digest(system.stats, master=master, chaos=engine),
        system.stats.ft_counters(),
        env.now,
        memory_fingerprint(master),
    )
    return outcome, env.events_processed


@settings(max_examples=40, deadline=None)
@given(transport_scenarios())
def test_lazy_acks_and_link_alarms_simulate_exactly_per_frame_timers(scenario):
    """Loss, duplication, corruption under integrity, worker and commit
    (or reservation-service) crashes, short timeouts that back off and
    give up, in both runtimes: the transport gives the same digest,
    transport counters, end time, committed image and error as one
    timer per frame and one delivery per ack, with no more events."""
    new, new_events = _transport_outcome(ReliableTransport, scenario)
    old, old_events = _transport_outcome(PerFrameTransport, scenario)
    assert new == old
    assert new_events <= old_events

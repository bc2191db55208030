"""Unit tests for the simulated MPI layer, including the bandwidth
calibration against the paper's section 5.3 measurements."""

import pytest

from repro.cluster import MPI, ClusterSpec, Interconnect, Machine, MPIVariant
from repro.errors import ChannelFlushedError, CommunicationError
from repro.sim import Environment, Store


def make_mpi(**spec_kwargs):
    env = Environment()
    spec = ClusterSpec(nodes=4, cores_per_node=4, **spec_kwargs)
    machine = Machine(env, spec)
    net = Interconnect(env, machine)
    return env, machine, MPI(env, machine, net)


def test_send_recv_roundtrip():
    env, _machine, mpi = make_mpi()
    received = []

    def sender():
        yield from mpi.send(0, 4, {"x": 1}, nbytes=8)

    def receiver():
        payload = yield from mpi.recv(4, 0)
        received.append(payload)

    env.process(sender())
    env.process(receiver())
    env.run()
    assert received == [{"x": 1}]


def test_send_to_self_rejected():
    _env, _machine, mpi = make_mpi()
    with pytest.raises(CommunicationError):
        list(mpi.send(0, 0, "x", 8))


def test_messages_fifo_per_pair():
    env, _machine, mpi = make_mpi()
    received = []

    def sender():
        for i in range(5):
            yield from mpi.send(0, 4, i, nbytes=8)

    def receiver():
        for _ in range(5):
            received.append((yield from mpi.recv(4, 0)))

    env.process(sender())
    env.process(receiver())
    env.run()
    assert received == [0, 1, 2, 3, 4]


def test_tags_separate_streams():
    env, _machine, mpi = make_mpi()
    received = {}

    def sender():
        yield from mpi.send(0, 4, "for-b", nbytes=8, tag="b")
        yield from mpi.send(0, 4, "for-a", nbytes=8, tag="a")

    def receiver():
        received["a"] = yield from mpi.recv(4, 0, tag="a")
        received["b"] = yield from mpi.recv(4, 0, tag="b")

    env.process(sender())
    env.process(receiver())
    env.run()
    assert received == {"a": "for-a", "b": "for-b"}


def test_try_recv():
    env, _machine, mpi = make_mpi()
    results = []

    def sender():
        yield from mpi.send(0, 4, "hello", nbytes=8)

    def receiver():
        ok, _ = mpi.try_recv(4, 0)
        results.append(ok)  # nothing arrived yet at t=0
        yield env.timeout(1.0)
        ok, payload = mpi.try_recv(4, 0)
        results.append((ok, payload))

    env.process(receiver())
    env.process(sender())
    env.run()
    assert results == [False, (True, "hello")]


def test_flush_all_aborts_blocked_recv():
    env, _machine, mpi = make_mpi()
    outcome = []

    def receiver():
        try:
            yield from mpi.recv(4, 0)
        except ChannelFlushedError:
            outcome.append("flushed")

    def flusher():
        yield env.timeout(1.0)
        mpi.flush_all()

    env.process(receiver())
    env.process(flusher())
    env.run()
    assert outcome == ["flushed"]


def test_flush_all_counts_discarded():
    env, _machine, mpi = make_mpi()

    def sender():
        yield from mpi.send(0, 4, "a", nbytes=8)
        yield from mpi.send(0, 4, "b", nbytes=8)

    env.process(sender())
    env.run()
    assert mpi.flush_all() == 2


def _stream_bandwidth(variant, messages=2000, payload_bytes=8):
    """Measured steady-state bandwidth for a stream of small messages."""
    env, _machine, mpi = make_mpi()
    done = env.event()

    def sender():
        for i in range(messages):
            yield from mpi.send(0, 4, i, nbytes=payload_bytes, variant=variant)

    def receiver():
        for _ in range(messages):
            yield from mpi.recv(4, 0)
        done.succeed(env.now)

    env.process(sender())
    env.process(receiver())
    elapsed = env.run(until=done)
    return messages * payload_bytes / elapsed


def test_stream_bandwidth_matches_paper_send():
    # Paper section 5.3: MPI_Send sustains 13.1 MBps for 8-byte data.
    bandwidth = _stream_bandwidth(MPIVariant.SEND)
    assert bandwidth == pytest.approx(13.1e6, rel=0.05)


def test_stream_bandwidth_matches_paper_bsend():
    # Paper: MPI_Bsend sustains 12.7 MBps.
    bandwidth = _stream_bandwidth(MPIVariant.BSEND)
    assert bandwidth == pytest.approx(12.7e6, rel=0.05)


def test_stream_bandwidth_matches_paper_isend():
    # Paper: MPI_Isend sustains 8.1 MBps.
    bandwidth = _stream_bandwidth(MPIVariant.ISEND)
    assert bandwidth == pytest.approx(8.1e6, rel=0.05)


def test_variant_ordering_is_stable():
    send = _stream_bandwidth(MPIVariant.SEND, messages=100)
    bsend = _stream_bandwidth(MPIVariant.BSEND, messages=100)
    isend = _stream_bandwidth(MPIVariant.ISEND, messages=100)
    assert send > bsend > isend


def make_mpi_8():
    env = Environment()
    machine = Machine(env, ClusterSpec(nodes=2, cores_per_node=4))
    return env, MPI(env, machine, Interconnect(env, machine))


def test_receive_from_itself_rejected_at_the_call():
    # It used to block forever: nothing can ever be sent to oneself.
    _env, mpi = make_mpi_8()
    with pytest.raises(CommunicationError):
        mpi.recv(0, 0)
    with pytest.raises(CommunicationError):
        mpi.try_recv(3, 3)
    assert mpi.flush_all() == 0  # no mailbox was created


@pytest.mark.parametrize("dst, src", [(0, 8), (99, 0), (0, -1), (-2, 1)])
def test_out_of_range_receive_rejected_at_the_call(dst, src):
    # A source past the last core used to block forever, a destination
    # past it failed with a bare "list index out of range", and
    # try_recv reported such a mailbox as empty.
    _env, mpi = make_mpi_8()
    with pytest.raises(IndexError, match=f"rank {src} to rank {dst}"):
        mpi.recv(dst, src)
    with pytest.raises(IndexError, match=f"rank {src} to rank {dst}"):
        mpi.try_recv(dst, src)
    assert mpi.flush_all() == 0


@pytest.mark.parametrize("dst", [8, -1])
def test_out_of_range_inbox_receive_rejected_at_the_call(dst):
    # A negative rank must not index the cores from the end.
    env, mpi = make_mpi_8()
    with pytest.raises(IndexError):
        mpi.recv_from(dst, Store(env))


def test_out_of_range_source_rejected_by_send():
    _env, mpi = make_mpi_8()
    with pytest.raises(IndexError, match="rank 8 to rank 0"):
        next(mpi.send(8, 0, "x", 8))
    assert mpi.sent_count[MPIVariant.SEND] == 0

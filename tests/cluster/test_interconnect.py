"""Unit tests for the wire-level interconnect model, driven through
:meth:`MPI.send`, which runs the NIC model for every message."""

import pytest

from repro.cluster import MPI, ClusterSpec, Interconnect, Machine, MPIVariant
from repro.cluster.mpi import ENVELOPE_BYTES
from repro.sim import Environment, Store


def make_net(**spec_kwargs):
    env = Environment()
    spec = ClusterSpec(nodes=2, cores_per_node=2, **spec_kwargs)
    machine = Machine(env, spec)
    net = Interconnect(env, machine)
    return env, machine, net, MPI(env, machine, net)


def send_overhead(machine):
    """Sender-side MPI_Send software cost, in seconds."""
    spec = machine.spec
    return spec.instructions_to_seconds(spec.mpi_variant_sender_instructions[MPIVariant.SEND])


def receiver(env, mpi, src, dst, log, count=1):
    """Block on the (src, dst) mailbox; log each payload's arrival time."""
    box = mpi.mailbox(src, dst)
    for _ in range(count):
        payload = yield box.get()
        log.append((payload, env.now))


def test_blocking_transfer_time_inter_node():
    env, machine, _net, mpi = make_net(
        inter_node_latency_s=1e-3, inter_node_bandwidth_bps=1e6
    )
    arrivals = []
    env.process(mpi.send(0, 2, "x", 1000))  # cores on different nodes
    env.process(receiver(env, mpi, 0, 2, arrivals))
    env.run()
    # Send overhead + 2 x serialization (1032B / 1e6Bps, tx and rx NIC)
    # + 1 ms latency.
    serialization = (1000 + ENVELOPE_BYTES) / 1e6
    assert arrivals == [("x", pytest.approx(send_overhead(machine) + 2 * serialization + 1e-3))]


def test_blocking_transfer_time_intra_node():
    env, machine, _net, mpi = make_net(
        intra_node_latency_s=1e-4, intra_node_bandwidth_bps=1e6
    )
    arrivals = []
    env.process(mpi.send(0, 1, "x", 1000))  # same node
    env.process(receiver(env, mpi, 0, 1, arrivals))
    env.run()
    # Intra-node: one memcpy on the sender, no NIC on either side.
    memcpy = (1000 + ENVELOPE_BYTES) / 1e6
    assert arrivals == [("x", pytest.approx(send_overhead(machine) + memcpy + 1e-4))]


def test_eager_send_returns_after_transmit():
    env, machine, _net, mpi = make_net(
        inter_node_latency_s=1e-3, inter_node_bandwidth_bps=1e6
    )
    log = []

    def sender():
        yield from mpi.send(0, 2, "delivered", 1000)
        log.append(("returned", env.now))

    env.process(sender())
    env.process(receiver(env, mpi, 0, 2, log))
    env.run()
    serialization = (1000 + ENVELOPE_BYTES) / 1e6
    overhead = send_overhead(machine)
    assert ("returned", pytest.approx(overhead + serialization)) in log
    assert ("delivered", pytest.approx(overhead + 2 * serialization + 1e-3)) in log


def test_nic_contention_serializes_senders():
    env, machine, _net, mpi = make_net(
        inter_node_latency_s=0.0, inter_node_bandwidth_bps=1e6
    )
    arrivals = []
    # Cores 0 and 1 share node 0's TX NIC; cores 2 and 3 node 1's RX NIC.
    env.process(mpi.send(0, 2, "a", 1000))
    env.process(mpi.send(1, 3, "b", 1000))
    env.process(receiver(env, mpi, 0, 2, arrivals))
    env.process(receiver(env, mpi, 1, 3, arrivals))
    env.run()
    times = sorted(t for _payload, t in arrivals)
    # Transmissions serialize on the node-0 TX NIC: one serialization
    # apart at the source, and again at the node-1 RX NIC.
    serialization = (1000 + ENVELOPE_BYTES) / 1e6
    overhead = send_overhead(machine)
    assert times[0] == pytest.approx(overhead + 2 * serialization)
    assert times[1] == pytest.approx(overhead + 3 * serialization)


def test_stats_accumulate():
    env, _machine, net, mpi = make_net()

    def sender():
        yield from mpi.send(0, 2, "inter", 100)
        yield from mpi.send(0, 1, "intra", 50)

    env.process(sender())
    env.run()
    inter, intra = 100 + ENVELOPE_BYTES, 50 + ENVELOPE_BYTES
    assert net.stats.total_messages == 2
    assert net.stats.total_bytes == inter + intra
    assert net.stats.inter_node_bytes == inter
    assert net.stats.intra_node_bytes == intra
    snap = net.stats.snapshot()
    assert snap["total_bytes"] == inter + intra


def test_negative_size_rejected():
    # A payload of -1 bytes plus the envelope is still a positive wire
    # size; the payload itself is rejected, before the send overhead is
    # charged or anything reaches the wire.
    _env, machine, net, mpi = make_net()
    for dst in (2, 1):  # inter-node, intra-node
        with pytest.raises(ValueError):
            next(mpi.send(0, dst, "x", -1))
    assert machine.core(0).busy_cycles == 0
    assert mpi.sent_count[MPIVariant.SEND] == 0
    assert net.stats.total_messages == 0


def test_out_of_range_destination_rejected():
    # A destination past the last core (or below the first) fails before
    # the send overhead is charged or anything reaches the wire, with a
    # message that names both ranks.
    _env, machine, net, mpi = make_net()
    for dst in (4, -1):
        with pytest.raises(IndexError, match=f"rank 0 to rank {dst}"):
            next(mpi.send(0, dst, "x", 10))
    assert machine.core(0).busy_cycles == 0
    assert mpi.sent_count[MPIVariant.SEND] == 0
    assert net.stats.total_messages == 0


def test_nic_queues_are_exact_fifo_float_chains():
    # Three senders share node 0's TX NIC and one sender sits on node 1;
    # all four messages meet at node 2's RX NIC.  Every time is compared
    # with ==, against the float chain the model must produce: an ulp of
    # drift would move the golden digests.
    env = Environment()
    latency, bandwidth = 2e-6, 1e8
    spec = ClusterSpec(
        nodes=3, cores_per_node=3,
        inter_node_latency_s=latency, inter_node_bandwidth_bps=bandwidth,
    )
    machine = Machine(env, spec)
    mpi = MPI(env, machine, Interconnect(env, machine))
    inbox = Store(env)
    sizes = {"A": 968, "B": 968, "C": 968, "D": 1468}  # wire: 1000, 1500 B
    ranks = {"A": 0, "B": 1, "C": 2, "D": 3}  # node 0: A, B, C; node 1: D
    returned, arrivals = {}, []

    def sender(name):
        yield from mpi.send(ranks[name], 6, name, sizes[name], mailbox=inbox)
        returned[name] = env.now

    def receiver():
        for _ in sizes:
            payload = yield inbox.get()
            arrivals.append((payload, env.now))

    for name in sizes:
        env.process(sender(name))
    env.process(receiver())
    env.run()

    cycles = spec.mpi_variant_sender_instructions[MPIVariant.SEND] / spec.instructions_per_cycle
    o = cycles / spec.clock_hz
    s = (968 + ENVELOPE_BYTES) / bandwidth
    t = (1468 + ENVELOPE_BYTES) / bandwidth
    # TX: A, B, C back to back on node 0; D alone on node 1.
    assert returned == {"A": o + s, "B": (o + s) + s, "C": ((o + s) + s) + s, "D": o + t}
    # RX: A arrives first and finds the NIC free.  D arrives while A is
    # on the NIC, B and C after D, so the FIFO grant order is A, D, B, C.
    a_done = ((o + s) + latency) + s
    d_done = a_done + t
    b_done = d_done + s
    c_done = b_done + s
    assert arrivals == [("A", a_done), ("D", d_done), ("B", b_done), ("C", c_done)]


def test_fifo_delivery_same_pair():
    env, _machine, _net, mpi = make_net(inter_node_latency_s=1e-3)
    arrivals = []

    def sender():
        for i in range(3):
            yield from mpi.send(0, 2, i, 100)

    env.process(sender())
    env.process(receiver(env, mpi, 0, 2, arrivals, count=3))
    env.run()
    assert [payload for payload, _t in arrivals] == [0, 1, 2]

"""Unit tests for RuntimeQueue and Endpoint internals."""

import pytest

from repro.core import DSMTXSystem, SystemConfig
from repro.core.messages import (
    DATA,
    WRITE,
    BatchEnvelope,
    ControlEnvelope,
    END_SUBTX,
    entry_bytes,
)
from repro.sim import Store
from tests.core.toys import ToyDoall


def make_system(**config_kwargs):
    workload = ToyDoall(iterations=8)
    config = SystemConfig(total_cores=6, **config_kwargs)
    return DSMTXSystem(workload.dsmtx_plan(), config)


# ---------------------------------------------------------------------------
# entry_bytes
# ---------------------------------------------------------------------------


def test_entry_bytes_defaults():
    assert entry_bytes((WRITE, 0, 1)) == 16
    assert entry_bytes(("R", 0, 1)) == 16
    assert entry_bytes((END_SUBTX, 3, 0)) == 8
    assert entry_bytes((DATA, "label", 42)) == 16


def test_entry_bytes_bulk_write():
    assert entry_bytes((WRITE, 0, 1, 4096)) == 4096


# ---------------------------------------------------------------------------
# RuntimeQueue
# ---------------------------------------------------------------------------


def test_queue_created_lazily_and_cached():
    system = make_system()
    queue_a = system.forward_queue(0, 1)
    queue_b = system.forward_queue(0, 1)
    assert queue_a is queue_b
    assert system.queue_by_name(queue_a.name) is queue_a


def test_queue_batches_by_bytes():
    system = make_system(batch_bytes=64)
    queue = system.forward_queue(0, 1)
    sent = []

    def producer():
        for i in range(8):  # 8 x 16B = 2 batches of 64B
            yield from queue.produce((WRITE, 8 * i, i))
        sent.append(queue.batches_sent)

    system.env.process(producer())
    system.env.run()
    assert sent == [2]


def test_queue_flush_pending_empties_buffer():
    system = make_system()
    queue = system.forward_queue(0, 1)

    def producer():
        yield from queue.produce((WRITE, 0, 1))
        assert queue._buffer
        yield from queue.flush_pending()
        assert not queue._buffer

    system.env.process(producer())
    system.env.run()
    assert queue.batches_sent == 1


def test_queue_credits_bound_inflight():
    system = make_system(batch_bytes=16, max_inflight_batches=2)
    queue = system.forward_queue(0, 1)
    progress = []

    def producer():
        for i in range(5):
            yield from queue.produce((WRITE, 8 * i, i))
            progress.append(i)

    system.env.process(producer())
    system.env.run()
    # Two batches go out; the third blocks on credits since the
    # consumer never accepts anything.
    assert progress == [0, 1]


def test_queue_release_credits_unblocks_producer():
    system = make_system(batch_bytes=16, max_inflight_batches=1)
    queue = system.forward_queue(0, 1)
    progress = []

    def producer():
        for i in range(3):
            yield from queue.produce((WRITE, 8 * i, i))
            progress.append(i)

    def releaser():
        yield system.env.timeout(1.0)
        queue.release_all_credits()
        yield system.env.timeout(1.0)
        queue.release_all_credits()

    system.env.process(producer())
    system.env.process(releaser())
    system.env.run()
    assert progress == [0, 1, 2]


def test_stale_epoch_batch_dropped_but_credit_released():
    system = make_system()
    queue = system.forward_queue(0, 1)
    envelope = BatchEnvelope(queue.name, epoch=99, credit_id=0,
                             entries=((WRITE, 0, 1),), nbytes=16)
    assert queue.accept_batch(envelope) is False
    assert not queue.delivered


def test_current_epoch_batch_accepted():
    system = make_system()
    queue = system.forward_queue(0, 1)
    envelope = BatchEnvelope(queue.name, epoch=0, credit_id=0,
                             entries=((WRITE, 0, 1), (WRITE, 8, 2)), nbytes=32)
    assert queue.accept_batch(envelope) is True
    assert list(queue.delivered) == [(WRITE, 0, 1), (WRITE, 8, 2)]


def test_queue_discard_clears_both_sides():
    system = make_system()
    queue = system.forward_queue(0, 1)
    queue._buffer.append((WRITE, 0, 1))
    queue.accept_batch(BatchEnvelope(queue.name, 0, 0, ((WRITE, 8, 2),), 16))
    assert queue.discard() == 2
    assert not queue.delivered
    assert not queue._buffer


def test_direct_mode_sends_per_entry():
    system = make_system(channel_mode="direct")
    queue = system.forward_queue(0, 1)

    def producer():
        for i in range(3):
            yield from queue.produce((WRITE, 8 * i, i))

    system.env.process(producer())
    system.env.run()
    assert queue.batches_sent == 3


# ---------------------------------------------------------------------------
# Endpoint
# ---------------------------------------------------------------------------


def test_endpoint_routes_ctl_by_epoch():
    system = make_system()
    endpoint = system.endpoint_of_unit(0)
    stale = ControlEnvelope("coa_response", epoch=42, sender_tid=1, payload=None)
    fresh = ControlEnvelope("coa_response", epoch=0, sender_tid=1, payload="page")
    endpoint._route(stale, arrival_order=False)
    endpoint._route(fresh, arrival_order=False)
    assert len(endpoint.pending_ctl) == 1
    assert endpoint.pending_ctl[0].payload == "page"


def test_endpoint_arrival_order_routing():
    system = make_system()
    endpoint = system.endpoint_of_unit(system.commit_tid)
    queue = system.clog_queue(0)
    endpoint._route(
        BatchEnvelope(queue.name, 0, 0, ((WRITE, 0, 1),), 16), arrival_order=True
    )
    endpoint._route(
        ControlEnvelope("validated", 0, system.trycommit_tid, 3), arrival_order=True
    )
    kinds = [record[0] for record in endpoint.pending_messages]
    assert kinds == ["batch", "ctl"]


def test_endpoint_ready_recv_admits_a_blocked_putter():
    # A waiting envelope is taken without an event, and taking it moves
    # the oldest blocked put into the store, exactly as Store.get() does.
    system = make_system()
    endpoint = system.endpoint_of_unit(0)
    endpoint.inbox = Store(system.env, capacity=1)
    first = ControlEnvelope("x", 0, 1, "first")
    second = ControlEnvelope("x", 0, 1, "second")
    endpoint.inbox.put_nowait(first)
    blocked_put = endpoint.inbox.put(second)
    assert not blocked_put.triggered
    assert endpoint._core.pending_cycles == 0.0
    with pytest.raises(StopIteration) as done:
        next(endpoint._recv_one())  # returns without yielding an event
    assert done.value.value is first
    assert blocked_put.triggered
    assert list(endpoint.inbox.items) == [second]


def test_endpoint_clear_counts():
    system = make_system()
    endpoint = system.endpoint_of_unit(0)
    endpoint.pending_ctl.append(ControlEnvelope("x", 0, 1, None))
    endpoint.pending_messages.append(("ctl", None))
    assert endpoint.clear() == 2
    assert not endpoint.pending_ctl
    assert not endpoint.pending_messages

"""Unit tests for Resource, Store, and Barrier."""

import pytest

from repro.errors import ChannelFlushedError, SimulationError
from repro.sim import Barrier, Environment, Resource, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_grants_up_to_capacity():
    env = Environment()
    resource = Resource(env, capacity=2)
    r1, r2, r3 = resource.request(), resource.request(), resource.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert resource.count == 2
    assert resource.queue_length == 1


def test_resource_release_wakes_waiter():
    env = Environment()
    resource = Resource(env, capacity=1)
    r1 = resource.request()
    r2 = resource.request()
    assert not r2.triggered
    resource.release(r1)
    assert r2.triggered


def test_resource_fifo_order():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def user(name, hold):
        request = resource.request()
        yield request
        order.append(name)
        yield env.timeout(hold)
        resource.release(request)

    for name in ["a", "b", "c"]:
        env.process(user(name, 1.0))
    env.run()
    assert order == ["a", "b", "c"]


def test_resource_cancel_waiting_request():
    env = Environment()
    resource = Resource(env, capacity=1)
    r1 = resource.request()
    r2 = resource.request()
    resource.release(r2)  # cancel while still waiting
    assert resource.queue_length == 0
    resource.release(r1)
    assert resource.count == 0


def test_resource_acquire_nowait_schedules_no_event():
    env = Environment()
    resource = Resource(env, capacity=2)
    first = resource.acquire_nowait()
    second = resource.acquire_nowait()
    assert first is not None and second is not None and first is not second
    assert resource.count == 2
    assert env.peek() == float("inf")  # nothing pushed onto the heap
    assert resource.acquire_nowait() is None  # full: the caller must queue
    assert resource.count == 2 and resource.queue_length == 0
    resource.release(first)
    resource.release(second)
    assert resource.count == 0


def test_resource_nowait_release_hands_slot_to_oldest_waiter():
    env = Environment()
    resource = Resource(env, capacity=1)
    token = resource.acquire_nowait()
    older, newer = resource.request(), resource.request()
    assert not older.triggered and not newer.triggered
    resource.release(token)
    assert older.triggered and not newer.triggered
    assert resource.count == 1 and resource.queue_length == 1
    assert resource.acquire_nowait() is None
    with pytest.raises(SimulationError):
        resource.release(token)  # a token releases its slot only once


def test_resource_bogus_release_raises():
    env = Environment()
    resource = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        resource.release(env.event())


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    log = []

    def producer():
        yield store.put("x")

    def consumer():
        item = yield store.get()
        log.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == ["x"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    log = []

    def consumer():
        item = yield store.get()
        log.append((env.now, item))

    def producer():
        yield env.timeout(5.0)
        yield store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert log == [(5.0, "late")]


def test_store_fifo_ordering():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for i in range(5):
            yield store.put(i)

    def consumer():
        for _ in range(5):
            item = yield store.get()
            received.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == [0, 1, 2, 3, 4]


def test_store_bounded_put_blocks():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        yield store.put("b")
        log.append(("produced-b", env.now))

    def consumer():
        yield env.timeout(3.0)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert ("got", "a", 3.0) in log
    assert ("produced-b", 3.0) in log
    assert store.level == 1


def test_store_try_get():
    env = Environment()
    store = Store(env)
    ok, item = store.try_get()
    assert not ok and item is None
    store.put("x")
    ok, item = store.try_get()
    assert ok and item == "x"


def test_store_flush_discards_and_fails_getters():
    env = Environment()
    store = Store(env)
    caught = []

    def consumer():
        try:
            yield store.get()
        except ChannelFlushedError:
            caught.append(env.now)

    env.process(consumer())

    def flusher():
        yield env.timeout(2.0)
        store.put("doomed")
        # The waiting getter consumed "doomed" immediately, so re-add items.
        store.items.append("leftover-1")
        store.items.append("leftover-2")
        discarded = store.flush()
        caught.append(("discarded", discarded))

    env.process(flusher())
    env.run()
    # The consumer got "doomed" before flush, so only leftovers discarded.
    assert ("discarded", 2) in caught


def test_store_flush_fails_blocked_getter():
    env = Environment()
    store = Store(env)
    caught = []

    def consumer():
        try:
            yield store.get()
        except ChannelFlushedError:
            caught.append("flushed")

    def flusher():
        yield env.timeout(1.0)
        store.flush()

    env.process(consumer())
    env.process(flusher())
    env.run()
    assert caught == ["flushed"]


def test_store_flush_fails_blocked_putter():
    env = Environment()
    store = Store(env, capacity=1)
    caught = []

    def producer():
        yield store.put("a")
        try:
            yield store.put("b")
        except ChannelFlushedError:
            caught.append("flushed")

    def flusher():
        yield env.timeout(1.0)
        store.flush()

    env.process(producer())
    env.process(flusher())
    env.run()
    assert caught == ["flushed"]
    assert store.level == 0


def _priced_getter(env, store, log, seconds=0.25):
    """A process blocked on ``store.get_priced``; it sleeps ``seconds``
    itself only when the handoff did not fire after them."""

    def pay():
        log.append(("pay", env.now))

    def body():
        get = store.get_priced(seconds, pay)
        item = yield get
        if not get.paid:
            yield env.sleep(seconds)
        log.append((item, env.now, get.paid))

    return env.process(body())


def test_store_get_priced_fires_once_after_the_cost():
    env = Environment()
    store = Store(env)
    log = []
    _priced_getter(env, store, log)
    env.sleep_until(1.0).callbacks.append(lambda _event: store.put_nowait("x"))
    env.run()
    assert log == [("pay", 1.0), ("x", 1.25, True)]
    # Start, the put's timer, the handoff, the end: no wake-up at 1.0.
    assert env.events_processed == 4


def test_store_get_priced_with_another_event_due_fires_at_the_handoff():
    env = Environment()
    store = Store(env)
    log = []
    _priced_getter(env, store, log)
    env.sleep_until(1.0).callbacks.append(lambda _event: store.put_nowait("x"))
    env.sleep_until(1.0).callbacks.append(lambda _event: log.append(("tick", env.now)))
    env.run()
    assert log == [("tick", 1.0), ("x", 1.25, False)]
    # Start, two timers, the handoff, the sleep, the end.
    assert env.events_processed == 6


def test_store_get_priced_takes_a_waiting_item_and_pays_in_one_wakeup():
    env = Environment()
    store = Store(env)
    store.put_nowait("x")
    log = []
    _priced_getter(env, store, log)
    env.run()
    assert log == [("pay", 0.0), ("x", 0.25, True)]
    assert env.events_processed == 3


def test_store_get_priced_outside_event_processing_is_a_plain_get():
    env = Environment()
    store = Store(env)
    log = []
    _priced_getter(env, store, log)
    env.run()  # the getter blocks
    store.put_nowait("x")
    env.run()
    assert log == [("x", 0.25, False)]


def test_store_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


# ---------------------------------------------------------------------------
# Barrier
# ---------------------------------------------------------------------------


def test_barrier_releases_all_when_full():
    env = Environment()
    barrier = Barrier(env, parties=3)
    released = []

    def party(name, delay):
        yield env.timeout(delay)
        yield barrier.wait()
        released.append((name, env.now))

    env.process(party("a", 1.0))
    env.process(party("b", 2.0))
    env.process(party("c", 5.0))
    env.run()
    assert sorted(released) == [("a", 5.0), ("b", 5.0), ("c", 5.0)]


def test_barrier_is_reusable():
    env = Environment()
    barrier = Barrier(env, parties=2)
    generations = []

    def party():
        for _ in range(3):
            generation = yield barrier.wait()
            generations.append(generation)

    env.process(party())
    env.process(party())
    env.run()
    assert sorted(generations) == [0, 0, 1, 1, 2, 2]


def test_barrier_single_party_never_blocks():
    env = Environment()
    barrier = Barrier(env, parties=1)
    log = []

    def party():
        yield barrier.wait()
        log.append(env.now)

    env.process(party())
    env.run()
    assert log == [0.0]


def test_barrier_arrived_count():
    env = Environment()
    barrier = Barrier(env, parties=3)
    barrier.wait()
    barrier.wait()
    assert barrier.arrived == 2


def test_barrier_parties_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Barrier(env, parties=0)

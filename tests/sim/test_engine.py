"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.errors import (
    DeadlockError,
    EventAlreadyTriggered,
    ProcessInterrupt,
    SimulationError,
)
from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    times = []

    def proc():
        yield env.timeout(3.0)
        times.append(env.now)
        yield env.timeout(2.0)
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [3.0, 5.0]


def test_timeout_value_is_delivered():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1.0, value="hello")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_process_return_value_via_run_until():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        return 42

    result = env.run(until=env.process(proc()))
    assert result == 42


def test_process_exception_propagates_from_run():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        env.run(until=env.process(proc()))


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10.0)

    env.process(proc())
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_event_succeed_once_only():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        event.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_process_waits_on_manual_event():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(7.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(7.0, "open")]


def test_failed_event_raises_inside_process():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1.0)
        gate.fail(ValueError("bad"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["bad"]


def test_unhandled_failed_event_surfaces():
    env = Environment()
    gate = env.event()

    def failer():
        yield env.timeout(1.0)
        gate.fail(ValueError("nobody catches me"))

    env.process(failer())
    with pytest.raises(ValueError, match="nobody catches me"):
        env.run()


def test_unhandled_failure_after_handled_one_still_surfaces():
    # The _defused flag is per-event: one event with a handler must not
    # defuse a different unhandled failure.
    env = Environment()
    handled = env.event()
    unhandled = env.event()
    caught = []

    def waiter():
        try:
            yield handled
        except ValueError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1.0)
        handled.fail(ValueError("handled"))
        unhandled.fail(ValueError("nobody catches me"))

    env.process(waiter())
    env.process(failer())
    with pytest.raises(ValueError, match="nobody catches me"):
        env.run()
    assert caught == ["handled"]


def test_sleep_fast_path_matches_timeout():
    env = Environment()
    times = []

    def proc():
        yield env.sleep(3.0)
        times.append(env.now)
        yield env.sleep(0.0)
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [3.0, 3.0]


def test_sleep_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.sleep(-0.5)


def test_sleep_and_timeout_share_fifo_order():
    # sleep() is an allocation fast path, not a different event kind:
    # it must interleave with timeout() in strict creation order.
    env = Environment()
    order = []

    def via_timeout(name):
        yield env.timeout(1.0)
        order.append(name)

    def via_sleep(name):
        yield env.sleep(1.0)
        order.append(name)

    env.process(via_timeout("a"))
    env.process(via_sleep("b"))
    env.process(via_timeout("c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_sleep_until_is_bit_equal_to_two_sleeps():
    # Deliberately unround delays: (now + a) + b differs from now + (a + b)
    # in the last ulp, and sleep_until must reach the former.
    a, b = 1e-7 / 3, 5.1e-7 / 3
    start = 0.1
    assert (start + a) + b != start + (a + b)
    chained, fused = Environment(start), Environment(start)
    times = {}

    def two_sleeps():
        yield chained.sleep(a)
        yield chained.sleep(b)
        times["chained"] = chained.now

    def one_wakeup():
        yield fused.sleep_until((fused.now + a) + b)
        times["fused"] = fused.now

    chained.process(two_sleeps())
    fused.process(one_wakeup())
    chained.run()
    fused.run()
    assert times["fused"] == times["chained"] == (start + a) + b
    assert fused.events_processed == chained.events_processed - 1


def test_sleep_until_rejects_the_past():
    env = Environment(2.0)
    with pytest.raises(ValueError, match="in the past"):
        env.sleep_until(1.5)
    env.sleep_until(2.0)  # "now" is allowed: a zero-length wait


def test_sleep_until_keeps_fifo_order_with_same_time_events():
    env = Environment()
    order = []

    def via_sleep(name):
        yield env.sleep(1.0)
        order.append(name)

    def via_sleep_until(name):
        yield env.sleep_until(1.0)
        order.append(name)

    env.process(via_sleep("a"))
    env.process(via_sleep_until("b"))
    env.process(via_sleep("c"))
    env.process(via_sleep_until("d"))
    env.run()
    assert order == ["a", "b", "c", "d"]


def test_reserved_key_fires_where_a_sleep_created_at_reservation_would():
    def run(reserve):
        env = Environment()
        order = []

        def mark(name):
            return lambda _event: order.append(name)

        env.sleep(1.0).callbacks.append(mark("a"))
        if reserve:
            key = env.reserve_key()
        else:
            env.sleep(1.0).callbacks.append(mark("b"))
        env.sleep(1.0).callbacks.append(mark("c"))

        def late():
            yield env.sleep(0.5)
            env.sleep(0.5).callbacks.append(mark("d"))
            if reserve:
                # Scheduled last, fires in the place its key was taken.
                env.sleep_until(1.0, key).callbacks.append(mark("b"))

        env.process(late())
        env.run()
        return order

    assert run(reserve=True) == run(reserve=False) == ["a", "b", "c", "d"]


def test_sleep_until_rejects_a_key_that_was_never_reserved():
    env = Environment()
    key = env.reserve_key()
    with pytest.raises(ValueError, match="never reserved"):
        env.sleep_until(1.0, key + 1)  # past the id counter
    with pytest.raises(ValueError, match="never reserved"):
        env.sleep_until(1.0, 1)  # not a key reserve_key hands out
    late = Environment(2.0)
    with pytest.raises(ValueError, match="in the past"):
        late.sleep_until(1.0, late.reserve_key())
    env.sleep_until(1.0, key)
    env.run()
    assert env.now == 1.0


def test_events_processed_counts_every_event():
    env = Environment()

    def proc():
        for _ in range(5):
            yield env.timeout(1.0)

    env.process(proc())
    env.run()
    # 1 Initialize + 5 timeouts + 1 process-completion event.
    assert env.events_processed == 7


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ["a", "b", "c"]:
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_yield_already_processed_event_resumes():
    env = Environment()
    done = env.event()
    done.succeed("early")
    log = []

    def proc():
        value = yield done
        log.append(value)

    env.process(proc())
    env.run()
    assert log == ["early"]


def test_all_of_collects_values_in_order():
    env = Environment()
    results = []

    def proc():
        events = [env.timeout(3.0, "slow"), env.timeout(1.0, "fast")]
        values = yield env.all_of(events)
        results.append((env.now, values))

    env.process(proc())
    env.run()
    assert results == [(3.0, ["slow", "fast"])]


def test_all_of_empty_succeeds_immediately():
    env = Environment()
    results = []

    def proc():
        values = yield env.all_of([])
        results.append(values)

    env.process(proc())
    env.run()
    assert results == [[]]


def test_any_of_returns_first():
    env = Environment()
    results = []

    def proc():
        index, value = yield env.any_of([env.timeout(3.0, "slow"), env.timeout(1.0, "fast")])
        results.append((env.now, index, value))

    env.process(proc())
    env.run()
    assert results == [(1.0, 1, "fast")]


def test_interrupt_raises_inside_process():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except ProcessInterrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def attacker(target):
        yield env.timeout(5.0)
        target.interrupt(cause="misspec")

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert log == [(5.0, "misspec")]


def test_process_cannot_interrupt_itself():
    # Regression: the guard must compare the Process object itself, not
    # its resume-target event — interrupting another process from inside
    # a process is legal, interrupting yourself is not.
    env = Environment()
    errors = []

    def selfish():
        yield env.timeout(1.0)
        try:
            handle.interrupt(cause="oops")
        except SimulationError as exc:
            errors.append(str(exc))

    handle = env.process(selfish())
    env.run()
    assert errors == ["a process cannot interrupt itself"]


def test_process_can_interrupt_other_at_same_instant():
    # Companion to the self-interrupt guard: a *different* process is
    # interruptible even while the interrupter is the active process.
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except ProcessInterrupt as interrupt:
            log.append(interrupt.cause)

    def attacker(target):
        yield env.timeout(1.0)
        target.interrupt(cause="ok")

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert log == ["ok"]


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except ProcessInterrupt:
            pass
        yield env.timeout(1.0)
        log.append(env.now)

    def attacker(target):
        yield env.timeout(5.0)
        target.interrupt()

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert log == [6.0]


def test_run_until_event_that_never_triggers_deadlocks():
    env = Environment()
    never = env.event()

    def quick():
        yield env.timeout(1.0)

    env.process(quick())
    with pytest.raises(DeadlockError):
        env.run(until=never)


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(DeadlockError):
        env.step()


def test_nested_process_waits_for_child():
    env = Environment()
    log = []

    def child():
        yield env.timeout(2.0)
        return "child-result"

    def parent():
        result = yield env.process(child())
        log.append((env.now, result))

    env.process(parent())
    env.run()
    assert log == [(2.0, "child-result")]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4.0)
    assert env.peek() == 4.0


def test_peek_empty_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def test_deadlock_error_names_blocked_processes():
    """The deadlock report names every live process, where its generator
    is suspended, and what it waits on — the debuggability contract for
    hangs introduced by dropped or misrouted messages."""
    env = Environment()
    never = env.event()

    def consumer():
        yield never

    def idler():
        yield env.timeout(1.0)
        yield env.event()

    env.process(consumer(), name="commit-inbox-reader")
    env.process(idler())  # unnamed: falls back to the generator name
    with pytest.raises(DeadlockError) as excinfo:
        env.run(until=env.event())  # "run to completion" that never comes
    message = str(excinfo.value)
    assert "2 process(es) still blocked" in message
    assert "commit-inbox-reader" in message
    assert "idler" in message  # generator-name fallback
    assert "waiting on" in message
    assert "consumer:" in message  # suspension site of the named process


def test_deadlock_report_walks_into_nested_generators():
    env = Environment()

    def inner():
        yield env.event()

    def outer():
        yield from inner()

    env.process(outer(), name="outer-unit")
    with pytest.raises(DeadlockError) as excinfo:
        env.run(until=env.event())
    # The innermost suspended frame is reported, not the delegating one.
    assert "inner:" in str(excinfo.value)


def test_deadlock_report_caps_its_length():
    env = Environment()

    def blocked():
        yield env.event()

    for index in range(20):
        env.process(blocked(), name=f"p{index}")
    report = env.blocked_report(limit=16)
    assert "... and 4 more" in report


def test_blocked_report_is_empty_without_processes():
    assert Environment().blocked_report() == ""

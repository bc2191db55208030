"""Discrete-event simulation kernel.

A minimal but complete process-based discrete-event engine in the style of
SimPy, built from scratch so the reproduction has no dependency beyond the
standard library.  Processes are Python generators that ``yield`` events;
the :class:`Environment` advances a virtual clock and resumes processes as
the events they wait on trigger.

Design notes
------------
* Time is a ``float`` in **seconds**.  Computation expressed in CPU cycles
  is converted by the cluster layer (``cycles / clock_hz``).
* Events scheduled for the same instant fire in scheduling (FIFO) order,
  which makes runs fully deterministic.  An event scheduled at a key
  from :meth:`Environment.reserve_key` fires in its reservation's place.
* A process may be interrupted: :meth:`Process.interrupt` throws a
  :class:`~repro.errors.ProcessInterrupt` into the generator at the point
  of its current ``yield``.
* A :class:`Handoff` folds a waiter's wake-up into the fixed cost the
  waiter pays next, when that moves no other event in time or order.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import (
    DeadlockError,
    EventAlreadyTriggered,
    ProcessInterrupt,
    SimulationError,
)

__all__ = ["Environment", "Event", "Timeout", "Handoff", "Process", "PENDING"]

#: Sentinel for an event value that has not been set yet.
PENDING = object()

#: Priority bias folded into the heap key.  A heap entry is
#: ``(time, key, event)`` with ``key = eid`` for priority-0 events
#: (interrupts) and ``key = eid + _P1`` for everything else — the exact
#: lexicographic order of the old ``(time, priority, eid)`` key with one
#: fewer tuple element to build and compare per event.
_P1 = 1 << 62


class Event:
    """An occurrence in simulated time that processes may wait for.

    An event starts *pending*, is *triggered* exactly once (either
    :meth:`succeed` with a value or :meth:`fail` with an exception), and is
    *processed* when the environment has run its callbacks.

    Events are the unit of work of the hot loop, so the class is slotted
    and every state flag — including ``_defused`` — is a real attribute:
    the step loop reads them without ``getattr`` fallbacks or property
    descriptors.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: A failed event raises out of the step loop unless some handler
        #: marked the failure as taken care of.  True here means "nothing
        #: to surface"; :meth:`fail` arms it.
        self._defused = True

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (ok or failed)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the environment has executed the callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined Environment._enqueue: succeed() fires for every
        # resource grant and store hand-off, so the extra call counts.
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now, eid + _P1, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure; waiters will see it raised."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._defused = False
        self.env._enqueue(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed.

        If the event was already processed, the callback runs immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` seconds."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__ and Environment._enqueue inlined; timeouts are
        # the most-constructed event kind of a run.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = True
        self.delay = delay
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now + delay, eid + _P1, self))


class Handoff(Event):
    """An event whose waiting process pays a fixed cost as soon as it
    resumes, as in ``value = yield handoff`` followed by a ``seconds``
    long sleep; :meth:`repro.sim.resources.Store.get_priced` makes one.

    Triggered while the environment processes an event, the handoff is
    settled once that event is done.  If it would be the next event to
    run, it fires once, at trigger time + ``seconds``, with the key that
    the process's sleep would have taken; ``pay()`` accounts the cost at
    trigger time and ``paid`` is set, so the process must not sleep
    again.  Otherwise, or with no waiting process, it fires at trigger
    time with the key :meth:`succeed` took, like any event, and the
    process pays with its own sleep.  Either way every later event keeps
    its time and its order; only the wake-up between the two is gone.
    """

    __slots__ = ("seconds", "pay", "paid", "_key")

    def __init__(self, env: "Environment", seconds: float, pay: Callable[[], Any]) -> None:
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = True
        self.seconds = seconds
        self.pay = pay
        #: True once the handoff fired after the cost (the process paid).
        self.paid = False

    def succeed(self, value: Any = None) -> "Handoff":
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid = eid = env._eid + 1
        # A zero cost has no sleep to fold into the wake-up.
        if env._stepping and self.seconds > 0:
            self._key = eid + _P1
            env._handoffs.append(self)
        else:
            heappush(env._queue, (env._now, eid + _P1, self))
        return self


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = True
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now, eid + _P1, self))


class Process(Event):
    """A running process: wraps a generator and is itself an event that
    triggers when the generator returns (value = return value) or raises
    (failure).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(env)
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self._generator = generator
        self._target: Optional[Event] = None
        #: Optional label used by deadlock diagnostics.
        self.name = name
        env._processes[self] = None
        Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process at its current
        ``yield``.  Interrupting a finished process is an error.
        """
        if self._value is not PENDING:
            raise SimulationError("cannot interrupt a finished process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = ProcessInterrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env._enqueue(interrupt_event, priority=0)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or failure) of ``event``."""
        env = self.env
        env._active = self
        # Detach from whatever we were waiting on so a late trigger of the
        # old target (after an interrupt) does not resume us twice.
        if self._target is not None and self._target is not event:
            try:
                self._target.callbacks.remove(self._resume)
            except (ValueError, AttributeError):
                pass
        self._target = None
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active = None
            env._processes.pop(self, None)
            self._ok = True
            self._value = stop.value
            env._eid = eid = env._eid + 1
            heappush(env._queue, (env._now, eid + _P1, self))
            return
        except BaseException as exc:
            env._active = None
            env._processes.pop(self, None)
            self._ok = False
            self._value = exc
            self._defused = False
            env._enqueue(self)
            return
        env._active = None
        try:
            target_callbacks = next_event.callbacks
        except AttributeError:
            raise SimulationError(
                f"process yielded a non-event: {next_event!r} "
                "(processes must yield Event instances)"
            ) from None
        if target_callbacks is None:
            # Already processed: resume immediately at the current time.
            bridge = Event(env)
            bridge._ok = next_event._ok
            bridge._value = next_event._value
            if not next_event._ok:
                bridge._defused = True
            bridge.callbacks.append(self._resume)
            env._enqueue(bridge)
            self._target = bridge
        else:
            target_callbacks.append(self._resume)
            self._target = next_event


class Environment:
    """The simulation environment: virtual clock plus event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active: Optional[Process] = None
        #: Observability hub (:class:`repro.obs.Observability`) if one is
        #: attached; instrumentation hooks across the cluster layer read
        #: this and do nothing while it is ``None``.
        self.obs = None
        #: Chaos fault-injection engine (:class:`repro.chaos.ChaosEngine`)
        #: if one is attached; the wire-level hooks in the cluster layer
        #: read this and do nothing while it is ``None`` — the same
        #: zero-cost-when-disabled pattern as ``obs``.
        self.chaos = None
        #: Live processes, in creation order (deadlock diagnostics).
        self._processes: dict[Process, None] = {}
        #: Hooks invoked with each processed event (see ``repro.sim.trace``).
        self._step_listeners: list[Callable[[Event], None]] = []
        #: Events processed so far (perfbench reports it as ``sim.engine.events``).
        self.events_processed = 0
        #: True while an event is being processed.
        self._stepping = False
        #: Handoffs triggered by the event being processed, settled when
        #: it is done (see :class:`Handoff`).
        self._handoffs: list[Handoff] = []

    # -- introspection ----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Timeout:
        """Fast-path timeout: a bare delay with no value payload.

        Semantically identical to ``timeout(delay)`` but built without
        the :class:`Event` constructor chain — the cluster layer
        schedules one of these for every compute burst and wire
        serialization, which makes it the single most-allocated object
        of a run.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._value = None
        timeout._ok = True
        timeout._defused = True
        timeout.delay = delay
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now + delay, eid + _P1, timeout))
        return timeout

    def reserve_key(self) -> int:
        """Consume the next creation id and return the heap key that a
        :meth:`sleep` created at this point would get.

        Pass it to :meth:`sleep_until` later: the event then fires where
        a sleep created at reservation time would have, among the events
        of its instant.  Keys stay one counter; a reserved key only lets
        an event keep the position its creation time gave it.
        """
        self._eid = eid = self._eid + 1
        return eid + _P1

    def sleep_until(self, when: float, key: Optional[int] = None) -> Timeout:
        """A bare timeout that fires at the absolute time ``when``.

        Fuses back-to-back waits into one event:
        ``sleep_until((now + a) + b)`` fires at the very float instant
        that ``sleep(a)`` followed by ``sleep(b)`` reaches.  Among events
        of the same time it keeps FIFO order by creation, like
        :meth:`sleep`.  With a ``key`` from :meth:`reserve_key` it takes
        that key's place in the order instead of a fresh one; each
        reserved key may be scheduled once.
        """
        now = self._now
        if when < now:
            raise ValueError(f"sleep_until({when!r}) is in the past (now={now!r})")
        if key is None:
            self._eid = eid = self._eid + 1
            key = eid + _P1
        elif not _P1 < key <= self._eid + _P1:
            raise ValueError(f"sleep_until key {key!r} was never reserved")
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._value = None
        timeout._ok = True
        timeout._defused = True
        timeout.delay = when - now
        heappush(self._queue, (when, key, timeout))
        return timeout

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process running ``generator``.

        ``name`` labels the process in deadlock diagnostics.
        """
        return Process(self, generator, name)

    def blocked_report(self, limit: int = 16) -> str:
        """One line per live process: who it is, where its generator is
        suspended, and what event it waits on.  Empty string if no
        process is alive — the substance of every :class:`DeadlockError`
        this environment raises."""
        lines = []
        for process in self._processes:
            if len(lines) >= limit:
                lines.append(f"  ... and {len(self._processes) - limit} more")
                break
            label = process.name or process._generator.gi_code.co_name
            # Walk the yield-from chain to the innermost suspended frame:
            # that is where the process is actually blocked.
            gen = process._generator
            while getattr(gen, "gi_yieldfrom", None) is not None and hasattr(
                gen.gi_yieldfrom, "gi_frame"
            ):
                gen = gen.gi_yieldfrom
            frame = getattr(gen, "gi_frame", None)
            if frame is not None:
                where = f"{gen.gi_code.co_name}:{frame.f_lineno}"
            else:
                where = "<not started>"
            target = process._target
            waiting = "nothing (never resumed)" if target is None else repr(target)
            lines.append(f"  {label} suspended at {where}, waiting on {waiting}")
        return "\n".join(lines)

    def _deadlock(self, headline: str) -> DeadlockError:
        detail = self.blocked_report()
        if detail:
            return DeadlockError(
                f"{headline}; {len(self._processes)} process(es) still "
                f"blocked:\n{detail}"
            )
        return DeadlockError(headline)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Event that succeeds when every event in ``events`` has succeeded.

        Its value is the list of the constituent events' values, in order.
        A failure of any constituent fails the combined event immediately.
        """
        events = list(events)
        combined = self.event()
        remaining = [len(events)]
        if not events:
            combined.succeed([])
            return combined

        def on_done(event: Event) -> None:
            if combined.triggered:
                return
            if not event._ok:
                event._defused = True
                combined.fail(event._value)
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                combined.succeed([e._value for e in events])

        for e in events:
            e.add_callback(on_done)
        return combined

    def any_of(self, events: Iterable[Event]) -> Event:
        """Event that succeeds as soon as any constituent succeeds.

        Its value is ``(index, value)`` of the first event to trigger.
        """
        events = list(events)
        combined = self.event()
        if not events:
            combined.succeed((None, None))
            return combined

        def make_callback(index: int) -> Callable[[Event], None]:
            def on_done(event: Event) -> None:
                if combined.triggered:
                    if not event._ok:
                        event._defused = True
                    return
                if event._ok:
                    combined.succeed((index, event._value))
                else:
                    event._defused = True
                    combined.fail(event._value)

            return on_done

        for i, e in enumerate(events):
            e.add_callback(make_callback(i))
        return combined

    # -- scheduling / execution --------------------------------------------

    def _enqueue(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        self._eid = eid = self._eid + 1
        if priority:
            eid += _P1
        heappush(self._queue, (self._now + delay, eid, event))

    def triggered_event(self, value: Any = None) -> Event:
        """A fresh event that is already triggered ok with ``value``.

        Equivalent to ``Event(env).succeed(value)`` in one step — the
        resources layer grants most requests immediately, so this path
        runs per store hand-off and resource grant.
        """
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = True
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now, eid + _P1, event))
        return event

    def add_step_listener(self, listener: Callable[[Event], None]) -> None:
        """Register ``listener`` to observe every processed event."""
        self._step_listeners.append(listener)

    def remove_step_listener(self, listener: Callable[[Event], None]) -> None:
        """Unregister a step listener; missing listeners are ignored."""
        try:
            self._step_listeners.remove(listener)
        except ValueError:
            pass

    def _settle_handoffs(self, fuse: bool = True) -> None:
        """Schedule the handoffs that the event just processed triggered.

        A handoff that would run next, before anything else due now,
        would only resume its process for the process to sleep: it fires
        after the sleep instead, keyed with the next creation id, which
        is the id the sleep would have taken because nothing runs in
        between.  Handoffs settle in trigger order.  With ``fuse`` off
        (an exception cut the event short) every handoff fires as a
        plain event.
        """
        queue = self._queue
        now = self._now
        for handoff in self._handoffs:
            key = handoff._key
            if fuse and handoff.callbacks and (
                not queue or queue[0][0] > now or queue[0][1] > key
            ):
                handoff.pay()
                handoff.paid = True
                self._eid = eid = self._eid + 1
                heappush(queue, (now + handoff.seconds, eid + _P1, handoff))
            else:
                heappush(queue, (now, key, handoff))
        self._handoffs.clear()

    def step(self) -> None:
        """Process the single next event, advancing the clock."""
        if not self._queue:
            raise self._deadlock("event queue is empty")
        when, _key, event = heapq.heappop(self._queue)
        self._now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        self._stepping = True
        try:
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                # A failed event that nobody handled: surface the error.
                raise event._value
            if self._step_listeners:
                for listener in self._step_listeners:
                    listener(event)
            if self._handoffs:
                self._settle_handoffs()
        finally:
            self._stepping = False
            if self._handoffs:
                self._settle_handoffs(fuse=False)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a time
        (run until the clock would pass it), or an :class:`Event` (run
        until that event is processed; its value is returned).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(f"until={stop_time} is in the past (now={self._now})")

        # The fused step loop.  One iteration here is :meth:`step` with
        # the per-event overhead stripped: the queue, heappop, and the
        # listener list are locals, the stop checks read slots directly
        # instead of going through properties, and the processed-event
        # count is flushed once at exit.  Listener registration mutates
        # ``_step_listeners`` in place, so the local alias stays live.
        # The loop body is replicated per stop mode so the common modes
        # (run to an event, run until the queue drains) pay no per-event
        # checks for the stop conditions they cannot hit.  Each event
        # ends by settling the handoffs it triggered.
        queue = self._queue
        listeners = self._step_listeners
        handoffs = self._handoffs
        settle = self._settle_handoffs
        processed = 0
        self._stepping = True
        try:
            if stop_time != float("inf"):
                while queue:
                    if stop_event is not None and stop_event.callbacks is None:
                        break
                    when = queue[0][0]
                    if when > stop_time:
                        self._now = stop_time
                        return None
                    event = heappop(queue)[2]
                    self._now = when
                    processed += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        # A failed event that nobody handled: surface it.
                        raise event._value
                    if listeners:
                        for listener in listeners:
                            listener(event)
                    if handoffs:
                        settle()
            elif stop_event is not None:
                while queue:
                    if stop_event.callbacks is None:
                        break
                    item = heappop(queue)
                    self._now = item[0]
                    event = item[2]
                    processed += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    if listeners:
                        for listener in listeners:
                            listener(event)
                    if handoffs:
                        settle()
            else:
                while queue:
                    item = heappop(queue)
                    self._now = item[0]
                    event = item[2]
                    processed += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    if listeners:
                        for listener in listeners:
                            listener(event)
                    if handoffs:
                        settle()
        finally:
            self.events_processed += processed
            self._stepping = False
            if handoffs:
                settle(fuse=False)

        if stop_event is not None:
            if not stop_event.triggered:
                raise self._deadlock(
                    "simulation ended but the awaited event never triggered"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if until is not None and not isinstance(until, Event):
            self._now = stop_time
        return None

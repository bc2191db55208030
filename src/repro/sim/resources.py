"""Shared resources for the simulation kernel.

Three primitives cover everything the cluster and runtime layers need:

* :class:`Resource` — a counted resource (a NIC side, a queue's
  flow-control credits) granting exclusive slots in FIFO order.
* :class:`Store` — an unbounded-or-bounded FIFO of items with blocking
  ``put``/``get``; the basis of message queues.
* :class:`Barrier` — an N-party synchronization barrier, used by the
  misspeculation recovery protocol (paper section 4.3).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.errors import ChannelFlushedError, SimulationError
from repro.sim.engine import Environment, Event, Handoff

__all__ = ["Resource", "Store", "Barrier"]


class Resource:
    """A counted resource granting up to ``capacity`` concurrent users.

    Usage from a process::

        holder = resource.acquire_nowait()
        if holder is None:
            holder = resource.request()
            yield holder
        try:
            ...  # hold the resource
        finally:
            resource.release(holder)

    A free slot is taken synchronously, with no event; only a full
    resource makes the caller wait, in FIFO order, on a ``request()``
    event.  Plain ``yield resource.request()`` also works and takes one
    trip through the event queue even when a slot is free.
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        #: Holders of a slot: granted request events and nowait tokens.
        self._users: set[object] = set()
        self._waiting: Deque[Event] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def acquire_nowait(self) -> Optional[object]:
        """Take a free slot now, without an event.

        Returns a holder token that :meth:`release` accepts, or ``None``
        when every slot is held.  A free slot means nobody is waiting
        (a release hands its slot straight to the oldest waiter), so
        this never jumps the FIFO queue of :meth:`request`.
        """
        users = self._users
        if len(users) < self.capacity:
            token = object()
            users.add(token)
            return token
        return None

    def request(self) -> Event:
        """Return an event that succeeds when a slot is granted."""
        if len(self._users) < self.capacity:
            request = self.env.triggered_event()
            self._users.add(request)
        else:
            request = Event(self.env)
            self._waiting.append(request)
        return request

    def release(self, request: object) -> None:
        """Release the slot held by ``request`` (a request event or an
        :meth:`acquire_nowait` token)."""
        users = self._users
        try:
            users.remove(request)
        except KeyError:
            # Releasing a never-granted (still waiting) request cancels it.
            try:
                self._waiting.remove(request)
                return
            except ValueError:
                raise SimulationError("release of a request that holds no slot") from None
        if self._waiting and len(users) < self.capacity:
            nxt = self._waiting.popleft()
            users.add(nxt)
            nxt.succeed()


class Store:
    """A FIFO store of items with blocking ``put`` and ``get``.

    ``capacity`` bounds the number of items held; ``put`` on a full store
    blocks until space frees up.  :meth:`flush` discards all items and
    fails every pending ``get`` and ``put`` with
    :class:`~repro.errors.ChannelFlushedError` — the mechanism behind
    queue flushing during misspeculation recovery.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def level(self) -> int:
        """Number of items currently stored."""
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Return an event that succeeds once ``item`` is in the store."""
        if self._getters:
            # Hand the item straight to the longest-waiting getter.
            self._getters.popleft().succeed(item)
            return self.env.triggered_event()
        if len(self.items) < self.capacity:
            self.items.append(item)
            return self.env.triggered_event()
        event = Event(self.env)
        self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        if self.items:
            event = self.env.triggered_event(self.items.popleft())
            if self._putters:
                put_event, item = self._putters.popleft()
                self.items.append(item)
                put_event.succeed()
            return event
        event = Event(self.env)
        self._getters.append(event)
        return event

    def get_priced(self, seconds: float, pay: Callable[[], Any]) -> Handoff:
        """:meth:`get` for a getter that spends ``seconds`` of work as
        soon as it has the item, with ``pay()`` accounting that work.

        The returned :class:`~repro.sim.engine.Handoff` fires once, after
        the work, when that is exactly what a plain get and a separate
        sleep would have done; then its ``paid`` is set.  Otherwise it
        fires like a plain get and the caller sleeps ``seconds`` itself.
        """
        handoff = Handoff(self.env, seconds, pay)
        if self.items:
            handoff.succeed(self.try_get()[1])
        else:
            self._getters.append(handoff)
        return handoff

    def put_nowait(self, item: Any) -> None:
        """Deposit ``item`` without allocating a put-acknowledge event.

        The fast path of the message-delivery layer: nobody ever waits
        on a network delivery's put, so the ack event of :meth:`put`
        (and its trip through the event queue) is pure overhead there.
        Only valid when the store has room; a bounded store that is full
        raises ``SimulationError`` rather than blocking.
        """
        if self._getters:
            # Hand the item straight to the longest-waiting getter.
            self._getters.popleft().succeed(item)
        elif len(self.items) < self.capacity:
            self.items.append(item)
        else:
            raise SimulationError("put_nowait on a full store")

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if not self.items:
            return False, None
        item = self.items.popleft()
        if self._putters:
            put_event, queued = self._putters.popleft()
            self.items.append(queued)
            put_event.succeed()
        return True, item

    def flush(self) -> int:
        """Discard all items; abort blocked getters and putters.

        Returns the number of items discarded.
        """
        discarded = len(self.items)
        self.items.clear()
        while self._getters:
            getter = self._getters.popleft()
            # An event with no callbacks is an orphan: its process was
            # interrupted (or killed by a node crash) and detached after
            # blocking here.  Failing it would raise unhandled out of
            # the engine loop, so orphans are silently dropped.
            if not getter.triggered and getter.callbacks:
                getter.fail(ChannelFlushedError("store flushed"))
        while self._putters:
            put_event, _item = self._putters.popleft()
            discarded += 1
            if not put_event.triggered and put_event.callbacks:
                put_event.fail(ChannelFlushedError("store flushed"))
        return discarded


class Barrier:
    """An N-party reusable barrier.

    Each party calls :meth:`wait` and yields the returned event; once all
    ``parties`` have arrived the barrier releases every waiter (value =
    generation number) and resets for the next generation.
    """

    def __init__(self, env: Environment, parties: int) -> None:
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.env = env
        self.parties = parties
        self.generation = 0
        self._waiting: list[tuple[Event, Any]] = []

    @property
    def arrived(self) -> int:
        """Number of parties currently waiting at the barrier."""
        return len(self._waiting)

    def wait(self, owner: Any = None) -> Event:
        """Arrive at the barrier; returns an event for the release.

        ``owner`` identifies the arriving party so a failed party's
        arrival can later be withdrawn with :meth:`drop`.
        """
        event = self.env.event()
        self._waiting.append((event, owner))
        self._maybe_release()
        return event

    def drop(self, owner: Any) -> bool:
        """Withdraw ``owner``'s pending arrival (the party died at the
        barrier).  Returns True if an arrival was removed.  Does not
        change ``parties`` — pair with :meth:`set_parties`."""
        for i, (_event, waiting_owner) in enumerate(self._waiting):
            if waiting_owner is not None and waiting_owner == owner:
                del self._waiting[i]
                return True
        return False

    def set_parties(self, parties: int) -> None:
        """Resize the barrier (degraded-mode restart after a node loss);
        releases immediately if the survivors have all arrived."""
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.parties = parties
        self._maybe_release()

    def _maybe_release(self) -> None:
        if len(self._waiting) >= self.parties:
            generation = self.generation
            self.generation += 1
            waiting, self._waiting = self._waiting, []
            for waiter, _owner in waiting:
                waiter.succeed(generation)

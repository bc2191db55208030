"""Reliable transport for unit traffic (fault-tolerant mode).

The simulated wire is FIFO and lossless by construction, so the baseline
runtime sends envelopes raw.  Under fault injection the wire may drop or
duplicate messages, and a node crash silently discards everything in
flight to or from it — so when :attr:`SystemConfig.fault_tolerance` is
on, every envelope bound for a unit inbox is wrapped in a
:class:`~repro.core.messages.Frame` carrying a per-(src, dst) sequence
number, and the destination's inbox is fronted by an :class:`IngestBox`:

* **dedup / reorder** — a frame below the expected sequence number is a
  duplicate and is dropped; one above it is parked in a reorder buffer;
  the expected frame is unwrapped into the real inbox (so the
  :class:`~repro.core.endpoint.Endpoint` machinery above is unchanged).
* **cumulative ack** — every ingested frame sends the sender a small ack
  on the management path: everything up to the highest in-order
  sequence number has arrived.
* **retransmit** — the sender keeps unacknowledged frames and re-sends
  one that is still unacked when its timer expires, with capped
  exponential backoff (:attr:`ClusterSpec.retransmit_timeout_s` /
  :attr:`~ClusterSpec.retransmit_backoff` /
  :attr:`~ClusterSpec.retransmit_timeout_cap_s`), giving up after
  :attr:`~ClusterSpec.max_retransmits` attempts (by which point the
  failure detector has declared the destination dead).

Acks and retransmissions travel the *management path*: a latency-only
delivery that bypasses NIC serialization, modelling the dedicated
low-volume control network real clusters run alongside the data fabric.
Their cost is therefore pure latency, never core time — which also
keeps the transport's bookkeeping off the units' critical paths.

Timers and acks cost an event only when a timer can act:

* **reserved keys** — every timer takes its heap key when it is
  created (:meth:`~repro.sim.Environment.reserve_key`), even if it is
  scheduled later, so it fires at the ``(time, key)`` of the sleep it
  replaces.
* **lazy acks** — fault injection never touches the management path, so
  an ack's arrival is fixed when it is sent.  :meth:`~ReliableTransport.send_ack`
  records ``(arrival, mark, upto)`` on the sender's link, ``mark``
  being the last timer key reserved so far, and schedules nothing.  A
  timer of that link applies, before it reads the unacked frames,
  exactly the acks whose delivery would have run before it: those
  arriving earlier, and those arriving at its instant that were sent
  before its key was reserved (``mark < key``).
* **one alarm per link** — a frame's first deadline is
  ``(stamp time + rto, key)``.  These pairs only grow along a link, so
  the link queues them and keeps one alarm at the earliest unresolved
  pair.  The alarm skips frames acked by then, runs the timer of a
  frame still unacked at its own pair, and re-arms at the next.
  Retransmit timers (attempt ≥ 1) stay one sleep each.

A timer that acts fires at the float instant and key a per-frame timer
would have had, and one that would find its frame acked did nothing, so
runs are event-for-event those of one timer per frame and one delivery
per ack, minus the events that did nothing.

With ``fault_tolerance`` off, none of this is constructed and the send
paths pay a single ``is None`` check (the obs-layer pattern).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.cluster.interconnect import _Delivery
from repro.core.integrity import CHECKSUM_BYTES, payload_checksum
from repro.core.messages import FRAME_HEADER_BYTES, Frame

__all__ = ["ReliableTransport", "IngestBox"]


class _SenderLink:
    """Sender-side state of one directed (src_tid, dst_tid) link."""

    __slots__ = ("next_seq", "unacked", "acked", "acks", "deadlines", "armed")

    def __init__(self) -> None:
        self.next_seq = 0
        #: seq -> (frame, wire_bytes); present until cumulatively acked.
        self.unacked: dict[int, tuple[Frame, int]] = {}
        #: Highest cumulative ack applied to ``unacked``.
        self.acked = -1
        #: Acks sent but not yet applied, ``(arrival, mark, upto)`` in
        #: arrival order.  Each raises ``upto``: an ack that would not
        #: is redundant and never recorded.
        self.acks: deque[tuple[float, int, int]] = deque()
        #: First-attempt deadlines ``(time, key, seq)`` in stamp order,
        #: which is (time, key) order: the first timeout is constant.
        self.deadlines: deque[tuple[float, int, int]] = deque()
        #: True while the link's alarm is scheduled.
        self.armed = False


class IngestBox:
    """Store-shaped receiver front-end for one destination unit.

    Passed as the ``mailbox`` of wire deliveries: the delivery calls
    :meth:`put_nowait` exactly as it would on the real inbox.  Frames
    are deduplicated, reordered, acknowledged, and unwrapped into the
    real inbox; anything from a crashed source node is dropped (the
    in-flight-loss semantics of a crash).
    """

    __slots__ = (
        "transport", "dst_tid", "inbox", "_expected", "_reorder",
        "_corrupt_seen",
    )

    def __init__(self, transport: "ReliableTransport", dst_tid: int, inbox: Any) -> None:
        self.transport = transport
        self.dst_tid = dst_tid
        self.inbox = inbox
        #: Per-source next-expected sequence number.
        self._expected: dict[int, int] = {}
        #: Per-source out-of-order frames: src_tid -> {seq: payload}.
        self._reorder: dict[int, dict[int, Any]] = {}
        #: (src_tid, seq) of frames dropped for checksum mismatch; an
        #: intact later arrival of the same frame counts as a repair.
        self._corrupt_seen: set[tuple[int, int]] = set()

    def put_nowait(self, frame: Frame) -> None:
        transport = self.transport
        src = frame.src_tid
        if transport.is_dead_unit(src) or transport.is_dead_unit(self.dst_tid):
            transport.stats.ft_frames_from_dead_dropped += 1
            return
        seq = frame.seq
        if transport.integrity and frame.checksum != -1:
            if payload_checksum(frame.payload) != frame.checksum:
                # Detection converts silent corruption into loss: the
                # frame is dropped unacknowledged, and the sender's
                # retransmit timer re-delivers the intact original (the
                # unacked buffer aliases the uncorrupted frame).
                transport.stats.ft_corruptions_detected += 1
                self._corrupt_seen.add((src, seq))
                obs = transport.system.obs
                if obs is not None:
                    from repro.obs.tracer import CAT_INTEGRITY, PID_RUNTIME

                    obs.tracer.instant(
                        CAT_INTEGRITY, "frame_checksum_mismatch",
                        PID_RUNTIME, self.dst_tid, src=src, seq=seq,
                    )
                    obs.metrics.counter("integrity.frames_dropped").inc()
                return
            if self._corrupt_seen and (src, seq) in self._corrupt_seen:
                self._corrupt_seen.discard((src, seq))
                transport.stats.ft_corruptions_repaired += 1
                obs = transport.system.obs
                if obs is not None:
                    obs.metrics.counter("integrity.frames_repaired").inc()
        expected = self._expected.get(src, 0)
        if seq < expected:
            transport.stats.ft_duplicates_dropped += 1
        elif seq == expected:
            self.inbox.put_nowait(frame.payload)
            expected += 1
            parked = self._reorder.get(src)
            if parked:
                while expected in parked:
                    self.inbox.put_nowait(parked.pop(expected))
                    expected += 1
            self._expected[src] = expected
        else:
            parked = self._reorder.setdefault(src, {})
            if seq in parked:
                transport.stats.ft_duplicates_dropped += 1
            else:
                parked[seq] = frame.payload
                transport.stats.ft_frames_reordered += 1
        transport.send_ack(src, self.dst_tid, expected - 1)

    def forget_source(self, src_tid: int) -> None:
        """Drop reorder state from a source declared dead."""
        self._reorder.pop(src_tid, None)


class ReliableTransport:
    """All sender links, ingest boxes, and retransmit timers of a run."""

    def __init__(self, system: "DSMTXSystem") -> None:  # noqa: F821
        self.system = system
        self.env = system.env
        self.stats = system.stats
        spec = system.cluster
        self._rto = spec.retransmit_timeout_s
        self._backoff = spec.retransmit_backoff
        self._rto_cap = spec.retransmit_timeout_cap_s
        self._max_retransmits = spec.max_retransmits
        #: Checksum mode (``SystemConfig.integrity``): stamp a CRC32 on
        #: every frame, verify at every ingest.
        self.integrity = system.config.integrity
        #: Wire bytes the checksum adds per frame (0 when integrity is
        #: off).  Senders that already price the frame header themselves
        #: add just this.
        self.checksum_bytes = CHECKSUM_BYTES if self.integrity else 0
        #: Wire bytes the transport adds per framed envelope — the frame
        #: header, plus the checksum when integrity is on.  Callers add
        #: this instead of ``FRAME_HEADER_BYTES`` so both modes price
        #: their actual framing.
        self.extra_bytes = FRAME_HEADER_BYTES + self.checksum_bytes
        self._links: dict[tuple[int, int], _SenderLink] = {}
        self._boxes: dict[int, IngestBox] = {}
        #: (latency, bandwidth) of the wire between two units, cached.
        self._wire: dict[tuple[int, int], tuple[float, float]] = {}
        self._dead_tids: set[int] = set()
        #: The last timer key reserved: an ack sent now precedes, at its
        #: arrival instant, exactly the timers with a greater key.
        self._last_key = 0

    # -- topology helpers ----------------------------------------------------

    def ingest_box(self, dst_tid: int) -> IngestBox:
        box = self._boxes.get(dst_tid)
        if box is None:
            box = self._boxes[dst_tid] = IngestBox(
                self, dst_tid, self.system.inbox_of(dst_tid)
            )
        return box

    def _wire_of(self, src_tid: int, dst_tid: int) -> tuple[float, float]:
        wire = self._wire.get((src_tid, dst_tid))
        if wire is None:
            system = self.system
            wire = self._wire[(src_tid, dst_tid)] = system.cluster.wire_parameters(
                system.core_of(src_tid).index, system.core_of(dst_tid).index
            )
        return wire

    def is_dead_unit(self, tid: int) -> bool:
        return tid in self._dead_tids

    # -- sender side ---------------------------------------------------------

    def stamp(self, src_tid: int, dst_tid: int, envelope: Any, wire_bytes: int) -> Frame:
        """Wrap ``envelope`` in the next sequence-numbered frame on the
        (src, dst) link and queue its first retransmit deadline."""
        link = self._links.get((src_tid, dst_tid))
        if link is None:
            link = self._links[(src_tid, dst_tid)] = _SenderLink()
        seq = link.next_seq
        link.next_seq = seq + 1
        if self.integrity:
            frame = Frame(
                src_tid, dst_tid, seq, envelope, payload_checksum(envelope)
            )
        else:
            frame = Frame(src_tid, dst_tid, seq, envelope)
        link.unacked[seq] = (frame, wire_bytes)
        env = self.env
        when = env._now + self._rto
        self._last_key = key = env.reserve_key()
        link.deadlines.append((when, key, seq))
        if not link.armed:
            self._arm_alarm(link, when, key)
        return frame

    def _arm_alarm(self, link: _SenderLink, when: float, key: int) -> None:
        link.armed = True
        self.env.sleep_until(when, key).callbacks.append(
            lambda _event: self._on_alarm(link, when, key)
        )

    def _on_alarm(self, link: _SenderLink, when: float, key: int) -> None:
        """The link's alarm at the deadline ``(when, key)`` of its oldest
        queued frame: run that frame's first timer if it is still
        unacked, then re-arm at the next unacked frame's deadline."""
        self._apply_acks(link, when, key)
        deadlines = link.deadlines
        unacked = link.unacked
        while deadlines:
            deadline, deadline_key, seq = deadlines[0]
            if seq not in unacked:
                deadlines.popleft()
            elif deadline_key != key:
                self._arm_alarm(link, deadline, deadline_key)
                return
            elif self.system.state.done:
                return  # every timer is a no-op now: stay armed, never re-arm
            else:
                deadlines.popleft()
                self._expire(link, seq, self._rto, 0)
        link.armed = False

    def _on_retransmit_timer(
        self, link: _SenderLink, seq: int, when: float, key: int,
        timeout: float, attempt: int,
    ) -> None:
        self._apply_acks(link, when, key)
        if seq in link.unacked and not self.system.state.done:
            self._expire(link, seq, timeout, attempt)

    def _expire(self, link: _SenderLink, seq: int, timeout: float, attempt: int) -> None:
        """Timer ``attempt`` of frame ``seq``, still unacked: drop it if
        an end died or it ran out of attempts, else re-send it and arm
        the next attempt's timer."""
        frame, wire_bytes = link.unacked[seq]
        if frame.dst_tid in self._dead_tids or frame.src_tid in self._dead_tids:
            del link.unacked[seq]
            return
        if attempt >= self._max_retransmits:
            self.stats.ft_retransmit_giveups += 1
            del link.unacked[seq]
            return
        self.stats.ft_retransmits += 1
        latency, bandwidth = self._wire_of(frame.src_tid, frame.dst_tid)
        env = self.env
        # Management-path resend: latency-only, no NIC contention.
        _Delivery(
            env, None, wire_bytes, latency, bandwidth,
            self.ingest_box(frame.dst_tid), frame,
        )
        timeout = min(timeout * self._backoff, self._rto_cap)
        when = env._now + timeout
        self._last_key = key = env.reserve_key()
        env.sleep_until(when, key).callbacks.append(
            lambda _event: self._on_retransmit_timer(
                link, seq, when, key, timeout, attempt + 1
            )
        )

    def _apply_acks(self, link: _SenderLink, when: float, key: int) -> None:
        """Apply the link's acks that arrive before ``(when, key)``."""
        acks = link.acks
        upto = link.acked
        while acks:
            arrival, mark, ack_upto = acks[0]
            if arrival > when or (arrival == when and mark >= key):
                break
            acks.popleft()
            upto = ack_upto
        if upto > link.acked:
            # Cumulative: pop the seq prefix up to ``upto``.  Frames a
            # timer already dropped are gone from it.
            unacked = link.unacked
            for seq in range(link.acked + 1, upto + 1):
                unacked.pop(seq, None)
            link.acked = upto

    # -- receiver side -------------------------------------------------------

    def send_ack(self, src_tid: int, dst_tid: int, upto: int) -> None:
        """Cumulative ack from ``dst`` back to ``src`` (management path),
        recorded on the sender's link for its timers to apply."""
        self.stats.ft_acks += 1
        link = self._links.get((src_tid, dst_tid))
        if link is None:
            return
        acks = link.acks
        if upto > (acks[-1][2] if acks else link.acked):
            arrival = self.env._now + self._wire_of(dst_tid, src_tid)[0]
            acks.append((arrival, self._last_key, upto))

    # -- failover ------------------------------------------------------------

    def forget_units(self, dead_tids) -> None:
        """Degraded-mode restart: abandon every frame to or from the
        dead units and their reorder state; stop their retransmits."""
        self._dead_tids.update(dead_tids)
        for (src, dst), link in self._links.items():
            if src in self._dead_tids or dst in self._dead_tids:
                link.unacked.clear()
                # Pending acks can only name frames stamped before now.
                link.acks.clear()
                link.deadlines.clear()
        for box in self._boxes.values():
            for tid in dead_tids:
                box.forget_source(tid)

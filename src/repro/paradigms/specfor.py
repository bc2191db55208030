"""The ``speculative_for`` paradigm: round-based deterministic reservations.

A genuinely different conflict-resolution paradigm from the paper's
TLS / Spec-DSWP pipeline (the PBBS / parlaylib ``speculative_for``):
instead of optimistic run-ahead with squash-and-replay, each round takes
a *prefix* of the pending iterations and drives it through three phases
against the :class:`~repro.core.reservations.ReservationCommitService`:

1. **reserve** — every iteration computes, on the round-start snapshot,
   the shared slots it wants to mutate and reserves them with
   ``write_min`` (lowest iteration index wins);
2. **check** — an iteration wins iff it holds *every* slot it reserved;
3. **commit** — winners' write-sets are group-committed in iteration
   order; losers are carried into the next round.

Because ``write_min`` is commutative and every worker computes against
the same round-start snapshot, the set of winners — and therefore the
committed memory image, the round count, and every failure statistic —
depends only on the iteration space, never on worker count or message
arrival order.  Only the simulated *time* changes with workers.

Three entry points:

* :func:`speculative_for` — the pure host-level scheduler (no simulated
  cluster).  The reference model the property and equivalence tests
  compare everything against.
* :class:`SpecForSystem` — the simulated runtime: ``workers`` worker
  units plus one reservation-commit service unit on the
  :class:`~repro.core.runtime.ClusterSystem` shell DSMTX runs on too,
  with all protocol traffic priced through the interconnect.
* :func:`ensure_reservation_site` — plan validation: rejects
  ``speculative_for`` on workloads that define no reservation site,
  with a did-you-mean pointing at the workloads that do.
"""

from __future__ import annotations

import difflib
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Optional, Sequence

from repro.core.config import SystemConfig
from repro.core.integrity import CHECKSUM_BYTES, space_digest
from repro.core.messages import (
    ENTRY_BYTES,
    MARKER_BYTES,
    SF_REPL_CHECKPOINT,
    SF_REPL_ROUND,
    SF_STOP,
    ControlEnvelope,
)
from repro.core.reservations import (
    ReservationCommitService,
    ReservationStats,
    RoundRecord,
    next_round_size,
)
from repro.core.runtime import ClusterSystem, RunResult
from repro.core.standby import ReservationStandby
from repro.core.stats import CheckpointRecord, FailureRecord
from repro.errors import (
    ClusterFailedError,
    ConfigurationError,
    NodeCrashed,
    ParadigmError,
    ProcessInterrupt,
)
from repro.memory import AddressSpace
from repro.memory.layout import PAGE_SHIFT, WORD_SHIFT

__all__ = [
    "DONE",
    "TRY_COMMIT",
    "TRY_AGAIN",
    "ReservationSite",
    "StepContext",
    "speculative_for",
    "SpecForSystem",
    "ensure_reservation_site",
]

# Iteration statuses returned by a step's ``reserve`` phase (the
# parlaylib ``enum status { done, try_commit, try_again }``).
DONE = 0
TRY_COMMIT = 1
TRY_AGAIN = 2

# Protocol message kinds (first element of every payload); the stop and
# standby-stream kinds live in repro.core.messages, shared with the
# reservation-service standby.
_MSG_ROUND = "round"
_MSG_RESERVE = "reserve"
_MSG_VERDICT = "verdict"
_MSG_COMMIT = "commit"


@dataclass(frozen=True)
class ReservationSite:
    """A workload's ``write_min`` reservation site.

    ``slots`` is the size of the reservation table — one slot per
    contendable object (vertex, list node, ...); ``label`` names what a
    slot stands for in reports.
    """

    slots: int
    label: str = "slot"

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ConfigurationError(
                f"a reservation site needs at least one slot, got {self.slots}"
            )


class StepContext:
    """Execution context for one iteration of a ``speculative_for`` step.

    Unlike the generator contexts of :mod:`repro.core.context`, steps
    are plain functions: they run to completion against a worker's
    round-start snapshot, and their cost is charged as one deferred
    lump.  ``reserve`` is only legal in the reserve phase, ``write``
    only in the commit phase; commit-phase reads see the iteration's
    own writes overlaid on the snapshot (read-own-write), never another
    same-round iteration's — that blindness is what makes the outcome
    worker-count independent.
    """

    RESERVE = "reserve"
    COMMIT = "commit"

    __slots__ = (
        "iteration", "phase", "reserved", "writes", "cycles",
        "_space", "_overlay", "_access_cycles",
    )

    def __init__(
        self, space, iteration: int, phase: str, access_cycles: float = 0.0
    ) -> None:
        self.iteration = iteration
        self.phase = phase
        #: Slots reserved during the reserve phase, in request order.
        self.reserved: list = []
        #: (address, value) writes buffered during the commit phase.
        self.writes: list = []
        #: Deferred cycle cost accumulated by this iteration's step.
        self.cycles = 0.0
        self._space = space
        self._overlay: dict = {}
        self._access_cycles = access_cycles

    def read(self, address: int) -> Any:
        """Read a word from the round-start snapshot (plus this
        iteration's own writes, in the commit phase)."""
        self.cycles += self._access_cycles
        if self._overlay:
            try:
                return self._overlay[address]
            except KeyError:
                pass
        return self._space.read(address)

    def write(self, address: int, value: Any) -> None:
        """Buffer a word write (commit phase only); the service applies
        winners' buffers in iteration order."""
        if self.phase != self.COMMIT:
            raise ParadigmError(
                f"iteration {self.iteration} wrote in its {self.phase} phase; "
                "speculative_for steps may only write while committing"
            )
        self.cycles += self._access_cycles
        self._overlay[address] = value
        self.writes.append((address, value))

    def reserve(self, slot: int) -> None:
        """Request ``write_min(slot, iteration)`` (reserve phase only)."""
        if self.phase != self.RESERVE:
            raise ParadigmError(
                f"iteration {self.iteration} reserved in its {self.phase} "
                "phase; reservations belong to the reserve phase"
            )
        self.cycles += self._access_cycles
        self.reserved.append(slot)

    def compute(self, cycles: float) -> None:
        """Account ``cycles`` of step computation."""
        self.cycles += cycles


# -- shared phase execution (one source of truth for pure + simulated) ---------


def _run_reserve(step, space, iteration: int, access_cycles: float = 0.0):
    """Run one iteration's reserve phase; returns (status, slots, cycles)."""
    ctx = StepContext(space, iteration, StepContext.RESERVE, access_cycles)
    status = step.reserve(ctx, iteration)
    if status not in (DONE, TRY_COMMIT, TRY_AGAIN):
        raise ParadigmError(
            f"reserve({iteration}) returned {status!r}, not one of "
            "DONE/TRY_COMMIT/TRY_AGAIN"
        )
    if status != TRY_COMMIT and ctx.reserved:
        raise ParadigmError(
            f"reserve({iteration}) reserved slots but returned status "
            f"{status}; only TRY_COMMIT iterations hold reservations"
        )
    return status, tuple(ctx.reserved), ctx.cycles


def _run_commit(step, space, iteration: int, access_cycles: float = 0.0):
    """Run one winner's commit phase; returns (ok, writes, cycles)."""
    ctx = StepContext(space, iteration, StepContext.COMMIT, access_cycles)
    ok = step.commit(ctx, iteration)
    return bool(ok), tuple(ctx.writes), ctx.cycles


class _RoundEngine:
    """Service-side round scheduler: batch selection, adjudication,
    group commit, carry-forward, and round-size adaptation.

    Shared verbatim between :func:`speculative_for` and
    :class:`SpecForSystem` so that winners, round records, and every
    statistic are identical by construction.  All decisions here are
    functions of the iteration space and the committed state only —
    the round size in particular never consults the worker count.

    Liveness: a run of :attr:`stall_limit` consecutive rounds that
    complete no iteration raises :class:`~repro.errors.ParadigmError`
    instead of looping forever (PBBS's ``maxTries = 100 + 200 *
    granularity``, applied to the streak without progress rather than
    to the total round count, which long contended loops exceed while
    progressing every round).
    """

    def __init__(
        self, service: ReservationCommitService, iterations: int, granularity: int
    ) -> None:
        if iterations < 1:
            raise ConfigurationError("speculative_for needs at least one iteration")
        if granularity < 1:
            raise ConfigurationError(f"granularity must be >= 1, got {granularity}")
        self.service = service
        #: Iterations not yet committed, ascending.  A round pops its
        #: batch off the front and pushes the carried iterations back in
        #: front of the rest, so a round costs O(batch), not O(pending);
        #: between :meth:`begin_round` and :meth:`complete` it holds the
        #: rest only.
        self.pending: deque = deque(range(iterations))
        #: Largest round: a 1/granularity slice of the iteration space.
        self.max_round = iterations // granularity + 1
        self.size = max(1, self.max_round // 2)
        self.round_index = 0
        #: Consecutive rounds that completed no iteration (an aborted
        #: round does not count), and the streak that ends the loop.
        self.stalled_rounds = 0
        self.stall_limit = 100 + 200 * granularity
        #: Committed (address, value) entries not yet broadcast to the
        #: workers' snapshots; starts as the built program state.
        self.delta = _snapshot_entries(service.master)
        self._batch: list = []
        self._decisions: list = []
        self._losers: list = []
        self._retries: list = []
        self._finished: list = []
        #: Table-counter checkpoint taken at round start; a fault-aborted
        #: round rolls back to it so the re-executed round re-applies the
        #: identical reservations from the identical state.
        self._table_mark = self.service.table.counters()
        #: Iterations carried by the last completed round (the list, not
        #: just the count): the hot standby mirrors the pending queue
        #: from it.
        self.last_carried: list = []

    @classmethod
    def resume(
        cls,
        service: ReservationCommitService,
        iterations: int,
        granularity: int,
        pending: Sequence[int],
        size: int,
        round_index: int,
        delta: Sequence[tuple],
    ) -> "_RoundEngine":
        """Rebuild an engine at a replicated round boundary (promotion).

        ``pending``/``size``/``round_index`` come from the standby's
        shadow of the primary's scheduling state; ``delta`` is the full
        committed image (the promoted service re-broadcasts it whole,
        exactly like round 0's snapshot).  Every later decision is the
        same function of this state as it was on the dead primary, which
        is what keeps the crashed run byte-identical to the fault-free
        one.  The streak of rounds without progress starts again at zero.
        """
        engine = cls(service, iterations, granularity)
        engine.pending = deque(pending)
        engine.size = size
        engine.round_index = round_index
        engine.delta = list(delta)
        engine._table_mark = service.table.counters()
        return engine

    def begin_round(self) -> Optional[tuple]:
        """Next ``(batch, delta)``, or ``None`` when the loop is done."""
        pending = self.pending
        if not pending:
            return None
        popleft = pending.popleft
        self._batch = [popleft() for _ in range(min(self.size, len(pending)))]
        self._table_mark = self.service.table.counters()
        return self._batch, self.delta

    def abort_round(self) -> None:
        """Void the in-flight round (a worker died mid-round).

        Reservations already applied are released and the table counters
        roll back to the round-start checkpoint; nothing was committed
        (commits happen only in :meth:`complete`), so ``pending``,
        ``size``, ``round_index``, and the broadcast delta are all
        untouched — re-issuing the same batch over the survivors
        re-derives the identical winners.
        """
        self.service.table.restore_counters(self._table_mark)
        self.service.stats.reservations = self.service.table.reservations
        self.service.end_round()
        self._decisions = []
        self._losers, self._retries, self._finished = [], [], []

    def adjudicate(self, decisions: Sequence[tuple]) -> list:
        """Apply reservations, return winners (sorted ascending).

        ``decisions`` is ``[(iteration, status, slots), ...]`` covering
        the whole batch, in any order.
        """
        decisions = sorted(decisions)
        self._decisions = decisions
        pairs = [
            (slot, iteration)
            for iteration, status, slots in decisions
            if status == TRY_COMMIT
            for slot in slots
        ]
        self.service.apply_reservations(pairs)
        winners = []
        self._losers, self._retries, self._finished = [], [], []
        for iteration, status, slots in decisions:
            if status == DONE:
                self._finished.append(iteration)
            elif status == TRY_AGAIN:
                self._retries.append(iteration)
            elif self.service.verdict(iteration, slots):
                winners.append(iteration)
            else:
                self._losers.append(iteration)
        return winners

    def complete(self, commit_results: Sequence[tuple]) -> RoundRecord:
        """Fold winners' commit results ``[(iteration, ok, writes), ...]``
        into the committed image and close the round."""
        commit_results = sorted(commit_results)
        ok_writes = [(i, list(writes)) for i, ok, writes in commit_results if ok]
        words = self.service.commit_writes(ok_writes)
        commit_failed = [i for i, ok, _writes in commit_results if not ok]
        carried = sorted(self._losers + self._retries + commit_failed)
        record = RoundRecord(
            round_index=self.round_index,
            attempted=len(self._batch),
            completed=len(self._batch) - len(carried),
            reservation_failures=len(self._losers),
            commit_failures=len(commit_failed),
            carried=len(carried),
            words_committed=words,
        )
        self.service.stats.record_round(record)
        self.service.end_round()
        if record.completed:
            self.stalled_rounds = 0
        else:
            self.stalled_rounds += 1
            if self.stalled_rounds >= self.stall_limit:
                shown = ", ".join(map(str, carried[:8]))
                more = f", ... ({len(carried)} in all)" if len(carried) > 8 else ""
                raise ParadigmError(
                    f"speculative_for made no progress in {self.stalled_rounds} "
                    f"consecutive rounds (bound 100 + 200 x granularity); "
                    f"carried iterations: [{shown}{more}]"
                )
        # Next round's snapshot delta: last-write-wins over the
        # iteration-ordered write sets, in ascending address order.
        merged: dict = {}
        for _iteration, writes in ok_writes:
            merged.update(writes)
        self.delta = sorted(merged.items())
        self.last_carried = carried
        # Carried iterations come from the batch, a prefix of the
        # ascending queue, so in front of the rest they keep it ascending.
        self.pending.extendleft(reversed(carried))
        self.size = next_round_size(
            self.size, record.attempted, record.carried, self.max_round
        )
        self.round_index += 1
        return record


def _snapshot_entries(space: AddressSpace) -> list:
    """Every written ``(address, value)`` of ``space``, ascending."""
    entries = []
    for page in space.iter_pages():
        base = page.number << PAGE_SHIFT
        entries.extend(
            (base + (index << WORD_SHIFT), value) for index, value in page.items()
        )
    return entries


# -- pure reference scheduler --------------------------------------------------


def speculative_for(
    step,
    iterations: int,
    slots: int,
    master: Optional[AddressSpace] = None,
    granularity: int = 8,
) -> tuple[AddressSpace, ReservationStats]:
    """Host-level ``speculative_for``: no simulator, same semantics.

    Runs the round protocol single-threaded against ``master`` (state
    already built into it, or a fresh space) and returns ``(master,
    stats)``.  This is the reference model: :class:`SpecForSystem`
    produces the identical committed image and identical
    :class:`~repro.core.reservations.ReservationStats` at every worker
    count.
    """
    service = ReservationCommitService(slots, master)
    engine = _RoundEngine(service, iterations, granularity)
    replica = AddressSpace("specfor.ref.replica")
    while (start := engine.begin_round()) is not None:
        batch, delta = start
        for address, value in delta:
            replica.write(address, value)
        decisions = []
        for iteration in batch:
            status, reserved, _cycles = _run_reserve(step, replica, iteration)
            decisions.append((iteration, status, reserved))
        winners = engine.adjudicate(decisions)
        commit_results = []
        for iteration in winners:
            ok, writes, _cycles = _run_commit(step, replica, iteration)
            commit_results.append((iteration, ok, writes))
        engine.complete(commit_results)
    return service.master, service.stats


# -- plan validation -----------------------------------------------------------


def ensure_reservation_site(workload) -> ReservationSite:
    """The workload's reservation site, or a did-you-mean rejection.

    ``speculative_for`` only applies to workloads that declare a
    ``write_min`` reservation site; the error names the workloads that
    do, with a close-match hint when the requested name resembles one
    (same style as the campaign schema's unknown-key rejections).
    """
    site = workload.reservation_site()
    if site is not None:
        return site
    from repro.workloads.registry import reservation_benchmarks

    capable = sorted(reservation_benchmarks())
    name = getattr(workload, "name", type(workload).__name__)
    hint = difflib.get_close_matches(str(name), capable, n=1)
    suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
    raise ParadigmError(
        f"workload {name!r} defines no reservation site, so a "
        f"'speculative_for' plan cannot run on it; workloads with one: "
        f"{capable}{suffix}"
    )


# -- simulated runtime ---------------------------------------------------------


class SpecForSystem(ClusterSystem):
    """The simulated ``speculative_for`` runtime.

    ``workers`` worker units plus one reservation-commit service unit,
    placed on the cluster by the configured policy and communicating
    through the priced MPI layer.  Each round the service broadcasts
    the batch partition and the committed-delta snapshot update, the
    workers run reserve steps and send reservation batches back, the
    service adjudicates with ``write_min`` and returns verdicts, and
    winners' write-sets flow back for the iteration-ordered group
    commit.  Workers never apply their own writes locally mid-round —
    every worker computes on the identical round-start snapshot, which
    is what pins the outcome across worker counts.
    """

    runtime_name = "speculative_for runtime units"

    def __init__(
        self,
        workload: Any,
        config: Optional[SystemConfig] = None,
        workers: int = 4,
        granularity: int = 8,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"speculative_for needs at least one worker, got {workers}"
            )
        site = ensure_reservation_site(workload)
        if config is None:
            config = SystemConfig(total_cores=max(3, workers + 1))
        self.num_workers = workers
        #: The reservation service plays the commit unit (it owns the
        #: master image); reassigned to the standby's tid at promotion.
        self.service_tid = workers
        # The reservation-service hot standby (commit_replication) is
        # assigned last so the worker / service layout is unchanged.
        standby_tid = workers + 1 if config.commit_replication else None
        num_units = workers + (2 if config.commit_replication else 1)
        if config.total_cores < num_units:
            standby = " + 1 standby" if standby_tid is not None else ""
            raise ConfigurationError(
                f"{workers} workers + 1 service{standby} need "
                f"{num_units} cores, config grants {config.total_cores}"
            )
        self.granularity = granularity
        super().__init__(
            workload, config, num_units,
            commit_tid=self.service_tid, standby_tid=standby_tid,
        )
        #: Worker ids still alive (node failures remove entries; the
        #: round scheduler re-partitions batches over these).
        self.live_workers: list[int] = list(range(workers))
        self.site_slots = site.slots
        self.service = ReservationCommitService(site.slots)
        #: Digest/report convention: ``system.commit.master`` is the
        #: committed memory image (same shape as DSMTXSystem).
        self.commit = self.service
        #: Reservation-service hot standby; ``None`` without replication.
        self.standby = (
            ReservationStandby(self, standby_tid) if standby_tid is not None else None
        )
        from repro.workloads.base import WriteThroughStore

        # Program state is always allocated from owner 0's region — the
        # service tid shifts with the worker count, and UVA addresses
        # encode the owner, so building from the service region would
        # make the committed image's addresses (and hence its digest)
        # depend on the worker count.
        workload.build(self.uva, 0, WriteThroughStore(self.service.master))

    def unit_labels(self) -> dict:
        labels = {f"specfor-worker[{w}]": w for w in range(self.num_workers)}
        labels["specfor-service"] = self.service_tid
        if self.standby_tid is not None:
            labels["specfor-standby"] = self.standby_tid
        return labels

    def _drop_dead_units(self, node: int) -> None:
        self.live_workers = [
            w for w in range(self.num_workers) if w not in self.dead_tids
        ]

    def promote_reservation_service(self, standby) -> tuple:
        """Swap the promoted standby in as the reservation service.

        Called by :meth:`ReservationStandby._promote` after the replay:
        builds a fresh :class:`ReservationCommitService` over the
        standby's replayed image with the replicated table counters and
        round records, resumes a :class:`_RoundEngine` at the standby's
        shadow of the primary's scheduling state, swaps the layout, and
        backs the dead primary's unreplicated commits out of the run
        statistics (those iterations re-execute).  Returns ``(service,
        engine)``; the caller drives the service loop.
        """
        shadow = standby.shadow_stats
        service = ReservationCommitService(self.site_slots, master=standby.image)
        service.table.restore_counters(standby.table_counters)
        service.stats = shadow
        engine = _RoundEngine.resume(
            service, self.workload.iterations, self.granularity,
            pending=standby.shadow_pending,
            size=standby.shadow_size,
            round_index=standby.shadow_round_index,
            delta=_snapshot_entries(standby.image),
        )
        self.service = service
        self.commit = service
        self.commit_tid = standby.tid
        self.service_tid = standby.tid
        # The standby seat is consumed by the promotion: the promoted
        # service runs without a second standby (a later crash of its
        # node is fatal, exactly like DSMTX after a commit failover).
        self.standby_tid = None
        # Rounds the dead primary committed past the replicated frontier
        # died with its master memory; the promoted service re-executes
        # them, so their first count is backed out here.
        self.stats.committed_mtxs = shadow.committed
        self.stats.words_committed = shadow.words_committed
        return service, engine

    # -- unit processes --------------------------------------------------------
    #
    # One worker loop and one service loop for every run.  Every message
    # goes into the destination unit's one inbox; the protocol phase
    # travels in the message itself, and replies carry (round, attempt)
    # so stale traffic from an aborted round is discarded.  With
    # ``fault_tolerance`` on, each message is framed through the reliable
    # transport (dedup / reorder / ack / retransmit under injected loss
    # and duplication), the service takes epoch checkpoints, and it
    # streams each completed round to the hot standby when one exists.

    def _sender(self, src_tid: int):
        """Unit ``src_tid``'s send: ``send(dst_tid, payload, nbytes,
        purpose)`` returns the MPI send of ``payload`` (``nbytes`` of
        protocol data, recorded under ``purpose``) into unit
        ``dst_tid``'s inbox; drive it with ``yield from``.

        With the reliable transport on, the payload is framed on the
        (src, dst) link and delivered through the destination's ingest
        box, and the frame's own bytes are priced too; otherwise it goes
        into the inbox raw (the ``Endpoint.send_ctl`` pattern).  What
        does not change between sends is bound once, so a send costs one
        call on top of the MPI send.
        """
        transport = self.transport
        inboxes = self._inboxes
        ranks = self._core_indices
        src_rank = ranks[src_tid]
        record = self.stats.record_queue_bytes
        mpi_send = self.mpi.send

        def send(dst_tid: int, payload, nbytes: int, purpose: str):
            if transport is None:
                box = inboxes[dst_tid]
            else:
                nbytes += transport.extra_bytes
                payload = transport.stamp(src_tid, dst_tid, payload, nbytes)
                box = transport.ingest_box(dst_tid)
            record(purpose, nbytes)
            return mpi_send(src_rank, ranks[dst_tid], payload, nbytes, mailbox=box)

        return send

    def _receiver(self, tid: int):
        """Unit ``tid``'s receive: a callable returning a blocking receive
        from its inbox, priced by :meth:`repro.cluster.mpi.MPI.recv_from`
        like an ``MPI_Recv``.  Drive it with ``yield from recv()``."""
        return partial(
            self.mpi.recv_from, self._core_indices[tid], self._inboxes[tid]
        )

    def _note_failures(self, engine, in_flight: int) -> bool:
        """Consume pending node-failure declarations (service side).

        Returns True when a live worker died — the in-flight round must
        be aborted and re-issued over the survivors.  A standby death
        only degrades the run (replication stops); it never aborts.
        """
        state = self.state
        aborted = False
        while state.failover_pending:
            node, dead_tids, detected_at, last_heard_at = (
                state.failover_pending.pop(0)
            )
            dead_workers = [t for t in dead_tids if t in self.live_workers]
            self.apply_node_failure(node, dead_tids)
            if not self.live_workers:
                raise ClusterFailedError(
                    f"node {node} took the last live specfor worker; the "
                    f"iteration space cannot be re-partitioned"
                )
            self.stats.failures.append(
                FailureRecord(
                    node=node,
                    dead_tids=tuple(dead_tids),
                    last_heard_at=last_heard_at,
                    detected_at=detected_at,
                    resumed_at=self.env.now,
                    restart_base=engine.round_index,
                    lost_iterations=in_flight if dead_workers else 0,
                    surviving_workers=len(self.live_workers),
                )
            )
            if dead_workers:
                aborted = True
            if self.obs is not None:
                self.obs.metrics.counter("ft.failovers").inc()
        return aborted

    def _run_round(
        self, engine, send, recv, core, batch, delta, attempt: int,
        full: bool, check_cycles: float,
    ):
        """One attempt at one round, with the service's ``send`` and
        ``recv``; returns the RoundRecord, or None when a worker death
        aborted the attempt (re-issue with the survivors).  Replies are
        gathered in arrival order."""
        live = list(self.live_workers)
        round_index = engine.round_index
        parts = {w: batch[i :: len(live)] for i, w in enumerate(live)}
        delta_entries = tuple(delta)
        delta_bytes = len(delta_entries) * ENTRY_BYTES + MARKER_BYTES
        for w in live:
            part = parts[w]
            yield from send(
                w, (_MSG_ROUND, round_index, attempt, part, delta_entries, full),
                len(part) * MARKER_BYTES + delta_bytes, "specfor_round",
            )
        decisions = []
        reserved_slots = 0
        waiting = set(live)
        while waiting:
            msg = yield from recv()
            if msg[0] == _MSG_RESERVE:
                # Anything else is a stale reply from an aborted attempt
                # (or a dead primary's epoch): the tags filter it out.
                if msg[1] == round_index and msg[2] == attempt and msg[3] in waiting:
                    waiting.remove(msg[3])
                    part = msg[4]
                    decisions.extend(part)
                    reserved_slots += sum(len(slots) for _i, _st, slots in part)
            elif isinstance(msg, ControlEnvelope) and self._note_failures(
                engine, in_flight=len(batch)
            ):
                # Pre-adjudication: no reservation was applied yet, the
                # attempt simply restarts over the survivors.
                return None
        # One write_min application plus one verdict check per reserved
        # slot, priced like try-commit log checking.
        core.charge_cycles(check_cycles * 2 * reserved_slots)
        winners = engine.adjudicate(decisions)
        winner_set = set(winners)
        for w in live:
            mine = [i for i in parts[w] if i in winner_set]
            yield from send(
                w, (_MSG_VERDICT, round_index, attempt, mine),
                len(mine) * MARKER_BYTES + MARKER_BYTES, "specfor_verdict",
            )
        commit_results = []
        waiting = set(live)
        while waiting:
            msg = yield from recv()
            if msg[0] == _MSG_COMMIT:
                if msg[1] == round_index and msg[2] == attempt and msg[3] in waiting:
                    waiting.remove(msg[3])
                    commit_results.extend(msg[4])
            elif isinstance(msg, ControlEnvelope) and self._note_failures(
                engine, in_flight=len(batch)
            ):
                # Post-adjudication: the dead worker's reservations are
                # already in the table — void them and roll the counters
                # back to the round-start checkpoint.
                engine.abort_round()
                return None
        return engine.complete(commit_results)

    def _service_loop(self, tid: int, engine: Optional[_RoundEngine] = None):
        """The reservation service's main process: run rounds until the
        loop is done, then stop the workers and the standby.

        The initial service builds its round engine.  A promoted standby
        passes the engine it resumed at its shadow of the primary's
        scheduling state; its first broadcast then carries the full
        image, so every worker rebuilds its snapshot.
        """
        config, stats, state = self.config, self.stats, self.state
        core = self.machine.core(self._core_indices[tid])
        ipc = self.cluster.instructions_per_cycle
        check_cycles = config.check_instructions / ipc
        commit_cycles = config.commit_instructions / ipc
        obs = self.obs
        send = self._sender(tid)
        recv = self._receiver(tid)
        full = engine is not None
        if engine is None:
            engine = _RoundEngine(
                self.service, self.workload.iterations, self.granularity
            )
        spec = engine.service.stats
        ckpt_committed = spec.committed
        ckpt_words = spec.words_committed
        try:
            while True:
                if state.failover_pending:
                    self._note_failures(engine, in_flight=0)
                start = engine.begin_round()
                if start is None:
                    break
                batch, delta = start
                attempt = 0
                while True:
                    record = yield from self._run_round(
                        engine, send, recv, core, batch, delta, attempt, full,
                        check_cycles,
                    )
                    if record is not None:
                        break
                    attempt += 1
                    stats.ft_round_reexecutions += 1
                    if obs is not None:
                        obs.metrics.counter("ft.round_reexecutions").inc()
                full = False
                core.charge_cycles(commit_cycles * record.words_committed)
                stats.committed_mtxs += record.completed
                stats.words_committed += record.words_committed
                if obs is not None:
                    metrics = obs.metrics
                    metrics.counter("specfor.rounds").inc()
                    metrics.counter("specfor.committed").inc(record.completed)
                    metrics.counter("specfor.reservation_failures").inc(
                        record.reservation_failures
                    )
                    metrics.counter("specfor.carried").inc(record.carried)
                    metrics.histogram("specfor.round_size").observe(record.attempted)
                if self.standby_alive:
                    entries = tuple(engine.delta)
                    carried = tuple(engine.last_carried)
                    yield from send(
                        self.standby_tid,
                        (
                            SF_REPL_ROUND, record.as_tuple(), entries, carried,
                            engine.service.table.counters(),
                        ),
                        len(entries) * ENTRY_BYTES
                        + len(carried) * MARKER_BYTES
                        + 8 * MARKER_BYTES,
                        "repl",
                    )
                # Epoch checkpoints follow fault_tolerance, as in the
                # DSMTX commit unit.
                if (
                    config.fault_tolerance
                    and spec.committed - ckpt_committed
                    >= config.checkpoint_interval_mtxs
                ):
                    words = spec.words_committed - ckpt_words
                    core.charge_instructions(
                        config.checkpoint_base_instructions
                        + words * config.checkpoint_word_instructions
                    )
                    stats.checkpoints.append(
                        CheckpointRecord(
                            iteration=spec.committed, words=words, at=self.env.now
                        )
                    )
                    ckpt_committed = spec.committed
                    ckpt_words = spec.words_committed
                    if self.standby_alive:
                        marker = (SF_REPL_CHECKPOINT, spec.committed)
                        nbytes = 2 * MARKER_BYTES
                        if config.integrity:
                            # End-to-end checkpoint digest: the standby
                            # folds its replay log at this marker and
                            # verifies the result against the master.
                            marker += (space_digest(engine.service.master),)
                            nbytes += CHECKSUM_BYTES
                        yield from send(self.standby_tid, marker, nbytes, "repl")
            for w in list(self.live_workers):
                yield from send(w, (SF_STOP,), MARKER_BYTES, "specfor_round")
            if self.standby_alive:
                yield from send(self.standby_tid, (SF_STOP,), MARKER_BYTES, "repl")
        except ProcessInterrupt as interrupt:
            if isinstance(interrupt.cause, NodeCrashed):
                # The service's node died; the standby-side watcher
                # declares it and the standby takes over.
                return
            raise
        # state.terminate() happens in run() *after* env.run completes:
        # terminating here would self-cancel the retransmit timers of
        # stop frames still in flight, stranding a worker whose stop a
        # loss fault dropped.

    def _worker_loop(self, w: int):
        core = self.machine.core(self._core_indices[w])
        access_cycles = (
            self.config.access_instructions / self.cluster.instructions_per_cycle
        )
        replica = AddressSpace(f"specfor.replica{w}")
        step = self.workload.specfor_step()
        send = self._sender(w)
        recv = self._receiver(w)
        try:
            while True:
                msg = yield from recv()
                kind = msg[0]
                if kind == _MSG_ROUND:
                    _kind, round_index, attempt, assignment, delta, full = msg
                    if full:
                        # Promotion re-broadcast: the committed image,
                        # whole.  The worker's accumulated snapshot may
                        # be ahead of the replicated frontier, so it is
                        # rebuilt from scratch — equivalent to round 0,
                        # whose delta is the full initial program state.
                        replica = AddressSpace(f"specfor.replica{w}")
                    core.charge_cycles(access_cycles * len(delta))
                    for address, value in delta:
                        replica.write(address, value)
                    decisions = []
                    cycles = 0.0
                    for iteration in assignment:
                        status, reserved, step_cycles = _run_reserve(
                            step, replica, iteration, access_cycles
                        )
                        decisions.append((iteration, status, reserved))
                        cycles += step_cycles
                    core.charge_cycles(cycles)
                    yield from send(
                        self.commit_tid,
                        (_MSG_RESERVE, round_index, attempt, w, decisions),
                        sum(len(slots) for _i, _st, slots in decisions) * ENTRY_BYTES
                        + len(decisions) * MARKER_BYTES
                        + MARKER_BYTES,
                        "specfor_reserve",
                    )
                elif kind == _MSG_VERDICT:
                    _kind, round_index, attempt, winners = msg
                    commit_results = []
                    cycles = 0.0
                    for iteration in winners:
                        ok, writes, step_cycles = _run_commit(
                            step, replica, iteration, access_cycles
                        )
                        commit_results.append((iteration, ok, writes))
                        cycles += step_cycles
                    core.charge_cycles(cycles)
                    yield from send(
                        self.commit_tid,
                        (_MSG_COMMIT, round_index, attempt, w, commit_results),
                        sum(len(writes) for _i, _ok, writes in commit_results)
                        * ENTRY_BYTES
                        + len(commit_results) * MARKER_BYTES
                        + MARKER_BYTES,
                        "specfor_commit",
                    )
                elif kind == SF_STOP:
                    return
        except ProcessInterrupt as interrupt:
            if isinstance(interrupt.cause, NodeCrashed):
                return
            raise

    # -- execution -------------------------------------------------------------

    def run(self) -> RunResult:
        """Drive the loop to completion; returns the usual RunResult."""
        mains = [self._worker_loop(w) for w in range(self.num_workers)]
        mains.append(self._service_loop(self.service_tid))
        if self.standby is not None:
            # The initial image is the epoch-0 checkpoint: the standby
            # starts from the same program state as the primary.
            self.standby.seed_image(self.service.master)
            mains.append(self.standby.run())
        elapsed = self._run_units(mains)
        self.state.terminate()
        spec = self.service.stats
        stats = self.stats
        stats.specfor_rounds = spec.num_rounds
        stats.specfor_reservations = spec.reservations
        stats.specfor_reservation_failures = spec.reservation_failures
        stats.specfor_commit_failures = spec.commit_failures
        stats.specfor_carried = spec.carried_total
        if self.obs is not None:
            self.obs.finalize(self)
        return RunResult(
            elapsed_seconds=elapsed,
            stats=stats,
            iterations=stats.committed_mtxs,
            total_cores=self.num_units,
        )

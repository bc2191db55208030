"""Worker units.

A worker executes subTXs: the body of one pipeline stage, over the
iterations assigned to its replica slot (round-robin within the stage).
Per the paper's execution model (Figure 3):

* ``mtx_begin`` refreshes the worker's memory with the uncommitted
  stores of earlier subTXs in the same MTX (consuming the forwarding
  queues until the END markers of every earlier stage);
* the body's speculative loads and stores hit the worker's private
  memory, with Copy-On-Access faults fetching committed pages from the
  commit unit;
* ``mtx_end`` forwards this subTX's stores to all later stages
  (flushing those queues — uncommitted values are explicitly forwarded
  at subTX end), and appends the access log to the try-commit and
  commit streams (which flush lazily, by batch).

Workers detect misspeculation either directly (a failed speculation
assertion -> ``mtx_misspec`` to the commit unit) or indirectly (queue
flush / state poll), then join the recovery barriers of section 4.3.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.context import MTXContext
from repro.core.messages import (
    CTL_COA_REQUEST,
    CTL_COA_RESPONSE,
    CTL_MISSPEC,
    DATA,
    END_SUBTX,
    WRITE,
)
from repro.errors import (
    ChannelFlushedError,
    MisspeculationDetected,
    NodeCrashed,
    ProcessInterrupt,
    RecoveryAbort,
)
from repro.memory import AddressSpace, page_number, word_index
from repro.obs.tracer import CAT_COMPUTE, CAT_PAGE_FAULT, CAT_QUEUE, PID_RUNTIME
from repro.sim import Event

__all__ = ["Worker"]


class Worker:
    """One worker unit: a stage replica pinned to a core."""

    def __init__(self, system: "DSMTXSystem", tid: int, stage_index: int, replica: int) -> None:  # noqa: F821
        self.system = system
        self.tid = tid
        self.stage_index = stage_index
        self.replica = replica
        self.core = system.core_of(tid)
        self.endpoint = system.endpoint_of_unit(tid)
        self.space = AddressSpace(f"worker{tid}", faulting=True)
        #: Forwarded writes for pages not yet COA-installed.
        self.foreign_pending: dict[int, dict[int, Any]] = {}
        #: Access log of the current subTX (R/W entries, program order).
        self.current_log: list[tuple] = []
        #: Writes of the current subTX awaiting forwarding at mtx_end.
        self.pending_forwards: list[tuple] = []
        #: TLS loop-carried values when producer == consumer worker.
        self.self_sync: dict[str, Any] = {}
        self.context = MTXContext(self)
        #: Iterations this worker completed (stats/debugging).
        self.iterations_executed = 0
        # Per-entry queue-op cost in cycles, resolved once for the
        # mtx_begin consume loop.
        self._queue_op_cycles = (
            self.system.cluster.queue_op_instructions
            / self.system.cluster.instructions_per_cycle
        )
        # Lazily-cached queue handles, filled on first use so the queue
        # registry's creation order (which recovery iterates) is
        # exactly what it would be without the cache.
        self._tclog = None
        self._clog = None
        self._fw_out: dict[int, Any] = {}
        self._fw_in: dict[int, Any] = {}

    # -- main process ----------------------------------------------------------------------

    def run(self) -> Generator[Event, Any, None]:
        """The worker's top-level process."""
        try:
            while True:
                if self.system.state.done:
                    return
                try:
                    yield from self._run_epoch()
                    yield from self._park()
                    return
                except (RecoveryAbort, ChannelFlushedError):
                    yield from self.system.recovery.participate(self)
        except ProcessInterrupt as interrupt:
            if isinstance(interrupt.cause, NodeCrashed):
                # Our node died under us (fault injection): stop
                # silently; the failure detector handles the cluster
                # side, and in-flight state dies with this unit.
                return
            raise

    def _run_epoch(self) -> Generator[Event, Any, None]:
        """Execute all iterations assigned to this replica in the
        current epoch (restart base), round-robin over the stage's
        live replicas."""
        system = self.system
        base = system.state.restart_base
        live = system.live_by_stage[self.stage_index]
        replicas = len(live)
        iteration = base + live.index(self.tid)
        first = True
        while iteration < system.total_iterations:
            state = system.state
            if state.draining and iteration >= state.pause_target:
                # This iteration is doomed: flush completed logs so the
                # drain can finish, then wait for the rollback.
                yield from self._flush_log_queues()
                raise RecoveryAbort("paused for draining")
            yield from self.mtx_begin(iteration)
            self.context.first_on_worker = first
            first = False
            body = system.workload_stage_body(self.stage_index)
            obs = system.obs
            start = system.env.now if obs is not None else 0.0
            try:
                yield from body(self.context)
            except MisspeculationDetected as misspec:
                if obs is not None:
                    obs.tracer.complete(
                        CAT_COMPUTE, f"stage{self.stage_index}.body",
                        PID_RUNTIME, self.tid, start,
                        iteration=iteration, misspec=True,
                    )
                yield from self._report_misspec(misspec)
                raise RecoveryAbort(str(misspec)) from misspec
            if obs is not None:
                obs.tracer.complete(
                    CAT_COMPUTE, f"stage{self.stage_index}.body",
                    PID_RUNTIME, self.tid, start, iteration=iteration,
                )
                obs.metrics.counter("worker.subtxs").inc()
            yield from self.mtx_end(iteration)
            self.iterations_executed += 1
            iteration += replicas
        yield from self._flush_log_queues()

    def _park(self) -> Generator[Event, Any, None]:
        """Wait after finishing assigned work: the run is not over until
        the commit unit commits everything — a later misspeculation may
        still squash this worker's iterations."""
        while not self.system.state.done:
            if self.system.state.in_recovery:
                raise RecoveryAbort("recovery while parked")
            envelope = yield from self.endpoint._recv_one()
            self.endpoint._route(envelope, arrival_order=False)

    # -- MTX life cycle -----------------------------------------------------------------------

    def mtx_begin(self, iteration: int) -> Generator[Event, Any, None]:
        """Enter the subTX for ``iteration``: refresh memory with the
        uncommitted stores of all earlier subTXs in this MTX."""
        if self.system.state.in_recovery:
            raise RecoveryAbort("recovery at mtx_begin")
        self.context.begin_iteration(iteration)
        self.current_log = []
        self.pending_forwards = []
        obs = self.system.obs
        start = self.system.env.now if obs is not None else 0.0
        if self.stage_index > 0:
            # About to block on upstream subTXs: push out any completed
            # log batches first, so the validation and commit units are
            # never starved by data sitting in a blocked worker.
            yield from self._flush_log_queues()
        for earlier_stage in range(self.stage_index):
            producer_tid = self.system.worker_tid_for(earlier_stage, iteration)
            queue = self._fw_in.get(producer_tid)
            if queue is None:
                queue = self._fw_in[producer_tid] = self.system.forward_queue(
                    producer_tid, self.tid
                )
            while True:
                entry = yield from self.endpoint.consume_from(queue)
                kind = entry[0]
                self.core.charge_cycles(self._queue_op_cycles)
                if kind == END_SUBTX:
                    if entry[1] != iteration:  # pragma: no cover - invariant
                        raise RecoveryAbort(
                            f"forwarding stream out of sync: expected END for "
                            f"iteration {iteration}, got {entry}"
                        )
                    break
                if kind == WRITE:
                    self.apply_forwarded(entry[1], entry[2])
                elif kind == DATA:
                    self.context.incoming.setdefault(entry[1], []).append(entry[2])
        if obs is not None and self.stage_index > 0:
            obs.tracer.complete(
                CAT_QUEUE, "mtx_begin.wait", PID_RUNTIME, self.tid, start,
                iteration=iteration,
            )

    def mtx_end(self, iteration: int) -> Generator[Event, Any, None]:
        """Exit the subTX: forward stores to later stages (flushed now)
        and append the access log to the validation/commit streams."""
        if self.system.state.in_recovery:
            raise RecoveryAbort("recovery at mtx_end")
        system = self.system
        obs = system.obs
        start = system.env.now if obs is not None else 0.0
        # Uncommitted value forwarding to later stages (writeAll/writeTo).
        # ``produce`` returns an empty tuple on its buffered fast path;
        # branching on it skips the ``yield from`` machinery per entry.
        for later_stage in range(self.stage_index + 1, system.num_stages):
            consumer_tid = system.worker_tid_for(later_stage, iteration)
            queue = self._fw_out.get(consumer_tid)
            if queue is None:
                queue = self._fw_out[consumer_tid] = system.forward_queue(
                    self.tid, consumer_tid
                )
            produce = queue.produce
            for entry, targets in self.pending_forwards:
                if targets is None or later_stage in targets:
                    events = produce(entry)
                    if events:
                        yield from events
            yield from produce((END_SUBTX, iteration, self.stage_index))
            yield from queue.flush_pending()
        # Access log to the try-commit unit (reads + writes)...
        tclog = self._tclog_queue()
        produce = tclog.produce
        for entry in self.current_log:
            events = produce(entry)
            if events:
                yield from events
        yield from produce((END_SUBTX, iteration, self.stage_index))
        # ... and writes to the commit unit.
        clog = self._clog_queue()
        produce = clog.produce
        for entry in self.current_log:
            if entry[0] == WRITE:
                events = produce(entry)
                if events:
                    yield from events
        yield from produce((END_SUBTX, iteration, self.stage_index))
        self.current_log = []
        self.pending_forwards = []
        if obs is not None:
            obs.tracer.complete(
                CAT_QUEUE, "mtx_end.forward", PID_RUNTIME, self.tid, start,
                iteration=iteration,
            )
        if system.state.draining:
            # While the system drains toward a rollback, logs must reach
            # the validation/commit units promptly.
            yield from self._flush_log_queues()

    def _tclog_queue(self):
        queue = self._tclog
        if queue is None:
            queue = self._tclog = self.system.tclog_queue(self.tid)
        return queue

    def _clog_queue(self):
        queue = self._clog
        if queue is None:
            queue = self._clog = self.system.clog_queue(self.tid)
        return queue

    def _flush_log_queues(self) -> Generator[Event, Any, None]:
        """Push out partial log batches (end of assigned work)."""
        yield from self._tclog_queue().flush_pending()
        yield from self._clog_queue().flush_pending()

    def _report_misspec(self, misspec: MisspeculationDetected) -> Generator[Event, Any, None]:
        """Notify the commit unit (``mtx_misspec``).

        Completed log batches are flushed first: the drain needs them to
        commit everything before the aborted MTX.
        """
        yield from self._flush_log_queues()
        yield from self.endpoint.send_ctl(
            self.system.commit_tid, CTL_MISSPEC, misspec.iteration
        )

    # -- speculative memory ------------------------------------------------------------------------
    #
    # MTXContext.load/store access the private space directly and call
    # _coa_fetch on a protection fault.  Word-granularity COA (the
    # paper's rejected design, kept for the ablation bench): per-word
    # presence is tracked in software, every missing word costs its own
    # round trip, and stores write-allocate without fetching.

    def _word_granular_read(self, address: int) -> Generator[Event, Any, Any]:
        page_no = page_number(address)
        index = word_index(address)
        page = self.space.pages.get(page_no)
        if page is not None and page.present_mask >> index & 1:
            return page.words[index]
        value = yield from self._coa_fetch_word(page_no, index)
        if page is None:
            from repro.memory import Page
            page = Page(page_no)
            self.space.install_page(page)
        page.install_word(index, value)  # present but clean (committed copy)
        return value

    def _word_granular_write(self, address: int, value: Any) -> None:
        page_no = page_number(address)
        page = self.space.pages.get(page_no)
        if page is None:
            from repro.memory import Page
            page = Page(page_no)
            self.space.install_page(page)
        page.write(word_index(address), value)

    def apply_forwarded(self, address: int, value: Any) -> None:
        """Apply an uncommitted store forwarded by an earlier subTX."""
        if not self.system.config.coa_page_granularity:
            self._word_granular_write(address, value)
            return
        page_no = page_number(address)
        if self.space.has_page(page_no):
            self.space.get_page(page_no).write(word_index(address), value)
        else:
            self.foreign_pending.setdefault(page_no, {})[word_index(address)] = value

    def _coa_fetch(self, page_no: int) -> Generator[Event, Any, None]:
        """Copy-On-Access: fetch the committed page from the commit unit.

        One round trip; the whole 4 KiB page comes back, prefetching
        neighbouring words (section 4.2).
        """
        obs = self.system.obs
        start = self.system.env.now if obs is not None else 0.0
        target_tid = self.system.coa_target_tid(page_no, self.tid)
        yield from self.endpoint.send_ctl(
            target_tid, CTL_COA_REQUEST, (page_no, self.tid, None)
        )
        while True:
            envelope = yield from self.endpoint.wait_ctl(CTL_COA_RESPONSE)
            got_page_no, _index, page = envelope.payload
            if got_page_no == page_no:
                break
            # A stale response from before a rollback; keep waiting.
        self.core.charge_instructions(self.system.config.coa_install_instructions)
        # Install a copy, not the frame's page: a retransmit buffer may
        # still hold that object, and a duplicate must checksum over the
        # words it was stamped with, not over this worker's stores.  The
        # copy shares the page's frozen array.
        page = page.snapshot()
        self.space.install_page(page)
        pending = self.foreign_pending.pop(page_no, None)
        if pending:
            for index, value in pending.items():
                page.write(index, value)
        if obs is not None:
            obs.tracer.complete(
                CAT_PAGE_FAULT, "coa.fetch", PID_RUNTIME, self.tid, start,
                page=page_no, server=target_tid,
            )
            obs.metrics.counter("coa.page_fetches").inc()

    def _coa_fetch_word(self, page_no: int, index: int) -> Generator[Event, Any, Any]:
        """Word-granularity COA: one round trip for a single word."""
        obs = self.system.obs
        start = self.system.env.now if obs is not None else 0.0
        yield from self.endpoint.send_ctl(
            self.system.commit_tid, CTL_COA_REQUEST, (page_no, self.tid, index)
        )
        while True:
            envelope = yield from self.endpoint.wait_ctl(CTL_COA_RESPONSE)
            got_page_no, got_index, value = envelope.payload
            if got_page_no == page_no and got_index == index:
                if obs is not None:
                    obs.tracer.complete(
                        CAT_PAGE_FAULT, "coa.fetch_word", PID_RUNTIME, self.tid,
                        start, page=page_no, word=index,
                    )
                    obs.metrics.counter("coa.word_fetches").inc()
                return value

    # -- recovery ------------------------------------------------------------------------------------

    def discard_speculative_state(self) -> int:
        """FLQ phase: reinstate page protections and drop local state.

        Returns the number of pages dropped (used to cost the phase).
        """
        dropped = self.space.reprotect_all()
        self.foreign_pending.clear()
        self.current_log = []
        self.pending_forwards = []
        self.self_sync.clear()
        self.endpoint.clear()
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Worker tid={self.tid} stage={self.stage_index} replica={self.replica}>"

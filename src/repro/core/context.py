"""Execution contexts for workload loop bodies.

A workload's loop body is written once as a generator function taking a
*context* and driving all of its effects through it: word loads/stores,
pipeline dataflow, cycle-cost accounting, and speculation assertions.
Memory is reached one word per ``load``/``store`` call; a bulk read of
committed data is modelled as one load per page
(:func:`repro.workloads.common.touch_pages`).  Three contexts implement
that interface:

* :class:`MTXContext` — the speculative context used inside a worker's
  subTX.  Loads hit the worker's private memory and fault through
  Copy-On-Access; stores are logged and forwarded (``mtx_writeAll``);
  dataflow rides the DSMTX queues; speculation failures raise
  :class:`~repro.errors.MisspeculationDetected`.
* :class:`MasterContext` — direct, non-speculative execution against
  the commit unit's master memory; used for the sequential portions of
  the program and for the SEQ phase of misspeculation recovery.
* :class:`SequentialMeter` — a pure cost accumulator used to compute
  the sequential-baseline execution time without a simulator run.

Bodies are generator functions (``yield from ctx.load(...)``), so a
single body definition runs unchanged under all three contexts.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.messages import DATA, READ, WRITE
from repro.errors import (
    MisspeculationDetected,
    ProtectionFault,
    RecoveryAbort,
    TransactionError,
)
from repro.memory import AddressSpace
from repro.sim import Event

__all__ = ["MTXContext", "MasterContext", "SequentialMeter"]


class MTXContext:
    """The speculative MTX execution context (one subTX at a time)."""

    def __init__(self, worker: "Worker") -> None:  # noqa: F821 - runtime type
        self._worker = worker
        self._system = worker.system
        # Per-access state resolved once: load/store run for every word
        # a workload body touches, so attribute chains and divisions
        # there dominate the wall-clock profile.  All of these objects
        # are assigned exactly once for the lifetime of the system.
        system = worker.system
        ipc = system.cluster.instructions_per_cycle
        self._state = system.state
        self._space = worker.space
        self._charge = worker.core.charge_cycles
        self._access_cycles = system.config.access_instructions / ipc
        self._queue_op_cycles = system.cluster.queue_op_instructions / ipc
        self._page_coa = system.config.coa_page_granularity
        self.iteration = -1
        #: DATA entries received for this iteration, per label.
        self.incoming: dict[str, list] = {}
        #: True while executing this worker's first subTX of the epoch —
        #: the point where per-worker one-time state (e.g. a private
        #: copy of a shared input buffer) gets pulled in.
        self.first_on_worker = False

    # -- iteration management (called by the worker) ---------------------------------

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.incoming = {}

    # -- computation -------------------------------------------------------------------

    def compute(self, cycles: float) -> None:
        """Account ``cycles`` of computation (deferred, zero events)."""
        self._worker.core.charge_cycles(cycles)

    # -- memory ------------------------------------------------------------------------

    def load(self, address: int, speculative: bool = False) -> Generator[Event, Any, Any]:
        """Read a word from the MTX's view of memory.

        ``speculative=True`` marks the load as validating a speculated
        memory dependence: its (address, value) is forwarded to the
        try-commit unit (``mtx_read``) and checked against the value the
        earlier store actually commits.
        """
        if self._state.in_recovery:
            raise RecoveryAbort("system entered recovery mid-subTX")
        worker = self._worker
        self._charge(self._access_cycles)
        # Non-faulting page-granularity reads (the common case by far)
        # run inline; everything else goes through the worker's COA
        # machinery.
        if self._page_coa:
            try:
                value = self._space.read(address)
            except ProtectionFault as fault:
                yield from worker._coa_fetch(fault.page_number)
                value = self._space.read(address)
        else:
            value = yield from worker._word_granular_read(address)
        if speculative:
            worker.current_log.append((READ, address, value))
        return value

    def store(
        self, address: int, value: Any, forward: Any = True, nbytes: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        """Write a word speculatively.

        The store lands in the worker's private memory and is logged for
        validation and commit.  ``forward`` controls uncommitted value
        forwarding: ``True`` sends it to every later pipeline stage
        (``mtx_writeAll``); an iterable of stage indices targets specific
        stages (``mtx_writeTo``); ``False`` keeps it local to this
        worker (a thread-private location).  ``nbytes`` sets the wire
        size of the logged entry when the store stands for a bulk
        write-set (e.g. a whole output block).
        """
        if self._state.in_recovery:
            raise RecoveryAbort("system entered recovery mid-subTX")
        worker = self._worker
        self._charge(self._access_cycles)
        if self._page_coa:
            try:
                self._space.write(address, value)
            except ProtectionFault as fault:
                yield from worker._coa_fetch(fault.page_number)
                self._space.write(address, value)
        else:
            worker._word_granular_write(address, value)
        entry = (WRITE, address, value) if nbytes is None else (WRITE, address, value, nbytes)
        worker.current_log.append(entry)
        if forward is True:
            worker.pending_forwards.append((entry, None))
        elif forward:
            worker.pending_forwards.append((entry, tuple(forward)))

    # -- pipeline dataflow ----------------------------------------------------------------

    def produce(
        self,
        label: str,
        value: Any,
        nbytes: int = 16,
        to_stage: Optional[int] = None,
    ) -> Generator[Event, Any, None]:
        """Send ``value`` down the pipeline (``mtx_produce``).

        The destination is the worker executing this iteration's subTX
        of ``to_stage`` (default: the next stage).
        """
        self._check_state()
        worker = self._worker
        stage = worker.stage_index + 1 if to_stage is None else to_stage
        if not worker.stage_index < stage < self._system.num_stages:
            raise TransactionError(
                f"produce from stage {worker.stage_index} to invalid stage {stage}"
            )
        dst_tid = self._system.worker_tid_for(stage, self.iteration)
        queue = worker._fw_out.get(dst_tid)
        if queue is None:
            queue = worker._fw_out[dst_tid] = self._system.forward_queue(
                worker.tid, dst_tid
            )
        events = queue.produce((DATA, label, value), nbytes=nbytes)
        if events:
            yield from events

    def consume(self, label: str) -> Any:
        """Take the next upstream value for ``label`` (``mtx_consume``).

        All upstream data for this iteration was collected at
        ``mtx_begin`` (the subTX refreshes its inputs before running),
        so this never blocks; consuming more than was produced is a
        parallelization bug.
        """
        self._check_state()
        items = self.incoming.get(label)
        if not items:
            raise TransactionError(
                f"consume of {label!r} at iteration {self.iteration}: no data "
                "(produce/consume counts disagree)"
            )
        self._charge(self._queue_op_cycles)
        return items.pop(0)

    def peek_count(self, label: str) -> int:
        """Number of not-yet-consumed upstream values for ``label``."""
        return len(self.incoming.get(label, ()))

    # -- TLS synchronized dependences --------------------------------------------------------

    def sync_send(self, label: str, value: Any, nbytes: int = 16) -> Generator[Event, Any, None]:
        """Forward a loop-carried value to the worker executing the next
        iteration (TLS synchronized dependence).

        This is the cyclic communication pattern that puts wire latency
        on TLS's critical path (Figure 1): the value is flushed
        immediately rather than batched.
        """
        self._check_state()
        worker = self._worker
        next_tid = self._system.worker_tid_for(worker.stage_index, self.iteration + 1)
        if next_tid == worker.tid:
            worker.self_sync[label] = value
            return
        queue = self._system.sync_queue(label, worker.tid, next_tid)
        yield from queue.produce((DATA, label, value), nbytes=nbytes)
        yield from queue.flush_pending()

    def sync_recv(self, label: str) -> Generator[Event, Any, Any]:
        """Receive the loop-carried value from the previous iteration.

        Returns ``None`` for the first iteration of an epoch — the body
        must then obtain the value from committed memory instead.
        """
        self._check_state()
        worker = self._worker
        if self.iteration == self._system.state.restart_base:
            return None
        prev_tid = self._system.worker_tid_for(worker.stage_index, self.iteration - 1)
        if prev_tid == worker.tid:
            return worker.self_sync.pop(label)
        # About to block on the predecessor: push out completed log
        # batches so downstream units are never starved by this wait.
        yield from worker._flush_log_queues()
        queue = self._system.sync_queue(label, prev_tid, worker.tid)
        entry = yield from worker.endpoint.consume_from(queue)
        return entry[2]

    # -- speculation ---------------------------------------------------------------------------

    def speculate(self, condition: bool, reason: str = "") -> None:
        """Assert a speculated condition (control flow or value).

        A false condition is a misspeculation: the MTX aborts and the
        recovery protocol of section 4.3 runs.
        """
        self._check_state()
        if not condition:
            raise MisspeculationDetected(self.iteration, reason)

    def misspec(self, reason: str = "") -> None:
        """Unconditionally signal misspeculation (``mtx_misspec``)."""
        raise MisspeculationDetected(self.iteration, reason)

    def mispredict(self, address: int, predicted: Any) -> None:
        """Record a wrong memory-value prediction (injection aid).

        Logs a speculative-load observation of ``predicted`` for
        ``address``; validation at the try-commit unit will find the
        mismatch.  Unlike a failed :meth:`speculate` assertion — which
        the executing worker reports immediately — this misspeculation
        is detected *by the validation pipeline*, so the detection lag
        depends on log batching (the section 5.4 trade-off).
        """
        self._worker.current_log.append((READ, address, predicted))

    # -- internals -------------------------------------------------------------------------------

    def _check_state(self) -> None:
        if self._system.state.in_recovery:
            raise RecoveryAbort("system entered recovery mid-subTX")


class MasterContext:
    """Non-speculative execution directly against master memory."""

    def __init__(
        self,
        system: "DSMTXSystem",
        space: AddressSpace,
        core: "Core",  # noqa: F821
        record_writes: bool = False,
    ) -> None:
        self._system = system
        self._space = space
        self._core = core
        self._record = record_writes
        #: (address, value) pairs stored, in program order, when
        #: ``record_writes`` — the commit unit replays SEQ-phase writes
        #: to its hot standby from this list.
        self.written: list = []
        self.iteration = -1
        self.incoming: dict[str, list] = {}
        #: Sequential execution has no per-worker one-time setup.
        self.first_on_worker = False

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration

    def compute(self, cycles: float) -> None:
        self._core.charge_cycles(cycles)

    def load(self, address: int, speculative: bool = False) -> Generator[Event, Any, Any]:
        self._core.charge_instructions(self._system.config.access_instructions)
        return self._space.read(address)
        yield  # pragma: no cover - makes this a generator

    def store(self, address: int, value: Any, forward: bool = True,
              nbytes: Optional[int] = None) -> Generator[Event, Any, None]:
        self._core.charge_instructions(self._system.config.access_instructions)
        self._space.write(address, value)
        if self._record:
            self.written.append((address, value))
        return
        yield  # pragma: no cover - makes this a generator

    def produce(self, label: str, value: Any, nbytes: int = 16,
                to_stage: Optional[int] = None) -> Generator[Event, Any, None]:
        """Sequential execution keeps dataflow in local lists."""
        self.incoming.setdefault(label, []).append(value)
        return
        yield  # pragma: no cover - makes this a generator

    def consume(self, label: str) -> Any:
        items = self.incoming.get(label)
        if not items:
            raise TransactionError(f"sequential consume of empty {label!r}")
        return items.pop(0)

    def peek_count(self, label: str) -> int:
        return len(self.incoming.get(label, ()))

    def sync_send(self, label: str, value: Any, nbytes: int = 16) -> Generator[Event, Any, None]:
        self.incoming.setdefault(("sync", label), []).append(value)
        return
        yield  # pragma: no cover - makes this a generator

    def sync_recv(self, label: str) -> Generator[Event, Any, Any]:
        items = self.incoming.get(("sync", label))
        value = items.pop(0) if items else None
        return value
        yield  # pragma: no cover - makes this a generator

    def speculate(self, condition: bool, reason: str = "") -> None:
        """Sequential execution never speculates; nothing to check."""

    def misspec(self, reason: str = "") -> None:
        """Sequential execution cannot misspeculate."""

    def mispredict(self, address: int, predicted: Any) -> None:
        """Sequential execution makes no value predictions."""


class SequentialMeter:
    """Pure cost meter: runs bodies with no simulator, summing cycles.

    Used to obtain the sequential-baseline execution time that speedups
    are computed against (Figure 4's y-axis).
    """

    def __init__(self, system_config, space: Optional[AddressSpace] = None) -> None:
        self._config = system_config
        self._space = space if space is not None else AddressSpace("seq")
        self.cycles = 0.0
        self.iteration = -1
        self.incoming: dict[str, list] = {}
        #: Sequential execution has no per-worker one-time setup.
        self.first_on_worker = False

    # The context protocol, cost-accumulating versions. -------------------------------

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration

    def compute(self, cycles: float) -> None:
        self.cycles += cycles

    def _charge_access(self) -> None:
        self.cycles += (
            self._config.access_instructions / self._config.cluster.instructions_per_cycle
        )

    def load(self, address: int, speculative: bool = False):
        self._charge_access()
        return self._space.read(address)
        yield  # pragma: no cover - makes this a generator

    def store(self, address: int, value: Any, forward: bool = True,
              nbytes: Optional[int] = None):
        self._charge_access()
        self._space.write(address, value)
        return
        yield  # pragma: no cover - makes this a generator

    def produce(self, label: str, value: Any, nbytes: int = 16, to_stage: Optional[int] = None):
        self.incoming.setdefault(label, []).append(value)
        return
        yield  # pragma: no cover - makes this a generator

    def consume(self, label: str) -> Any:
        items = self.incoming.get(label)
        if not items:
            raise TransactionError(f"sequential consume of empty {label!r}")
        return items.pop(0)

    def peek_count(self, label: str) -> int:
        return len(self.incoming.get(label, ()))

    def sync_send(self, label: str, value: Any, nbytes: int = 16):
        self.incoming.setdefault(("sync", label), []).append(value)
        return
        yield  # pragma: no cover - makes this a generator

    def sync_recv(self, label: str):
        items = self.incoming.get(("sync", label))
        value = items.pop(0) if items else None
        return value
        yield  # pragma: no cover - makes this a generator

    def speculate(self, condition: bool, reason: str = "") -> None:
        """No speculation sequentially."""

    def misspec(self, reason: str = "") -> None:
        """No misspeculation sequentially."""

    def mispredict(self, address: int, predicted: Any) -> None:
        """No value predictions sequentially."""

    @property
    def seconds(self) -> float:
        return self.cycles / self._config.cluster.clock_hz

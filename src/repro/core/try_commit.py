"""The try-commit unit: MTX validation off the critical path.

The try-commit unit consumes the workers' access logs in sequential
program order — MTX by MTX, subTX by subTX — and performs the unified
value prediction/checking of section 3.1: a speculatively loaded value
must equal the value the program would have seen sequentially.  The unit
reconstructs that sequential view from (a) committed memory, pulled
lazily from the commit unit with the same Copy-On-Access mechanism the
workers use, and (b) an overlay of every validated-but-not-yet-committed
speculative store, applied in log order.

False (anti/output) memory dependences never reach this check — memory
versioning already broke them — so only genuinely speculated true
dependences cost validation work, and a value mismatch is exactly a
manifested speculated dependence: misspeculation.

Because validation runs in its own pipeline stage, decoupled through the
queues, its latency does not slow the workers (Figure 3(c)) — but its
*throughput* bounds the system, which is why the paper notes the
algorithm is parallelizable (section 3.2).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.messages import (
    CTL_COA_REQUEST,
    CTL_COA_RESPONSE,
    CTL_MISSPEC,
    END_SUBTX,
    READ,
    VALIDATED,
    WRITE,
)
from repro.errors import (
    ChannelFlushedError,
    NodeCrashed,
    ProcessInterrupt,
    ProtectionFault,
    RecoveryAbort,
)
from repro.memory import AddressSpace
from repro.sim import Event

__all__ = ["TryCommitUnit"]


class TryCommitUnit:
    """Validates MTXs in order; reports misspeculation to the commit unit."""

    def __init__(self, system: "DSMTXSystem", tid: int) -> None:  # noqa: F821
        self.system = system
        self.tid = tid
        self.core = system.core_of(tid)
        self.endpoint = system.endpoint_of_unit(tid)
        #: Committed-state cache, COA-populated from the commit unit.
        self.shadow = AddressSpace(f"trycommit{tid}", faulting=True)
        #: Speculative stores of validated-but-uncommitted MTXs.
        self.overlay: dict[int, Any] = {}
        #: Next iteration to validate.
        self.position = 0

    # -- main process ---------------------------------------------------------------------

    def run(self) -> Generator[Event, Any, None]:
        try:
            while True:
                if self.system.state.done:
                    return
                try:
                    yield from self._validate_epoch()
                    yield from self._park()
                    return
                except (RecoveryAbort, ChannelFlushedError):
                    yield from self.system.recovery.participate(self)
        except ProcessInterrupt as interrupt:
            if isinstance(interrupt.cause, NodeCrashed):
                # Node crash under fault injection.  The failure
                # detector will declare this node and raise
                # ClusterFailedError — validation has no replica.
                return
            raise

    #: Validation notices are flushed to the commit unit at least every
    #: this many MTXs (they also go out whenever the batch fills).
    VALIDATED_FLUSH_INTERVAL = 32

    def _validate_epoch(self) -> Generator[Event, Any, None]:
        system = self.system
        self.position = system.state.restart_base
        val_queue = system.validated_queue()
        while self.position < system.total_iterations:
            state = system.state
            if state.draining and self.position >= state.pause_target:
                # Everything before the misspeculation is validated; the
                # commit unit takes it from here.
                yield from val_queue.flush_pending()
                raise RecoveryAbort("validation paused for draining")
            iteration = self.position
            try:
                ok = yield from self._validate_mtx(iteration)
            except RecoveryAbort:
                if not state.in_recovery:
                    # Doomed mid-validation: a drain's pause target
                    # fell at or below this iteration, so its log may
                    # never complete — but the VALIDATED notices for
                    # the iterations before the target are still
                    # batched here, and the drain cannot finish
                    # without them.
                    yield from val_queue.flush_pending()
                raise
            if not ok:
                # Flush the validation notices so the drain can commit
                # everything earlier, then signal the misspeculation.
                yield from val_queue.flush_pending()
                yield from self.endpoint.send_ctl(
                    system.commit_tid, CTL_MISSPEC, iteration
                )
                raise RecoveryAbort(f"validation failed at iteration {iteration}")
            yield from val_queue.produce((VALIDATED, iteration))
            self.position += 1
            if (
                system.state.draining
                or self.position % self.VALIDATED_FLUSH_INTERVAL == 0
            ):
                yield from val_queue.flush_pending()
        yield from val_queue.flush_pending()

    def _validate_mtx(self, iteration: int) -> Generator[Event, Any, bool]:
        """Consume and check every subTX of ``iteration``, stage order."""
        system = self.system
        clean = True
        for stage in range(system.num_stages):
            worker_tid = system.worker_tid_for(stage, iteration)
            queue = system.tclog_queue(worker_tid)
            while True:
                entry = yield from self._consume_log_entry(queue, iteration)
                kind = entry[0]
                self.core.charge_instructions(system.config.check_instructions)
                if kind == END_SUBTX:
                    if entry[1] != iteration:  # pragma: no cover - invariant
                        raise RecoveryAbort(
                            f"validation stream out of sync: expected iteration "
                            f"{iteration}, got {entry}"
                        )
                    break
                if kind == WRITE:
                    self.overlay[entry[1]] = entry[2]
                elif kind == READ:
                    system.stats.reads_checked += 1
                    expected = yield from self._sequential_value(entry[1])
                    if entry[2] != expected:
                        clean = False
        return clean

    def _consume_log_entry(self, queue, iteration: int) -> Generator[Event, Any, tuple]:
        """Blocking consume of the next access-log entry, abandoning
        the wait once ``iteration`` is doomed.

        When a worker detects a misspeculation directly, it reports to
        the commit unit without ever sending that iteration's log — so
        blocking on the log of an iteration at or past the drain's
        pause target can wait forever, deadlocking the drain (which
        needs this unit's batched VALIDATED notices to finish).  The
        commit unit's ``CTL_DRAIN`` ping wakes the blocked receive;
        the pause-target check here turns the wake-up into an abort.
        """
        endpoint = self.endpoint
        delivered = queue.delivered
        state = self.system.state
        while True:
            if state.in_recovery:
                raise RecoveryAbort("recovery started while consuming")
            if state.draining and iteration >= state.pause_target:
                raise RecoveryAbort(
                    f"iteration {iteration} is doomed by the drain "
                    f"(pause target {state.pause_target})"
                )
            if delivered:
                return delivered.popleft()
            envelope = yield from endpoint._recv_one()
            endpoint._route(envelope, arrival_order=False)

    def _sequential_value(self, address: int) -> Generator[Event, Any, Any]:
        """The value the sequential program would have loaded here."""
        if address in self.overlay:
            return self.overlay[address]
        try:
            return self.shadow.read(address)
        except ProtectionFault as fault:
            yield from self._coa_fetch(fault.page_number)
            return self.shadow.read(address)

    def _coa_fetch(self, page_no: int) -> Generator[Event, Any, None]:
        """Fetch committed state, exactly as a worker does.

        Safe without races: the commit unit has committed at most up to
        the MTX this unit is validating, so the fetched page holds the
        correct sequential prefix state.
        """
        yield from self.endpoint.send_ctl(
            self.system.commit_tid, CTL_COA_REQUEST, (page_no, self.tid, None)
        )
        while True:
            envelope = yield from self.endpoint.wait_ctl(CTL_COA_RESPONSE)
            got_page_no, _index, page = envelope.payload
            if got_page_no == page_no:
                break
        self.core.charge_instructions(self.system.config.coa_install_instructions)
        self.shadow.install_page(page)

    def _park(self) -> Generator[Event, Any, None]:
        """All iterations validated; stay alive until global termination
        (no further misspeculation is possible once everything is
        validated, but the protocol keeps the unit addressable)."""
        while not self.system.state.done:
            if self.system.state.in_recovery:
                raise RecoveryAbort("recovery while parked")
            envelope = yield from self.endpoint._recv_one()
            self.endpoint._route(envelope, arrival_order=False)

    # -- recovery -------------------------------------------------------------------------------

    def discard_speculative_state(self) -> int:
        """FLQ phase: drop the shadow cache and overlay."""
        dropped = self.shadow.reprotect_all()
        self.overlay.clear()
        self.endpoint.clear()
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TryCommitUnit tid={self.tid} position={self.position}>"

"""Message formats used inside the DSMTX runtime.

Two layers of framing exist:

* **Envelopes** travel through MPI into a unit's inbox: either a queue
  batch (many log/data entries amortizing one MPI call) or a control
  message (COA request/response, misspeculation, validation notice).
  Every envelope carries the sender's recovery *epoch*; stale envelopes
  that were in flight across a rollback are discarded on receipt.

* **Entries** are the individual records inside a batch: speculative
  writes ``(W, addr, value)``, speculative reads ``(R, addr, value)``
  for value-based validation, subTX end markers, and raw dataflow items
  produced through ``mtx_produce``.
"""

from __future__ import annotations

from typing import Any, NamedTuple

__all__ = [
    "WRITE",
    "READ",
    "END_SUBTX",
    "DATA",
    "VALIDATED",
    "REPL_FRONTIER",
    "REPL_CHECKPOINT",
    "CTL_COA_REQUEST",
    "CTL_COA_RESPONSE",
    "CTL_MISSPEC",
    "CTL_VALIDATED",
    "CTL_WORKER_DONE",
    "CTL_NODE_FAILED",
    "CTL_PROMOTE",
    "SF_REPL_ROUND",
    "SF_REPL_CHECKPOINT",
    "SF_STOP",
    "BatchEnvelope",
    "ControlEnvelope",
    "Frame",
    "Ack",
    "FRAME_HEADER_BYTES",
    "entry_bytes",
]

# -- batch entry kinds ---------------------------------------------------------

#: Speculative store: ("W", address, value).
WRITE = "W"
#: Speculative load observation: ("R", address, value_read).
READ = "R"
#: End-of-subTX marker: ("END", iteration, stage_index).
END_SUBTX = "END"
#: Dataflow item from mtx_produce: ("DATA", value).
DATA = "DATA"
#: Validation notice from the try-commit unit: ("VAL", iteration).
#: Batched on a queue rather than sent per MTX, so the commit unit's
#: receive overhead amortizes across many validations.
VALIDATED = "VAL"
#: Replication frontier marker on the commit -> standby stream:
#: ("RF", frontier).  Every committed write of iterations below
#: ``frontier`` precedes this marker on the stream, so the standby's
#: replay log is a consistent sequential prefix at each marker.
REPL_FRONTIER = "RF"
#: Replication checkpoint marker: ("RC", frontier).  The primary just
#: took an epoch checkpoint; the standby folds its replay log into its
#: base image (mirroring the checkpoint) and starts a fresh log.
REPL_CHECKPOINT = "RC"

# -- control message kinds ------------------------------------------------------

#: Worker -> commit: fetch a committed page.  Payload: (page_no, tid).
CTL_COA_REQUEST = "coa_request"
#: Commit -> worker: page copy.  Payload: (page_no, Page snapshot).
CTL_COA_RESPONSE = "coa_response"
#: Any unit -> commit: misspeculation.  Payload: iteration.
CTL_MISSPEC = "misspec"
#: Try-commit -> commit: MTX validated.  Payload: iteration.
CTL_VALIDATED = "validated"
#: Worker -> commit: finished all assigned iterations.  Payload: tid.
CTL_WORKER_DONE = "worker_done"
#: Commit -> try-commit: a drain began (or its pause target dropped).
#: Payload: pause target iteration.  A wake-up ping: the try-commit
#: unit may be blocked consuming the access log of an iteration at or
#: past the pause target, whose worker misspeculated and will never
#: send it; the authoritative signal is ``SystemState.pause_target``.
CTL_DRAIN = "drain"
#: Failure detector -> commit: a node stopped heartbeating.  Payload:
#: node index.  Injected locally at the commit unit (the detector runs
#: on the commit node), so it is a wake-up ping, not wire traffic; the
#: authoritative signal is ``SystemState.failover_pending``.
CTL_NODE_FAILED = "node_failed"
#: Standby watcher -> commit standby: the primary's node died, promote.
#: Payload: node index.  Like ``CTL_NODE_FAILED``, a local wake-up ping
#: (watcher and standby share a node); the authoritative signal is
#: ``SystemState.promote_pending``.
CTL_PROMOTE = "promote"

# -- speculative_for fault-tolerant protocol kinds -------------------------------
# Shared between the round scheduler (repro.paradigms.specfor) and the
# reservation-service standby (repro.core.standby); defined here so the
# standby never imports the paradigm module (which imports the runtime
# that imports the standby).

#: Reservation service -> standby: one completed round.  Payload:
#: ("SFR", round-record tuple, committed delta entries, carried list,
#: table counters) — everything the standby's shadow of the primary's
#: scheduling state needs to advance one round.
SF_REPL_ROUND = "SFR"
#: Reservation service -> standby: epoch checkpoint marker ("SFC",
#: frontier).  The standby folds its replay log into its base image.
SF_REPL_CHECKPOINT = "SFC"
#: Reservation service -> worker/standby: the loop is done, exit.
SF_STOP = "sf_stop"


class BatchEnvelope(NamedTuple):
    """A queue batch delivered into a unit inbox."""

    queue_name: str
    epoch: int
    credit_id: int
    entries: tuple
    nbytes: int


class ControlEnvelope(NamedTuple):
    """A control message delivered into a unit inbox."""

    kind: str
    epoch: int
    sender_tid: int
    payload: Any


class Frame(NamedTuple):
    """Reliable-transport framing around an envelope (fault-tolerant
    mode only): a per-(src, dst) sequence number the receiver uses to
    deduplicate, reorder, and cumulatively acknowledge unit traffic.

    Under ``SystemConfig.integrity`` the sender also stamps a CRC32 of
    the payload's canonical encoding (:mod:`repro.core.integrity`);
    ``checksum == -1`` means unstamped (integrity off).
    """

    src_tid: int
    dst_tid: int
    seq: int
    payload: Any
    checksum: int = -1


class Ack(NamedTuple):
    """Cumulative acknowledgement: every frame with ``seq <= upto`` on
    the (src, dst) link has been ingested at the destination."""

    src_tid: int
    dst_tid: int
    upto: int


#: Extra wire bytes the reliable transport adds per framed envelope.
FRAME_HEADER_BYTES = 8

#: Wire size of one log entry: an (address, value) pair of words.
ENTRY_BYTES = 16
#: Wire size of a subTX end marker.
MARKER_BYTES = 8


def entry_bytes(entry: tuple) -> int:
    """Wire size of one batch entry.

    Write entries may carry an explicit size as a fourth element: a
    store standing for a bulk write-set (e.g. a compressed block in a
    TLS transaction) is shipped at its real volume.
    """
    kind = entry[0]
    if kind == END_SUBTX:
        return MARKER_BYTES
    if kind == WRITE and len(entry) > 3 and isinstance(entry[3], int):
        return entry[3]
    return ENTRY_BYTES

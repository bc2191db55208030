"""The commit unit.

The commit unit owns the program's non-speculative memory state.  It:

* serves Copy-On-Access page requests from workers and the try-commit
  unit (section 4.2);
* performs **group transaction commit**: once the try-commit unit has
  validated an MTX, all of its subTXs' stores are applied to master
  memory in subTX (program) order, so the last update to a location
  wins (section 3.1);
* orchestrates the section 4.3 rollback, one protocol for a
  misspeculation and for a node loss: ERM, FLQ, then SEQ (re-executing
  the uncommitted iterations up to and including the aborted one in
  single-threaded fashion) or the re-partition onto the survivors, then
  resume.  The rollback's progress lives on the system state, so a
  standby promoted mid-rollback finishes it.

The unit is event-driven over its inbox, so it can interleave COA
service with commit traffic — workers are never blocked on the commit
unit being "busy committing", only queued behind it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Generator

from repro.core.context import MasterContext
from repro.core.integrity import (
    CHECKSUM_BYTES,
    DIGEST_MASK,
    empty_page_digest,
    page_digest,
    space_digest,
    word_digest,
)
from repro.core.messages import (
    CTL_COA_REQUEST,
    CTL_COA_RESPONSE,
    CTL_DRAIN,
    CTL_MISSPEC,
    CTL_NODE_FAILED,
    CTL_PROMOTE,
    CTL_VALIDATED,
    CTL_WORKER_DONE,
    END_SUBTX,
    MARKER_BYTES,
    REPL_CHECKPOINT,
    REPL_FRONTIER,
    VALIDATED,
    WRITE,
)
from repro.core.stats import CheckpointRecord, FailureRecord, RecoveryRecord
from repro.errors import NodeCrashed, ProcessInterrupt, RecoveryError
from repro.memory import AddressSpace, Page, page_number
from repro.memory.layout import PAGE_MASK, PAGE_SHIFT, WORD_SHIFT
from repro.memory.page import ZERO_WORDS
from repro.obs.tracer import (
    CAT_COMMIT,
    CAT_FT_CHECKPOINT,
    CAT_INTEGRITY,
    CAT_PAGE_FAULT,
    CAT_RECOVERY_DRAIN,
    CAT_RECOVERY_ERM,
    CAT_RECOVERY_FLQ,
    CAT_RECOVERY_SEQ,
    PID_RUNTIME,
)
from repro.sim import Event

__all__ = ["CommitUnit"]

#: Instructions to service one COA request (page lookup + copy).
COA_SERVICE_INSTRUCTIONS = 300


class CommitUnit:
    """Commit unit: master memory, group commit, recovery orchestration."""

    def __init__(self, system: "DSMTXSystem", tid: int) -> None:  # noqa: F821
        self.system = system
        self.tid = tid
        self.core = system.core_of(tid)
        self.endpoint = system.endpoint_of_unit(tid)
        #: The program's committed memory.
        self.master = AddressSpace(f"commit{tid}", faulting=False)
        #: Next iteration to commit (everything below is committed).
        self.next_commit = 0
        #: Epoch checkpointing (fault-tolerant mode only).
        self._ft = system.config.fault_tolerance
        self._last_checkpoint_iteration = 0
        self._words_since_checkpoint = 0
        #: Replication stream to the hot standby (commit replication);
        #: ``None`` without a standby — and on a *promoted* unit, which
        #: runs without a second standby (tid != commit_tid at its
        #: construction, which happens before the layout swap).
        self._repl = (
            system.repl_queue()
            if self._ft
            and system.standby_tid is not None
            and tid == system.commit_tid
            else None
        )
        #: Integrity mode: the digest table of the content this unit
        #: itself put in master memory — page number -> page digest, for
        #: every page holding a word it seeded or wrote (a page with no
        #: entry is meant to be empty), and address -> that word's term.
        #: Commits and SEQ re-execution update it per written word; a
        #: silent flip does not — that asymmetry is what the scrubber
        #: audits.  ``None`` when off.
        self._integrity = self._ft and system.config.integrity
        self._page_digests: dict | None = {} if self._integrity else None
        self._word_digests: dict | None = {} if self._integrity else None
        #: Integrity mode: pages COA-served while master held no entry
        #: for them (:meth:`_serve_coa`); the scrubber counts them with
        #: master's pages.  ``None`` when off.
        self._served_pages: set | None = set() if self._integrity else None
        #: Promotion provenance, set on a promoted unit: the dead
        #: primary's node and the promotion fields of its FailureRecord.
        self._promotion = None
        #: Iterations the dead primary had committed past the replicated
        #: frontier (set at promotion; re-executed by the survivors).
        self._recommitted = 0
        self._reset_buffers()

    def _reset_buffers(self) -> None:
        #: Per-iteration, per-stage committed-to-be write lists.
        self.writes_by_iteration: dict[int, dict[int, list]] = {}
        #: Stages whose END marker arrived, per iteration.
        self.ends_by_iteration: dict[int, set[int]] = {}
        #: Iterations validated by the try-commit unit.
        self.validated: set[int] = set()
        #: In-progress entry groups per log queue (between END markers).
        self._open_groups: dict[str, list] = {}

    # -- main process --------------------------------------------------------------------------

    def run(self) -> Generator[Event, Any, None]:
        """Main loop, absorbing a crash of our own node.

        Without commit replication the chaos engine refuses to crash the
        commit node (it raises :class:`ClusterFailedError` instead), so
        the interrupt below can only reach a *replicated* primary — the
        standby takes over, and this process simply stops.
        """
        try:
            yield from self._run()
        except ProcessInterrupt as interrupt:
            if isinstance(interrupt.cause, NodeCrashed):
                return
            raise

    def _run(self) -> Generator[Event, Any, None]:
        system = self.system
        state = system.state
        if self._integrity:
            self._seed_digests()
        # A promoted unit may inherit a rollback in flight even with
        # nothing left to commit: survivors wait for it at a barrier.
        while self.next_commit < system.total_iterations or state.rollback is not None:
            if state.rollback is not None or state.failover_pending or (
                state.draining and self.next_commit >= state.pause_target
            ):
                yield from self._rollback()
                continue
            kind, item = yield from self.endpoint.next_message()
            if kind == "ctl":
                yield from self._dispatch_ctl(item)
            else:  # "batch": drain the queue's newly delivered entries
                self._drain_queue(item)
                yield from self._advance_commits()
        # A node declared dead with nothing left to commit needs no
        # rollback, but it still gets its record.
        while state.failover_pending:
            self._record_failure(state.failover_pending.pop(0), self.next_commit, 0)
        state.terminate()
        system.flush_all_inboxes()

    # -- message handling -------------------------------------------------------------------------

    def _dispatch_ctl(self, envelope) -> Generator[Event, Any, None]:
        kind = envelope.kind
        if kind == CTL_COA_REQUEST:
            yield from self._serve_coa(envelope.payload)
        elif kind == CTL_VALIDATED:
            self.validated.add(envelope.payload)
            yield from self._advance_commits()
        elif kind == CTL_MISSPEC:
            self._begin_or_extend_draining(envelope.payload)
            if envelope.sender_tid != self.system.trycommit_tid:
                # A worker detected this misspeculation, so its subTX
                # log for that iteration will never be sent — but the
                # try-commit unit may already be blocked consuming it,
                # with validation notices for earlier iterations still
                # batched locally.  The drain needs those notices to
                # finish; ping the unit so it re-checks the pause
                # target and flushes (no ping when the try-commit unit
                # reported the misspeculation itself: it has already
                # flushed and aborted).
                yield from self.endpoint.send_ctl(
                    self.system.trycommit_tid, CTL_DRAIN, envelope.payload
                )
        elif kind == CTL_WORKER_DONE:
            pass
        elif kind == CTL_NODE_FAILED or kind == CTL_PROMOTE:
            # Wake-up pings from the failure detector / standby watcher;
            # the authoritative signals (state.failover_pending,
            # state.promote_pending) are handled at the run-loop top.  A
            # promoted unit may find a leftover CTL_PROMOTE ping in the
            # endpoint it inherited from its standby life.
            pass
        else:  # pragma: no cover - defensive
            raise RecoveryError(f"commit unit got unexpected control {kind!r}")

    def _serve_coa(self, payload) -> Generator[Event, Any, None]:
        """Answer a Copy-On-Access request with committed data: a whole
        page copy (page granularity — the prefetching design the paper
        adopts) or a single word (the ablation's word granularity)."""
        page_no, requester_tid, word_index = payload
        obs = self.system.obs
        start = self.system.env.now if obs is not None else 0.0
        self.core.charge_instructions(COA_SERVICE_INSTRUCTIONS)
        page = self.master.pages.get(page_no)
        if page is None:
            # Never written: answered with an empty page, and master
            # gains no page-table entry (a first touch costs a round
            # trip, not committed memory).  The scrubber still counts
            # the page (:meth:`scrub_once`).
            page = Page(page_no)
            if self._served_pages is not None:
                self._served_pages.add(page_no)
        else:
            if self._integrity:
                # COA serves committed state: a flip the next sweep
                # would find is repaired before a worker computes on it.
                self._audit_page(page)
            if word_index is None:
                page = page.snapshot()  # shares the committed frozen array
        if word_index is None:
            self.system.stats.coa_pages_served += 1
            self.system.stats.record_queue_bytes("coa", self.system.cluster.page_bytes)
            yield from self.endpoint.send_ctl(
                requester_tid,
                CTL_COA_RESPONSE,
                (page_no, None, page),
                nbytes=self.system.cluster.page_bytes,
            )
        else:
            value = page.read(word_index)
            self.system.stats.coa_words_served += 1
            self.system.stats.record_queue_bytes("coa", 16)
            yield from self.endpoint.send_ctl(
                requester_tid,
                CTL_COA_RESPONSE,
                (page_no, word_index, value),
                nbytes=16,
            )
        if obs is not None:
            obs.tracer.complete(
                CAT_PAGE_FAULT, "coa.serve", PID_RUNTIME, self.tid, start,
                page=page_no, requester=requester_tid,
            )
            obs.metrics.counter("coa.serves").inc()

    def _drain_queue(self, queue) -> None:
        """Group a clog queue's entries into per-iteration write sets.

        Groups hold the ``W`` write-log entries themselves, which
        :meth:`_apply_group` applies wholesale at commit.
        """
        group = self._open_groups.setdefault(queue.name, [])
        delivered = queue.delivered
        while delivered:
            entry = delivered.popleft()
            kind = entry[0]
            if kind == WRITE:
                group.append(entry)
            elif kind == VALIDATED:
                self.validated.add(entry[1])
            elif kind == END_SUBTX:
                iteration, stage = entry[1], entry[2]
                if iteration >= self.next_commit:
                    self.writes_by_iteration.setdefault(iteration, {})[stage] = group
                    self.ends_by_iteration.setdefault(iteration, set()).add(stage)
                group = []
        self._open_groups[queue.name] = group

    def _mtx_complete(self, iteration: int) -> bool:
        ends = self.ends_by_iteration.get(iteration, ())
        return len(ends) == self.system.num_stages

    def _advance_commits(self) -> Generator[Event, Any, None]:
        """Group-commit every in-order MTX that is validated and whose
        subTX logs have fully arrived."""
        system = self.system
        obs = system.obs
        start = system.env.now if obs is not None else 0.0
        repl = self._repl
        committed, committed_words = 0, 0
        while (
            self.next_commit < system.total_iterations
            and self.next_commit in self.validated
            and self._mtx_complete(self.next_commit)
        ):
            iteration = self.next_commit
            per_stage = self.writes_by_iteration.pop(iteration)
            self.ends_by_iteration.pop(iteration, None)
            self.validated.discard(iteration)
            words = 0
            for stage in sorted(per_stage):
                writes = per_stage[stage]
                words += self._apply_group(writes)
                if repl is not None:
                    # Stream in the exact apply order so the standby's
                    # replay reproduces master memory word for word.
                    # Entries are re-framed as bare (W, a, v) triples (a
                    # 4th nbytes element prices the *log* wire, not the
                    # replication stream).
                    for entry in writes:
                        yield from repl.produce((WRITE, entry[1], entry[2]))
            self.core.charge_instructions(words * system.config.commit_instructions)
            system.stats.words_committed += words
            system.stats.committed_mtxs += 1
            committed += 1
            committed_words += words
            self.next_commit += 1
            if repl is not None:
                yield from repl.produce(
                    (REPL_FRONTIER, self.next_commit), nbytes=MARKER_BYTES
                )
        if committed and self._ft:
            if self._maybe_checkpoint(committed_words) and repl is not None:
                if self._integrity:
                    # End-to-end checkpoint digest: the standby folds
                    # its replay log at this marker and verifies the
                    # result against the primary's master digest.
                    yield from repl.produce(
                        (
                            REPL_CHECKPOINT,
                            self.next_commit,
                            space_digest(self.master),
                        ),
                        nbytes=MARKER_BYTES + CHECKSUM_BYTES,
                    )
                else:
                    yield from repl.produce(
                        (REPL_CHECKPOINT, self.next_commit), nbytes=MARKER_BYTES
                    )
            if repl is not None:
                # Bound replication lag to one group-commit round: the
                # standby's frontier is at most a round behind.
                yield from repl.flush_pending()
        yield from self.core.drain()
        if obs is not None and committed:
            obs.tracer.complete(
                CAT_COMMIT, "group_commit", PID_RUNTIME, self.tid, start,
                mtxs=committed, words=committed_words,
            )
            obs.tracer.counter_sample(
                "committed_mtxs", PID_RUNTIME, self.tid, mtxs=self.next_commit
            )
            obs.metrics.counter("commit.group_commits").inc()
            obs.metrics.histogram(
                "commit.words_per_round", buckets=(1, 4, 16, 64, 256, 1024, 4096)
            ).observe(committed_words)

    def _apply_group(self, writes: list) -> int:
        """Apply one subTX's ``W`` log entries to master, last write
        wins, and return the number of words applied.

        In integrity mode the words are digested *before* the caller's
        replication stream yields: the scrubber can run at any yield
        point, and a stale table entry would read this legitimate
        commit as corruption."""
        if self.system.config.coa_replicas:
            self._check_read_only(writes)
        pairs = [(entry[1], entry[2]) for entry in writes]
        words = self.master.apply_writes(pairs)
        if self._integrity:
            self._digest_writes(pairs)
        return words

    def _maybe_checkpoint(self, committed_words: int) -> bool:
        """Epoch checkpointing (fault-tolerant mode): every
        ``checkpoint_interval_mtxs`` commits, persist the words written
        since the previous checkpoint plus the commit frontier.

        Master memory is already a consistent sequential prefix by
        construction (only in-order validated MTXs touch it), so the
        checkpoint is an incremental flush, not a stop-the-world
        snapshot — its cost scales with the delta, charged to the
        commit core like any other commit work.

        Returns True when a checkpoint was taken (the caller then
        mirrors it to the standby with a ``REPL_CHECKPOINT`` marker).
        """
        config = self.system.config
        self._words_since_checkpoint += committed_words
        if (
            self.next_commit - self._last_checkpoint_iteration
            < config.checkpoint_interval_mtxs
        ):
            return False
        words = self._words_since_checkpoint
        self.core.charge_instructions(
            config.checkpoint_base_instructions
            + words * config.checkpoint_word_instructions
        )
        self.system.stats.checkpoints.append(
            CheckpointRecord(
                iteration=self.next_commit, words=words, at=self.system.env.now
            )
        )
        self._last_checkpoint_iteration = self.next_commit
        self._words_since_checkpoint = 0
        obs = self.system.obs
        if obs is not None:
            obs.tracer.instant(
                CAT_FT_CHECKPOINT, f"checkpoint:{self.next_commit}",
                PID_RUNTIME, self.tid, iteration=self.next_commit, words=words,
            )
            obs.metrics.counter("ft.checkpoints").inc()
        return True

    # -- integrity scrubbing (integrity mode) ------------------------------------------

    def _seed_digests(self) -> None:
        """Seed the digest table from the current master: the workload
        prologue's initial state for a fresh unit, the replayed
        checkpoint image for a promoted one."""
        self._page_digests = {}
        self._word_digests = {}
        self._digest_writes(
            (page.number << PAGE_SHIFT | index << WORD_SHIFT, value)
            for page in self.master.iter_pages()
            for index, value in page.items()
        )

    def _digest_writes(self, writes) -> None:
        """Fold ``(address, value)`` words this unit put in master into
        the digest table, in apply order (the last write to an address
        wins, as in master).

        Each word's new term replaces the term this unit recorded for
        the address, never one recomputed from the word master holds
        now: a silent flip in a word a commit overwrites is healed by
        the write, and a flip in a word it does not overwrite stays a
        mismatch for the scrubber instead of being digested into the
        table."""
        pages = self._page_digests
        words = self._word_digests
        for address, value in writes:
            number = address >> PAGE_SHIFT
            term = word_digest((address & PAGE_MASK) >> WORD_SHIFT, value)
            digest = pages.get(number)
            if digest is None:
                digest = empty_page_digest(number)
            pages[number] = (digest + term - words.get(address, 0)) & DIGEST_MASK
            words[address] = term

    def scrub_once(self) -> int:
        """One scrub sweep: audit every committed page against the
        digest table of what this unit put there.

        Every mutation of master memory goes through commit bookkeeping
        and updates the table per written word; a silent flip does not
        — so a page whose content no longer matches its recorded digest
        has been corrupted in place.  A page with no table entry is
        meant to be empty.  A never-written page in master (``ZERO_WORDS``:
        every store and every chaos flip swaps in a private array first;
        a master read materializes one) with no table entry costs one
        identity check and one lookup.  A never-written page COA-served
        from outside master costs nothing to audit: no flip can reach a
        page master does not hold.  ``ft_scrub_pages`` counts both kinds,
        each once per sweep, and the sweep charges
        ``checkpoint_word_instructions`` per present word it audits.

        Repair comes from the replicated copy when it is provably
        current: the standby's folded image plus its replay log
        reconstruct the page at the replicated frontier, and when that
        reconstruction matches the table's digest (no commit has
        touched the page since), it is installed over the corrupted
        page — a management-path page fetch, priced on the commit core
        like a COA install.  Otherwise the corruption is counted
        unrepairable: the run finishes, but the resilience report flags
        it instead of presenting the poisoned words as committed
        results.

        Returns the number of corrupted pages found this sweep.
        """
        system = self.system
        stats = system.stats
        table = self._page_digests
        stats.ft_scrub_rounds += 1
        found = 0
        audited_words = 0
        pages = self.master.pages
        # Every other page is never-written and meant to be empty: clean.
        to_digest = [
            page for page in pages.values()
            if page.words is not ZERO_WORDS or page.number in table
        ]
        to_digest.sort(key=attrgetter("number"))
        for page in to_digest:
            if page.words is not ZERO_WORDS:
                audited_words += page.present_mask.bit_count()
            if self._audit_page(page):
                found += 1
        # Count master's pages and the never-written pages served from
        # outside it, each once: drop the served pages master has since
        # gained.
        served = self._served_pages
        served.difference_update(pages)
        stats.ft_scrub_pages += len(pages) + len(served)
        self.core.charge_instructions(
            audited_words * system.config.checkpoint_word_instructions
        )
        return found

    def _audit_page(self, page) -> bool:
        """Audit one master page against the digest table.

        On a mismatch, count the corruption, repair the page from the
        standby's copy when :meth:`_repair_page` can, and trace the
        outcome.  Returns True when the page was corrupted.  The
        comparison charges no simulated time (a repair is priced by
        :meth:`_repair_page`): :meth:`scrub_once` prices its sweep per
        audited word, and a COA serve (:meth:`_serve_coa`) audits for
        free.
        """
        number = page.number
        if page.words is ZERO_WORDS:
            actual = empty_page_digest(number)
        else:
            actual = page_digest(page)
        expected = self._page_digests.get(number)
        if expected is None:
            expected = empty_page_digest(number)
        if actual == expected:
            return False
        stats = self.system.stats
        stats.ft_corruptions_detected += 1
        repaired = self._repair_page(page, expected)
        if repaired:
            stats.ft_corruptions_repaired += 1
        else:
            stats.ft_corruptions_unrepairable += 1
        obs = self.system.obs
        if obs is not None:
            obs.tracer.instant(
                CAT_INTEGRITY, "scrub_corruption", PID_RUNTIME, self.tid,
                page=number, repaired=repaired,
            )
            obs.metrics.counter(
                "integrity.scrub_repaired" if repaired
                else "integrity.scrub_unrepairable"
            ).inc()
        return True

    def _repair_page(self, page, expected: int) -> bool:
        """Restore a corrupted master page from the standby's copy.

        Only a provably *current* copy is used: image + replay log give
        the page at the replicated frontier, verified against the
        table's digest before installation.  A stale or absent copy (no
        standby, standby dead or promoted, or commits landed on the page
        since the frontier) refuses the repair — installing old data
        would be a second corruption.  An installed copy holds exactly
        the content the table records, so the table stays as it is.
        """
        from repro.memory import word_index

        system = self.system
        standby = getattr(system, "standby", None)
        if (
            standby is None
            or standby.promoted
            or system.standby_tid in system.dead_tids
        ):
            return False
        base = standby.image.pages.get(page.number)
        candidate = base.snapshot() if base is not None else Page(page.number)
        for address, value in standby.replay_log:
            if page_number(address) == page.number:
                candidate.install_word(word_index(address), value)
        if page_digest(candidate) != expected:
            return False
        # The candidate is discarded: its array (a private list, or a
        # tuple shared copy-on-write with the image) becomes the page's.
        page.words = candidate.words
        page.present_mask = candidate.present_mask
        # Management-path fetch: page bytes on the wire, an install on
        # the commit core.
        system.stats.record_queue_bytes("scrub", system.cluster.page_bytes)
        self.core.charge_instructions(system.config.coa_install_instructions)
        return True

    def _check_read_only(self, writes) -> None:
        """COA replicas rely on read-only pages never being committed
        to; a violation is a workload bug, not a recoverable event."""
        uva = self.system.uva
        for entry in writes:
            address = entry[1]
            page_no = page_number(address)
            if uva.page_is_read_only(page_no):
                raise RecoveryError(
                    f"commit to read-only page {page_no} "
                    f"(address {address:#x}); read-only declarations must "
                    "cover only immutable input data"
                )

    # -- recovery orchestration -----------------------------------------------------------------------

    def _begin_or_extend_draining(self, misspec_iteration: int) -> None:
        """A misspeculation notice arrived: start (or tighten) the drain.

        Committed-side progress continues until every MTX before the
        misspeculated one has committed; releasing the flow-control
        credits lets producers blocked on full queues reach their next
        boundary check instead of stalling the drain.
        """
        state = self.system.state
        if state.draining:
            state.lower_pause_target(misspec_iteration)
            return
        state.begin_draining(misspec_iteration, self.system.env.now)
        obs = self.system.obs
        if obs is not None:
            obs.tracer.instant(
                CAT_RECOVERY_DRAIN, "misspec.detected", PID_RUNTIME, self.tid,
                iteration=misspec_iteration,
            )
            obs.metrics.counter("recovery.misspec_notices").inc()
        for queue in self.system.all_queues():
            queue.release_all_credits()

    def _rollback(self) -> Generator[Event, Any, None]:
        """The section 4.3 rollback, one protocol for a misspeculation
        and a node loss: wake every unit, ERM, FLQ, a middle step,
        resume, records.  The middle step is SEQ over ``[next_commit ..
        target]`` for a drained misspeculation, or the re-partition onto
        the survivors for a node loss (master memory is a consistent
        sequential prefix, so the commit frontier is the restart base).
        A node failure goes first, even ahead of a drain: a surviving
        misspeculating worker re-reports afterwards.

        Progress lives on ``state.rollback``.  A promoted standby that
        inherits a rollback re-enters it at the first barrier that has
        not released since it began (the dead unit's own arrival may
        have released one before the declaration withdrew it), and
        re-runs a SEQ the crash cut short from its replicated frontier.
        """
        system = self.system
        env = system.env
        state = system.state
        recovery = system.recovery
        erm, flq, resume = recovery.barriers
        rollback = state.rollback
        if rollback is None:
            if state.failover_pending:
                request = state.failover_pending[0]
                target, detected_at = None, request[2]
            else:
                request, target = None, state.pause_target
                detected_at = state.drain_started_at
                system.stats.misspeculations += 1
            rollback = state.begin_recovery(
                target, request, detected_at=detected_at, started_at=env.now,
                generations=(erm.generation, flq.generation, resume.generation),
                squashed=sum(
                    1 for i in self.ends_by_iteration if i >= self.next_commit
                ),
            )
        erm_generation, flq_generation, resume_generation = rollback.generations
        if erm.generation == erm_generation:
            # Wake everyone: release flow-control credits and flush
            # inboxes; blocked units funnel into recovery.participate.
            for queue in system.all_queues():
                queue.release_all_credits()
            system.flush_all_inboxes()
            self.endpoint.clear()
            yield from recovery._barrier_cost(self)
            yield erm.wait(self.tid)
        if rollback.erm_done is None:
            rollback.erm_done = env.now
        if flq.generation == flq_generation:
            # FLQ: drop all speculative state (ours and every queue's).
            discarded = 0
            for queue in system.all_queues():
                discarded += queue.discard()
            rollback.discarded += discarded
            self._reset_buffers()
            self.core.charge_instructions(
                discarded * system.cluster.queue_op_instructions
            )
            yield from recovery._barrier_cost(self)
            yield flq.wait(self.tid)
        if rollback.flq_done is None:
            rollback.flq_done = env.now
        target = rollback.target
        if target is not None:
            # SEQ: single-threaded re-execution of [next_commit .. target].
            context = MasterContext(
                system, self.master, self.core,
                record_writes=self._repl is not None or self._integrity,
            )
            iterations = range(self.next_commit, target + 1)
            for iteration in iterations:
                context.begin_iteration(iteration)
                yield from system.workload_sequential_body()(context)
            yield from self.core.drain()
            rollback.seq_done = env.now
            rollback.reexecuted += len(iterations)
            system.stats.committed_mtxs += len(iterations)
            self.next_commit = target + 1
            if self._integrity:
                # SEQ wrote master directly; digest its words in write order.
                self._digest_writes(context.written)
            if self._repl is not None:
                # The standby needs SEQ's words too, under the advanced
                # frontier.
                for address, value in context.written:
                    yield from self._repl.produce((WRITE, address, value))
                yield from self._repl.produce(
                    (REPL_FRONTIER, self.next_commit), nbytes=MARKER_BYTES
                )
                yield from self._repl.flush_pending()
        else:
            system.apply_node_failure(*rollback.request[:2])
            if self._repl is not None and system.standby_tid in system.dead_tids:
                # The failure took the *standby*: stop streaming — a
                # second commit-node loss is now unrecoverable again.
                self._repl = None
        if state.in_recovery:  # else the dead primary resumed already
            state.resume(restart_base=self.next_commit)
        if resume.generation == resume_generation:
            yield from recovery._barrier_cost(self)
            yield resume.wait(self.tid)
        state.rollback = None
        # Records, spans and metrics: each cause has its own.
        obs = system.obs
        tracer = obs.tracer if obs is not None else None
        tid = self.tid
        started, erm_done, flq_done, seq_done, discarded, squashed = (
            rollback.started_at, rollback.erm_done, rollback.flq_done,
            rollback.seq_done, rollback.discarded, rollback.squashed,
        )
        if target is not None:
            detected_at, reexecuted = rollback.detected_at, rollback.reexecuted
            system.stats.recoveries.append(
                RecoveryRecord(
                    misspec_iteration=target,
                    detected_at=detected_at,
                    drain_seconds=started - detected_at,
                    erm_seconds=erm_done - started,
                    flq_seconds=flq_done - erm_done,
                    seq_seconds=seq_done - flq_done,
                    squashed_iterations=squashed,
                    reexecuted_iterations=reexecuted,
                )
            )
            if tracer is not None:
                tracer.complete(
                    CAT_RECOVERY_DRAIN, "drain", PID_RUNTIME, tid, detected_at,
                    end_s=started, iteration=target,
                )
                tracer.complete(
                    CAT_RECOVERY_ERM, "erm", PID_RUNTIME, tid, started, end_s=erm_done
                )
                tracer.complete(
                    CAT_RECOVERY_FLQ, "flq", PID_RUNTIME, tid, erm_done,
                    end_s=flq_done, discarded=discarded,
                )
                tracer.complete(
                    CAT_RECOVERY_SEQ, "seq", PID_RUNTIME, tid, flq_done,
                    end_s=seq_done, reexecuted=reexecuted,
                )
                obs.metrics.counter("recovery.episodes").inc()
                obs.metrics.counter("recovery.squashed_iterations").inc(squashed)
                obs.metrics.counter("recovery.reexecuted_iterations").inc(reexecuted)
            return
        request = rollback.request
        self._record_failure(request, state.restart_base, squashed)
        node, detected_at = request[0], request[2]
        if tracer is not None:
            from repro.obs.tracer import CAT_FT_FAILOVER

            tracer.complete(
                CAT_FT_FAILOVER, f"failover:node{node}", PID_RUNTIME, tid,
                detected_at, node=node, lost_iterations=squashed,
                restart_base=state.restart_base,
            )
            tracer.complete(
                CAT_RECOVERY_ERM, "failover.erm", PID_RUNTIME, tid,
                detected_at, end_s=erm_done,
            )
            tracer.complete(
                CAT_RECOVERY_FLQ, "failover.flq", PID_RUNTIME, tid,
                erm_done, end_s=flq_done, discarded=discarded,
            )
            obs.metrics.counter("ft.failovers").inc()
            obs.metrics.counter("ft.lost_iterations").inc(squashed)

    def _record_failure(
        self, request: tuple, restart_base: int, lost_iterations: int
    ) -> None:
        """Append the :class:`FailureRecord` of one node-failure
        declaration; the promotion provenance belongs on the dead
        primary's node's record."""
        system = self.system
        node, dead_tids, detected_at, last_heard_at = request
        provenance = {}
        if self._promotion is not None and self._promotion[0] == node:
            provenance, self._promotion = self._promotion[1], None
        system.stats.failures.append(
            FailureRecord(
                node=node,
                dead_tids=tuple(dead_tids),
                last_heard_at=last_heard_at,
                detected_at=detected_at,
                resumed_at=system.env.now,
                restart_base=restart_base,
                lost_iterations=lost_iterations,
                surviving_workers=sum(
                    1 for live in system.live_by_stage for tid in live
                    if tid not in dead_tids
                ),
                **provenance,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CommitUnit tid={self.tid} next_commit={self.next_commit}>"

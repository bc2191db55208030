"""Resilience reporting and byte-stable run digests.

Two jobs:

* **Digesting.**  A chaos run's claim to determinism is only testable if
  the run's observable outcome can be reduced to one string.
  :func:`run_fingerprint` renders everything that matters — elapsed
  time, commit counts, committed master memory word-for-word, failure
  and checkpoint records, transport and chaos counters — with ``repr``
  floats (shortest round-trip), so a drift of one ulp or one retransmit
  moves :func:`run_digest`.  Fault-tolerance and chaos lines appear only
  when those features produced anything, so the fingerprint of a plain
  run is unchanged by their existence.

* **Reporting.**  :func:`render_resilience_report` turns the same
  records into the human-readable summary ``repro chaos`` prints:
  what failed and when, how long detection and the degraded-mode
  restart took, how much speculative work was lost, and what the
  reliable transport absorbed along the way.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.report import render_table

__all__ = [
    "memory_fingerprint",
    "run_fingerprint",
    "run_digest",
    "render_resilience_report",
]


def memory_fingerprint(space) -> list:
    """Canonical (page, sorted word items) view of an address space.

    The committed master memory reduced this way is the run's *result*:
    two runs that agree here computed the same thing, whatever happened
    to the cluster in between.

    Pages with no written words are skipped: a master page materializes
    on first *read* (an artifact of the sparse page table, not program
    state) and reads back all-zero either way, so an untouched-but-
    materialized page and an absent one are the same memory.
    """
    return [
        (page.number, items)
        for page in space.iter_pages()
        if (items := tuple(sorted(page.items())))
    ]


def run_fingerprint(stats, master=None, chaos=None) -> str:
    """Canonical text of one run's observable outcome.

    ``master`` is the commit unit's committed address space (included
    word-for-word when given); ``chaos`` the
    :class:`~repro.chaos.engine.ChaosEngine` that ran the plan, if any.
    """
    lines = [
        f"elapsed_seconds={stats.elapsed_seconds!r}",
        f"committed_mtxs={stats.committed_mtxs}",
        f"misspeculations={stats.misspeculations}",
        f"words_committed={stats.words_committed}",
        f"queue_bytes={stats.queue_bytes}",
    ]
    if master is not None:
        for number, items in memory_fingerprint(master):
            lines.append(f"page[{number}]={items!r}")
    # Conditional sections: absent features leave no trace, so digests
    # of plain runs are comparable across versions that predate them.
    if stats.ft_ran:
        lines.extend(f"ft.{name}={value}" for name, value in stats.ft_counters())
    repl_counters = (
        ("repl_words", stats.ft_repl_words),
        ("repl_folded_words", stats.ft_repl_folded_words),
        ("promotions", stats.ft_promotions),
        ("replayed_words", stats.ft_replayed_words),
    )
    if any(value for _name, value in repl_counters):
        lines.extend(f"ft.{name}={value}" for name, value in repl_counters)
    # Own conditional line (not folded into repl_counters) so digests of
    # pipeline failover runs, which predate the counter, are unchanged.
    if stats.ft_round_reexecutions:
        lines.append(f"ft.round_reexecutions={stats.ft_round_reexecutions}")
    # Integrity counters: only an integrity-mode run that detected (or
    # audited) anything prints them, so prior digests are unchanged.
    integrity_counters = (
        ("corruptions_detected", stats.ft_corruptions_detected),
        ("corruptions_repaired", stats.ft_corruptions_repaired),
        ("corruptions_unrepairable", stats.ft_corruptions_unrepairable),
        ("scrub_rounds", stats.ft_scrub_rounds),
        ("scrub_pages", stats.ft_scrub_pages),
    )
    if any(value for _name, value in integrity_counters):
        lines.extend(
            f"ft.{name}={value}" for name, value in integrity_counters
        )
    # speculative_for runs only: rounds of the deterministic-reservations
    # scheduler.  Pipeline runs leave these at zero and print nothing.
    if stats.specfor_rounds:
        specfor_counters = (
            ("rounds", stats.specfor_rounds),
            ("reservations", stats.specfor_reservations),
            ("reservation_failures", stats.specfor_reservation_failures),
            ("commit_failures", stats.specfor_commit_failures),
            ("carried", stats.specfor_carried),
        )
        lines.extend(f"specfor.{name}={value}" for name, value in specfor_counters)
    for record in stats.failures:
        line = (
            "failure("
            f"node={record.node}, "
            f"dead_tids={record.dead_tids}, "
            f"last_heard_at={record.last_heard_at!r}, "
            f"detected_at={record.detected_at!r}, "
            f"resumed_at={record.resumed_at!r}, "
            f"restart_base={record.restart_base}, "
            f"lost_iterations={record.lost_iterations}, "
            f"surviving_workers={record.surviving_workers}"
        )
        if record.promoted_tid >= 0:
            line += (
                f", promoted_tid={record.promoted_tid}"
                f", promotion_seconds={record.promotion_seconds!r}"
                f", replayed_words={record.replayed_words}"
                f", recommitted_iterations={record.recommitted_iterations}"
            )
        if record.corrupt_image:
            line += ", corrupt_image=True"
        lines.append(line + ")")
    for record in stats.checkpoints:
        lines.append(
            f"checkpoint(iteration={record.iteration}, "
            f"words={record.words}, at={record.at!r})"
        )
    if chaos is not None:
        summary = chaos.summary()
        for node, at_s in summary["crashes"]:
            lines.append(f"chaos.crash(node={node}, at={at_s!r})")
        for name in ("messages_dropped", "messages_duplicated", "messages_delayed"):
            lines.append(f"chaos.{name}={summary[name]}")
        # Corruption keys exist only when the plan schedules corruption
        # faults; older plans' digests are untouched.
        if "messages_corrupted" in summary:
            lines.append(
                f"chaos.messages_corrupted={summary['messages_corrupted']}"
            )
        for target, at_s, words in summary.get("state_corruptions", ()):
            lines.append(
                f"chaos.state_corruption(target={target!r}, at={at_s!r}, "
                f"words={words})"
            )
    return "\n".join(lines)


def run_digest(stats, master=None, chaos=None) -> str:
    """sha256 of :func:`run_fingerprint`.

    ``hashlib`` is imported here, not at module level: it maps OpenSSL's
    libcrypto (about 3.4 MB resident), which a process that takes no
    digest should not carry."""
    import hashlib

    return hashlib.sha256(
        run_fingerprint(stats, master=master, chaos=chaos).encode()
    ).hexdigest()


def render_resilience_report(stats, chaos=None, reference=None) -> str:
    """Human-readable resilience summary of one (usually chaotic) run.

    ``reference`` is the fault-free :class:`RunStats` of the same
    workload, if one was measured; the report then quotes the overhead
    the faults and recovery added.
    """
    sections = []

    if chaos is not None:
        summary = chaos.summary()
        rows = [[f"node {node}", f"{at_s * 1e3:.3f} ms"]
                for node, at_s in summary["crashes"]]
        if rows:
            sections.append(render_table(["crashed", "at"], rows,
                                         title="Injected crashes"))
        wire_line = (
            "wire faults: "
            f"{summary['messages_dropped']} dropped, "
            f"{summary['messages_duplicated']} duplicated, "
            f"{summary['messages_delayed']} delayed"
        )
        if "messages_corrupted" in summary:
            wire_line += f", {summary['messages_corrupted']} corrupted"
        sections.append(wire_line)
        corruptions = summary.get("state_corruptions", ())
        if corruptions:
            rows = [[target, f"{at_s * 1e3:.3f} ms", str(words)]
                    for target, at_s, words in corruptions]
            sections.append(render_table(
                ["target", "at", "words flipped"], rows,
                title="Injected state corruption (silent bit flips)",
            ))

    if stats.failures:
        rows = []
        for record in stats.failures:
            rows.append([
                f"node {record.node}",
                f"{record.detected_at * 1e3:.3f} ms",
                f"{(record.detected_at - record.last_heard_at) * 1e6:.0f} us",
                f"{record.recovery_seconds * 1e6:.0f} us",
                str(record.lost_iterations),
                str(record.surviving_workers),
            ])
        sections.append(render_table(
            ["failure", "detected", "detection lag", "restart", "lost MTXs",
             "survivors"],
            rows, title="Failovers (degraded-mode restarts)",
        ))

    promoted = [r for r in stats.failures if r.promoted_tid >= 0]
    if promoted:
        rows = [[
            f"node {record.node}",
            f"tid {record.promoted_tid}",
            f"{record.promotion_seconds * 1e6:.2f} us",
            str(record.replayed_words),
            str(record.recommitted_iterations),
        ] for record in promoted]
        sections.append(render_table(
            ["failure", "promoted standby", "promotion", "replayed words",
             "recommitted MTXs"],
            rows, title="Commit-unit failovers (standby promotions)",
        ))

    ft_lines = []
    if stats.ft_ran:
        ft_lines.append(
            f"transport: {stats.ft_acks} acks, {stats.ft_retransmits} "
            f"retransmits ({stats.ft_retransmit_giveups} give-ups), "
            f"{stats.ft_duplicates_dropped} duplicates dropped, "
            f"{stats.ft_frames_reordered} reordered, "
            f"{stats.ft_frames_from_dead_dropped} from dead nodes dropped"
        )
        ft_lines.append(f"heartbeats: {stats.ft_heartbeats}")
    if stats.checkpoints:
        words = sum(record.words for record in stats.checkpoints)
        ft_lines.append(
            f"checkpoints: {len(stats.checkpoints)} ({words} words)"
        )
    if stats.ft_repl_words:
        ft_lines.append(
            f"replication: {stats.ft_repl_words} words streamed to the "
            f"standby, {stats.ft_repl_folded_words} folded into its image"
        )
    if stats.ft_round_reexecutions:
        ft_lines.append(
            f"round re-execution: {stats.ft_round_reexecutions} reservation "
            f"round(s) voided by a worker crash and re-issued to the "
            f"survivors"
        )
    if stats.ft_corruptions_detected or stats.ft_scrub_rounds:
        ft_lines.append(
            f"integrity: {stats.ft_corruptions_detected} corruption(s) "
            f"detected, {stats.ft_corruptions_repaired} repaired, "
            f"{stats.ft_corruptions_unrepairable} unrepairable; "
            f"{stats.ft_scrub_pages} page audits over "
            f"{stats.ft_scrub_rounds} scrub sweep(s)"
        )
    refused = [r for r in stats.failures if r.corrupt_image]
    if refused:
        ft_lines.append(
            "promotion refused: the standby checkpoint image failed its "
            "digest check on "
            + ", ".join(f"node {r.node}" for r in refused)
            + " (corrupted state was not promoted)"
        )
    if ft_lines:
        sections.append("\n".join(ft_lines))

    outcome = (
        f"outcome: {stats.committed_mtxs} MTXs committed in "
        f"{stats.elapsed_seconds * 1e3:.3f} ms simulated"
    )
    if reference is not None and reference.elapsed_seconds > 0:
        overhead = stats.elapsed_seconds / reference.elapsed_seconds - 1.0
        outcome += (
            f" ({overhead * 100.0:+.1f}% vs fault-free "
            f"{reference.elapsed_seconds * 1e3:.3f} ms)"
        )
    sections.append(outcome)
    return "\n\n".join(sections)

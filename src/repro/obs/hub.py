"""Observability hub: one tracer + one metrics registry per run.

:func:`instrument` is the single entry point: given a constructed (not
yet run) :class:`~repro.core.runtime.DSMTXSystem` or
:class:`~repro.paradigms.specfor.SpecForSystem`, it creates an
:class:`Observability` hub and attaches it to every hook point the
system has — the system, its simulation environment (where the cluster
substrate finds it), the unit address spaces, and the run statistics.
All hook sites guard on the attribute being ``None``, so a system that
was never instrumented records nothing and pays only that check.

Usage::

    system = DSMTXSystem(workload.dsmtx_plan(), config)
    hub = instrument(system)
    result = system.run()
    hub.finalize(system)
    write_chrome_trace(hub.tracer, "trace.json", metadata=hub.metrics.snapshot())

or, scoped::

    with observe(system) as hub:
        result = system.run()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import PID_CLUSTER, PID_RUNTIME, SpanTracer

__all__ = ["Observability", "instrument", "detach", "observe"]


class Observability:
    """Bundle of one :class:`SpanTracer` and one :class:`MetricsRegistry`."""

    def __init__(self, env, capacity: int = 1_000_000) -> None:
        self.env = env
        self.tracer = SpanTracer(env, capacity=capacity)
        self.metrics = MetricsRegistry()

    def finalize(self, system) -> None:
        """Ingest the run's aggregate state into the metrics registry.

        Subsumes :class:`~repro.core.stats.RunStats` — every counter the
        evaluation reports becomes a metric — and snapshots per-unit
        core utilization as gauges.
        """
        stats = system.stats
        m = self.metrics
        m.gauge("run.elapsed_seconds").set(stats.elapsed_seconds)
        m.gauge("run.bandwidth_bps").set(stats.bandwidth_bps())
        for name, value in (
            ("run.committed_mtxs", stats.committed_mtxs),
            ("run.misspeculations", stats.misspeculations),
            ("run.coa_pages_served", stats.coa_pages_served),
            ("run.coa_words_served", stats.coa_words_served),
            ("run.queue_batches", stats.queue_batches),
            ("run.reads_checked", stats.reads_checked),
            ("run.words_committed", stats.words_committed),
        ):
            m.gauge(name).set(value)
        for purpose, nbytes in sorted(stats.queue_bytes_by_purpose.items()):
            m.gauge(f"run.queue_bytes.{purpose}").set(nbytes)
        m.gauge("run.queue_bytes.total").set(stats.queue_bytes)
        for phase in ("erm", "flq", "seq"):
            m.gauge(f"run.recovery.{phase}_seconds").set(
                getattr(stats, f"{phase}_seconds")
            )
        if stats.ft_ran:
            for name, value in (
                ("run.ft.heartbeats", stats.ft_heartbeats),
                ("run.ft.acks", stats.ft_acks),
                ("run.ft.retransmits", stats.ft_retransmits),
                ("run.ft.retransmit_giveups", stats.ft_retransmit_giveups),
                ("run.ft.duplicates_dropped", stats.ft_duplicates_dropped),
                ("run.ft.frames_reordered", stats.ft_frames_reordered),
                ("run.ft.failures", len(stats.failures)),
                ("run.ft.checkpoints", len(stats.checkpoints)),
                ("run.ft.lost_iterations", stats.lost_iterations),
                ("run.ft.recovery_seconds", stats.failure_recovery_seconds),
            ):
                m.gauge(name).set(value)
            if stats.ft_repl_words or stats.ft_promotions:  # a standby ran
                for name, value in (
                    ("run.ft.repl_words", stats.ft_repl_words),
                    ("run.ft.repl_folded_words", stats.ft_repl_folded_words),
                    ("run.ft.promotions", stats.ft_promotions),
                    ("run.ft.replayed_words", stats.ft_replayed_words),
                ):
                    m.gauge(name).set(value)
            if stats.ft_round_reexecutions:  # a specfor round was re-issued
                m.gauge("run.ft.round_reexecutions").set(
                    stats.ft_round_reexecutions)
            if stats.ft_corruptions_detected or stats.ft_scrub_rounds:
                # Integrity mode saw corruption (or at least scrubbed).
                for name, value in (
                    ("run.ft.integrity_detected", stats.ft_corruptions_detected),
                    ("run.ft.integrity_repaired", stats.ft_corruptions_repaired),
                    ("run.ft.integrity_unrepairable",
                     stats.ft_corruptions_unrepairable),
                    ("run.ft.integrity_scrub_rounds", stats.ft_scrub_rounds),
                    ("run.ft.integrity_scrub_pages", stats.ft_scrub_pages),
                ):
                    m.gauge(name).set(value)
        for label, fraction in system.utilization().items():
            m.gauge(f"util.{label}").set(fraction)


def _unit_spaces(system) -> list:
    """``(address space, owner tid)`` of every unit memory ``system``
    exposes: DSMTX worker spaces and the try-commit shadow, where the
    runtime has them, and the committed master of either runtime."""
    spaces = [(worker.space, worker.tid) for worker in getattr(system, "workers", ())]
    try_commit = getattr(system, "try_commit", None)
    if try_commit is not None:
        spaces.append((try_commit.shadow, try_commit.tid))
    spaces.append((system.commit.master, system.commit_tid))
    return spaces


def instrument(system, capacity: int = 1_000_000) -> Observability:
    """Attach a fresh hub to ``system``; returns the hub.

    Must run before the system's ``run()``.  Attaching changes no
    simulated timing — the hooks only *read* the clock — so an
    instrumented run reproduces the uninstrumented run's results
    exactly.
    """
    hub = Observability(system.env, capacity=capacity)
    system.obs = hub
    system.env.obs = hub
    system.stats.observer = hub
    # Memory hooks: per-unit address spaces report faults/installs.
    for space, tid in _unit_spaces(system):
        space.obs = hub
        space.owner_tid = tid
    # Perfetto track names.
    tracer = hub.tracer
    tracer.set_process_name(PID_RUNTIME, system.runtime_name)
    tracer.set_process_name(PID_CLUSTER, "cluster cores")
    for name, tid in system.unit_labels().items():
        tracer.set_thread_name(PID_RUNTIME, tid, name)
    for tid in range(system.num_units):
        core = system.core_of(tid)
        tracer.set_thread_name(PID_CLUSTER, core.index, f"core{core.index}")
    return hub


def detach(system) -> None:
    """Remove the hub from every hook point of ``system``."""
    system.obs = None
    system.env.obs = None
    system.stats.observer = None
    for space, _tid in _unit_spaces(system):
        space.obs = None


@contextmanager
def observe(system, capacity: int = 1_000_000) -> Iterator[Observability]:
    """Scoped :func:`instrument`/:func:`detach` around a run."""
    hub = instrument(system, capacity=capacity)
    try:
        yield hub
    finally:
        detach(system)

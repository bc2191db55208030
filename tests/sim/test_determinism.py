"""Golden-fingerprint determinism suite.

The hot-path refactor contract: optimizations may change how fast the
simulator runs, never *what* it simulates.  This suite runs a small
matrix of configurations — including one with injected misspeculation
and one with COA read replicas — reduces every ``RunStats`` field that
describes simulated behaviour (times, bytes, counts, per-phase recovery
breakdowns) to a canonical text, one result per line, and compares it
with the text pinned in ``tests/sim/golden_fingerprints.json``.  Text
equality is exactly as strict as equality of a hash of the text, and a
mismatch shows the lines that moved as a unified diff.

If a change to the kernel, queues, MPI layer, or memory system alters
any simulated result, a fingerprint line moves and this suite fails.

The suite also pins how many events each config processes
(``tests/sim/golden_event_counts.json``), outside the fingerprints: the
event count is host work, not simulated behaviour, so a change may move
it while every fingerprint holds.  The count is exact and free of host
noise, so a change that adds events shows here even when wall-time
measurements cannot resolve it.

To re-record after an *intentional* change::

    PYTHONPATH=src python tests/sim/test_determinism.py --regenerate

and justify the moved fingerprint lines or event counts in the change
description.
"""

import difflib
import functools
import json
import pathlib

import pytest

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_fingerprints.json"
EVENT_COUNTS_PATH = pathlib.Path(__file__).parent / "golden_event_counts.json"


def _crc32(iterations=24, misspec=None):
    from repro.workloads import Crc32

    return Crc32(iterations=iterations, misspec_iterations=misspec)


def _blackscholes(iterations=64):
    from repro.workloads import BlackScholes

    return BlackScholes(iterations=iterations)


def _crash_node0_plan():
    from repro.chaos import FaultPlan, NodeCrash

    return FaultPlan(faults=(NodeCrash(node=0, at_s=0.005),), seed=7)


def _crash_commit_node_plan():
    # Node 6 hosts the commit unit under spread placement at 8 cores;
    # the crash lands mid-stream (after ~a third of the commits), so
    # the pinned episode covers checkpoint folding, replay, promotion,
    # and the degraded-mode resume from the replicated frontier.
    from repro.chaos import FaultPlan, NodeCrash

    return FaultPlan(faults=(NodeCrash(node=6, at_s=0.036754),), seed=11)


def _irregular(name, iterations=32, density=0.7):
    def factory():
        from repro.workloads import ALL_BENCHMARKS

        return ALL_BENCHMARKS[name](iterations=iterations, density=density)

    return factory


def _specfor_configs():
    """speculative_for golden configs: every irregular workload at 1, 4,
    and 8 workers.  The paradigm's guarantee — winners, rounds, and the
    committed image are functions of the iteration space alone — means a
    workload's three fingerprints differ only in timing and traffic
    lines; the round counts, reservation stats, and master-image line
    are identical (tests/paradigms/test_specfor.py asserts exactly
    that)."""
    configs = {}
    for name, short in (("spanning_forest", "sf"),
                        ("maximal_independent_set", "mis"),
                        ("list_contraction", "lc")):
        for workers in (1, 4, 8):
            configs[f"specfor_{short}_{workers}w"] = (
                _irregular(name), "specfor", {"workers": workers})
    return configs


def _sf_worker_crash_plan():
    # Spread placement at 6 cores seats worker 1 on node 1; the crash
    # lands mid-round, so the pinned episode covers suspicion, the
    # in-flight round abort, and re-partitioning over the survivors.
    from repro.chaos import FaultPlan, NodeCrash

    return FaultPlan(faults=(NodeCrash(node=1, at_s=0.00015),), seed=3)


def _sf_service_crash_plan():
    # Node 4 hosts the reservation service (tid 4 of 6 units, spread);
    # the crash covers standby promotion: shadow replay, the full-image
    # re-broadcast, and re-execution of the unreplicated rounds.
    from repro.chaos import FaultPlan, NodeCrash

    return FaultPlan(faults=(NodeCrash(node=4, at_s=0.00015),), seed=3)


def _specfor_ft_configs():
    """Fault-tolerant speculative_for goldens: the framed-transport
    fault-free run plus one worker-crash and one service-crash episode.
    The specfor_* stats lines and the master-image line of all three
    match the plain ``specfor_sf_4w`` fingerprint exactly (the paradigm
    survives crashes byte-deterministically); only timing, traffic, and
    ft_* lines differ.  tests/chaos/test_specfor_failover.py asserts the
    cross-config equality; these fingerprints pin each episode's bytes."""
    def cfg(extra=None):
        kwargs = {
            "workers": 4,
            "config_kwargs": {
                "total_cores": 6, "fault_tolerance": True,
                "commit_replication": True, "placement": "spread",
            },
        }
        if extra:
            kwargs.update(extra)
        return kwargs

    factory = _irregular("spanning_forest", iterations=48)
    return {
        "specfor_ft_sf_4w": (factory, "specfor", cfg()),
        "specfor_ft_crashworker_sf_4w": (
            factory, "specfor", cfg({"chaos_plan": _sf_worker_crash_plan})),
        "specfor_ft_crashservice_sf_4w": (
            factory, "specfor", cfg({"chaos_plan": _sf_service_crash_plan})),
    }


#: name -> (workload factory, scheme, SystemConfig kwargs).  The extra
#: ``chaos_plan`` key (popped before SystemConfig sees it) attaches a
#: fault-injection plan: the failover episode itself must be
#: byte-reproducible, so it is pinned here like any other config.
#: Scheme ``specfor`` runs on the reservations runtime instead; its
#: kwargs hold the worker count, plus an optional ``config_kwargs``
#: dict built into the SystemConfig (fault-tolerant configs).
CONFIGS = {
    "crc32_dsmtx_8c": (lambda: _crc32(), "dsmtx", {"total_cores": 8}),
    "crc32_misspec_8c": (lambda: _crc32(misspec={12}), "dsmtx", {"total_cores": 8}),
    "crc32_replicas_8c": (lambda: _crc32(), "dsmtx",
                          {"total_cores": 8, "coa_replicas": 1}),
    "crc32_tls_8c": (lambda: _crc32(), "tls", {"total_cores": 8}),
    "blackscholes_16c": (lambda: _blackscholes(), "dsmtx", {"total_cores": 16}),
    "crc32_chaos_crash_8c": (lambda: _crc32(), "dsmtx",
                             {"total_cores": 8, "fault_tolerance": True,
                              "chaos_plan": _crash_node0_plan}),
    "crc32_failover_8c": (lambda: _crc32(iterations=96), "dsmtx",
                          {"total_cores": 8, "fault_tolerance": True,
                           "commit_replication": True, "placement": "spread",
                           "batch_bytes": 64, "checkpoint_interval_mtxs": 8,
                           "chaos_plan": _crash_commit_node_plan}),
}
CONFIGS.update(_specfor_configs())
CONFIGS.update(_specfor_ft_configs())


def run_config(name: str) -> tuple[str, int]:
    """Run one config: the canonical text of every simulated result,
    and the number of events the run processed.

    Floats are rendered with ``repr`` (shortest round-trip), so any
    drift — even in the last ulp — changes the fingerprint.
    """
    from repro.core import DSMTXSystem, SystemConfig

    factory, scheme, kwargs = CONFIGS[name]
    workload = factory()
    kwargs = dict(kwargs)
    chaos_factory = kwargs.pop("chaos_plan", None)
    if scheme == "specfor":
        from repro.paradigms import SpecForSystem

        config_kwargs = kwargs.pop("config_kwargs", None)
        if config_kwargs is not None:
            kwargs["config"] = SystemConfig(**config_kwargs)
        system = SpecForSystem(workload, **kwargs)
    else:
        plan = (workload.dsmtx_plan() if scheme == "dsmtx"
                else workload.tls_plan())
        system = DSMTXSystem(plan, SystemConfig(**kwargs))
    if chaos_factory is not None:
        from repro.chaos import ChaosEngine

        ChaosEngine(chaos_factory()).attach(system.env)
    result = system.run()
    stats = result.stats
    lines = [
        f"elapsed_seconds={stats.elapsed_seconds!r}",
        f"committed_mtxs={stats.committed_mtxs}",
        f"misspeculations={stats.misspeculations}",
        f"coa_pages_served={stats.coa_pages_served}",
        f"coa_words_served={stats.coa_words_served}",
        f"queue_bytes={stats.queue_bytes}",
        f"queue_batches={stats.queue_batches}",
        f"reads_checked={stats.reads_checked}",
        f"words_committed={stats.words_committed}",
    ]
    for purpose in sorted(stats.queue_bytes_by_purpose):
        lines.append(f"queue_bytes[{purpose}]={stats.queue_bytes_by_purpose[purpose]}")
    # Reservation-runtime lines appear only under scheme specfor, so the
    # pipeline configs' fingerprints are untouched.  The committed image
    # rides along: byte-reproducibility across worker counts is the
    # paradigm's headline claim, so the fingerprint must pin it.
    if stats.specfor_rounds:
        from repro.analysis.resilience import memory_fingerprint

        lines.append(f"specfor_rounds={stats.specfor_rounds}")
        lines.append(f"specfor_reservations={stats.specfor_reservations}")
        lines.append(
            f"specfor_reservation_failures={stats.specfor_reservation_failures}")
        lines.append(f"specfor_commit_failures={stats.specfor_commit_failures}")
        lines.append(f"specfor_carried={stats.specfor_carried}")
        lines.append(f"master={memory_fingerprint(system.commit.master)}")
    for record in stats.recoveries:
        lines.append(
            "recovery("
            f"iter={record.misspec_iteration}, "
            f"detected_at={record.detected_at!r}, "
            f"drain={record.drain_seconds!r}, "
            f"erm={record.erm_seconds!r}, "
            f"flq={record.flq_seconds!r}, "
            f"seq={record.seq_seconds!r}, "
            f"squashed={record.squashed_iterations}, "
            f"reexecuted={record.reexecuted_iterations})"
        )
    # Fault-tolerance lines appear only when the machinery ran, so the
    # fingerprints of plain configs are unchanged.
    if stats.ft_heartbeats or stats.failures:
        lines.append(f"ft_heartbeats={stats.ft_heartbeats}")
        lines.append(f"ft_acks={stats.ft_acks}")
        lines.append(f"ft_retransmits={stats.ft_retransmits}")
        lines.append(f"ft_duplicates_dropped={stats.ft_duplicates_dropped}")
        lines.append(f"ft_frames_reordered={stats.ft_frames_reordered}")
    # Commit-replication lines likewise appear only when a standby ran.
    if stats.ft_repl_words or stats.ft_promotions:
        lines.append(f"ft_repl_words={stats.ft_repl_words}")
        lines.append(f"ft_repl_folded_words={stats.ft_repl_folded_words}")
        lines.append(f"ft_promotions={stats.ft_promotions}")
        lines.append(f"ft_replayed_words={stats.ft_replayed_words}")
    # Own conditional line: only specfor worker crashes set it, so every
    # pre-existing fingerprint (including pipeline failovers) is unchanged.
    if stats.ft_round_reexecutions:
        lines.append(f"ft_round_reexecutions={stats.ft_round_reexecutions}")
    for record in stats.failures:
        line = (
            "failure("
            f"node={record.node}, "
            f"dead_tids={record.dead_tids}, "
            f"last_heard_at={record.last_heard_at!r}, "
            f"detected_at={record.detected_at!r}, "
            f"resumed_at={record.resumed_at!r}, "
            f"restart_base={record.restart_base}, "
            f"lost={record.lost_iterations}, "
            f"survivors={record.surviving_workers}"
        )
        if record.promoted_tid >= 0:
            line += (
                f", promoted={record.promoted_tid}"
                f", promotion_s={record.promotion_seconds!r}"
                f", replayed={record.replayed_words}"
                f", recommitted={record.recommitted_iterations}"
            )
        lines.append(line + ")")
    for record in stats.checkpoints:
        lines.append(
            f"checkpoint(iter={record.iteration}, words={record.words}, "
            f"at={record.at!r})"
        )
    return "\n".join(lines), system.env.events_processed


def run_fingerprint(name: str) -> str:
    """Canonical text of every simulated result of one config."""
    return run_config(name)[0]


@functools.lru_cache(maxsize=None)
def _cached_run(name: str) -> tuple[str, int]:
    """One run per config, shared by the fingerprint and event-count tests."""
    return run_config(name)


def _load(path: pathlib.Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


_REGENERATE_HINT = "'PYTHONPATH=src python tests/sim/test_determinism.py --regenerate'"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_golden_digest(name):
    golden = _load(GOLDEN_PATH)
    assert name in golden, (
        f"no golden fingerprint recorded for {name!r}; run {_REGENERATE_HINT}"
    )
    pinned = golden[name]
    current = _cached_run(name)[0].split("\n")
    if current != pinned:
        diff = "\n".join(
            difflib.unified_diff(
                pinned, current, "pinned", "current", lineterm="", n=0
            )
        )
        pytest.fail(
            f"simulated results of {name!r} changed: the refactor altered "
            f"behaviour, not just speed (see tests/sim/test_determinism.py)"
            f"\n{diff}",
            pytrace=False,
        )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_golden_event_count(name):
    golden = _load(EVENT_COUNTS_PATH)
    assert name in golden, (
        f"no event count recorded for {name!r}; run {_REGENERATE_HINT}"
    )
    events = _cached_run(name)[1]
    assert events == golden[name], (
        f"{name!r} processed {events} events, pinned {golden[name]}: a "
        "change to the event kernel or a layer that schedules events "
        "moved the count; re-pin it only with a stated reason"
    )


def test_digest_is_repeatable():
    """Two runs of the same config in one process agree exactly."""
    name = "crc32_misspec_8c"
    assert run_fingerprint(name) == run_fingerprint(name)


def _regenerate() -> None:
    fingerprints, event_counts = {}, {}
    for name in sorted(CONFIGS):
        fingerprint, events = run_config(name)
        fingerprints[name] = fingerprint.split("\n")
        event_counts[name] = events
        print(f"{name}: {len(fingerprints[name])} lines ({events} events)")
    for path, table in (
        (GOLDEN_PATH, fingerprints), (EVENT_COUNTS_PATH, event_counts)
    ):
        with open(path, "w") as handle:
            json.dump(table, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)

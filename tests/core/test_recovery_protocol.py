"""Integration tests for the misspeculation recovery protocol.

These exercise the drain -> ERM -> FLQ -> SEQ -> resume sequence of
section 4.3 under varied conditions: different pipeline shapes, core
counts, misspeculation positions, densities, and channel modes.
"""

import pytest

from repro.analysis import memory_fingerprint
from repro.core import DSMTXSystem, SystemConfig
from repro.core.context import SequentialMeter
from repro.core.state import SystemState
from repro.memory import AddressSpace, UnifiedVirtualAddressSpace
from repro.workloads import Crc32, run_body
from repro.workloads.base import WriteThroughStore
from tests.core.toys import ToyDoall, ToyPipeline


def run(workload, plan="dsmtx", cores=6, **config_kwargs):
    chosen = workload.dsmtx_plan() if plan == "dsmtx" else workload.tls_plan()
    system = DSMTXSystem(chosen, SystemConfig(total_cores=cores, **config_kwargs))
    result = system.run()
    return system, result


def expected_sum(n):
    return sum((3 * i + 1) ** 2 for i in range(n))


def test_seq_reexecutes_only_the_aborted_iteration():
    # The drain commits everything earlier, so SEQ handles exactly one
    # iteration — the paper's protocol.
    workload = ToyDoall(iterations=64, misspec_iterations={40})
    system, _result = run(workload, cores=8)
    record = system.stats.recoveries[0]
    assert record.reexecuted_iterations == 1
    assert record.misspec_iteration == 40


def sequential_image(workload, system):
    """The sequential loop's committed image, built at the same UVA
    owner as ``system``'s program state."""
    space = AddressSpace("reference")
    meter = SequentialMeter(system.config, space)
    uva = UnifiedVirtualAddressSpace(owners=system.num_units)
    workload.build(uva, system.commit_tid, WriteThroughStore(space))
    for iteration in range(workload.iterations):
        meter.begin_iteration(iteration)
        run_body(workload.sequential_body(meter))
    return memory_fingerprint(space)


def test_an_earlier_notice_lowers_the_drain_target(monkeypatch):
    """The notice for iteration 21 opens the drain; the notice for 20
    arrives while it drains and lowers the target to 20.  Each then
    rolls back on its own, re-executing only itself, and the run
    commits the sequential loop's image."""
    lowered = []
    lower = SystemState.lower_pause_target

    def recording_lower(state, misspec_iteration):
        before = state.pause_target
        lower(state, misspec_iteration)
        lowered.append((before, state.pause_target))

    monkeypatch.setattr(SystemState, "lower_pause_target", recording_lower)
    workload = Crc32(iterations=48, misspec_iterations={20, 21})
    system, result = run(workload, cores=8)
    assert lowered == [(21, 20)]
    assert [
        (record.misspec_iteration, record.reexecuted_iterations)
        for record in system.stats.recoveries
    ] == [(20, 1), (21, 1)]
    assert result.iterations == system.stats.committed_mtxs == 48
    expected = sequential_image(Crc32(iterations=48), system)
    assert memory_fingerprint(system.commit.master) == expected


def test_misspec_at_first_iteration():
    workload = ToyPipeline(iterations=16, misspec_iterations={0})
    system, result = run(workload)
    assert system.stats.misspeculations == 1
    assert result.iterations == 16
    assert system.commit.master.read(workload.sum_addr) == expected_sum(16)


def test_misspec_at_last_iteration():
    workload = ToyPipeline(iterations=16, misspec_iterations={15})
    system, result = run(workload)
    assert system.stats.misspeculations == 1
    assert system.commit.master.read(workload.sum_addr) == expected_sum(16)


def test_adjacent_misspecs():
    workload = ToyPipeline(iterations=24, misspec_iterations={10, 11})
    system, _result = run(workload)
    assert system.stats.misspeculations == 2
    assert system.commit.master.read(workload.sum_addr) == expected_sum(24)


def test_last_iteration_misspec_after_prior_recovery():
    # Found by a scenario campaign sweep: with a two-stage pipeline at
    # 8 cores, a worker-detected misspeculation on the *final*
    # iteration following an earlier recovery used to deadlock.  The
    # reporting worker never sends the aborted iteration's access log,
    # and the try-commit unit — racing ahead of the misspec notice —
    # blocked consuming it with the VALIDATED notices for the earlier
    # iterations still batched, so the drain could never finish.  The
    # commit unit now pings the try-commit unit when a drain begins,
    # and a doomed consume aborts after flushing.
    from repro.workloads import BlackScholes

    workload = BlackScholes(iterations=12, misspec_iterations={5, 11})
    system, _result = run(workload, cores=8)
    assert system.stats.misspeculations == 2
    assert system.stats.committed_mtxs == 12


def test_dense_misspecs():
    workload = ToyDoall(iterations=40, misspec_iterations=set(range(5, 40, 5)))
    system, result = run(workload, cores=8)
    assert system.stats.misspeculations == 7
    assert result.iterations == 40
    master = system.commit.master
    for i in range(40):
        assert master.read(workload.out_base + 8 * i) == 2 * (i + 1) + 1


def test_recovery_in_tls_plan():
    workload = ToyPipeline(iterations=24, misspec_iterations={9})
    system, _result = run(workload, plan="tls")
    assert system.stats.misspeculations == 1
    assert system.commit.master.read(workload.sum_addr) == expected_sum(24)


def test_recovery_at_higher_core_counts():
    for cores in (12, 32, 64):
        workload = ToyDoall(iterations=96, misspec_iterations={50})
        system, result = run(workload, cores=cores)
        assert system.stats.misspeculations == 1
        assert result.iterations == 96


def test_recovery_with_direct_channel_mode():
    workload = ToyPipeline(iterations=16, misspec_iterations={6})
    system, _result = run(workload, channel_mode="direct")
    assert system.stats.misspeculations == 1
    assert system.commit.master.read(workload.sum_addr) == expected_sum(16)


def test_recovery_with_tiny_batches():
    workload = ToyPipeline(iterations=16, misspec_iterations={6})
    system, _result = run(workload, batch_bytes=16)
    assert system.commit.master.read(workload.sum_addr) == expected_sum(16)


def test_recovery_with_single_credit():
    workload = ToyPipeline(iterations=16, misspec_iterations={6})
    system, _result = run(workload, max_inflight_batches=1)
    assert system.commit.master.read(workload.sum_addr) == expected_sum(16)


def test_epoch_advances_per_recovery():
    workload = ToyDoall(iterations=40, misspec_iterations={10, 25})
    system, _result = run(workload, cores=8)
    assert system.state.epoch == 2
    assert system.state.restart_base == 26


def test_recovery_timing_is_accounted():
    workload = ToyDoall(iterations=48, misspec_iterations={20})
    system, _result = run(workload, cores=8)
    record = system.stats.recoveries[0]
    assert record.erm_seconds >= 0
    assert record.flq_seconds > 0
    assert record.seq_seconds > 0
    assert record.accounted_seconds < 1.0  # sane magnitudes (seconds)


def test_misspec_costs_time():
    clean_system, clean = run(ToyDoall(iterations=64, work_cycles=50_000), cores=8)
    dirty_system, dirty = run(
        ToyDoall(iterations=64, work_cycles=50_000, misspec_iterations={32}), cores=8
    )
    assert dirty.elapsed_seconds > clean.elapsed_seconds


def test_word_granular_coa_survives_recovery():
    workload = ToyDoall(iterations=32, misspec_iterations={12})
    system, result = run(workload, cores=8, coa_page_granularity=False)
    assert result.iterations == 32
    master = system.commit.master
    for i in range(32):
        assert master.read(workload.out_base + 8 * i) == 2 * (i + 1) + 1
    assert system.stats.coa_words_served > 0
    assert system.stats.coa_pages_served == 0

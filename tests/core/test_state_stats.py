"""Unit tests for SystemState and RunStats."""

import pytest

from repro.core import RunMode, RunStats, SystemState
from repro.core.stats import RecoveryRecord
from repro.errors import RecoveryError


def test_state_starts_running():
    state = SystemState()
    assert state.mode == RunMode.RUN
    assert state.epoch == 0
    assert state.restart_base == 0
    assert not state.in_recovery
    assert not state.done


def test_recovery_cycle_bumps_epoch():
    state = SystemState()
    state.begin_recovery(7)
    assert state.in_recovery
    assert state.rollback.target == 7
    state.resume(restart_base=8)
    assert not state.in_recovery
    assert state.epoch == 1
    assert state.restart_base == 8


def test_resume_outside_recovery_rejected():
    state = SystemState()
    with pytest.raises(RecoveryError):
        state.resume(0)


def test_recovery_after_done_rejected():
    state = SystemState()
    state.terminate()
    assert state.done
    with pytest.raises(RecoveryError):
        state.begin_recovery(1)


def test_stats_queue_byte_accounting():
    stats = RunStats()
    stats.record_queue_bytes("forward", 100)
    stats.record_queue_bytes("log", 50)
    stats.record_queue_bytes("forward", 25)
    assert stats.queue_bytes == 175
    assert stats.queue_bytes_by_purpose == {"forward": 125, "log": 50}


def test_stats_bandwidth():
    stats = RunStats()
    stats.record_queue_bytes("data", 1000)
    stats.elapsed_seconds = 2.0
    assert stats.bandwidth_bps() == pytest.approx(500.0)
    empty = RunStats()
    assert empty.bandwidth_bps() == 0.0


def test_recovery_record_aggregation():
    stats = RunStats()
    stats.recoveries.append(
        RecoveryRecord(misspec_iteration=3, detected_at=1.0,
                       erm_seconds=0.1, flq_seconds=0.2, seq_seconds=0.3)
    )
    stats.recoveries.append(
        RecoveryRecord(misspec_iteration=9, detected_at=2.0,
                       erm_seconds=0.1, flq_seconds=0.1, seq_seconds=0.1)
    )
    assert stats.erm_seconds == pytest.approx(0.2)
    assert stats.flq_seconds == pytest.approx(0.3)
    assert stats.seq_seconds == pytest.approx(0.4)
    assert stats.recoveries[0].accounted_seconds == pytest.approx(0.6)

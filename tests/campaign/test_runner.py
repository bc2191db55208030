"""Campaign runner: sweep execution, determinism across worker counts."""

from repro.campaign import CampaignSpec, ScenarioSpec, run_campaign, run_scenario


def _tiny_grid() -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "tiny-grid",
        "defaults": {"iterations": 8, "cores": 8,
                     "expect": {"committed_mtxs": 8}},
        "axes": {"batch_bytes": [512, 2048]},
        "scenarios": [{"name": "crc32", "benchmark": "crc32"},
                      {"name": "crc32-tls", "benchmark": "crc32",
                       "scheme": "tls"}],
    })


def test_run_scenario_produces_a_complete_record():
    spec = ScenarioSpec.from_dict(
        {"name": "one", "benchmark": "crc32", "iterations": 8,
         "expect": {"committed_mtxs": 8}})
    result = run_scenario(spec, index=3)
    assert result.ok
    assert result.index == 3
    assert result.scenario_digest == spec.digest()
    assert len(result.outcome_digest) == 64
    assert result.committed_mtxs == 8
    assert result.elapsed_sim_seconds > 0
    assert result.speedup > 0
    assert result.wall_seconds > 0
    record = result.record()
    assert "wall_seconds" not in record  # canonical record is host-independent
    assert record["schema"] == 1


def test_missed_expectation_marks_failed_without_raising():
    spec = ScenarioSpec.from_dict(
        {"name": "wrong", "benchmark": "crc32", "iterations": 8,
         "expect": {"committed_mtxs": 9}})
    result = run_scenario(spec)
    assert result.status == "failed"
    assert not result.ok
    assert "committed_mtxs" in result.failures[0]


def test_run_error_is_folded_into_the_record():
    # Crashing the node that hosts the commit unit without a standby is
    # unsurvivable; the sweep must absorb that as an 'error' record
    # instead of dying.  Under spread placement at 8 cores the commit
    # unit lands on node 6 (pinned by the determinism suite).
    spec = ScenarioSpec.from_dict(
        {"name": "doomed", "benchmark": "crc32", "iterations": 8,
         "cores": 8, "placement": "spread", "fault_tolerance": True,
         "faults": {"crash_node": 6, "crash_at_ms": 0.5}})
    result = run_scenario(spec)
    assert result.status == "error"
    assert result.failures


def test_records_are_byte_identical_across_worker_counts():
    scenarios = _tiny_grid().expand()
    inline = run_campaign(scenarios, workers=1)
    fanned = run_campaign(scenarios, workers=3)
    assert [r.record_json() for r in inline] == \
        [r.record_json() for r in fanned]
    assert all(r.ok for r in inline)


def test_progress_callback_sees_every_completion():
    scenarios = _tiny_grid().expand()
    seen = []
    run_campaign(scenarios, workers=1,
                 progress=lambda done, total, r: seen.append((done, total)))
    assert seen == [(i + 1, len(scenarios)) for i in range(len(scenarios))]


def test_misspec_comb_flows_into_the_run():
    spec = ScenarioSpec.from_dict(
        {"name": "dense", "benchmark": "crc32", "iterations": 16,
         "misspec_every": 8, "expect": {"committed_mtxs": 16}})
    result = run_scenario(spec)
    assert result.ok
    assert result.misspeculations == 2  # iterations 7 and 15


def test_traced_specfor_scenario_writes_a_perfetto_trace(tmp_path):
    spec = ScenarioSpec.from_dict(
        {"name": "specfor-trace", "benchmark": "spanning_forest",
         "scheme": "specfor", "iterations": 32, "cores": 8, "trace": True})
    result = run_scenario(spec, trace_dir=tmp_path)
    assert result.ok, result.failures
    assert result.outcome_digest == run_scenario(spec).outcome_digest
    assert (tmp_path / "specfor-trace.trace.json").is_file()

"""Tests for per-unit utilization reporting and unit naming."""

import pytest

from repro.chaos import ChaosEngine, FaultPlan, NodeCrash
from repro.core import DSMTXSystem, SystemConfig
from repro.obs import instrument
from repro.obs.tracer import PID_RUNTIME
from repro.paradigms import SpecForSystem
from repro.sim import Process
from repro.workloads import ALL_BENCHMARKS, Crc32
from tests.core.toys import ToyDoall, ToyPipeline


def test_utilization_reports_every_unit():
    system = DSMTXSystem(ToyPipeline(iterations=24).dsmtx_plan(),
                         SystemConfig(total_cores=6))
    system.run()
    report = system.utilization()
    # [S, DOALL, S] at 6 cores: 4 workers + try-commit + commit.
    assert len(report) == 6
    assert "worker[0.0]" in report
    assert "try-commit" in report and "commit" in report
    for fraction in report.values():
        assert 0.0 <= fraction <= 1.0


def test_parallel_stage_workers_are_busy():
    workload = ToyDoall(iterations=128, work_cycles=100_000)
    system = DSMTXSystem(workload.dsmtx_plan(), SystemConfig(total_cores=8))
    system.run()
    report = system.stage_utilization()
    assert report["stage0"] > 0.5  # compute-bound parallel stage
    assert report["commit"] < report["stage0"]


def test_stage_utilization_structure():
    system = DSMTXSystem(ToyPipeline(iterations=24).dsmtx_plan(),
                         SystemConfig(total_cores=8))
    system.run()
    report = system.stage_utilization()
    assert set(report) == {"stage0", "stage1", "stage2", "try-commit", "commit"}


def test_utilization_empty_before_run():
    system = DSMTXSystem(ToyDoall(iterations=8).dsmtx_plan(),
                         SystemConfig(total_cores=6))
    assert system.utilization() == {}


def test_replica_appears_in_utilization():
    system = DSMTXSystem(ToyDoall(iterations=16).dsmtx_plan(),
                         SystemConfig(total_cores=8, coa_replicas=1))
    system.run()
    assert "coa-replica[0]" in system.utilization()


def _replicated(runtime):
    if runtime == "specfor":
        workload = ALL_BENCHMARKS["spanning_forest"](iterations=48, density=0.7)
        config = SystemConfig(
            total_cores=6, placement="spread", fault_tolerance=True,
            commit_replication=True,
        )
        return SpecForSystem(workload, config, workers=4)
    config = SystemConfig(
        total_cores=8, placement="spread", batch_bytes=64,
        fault_tolerance=True, commit_replication=True,
    )
    return DSMTXSystem(Crc32(iterations=96).dsmtx_plan(), config)


@pytest.mark.parametrize("runtime", ["dsmtx", "specfor", "dsmtx-promoted"])
def test_both_runtimes_name_their_units_one_way(runtime):
    """Utilization keys, process names and the Perfetto unit tracks all
    come from ``unit_labels()``.  In the promoted run the standby's
    track, where the promoted commit unit records its events, has a
    name too."""
    system = _replicated(runtime.split("-")[0])
    hub = instrument(system)
    if runtime == "dsmtx-promoted":
        crash = NodeCrash(node=system.node_of(system.commit_tid), at_s=36.754 * 1e-3)
        ChaosEngine(FaultPlan(faults=(crash,))).attach(system.env)
    system.run()
    if runtime == "dsmtx-promoted":
        assert system.stats.ft_promotions == 1
        assert (PID_RUNTIME, system.standby_tid) in hub.tracer.thread_names
    labels = sorted(system.unit_labels())
    assert sorted(system.utilization()) == labels
    processes = [
        process.name
        for node in range(system.cluster.nodes)
        for process in system.processes_on_node(node)
        if isinstance(process, Process)
    ]
    assert sorted(processes) == labels
    tracks = [
        name for (pid, _tid), name in hub.tracer.thread_names.items()
        if pid == PID_RUNTIME
    ]
    assert sorted(tracks) == labels

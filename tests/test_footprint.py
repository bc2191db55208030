"""What a job keeps resident: exact pins that do not depend on the host.

Resident size is noisy and host-bound, so the three parts of a job's
footprint that have been cut are pinned by what they are made of:

* no module a benchmark job needs maps OpenSSL: ``hashlib`` is imported
  only by the functions that take a sha256 (``run_digest``,
  ``scenario_digest``), so ``_hashlib`` and its libcrypto stay unloaded;
* a Copy-On-Access serve of a never-written page adds no entry to the
  commit unit's master, so a fault-free run's master holds exactly the
  pages it wrote;
* ``spanning_forest`` keeps its edges in flat arrays.
"""

import gc
import subprocess
import sys
import tracemalloc
from pathlib import Path

import repro
from repro.core import DSMTXSystem, SystemConfig
from repro.workloads import Crc32, SpanningForest


def test_jobs_and_the_package_surface_leave_openssl_unmapped():
    # The benchmark child's imports, the campaign layer and the CLI, then
    # a DSMTX job (FT, standby and integrity, one misspeculation) and a
    # speculative_for job, each checked through memory_fingerprint.
    src = str(Path(repro.__file__).resolve().parents[1])
    code = f"""
import sys
sys.path.insert(0, {src!r})
import cProfile, pstats, traceback
import repro.campaign, repro.cli
from repro import DSMTXSystem, SystemConfig
from repro.analysis import memory_fingerprint
from repro.chaos import ChaosEngine, FaultPlan, MessageCorruption, NodeCrash
from repro.core import SequentialMeter
from repro.memory import AddressSpace, UnifiedVirtualAddressSpace
from repro.paradigms import SpecForSystem
from repro.workloads import ALL_BENCHMARKS, WriteThroughStore, run_body

crc32 = ALL_BENCHMARKS["crc32"](iterations=32, misspec_iterations={{9}})
config = SystemConfig(total_cores=8, fault_tolerance=True,
                      commit_replication=True, integrity=True)
system = DSMTXSystem(crc32.dsmtx_plan(), config)
system.run()
assert memory_fingerprint(system.commit.master)
forest = ALL_BENCHMARKS["spanning_forest"](iterations=64, density=0.8)
system = SpecForSystem(forest, SystemConfig(total_cores=5), workers=4)
system.run()
assert memory_fingerprint(system.commit.master)
print("_hashlib" in sys.modules, "hashlib" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False"]


def test_a_fault_free_coa_run_keeps_only_its_written_pages_in_master():
    """crc32 on 16 cores, 96 iterations: the workers fault in 1,128
    pages, and master holds the 97 the prologue and the commits wrote.
    Materializing a master page per serve held all 1,128."""
    workload = Crc32(iterations=96)
    system = DSMTXSystem(workload.dsmtx_plan(), SystemConfig(total_cores=16))
    stats = system.run().stats
    assert stats.coa_pages_served == 1128
    pages = system.commit.master.pages
    assert len(pages) == 97
    assert all(page.present_mask for page in pages.values())


def test_spanning_forest_edges_stay_under_a_tracemalloc_bound():
    """12,288 edges in two flat arrays take 196,608 bytes (about 207,000
    with the arrays' growth slack), where a list of (u, v) tuples took
    about 1.55 MB at density 0.8."""
    SpanningForest(iterations=16, density=0.8)
    gc.collect()
    tracemalloc.start()
    try:
        workload = SpanningForest(iterations=12_288, density=0.8)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert workload.edge_u[7] != workload.edge_v[7]
    assert peak < 240_000

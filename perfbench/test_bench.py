"""Smoke tests of the benchmark at reduced iteration counts.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
Children run in-process here (``bench.launch_child`` is replaced), so
the tests exercise the job, check, fold and report code without timing.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

import bench
import layers
import workloads

#: Iteration counts small enough for a test, large enough that the
#: fault-injected workloads still crash a node mid-run.
SMALL = {
    "pipeline_scale": 128,
    "misspec_coa": 96,
    "specfor_conflict": 768,
    "ft_chaos": 48,
    "specfor_ft": 768,
}

SPEC = bench.load_spec()


def in_process(spec: dict) -> dict:
    """A ``launch_child`` that runs the child here at test size."""
    return bench.child_main(
        dict(spec, iterations=SMALL[spec["workload"]], t0=time.monotonic())
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_commits_the_sequential_image(name):
    job = workloads.Job(name, seed=1, variant=0, iterations=SMALL[name])
    job.construct()
    layout = job.uva_layout
    ref = workloads.reference(
        workloads.Job(name, seed=1, variant=0, iterations=SMALL[name]), layout
    )
    job.run()
    assert workloads.matches(job, ref)
    # The speed-up base is the library's own sequential time.
    fresh = workloads.Job(name, seed=1, variant=0, iterations=SMALL[name])
    assert ref.seconds == fresh.workload.sequential_seconds(fresh.config)


def test_fault_injected_workloads_really_fail_over():
    for name in ("ft_chaos", "specfor_ft"):
        job = workloads.Job(name, seed=1, variant=0, iterations=SMALL[name])
        job.construct()
        job.run()
        assert len(job.result.stats.failures) == 1, name


def test_a_flipped_word_fails_the_job_and_the_run(monkeypatch, tmp_path):
    run = workloads.Job.run
    flipped = []

    def run_and_flip_once(job):
        run(job)
        if not flipped:
            page = next(p for p in job.system.commit.master.iter_pages() if any(p.items()))
            index, value = next(iter(page.items()))
            page.write(index, ("flipped", value))
            flipped.append(job)

    monkeypatch.setattr(workloads.Job, "run", run_and_flip_once)
    monkeypatch.setattr(bench, "launch_child", in_process)
    one_workload = dict(SPEC, workloads=SPEC["workloads"][:1], run_seconds=0)
    assert one_workload["workloads"][0]["name"] == "pipeline_scale"
    monkeypatch.setattr(bench, "load_spec", lambda: one_workload)
    out = tmp_path / "run.json"
    code = bench.main(["run", "--json", str(out)])
    assert code == 1
    result = json.loads(out.read_text())["workloads"]["pipeline_scale"]
    assert result["failed"] == 1
    assert result["fail_rate"] == 1 / result["attempted"] > 0


@pytest.mark.parametrize("name", workloads.FAULT_FREE)
def test_fault_tolerance_layers_cost_nothing_when_off(name):
    record = in_process({"workload": name, "seed": 1, "variants": [0],
                         "budget_s": 0.0, "trace": True})
    trace = record["trace"]
    assert trace["self_s"]["sim.engine"] > 0
    for layer in layers.OFF_WHEN_FAULT_FREE:
        assert trace["self_s"][layer] == 0, layer
        assert trace["calls"][layer] == 0, layer


def test_layer_table_maps_every_source_file_to_one_layer():
    package = Path(bench.ROOT) / "src" / "repro"
    files = [p.relative_to(package).as_posix() for p in package.rglob("*.py")]
    assert files
    for relpath in files:
        assert len(layers.claims(relpath)) <= 1, relpath
    # Every table entry names something that exists.
    for layer, prefixes in layers.LAYERS.items():
        for prefix in prefixes:
            assert any(f == prefix or f.startswith(prefix) for f in files), (layer, prefix)


def test_metric_names_match_benchmark_json(monkeypatch):
    monkeypatch.setattr(bench, "launch_child", in_process)
    untraced = bench.measure("misspec_coa", seed=3, seconds=0, trace=False)
    traced = bench.measure("misspec_coa", seed=3, seconds=0, trace=True)
    assert set(bench.metric_values(untraced)) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(bench.metric_values(traced)) == {m["name"] for m in SPEC["per_layer"]}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    # set-up time is the noisiest host time, so it gets the largest bound
    assert max(bounds.values()) == bounds["setup_s"]
    assert all(bound > 0 for bound in bounds.values())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_the_last_stdout_line_is_the_result_object(monkeypatch, capsys, trace, section):
    monkeypatch.setattr(bench, "launch_child", in_process)
    assert bench.main(["--workload", "specfor_ft", "--seed", "2", "--seconds", "0",
                       "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def record_with(wall_samples, fail_rate=0.0):
    return {"workloads": {"w": {
        "end_to_end": {
            "wall_s": bench.summary(wall_samples),
            "setup_s": bench.summary([0.3, 0.31, 0.32]),
            "peak_rss_mb": bench.summary([50.0]),
            "sim_speedup": bench.summary([7.0, 7.1]),
        },
        "fail_rate": fail_rate,
        "per_layer": {m["name"]: 1 for m in SPEC["per_layer"]},
    }}}


@pytest.mark.parametrize("scale, fail_rate, expected", [
    (1.0, 0.0, 0),    # the same record: unchanged
    (1.5, 0.0, 1),    # 50% slower: worse
    (0.5, 0.0, 0),    # 2x faster: better
    (1.0, 0.1, 1),    # more failed jobs: worse
])
def test_compare_exits_1_on_a_worse_metric(tmp_path, capsys, scale, fail_rate, expected):
    walls = [1.0, 1.01, 1.02, 0.99, 1.0, 1.01]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(record_with(walls)) + "\n")
    b.write_text(json.dumps(record_with([w * scale for w in walls], fail_rate)) + "\n")
    assert bench.main(["compare", str(a), str(b)]) == expected
    assert "simulated counters identical" in capsys.readouterr().out


def test_compare_lists_a_moved_speedup_with_the_counters(tmp_path, capsys):
    a, b = record_with([1.0, 1.01]), record_with([1.0, 1.01])
    b["workloads"]["w"]["end_to_end"]["sim_speedup"] = bench.summary([7.0, 7.2])
    paths = tmp_path / "a.json", tmp_path / "b.json"
    for path, record in zip(paths, (a, b)):
        path.write_text(json.dumps(record) + "\n")
    assert bench.main(["compare", *map(str, paths)]) == 0
    assert "simulated counters differ: sim_speedup" in capsys.readouterr().out


def test_outside_a_checkout_the_benchmark_refuses(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    assert bench.main(["--workload", "pipeline_scale", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""

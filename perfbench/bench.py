"""Host-time benchmark of the simulator: five ~1 s jobs, layer by layer.

Usage, from the repository root (no install; the package is taken from
``src/``)::

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/bench.py run --seed 1 --json out.json
    python3 perfbench/bench.py compare A.json B.json

The first form measures one workload and prints, as its last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics untraced (``--trace 0``) or the per-layer metrics
from a profiled job (``--trace 1``).  ``run`` measures every workload
both ways, prints every metric with its unit, writes one JSON line for
``history.jsonl`` and exits 1 if any job failed its check.  ``compare``
prints one verdict per workload and end-to-end metric and exits 1 if any
is worse.  Metric names, units, directions and bounds come from
``BENCHMARK.json`` at the repository root.

One orchestrator starts one child process at a time.  An untraced
measurement uses three cold children; each builds its reference, runs
one untimed warm-up job and then timed jobs over its four input
variants until its share of ``--seconds`` is spent.  ``gc.collect()``
runs before every job, outside the timed region.

Host times (``wall_s``, ``setup_s``) are calibration-scaled seconds:
seconds at the nominal host speed at which :func:`calibrate`, fixed
pure-Python loops, takes :data:`NOMINAL_CALIBRATION_S`.  The child times
:func:`calibrate` before the first timed job and after every one, and
multiplies each job's time by the nominal calibration time over the mean
of the two calibrations around it; set-up times are scaled by the median
calibration.  On a shared host the speed of interpreter-bound code
drifts by 10-20% over minutes and the calibration follows it, so scaled
times compare across runs where raw ones do not.  The unscaled times are
kept in the ``host`` section of each result.
"""

from __future__ import annotations

import argparse
import functools
import gc
import heapq
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Cold children per untraced measurement.
CHILDREN = 3
#: Input variants per child; every child runs each at least once.
VARIANTS_PER_CHILD = 4
#: Untraced jobs the traced child times as its overhead baseline.
TRACE_BASELINE_JOBS = 2
#: A child that takes longer is killed and the measurement fails.
CHILD_TIMEOUT_S = 150
#: The unit of the scaled host times: one scaled second is one second
#: of a host on which :func:`calibrate` takes this long.  The value is a
#: definition, not a measurement; it only fixes the scale, and is about
#: what a 2-vCPU Xeon VM gives under Python 3.11, so scaled and raw
#: seconds read alike there.  Verdicts depend on ratios only.
NOMINAL_CALIBRATION_S = 0.12
#: Entries of the pointer-chase table :func:`calibrate` walks: 16 MiB of
#: ``uint32``, more than a core's private caches hold.
CHASE_ENTRIES = 1 << 22


class BenchError(RuntimeError):
    """A measurement could not be completed."""


# -- child side ------------------------------------------------------------------


def child_main(spec: dict) -> dict:
    """Run one child's jobs in this process and return its record.

    ``spec`` names the workload, seed, variants, time budget, the start
    time ``t0`` (``time.monotonic()`` of the parent just before it
    spawned this process) and whether to profile a final job; tests add
    a reduced ``iterations``.
    """
    import cProfile
    import pstats
    import traceback

    import repro
    import layers
    import workloads

    name, seed, iterations = spec["workload"], spec["seed"], spec.get("iterations")
    variants = spec["variants"]
    first = workloads.Job(name, seed, variants[0], iterations)
    first.construct()
    setup_s = time.monotonic() - spec["t0"]
    ref = workloads.reference(
        workloads.Job(name, seed, variants[0], iterations), first.uva_layout
    )
    table = chase_table()
    # The table stays resident through every job; it is not the job's.
    table_mb = len(table) * table.itemsize / 2**20
    record = {"setup_s": setup_s, "attempted": 0, "failed": 0, "samples": []}

    def attempt(job, profiler=None):
        """Construct (unless done) and run ``job``; check it.  Returns the
        timed seconds and the job's peak RSS in MB, or ``None`` when the
        job failed."""
        gc.collect()
        clear_peak_rss()
        record["attempted"] += 1
        try:
            begin = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                if job.system is None:
                    job.construct()
                job.run()
            finally:
                if profiler is not None:
                    profiler.disable()
            wall = time.perf_counter() - begin
            rss_mb = peak_rss_mb() - table_mb
            if workloads.matches(job, ref):
                return wall, rss_mb
            print(f"{job}: committed image differs from the sequential reference",
                  file=sys.stderr)
        except Exception:
            print(f"{job} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        record["failed"] += 1
        return None

    attempt(first)
    deadline = time.monotonic() + spec["budget_s"]
    done = 0
    # Each timed job sits between two calibrations; it is scaled by their
    # mean, which follows the host speed better than either one alone.
    before = calibration_seconds(table)
    while done < len(variants) or time.monotonic() < deadline:
        variant = variants[done % len(variants)]
        job = workloads.Job(name, seed, variant, iterations)
        outcome = attempt(job)
        after = calibration_seconds(table)
        if outcome is not None:
            record["samples"].append({
                "variant": variant,
                "wall_s": outcome[0],
                "rss_mb": outcome[1],
                "calibration_s": (before + after) / 2,
                "sim_speedup": ref.seconds / job.result.elapsed_seconds,
            })
        before = after
        done += 1
    if spec["trace"]:
        job = workloads.Job(name, seed, variants[0], iterations)
        profiler = cProfile.Profile()
        outcome = attempt(job, profiler)
        if outcome is not None:
            classify = layers.Classifier(os.path.dirname(repro.__file__))
            self_s, calls, total_s = layers.fold(pstats.Stats(profiler).stats, classify)
            record["trace"] = {
                "wall_s": outcome[0], "self_s": self_s, "calls": calls,
                "total_s": total_s, "counters": workloads.counters(job),
            }
    return record


@functools.cache
def chase_table() -> array:
    """A single-cycle permutation of ``range(CHASE_ENTRIES)``.

    ``i -> (a*i + c) mod 2**22`` with ``a = 1 (mod 4)`` and ``c`` odd has
    full period (Hull-Dobell), so following it visits every entry in an
    order no prefetcher predicts."""
    mask = CHASE_ENTRIES - 1
    return array("I", ((i * 1103515245 + 12345) & mask for i in range(CHASE_ENTRIES)))


def calibrate(table: array) -> None:
    """Fixed pure-Python work that no change to the simulator can speed
    up: an event loop (heap scheduling, generator resumption, dict
    updates), then a pointer chase through ``table``, which misses the
    caches as the simulator's scattered objects do.  Its time measures
    how fast the host runs the simulator's kind of code at that moment.
    When other tenants load the host, the event loop alone slows more
    than the jobs do; with the chase added, the two move in proportion."""
    heap = []
    tick = itertools.count()

    def process(k):
        state = {"k": k, "n": 0}
        while True:
            state["n"] += 1
            yield (k * 7 + state["n"]) % 13 + 1

    processes = [process(k) for k in range(64)]
    for k, proc in enumerate(processes):
        heapq.heappush(heap, (next(proc), next(tick), k))
    for _ in range(100_000):
        at, _, k = heapq.heappop(heap)
        heapq.heappush(heap, (at + processes[k].send(None), next(tick), k))
    i = 0
    for _ in range(300_000):
        i = table[i]


def calibration_seconds(table: array) -> float:
    """Seconds :func:`calibrate` takes now, after a full collection."""
    gc.collect()
    begin = time.perf_counter()
    calibrate(table)
    return time.perf_counter() - begin


def clear_peak_rss() -> None:
    """Reset this process's peak resident set size (Linux)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident set size since the last :func:`clear_peak_rss`."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError("no VmHWM in /proc/self/status")


# -- orchestrator side --------------------------------------------------------------


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def check_checkout() -> None:
    """Fail fast outside a source checkout: the package is built from
    ``src/`` next to this directory, never from an installed copy."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no src/repro package under {ROOT}; run from a source checkout")


def launch_child(spec: dict) -> dict:
    """Run :func:`child_main` in a fresh interpreter and return its record."""
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    # time.monotonic() is CLOCK_MONOTONIC: one clock for every process.
    spec = dict(spec, t0=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "child", json.dumps(spec)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list) -> dict:
    """Median, quartiles and count of a list of samples."""
    median = statistics.median(values)
    p25, _, p75 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "p25": p25, "p75": p75, "n": len(values), "samples": values}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One measurement of one workload (see the module docstring)."""
    base = {"workload": name, "seed": seed, "trace": trace}
    if trace:
        records = [launch_child(dict(
            base, variants=[0] * TRACE_BASELINE_JOBS, budget_s=0.0))]
    else:
        records = [
            launch_child(dict(
                base,
                variants=list(range(c * VARIANTS_PER_CHILD, (c + 1) * VARIANTS_PER_CHILD)),
                budget_s=seconds / CHILDREN,
            ))
            for c in range(CHILDREN)
        ]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    samples = [s for r in records for s in r["samples"]]
    result = {"attempted": attempted, "failed": failed, "fail_rate": failed / attempted}
    if not samples:
        raise BenchError(f"{name}: every timed job failed")
    walls = [s["wall_s"] for s in samples]
    if trace:
        result["per_layer"] = per_layer(records[0].get("trace"), statistics.median(walls))
        return result
    speedups = {}
    for s in samples:
        speedups.setdefault(s["variant"], s["sim_speedup"])
    calibrations = [s["calibration_s"] for s in samples]
    setups = [r["setup_s"] for r in records]
    # Scale host times to the nominal host speed, so a slower or busier
    # host between two runs does not read as a regression: each job by
    # the calibrations around it, set-up by the median.
    speed = NOMINAL_CALIBRATION_S / statistics.median(calibrations)
    result["end_to_end"] = {
        "wall_s": summary([
            s["wall_s"] * NOMINAL_CALIBRATION_S / s["calibration_s"] for s in samples
        ]),
        "setup_s": summary([s * speed for s in setups]),
        "peak_rss_mb": summary([s["rss_mb"] for s in samples]),
        "sim_speedup": summary([speedups[v] for v in sorted(speedups)]),
    }
    result["host"] = {
        "speed": speed,
        "raw_wall_s": summary(walls),
        "raw_setup_s": summary(setups),
        "calibration_s": summary(calibrations),
    }
    return result


def per_layer(trace: dict | None, untraced_wall_s: float) -> dict:
    """Per-layer metric values from a traced child's record."""
    if trace is None:
        raise BenchError("the traced job failed")
    values = {}
    total = trace["total_s"]
    for layer, seconds in trace["self_s"].items():
        values[f"layer.{layer}.share"] = seconds / total
        values[f"layer.{layer}.self_s"] = seconds
        values[f"layer.{layer}.calls"] = trace["calls"][layer]
    values["trace.wall_s"] = trace["wall_s"]
    values["trace.overhead"] = trace["wall_s"] / untraced_wall_s
    values.update(trace["counters"])
    return values


def metric_values(result: dict) -> dict:
    """``{name: value}`` of one measurement: medians for end-to-end."""
    if "end_to_end" in result:
        return {k: v["median"] for k, v in result["end_to_end"].items()}
    return dict(result["per_layer"])


def render(name: str, result: dict, units: dict) -> str:
    lines = [f"== {name}: {result['failed']} of {result['attempted']} jobs failed "
             f"(fail_rate {result['fail_rate']:.4g})"]
    for metric, s in result.get("end_to_end", {}).items():
        lines.append(f"  {metric:<40} {s['median']:>14.6g} {units[metric]:<9} "
                     f"p25 {s['p25']:.6g}  p75 {s['p75']:.6g}  n {s['n']}")
    if "host" in result:
        host = result["host"]
        lines.append(f"  (host speed {host['speed']:.4g}x nominal; unscaled wall_s "
                     f"{host['raw_wall_s']['median']:.6g} s, setup_s "
                     f"{host['raw_setup_s']['median']:.6g} s)")
    for metric, value in result.get("per_layer", {}).items():
        lines.append(f"  {metric:<40} {value:>14.6g} {units[metric]}")
    return "\n".join(lines)


def units_of(spec: dict) -> dict:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def cmd_measure(args, spec: dict) -> int:
    """The single-workload form: last stdout line is the result object."""
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = units_of(spec)
    print(render(args.workload, result, units))
    values = metric_values(result)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def cmd_run(args, spec: dict) -> int:
    """Every workload, untraced then traced; one history record."""
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {}
    for name in names:
        print(f"measuring {name} ...", file=sys.stderr)
        results[name] = measure(name, args.seed, seconds, trace=False)
    for name in names:
        print(f"tracing {name} ...", file=sys.stderr)
        traced = measure(name, args.seed, seconds, trace=True)
        untraced = results[name]
        for key in ("attempted", "failed"):
            untraced[key] += traced[key]
        untraced["fail_rate"] = untraced["failed"] / untraced["attempted"]
        untraced["per_layer"] = traced["per_layer"]
    units = units_of(spec)
    for name, result in results.items():
        print(render(name, result, units))
    record = {
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": seconds,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "workloads": results,
    }
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return 1 if any(r["failed"] for r in results.values()) else 0


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """better / worse / unchanged / unresolved for B against A."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["p75"] - s["p25"]) / s["median"] for s in (a, b))
    a_vals = [sign * v for v in a["samples"]]
    b_vals = [sign * v for v in b["samples"]]
    if spread > bound:
        if max(b_vals) < min(a_vals):
            return "better"
        if min(b_vals) > max(a_vals) and change > bound:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def cmd_compare(args, spec: dict) -> int:
    """One row per workload x end-to-end metric; exit 1 on any worse."""
    with open(args.a) as handle:
        a = json.loads(handle.readline())
    with open(args.b) as handle:
        b = json.loads(handle.readline())
    worse = 0
    print(f"{'workload':<18} {'metric':<12} {'A median [p25, p75]':>34} "
          f"{'B median [p25, p75]':>34}  verdict")
    for name, ra in a["workloads"].items():
        rb = b["workloads"].get(name)
        if rb is None:
            print(f"{name:<18} missing from B")
            worse += 1
            continue
        for metric in spec["end_to_end"]:
            sa, sb = ra["end_to_end"][metric["name"]], rb["end_to_end"][metric["name"]]
            v = verdict(sa, sb, metric["bound"], metric["better"])
            worse += v == "worse"
            print(f"{name:<18} {metric['name']:<12} "
                  f"{sa['median']:>12.6g} [{sa['p25']:.4g}, {sa['p75']:.4g}]".ljust(66)
                  + f"{sb['median']:>12.6g} [{sb['p25']:.4g}, {sb['p75']:.4g}]".ljust(36)
                  + v)
        fa, fb = ra["fail_rate"], rb["fail_rate"]
        v = "worse" if fb > fa else "better" if fb < fa else "unchanged"
        worse += v == "worse"
        print(f"{name:<18} {'fail_rate':<12} {fa:>12.6g}".ljust(66) + f"{fb:>12.6g}".ljust(36) + v)
        counters = [m["name"] for m in spec["per_layer"]
                    if not m["name"].startswith(("layer.", "trace."))]
        moved = [c for c in counters if ra["per_layer"][c] != rb["per_layer"][c]]
        # Simulated speed-ups are deterministic for a seed, like the counters.
        if ra["end_to_end"]["sim_speedup"]["samples"] != rb["end_to_end"]["sim_speedup"]["samples"]:
            moved.append("sim_speedup")
        print(f"{name:<18} simulated counters "
              + ("identical" if not moved else "differ: " + ", ".join(moved)))
    return 1 if worse else 0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/bench.py", description=__doc__.split("\n")[0])
    if argv[:1] not in (["run"], ["compare"]):
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        return parser.parse_args(argv)
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="measure every workload, untraced and traced")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--json", help="write the run as one JSON line (a history.jsonl record)")
    compare = sub.add_parser("compare", help="compare two `run --json` records")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if argv[:1] == ["child"]:
        print(json.dumps(child_main(json.loads(argv[1]))))
        return 0
    args = parse_args(argv)
    command = getattr(args, "command", None)
    try:
        spec = load_spec()
        if command == "compare":
            return cmd_compare(args, spec)
        check_checkout()
        return cmd_run(args, spec) if command == "run" else cmd_measure(args, spec)
    except (BenchError, OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line interface.

Run benchmarks and inspect the suite without writing code::

    python -m repro list                         # Table 2
    python -m repro run 456.hmmer --cores 64     # one run, both schemes
    python -m repro sweep blackscholes           # Figure 4 panel
    python -m repro bandwidth                    # Figure 5(a)
    python -m repro trace crc32 --out t.json     # Perfetto trace of one run
    python -m repro chaos --crash-node 0         # fault injection + recovery
    python -m repro chaos --corruption 0.05 --integrity   # checksum repair
    python -m repro scrub crc32                  # committed-memory audit
    python -m repro campaign run scenarios/example_grid.json --workers 4
    python -m repro campaign report              # aggregate tables (latest)
    python -m repro campaign diff prev latest    # digest regression check

All runs execute on the simulated cluster; times reported are simulated
seconds, speedups are against the single-core sequential execution.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import (
    bandwidth_series,
    geomean,
    measure_speedup,
    render_attribution,
    render_series,
    render_table,
    render_timeline,
)
from repro.errors import CampaignError
from repro.obs import instrument, write_chrome_trace, write_trace_csv
from repro.workloads import (
    ALL_BENCHMARKS,
    BENCHMARKS,
    SPECULATION_LEGEND,
    irregular_rows,
    table2_rows,
)

DEFAULT_SWEEP = (8, 32, 64, 96, 128)


def _factory(name: str):
    if name not in ALL_BENCHMARKS:
        raise SystemExit(
            f"unknown benchmark {name!r}; run 'python -m repro list' to see them"
        )
    return ALL_BENCHMARKS[name]


def _metadata_table(rows, title):
    return render_table(
        ["Benchmark", "Suite", "Description", "Paradigm", "Speculation"],
        [[r["benchmark"], r["suite"], r["description"], r["paradigm"],
          r["speculation"]] for r in rows],
        title=title,
    )


def cmd_list(_args) -> int:
    """Print Table 2, plus the irregular speculative_for family."""
    print(_metadata_table(table2_rows(), "Table 2: Benchmark Details"))
    print()
    print(_metadata_table(
        irregular_rows(),
        "Irregular workloads (deterministic reservations / speculative_for)"))
    print()
    print("; ".join(f"{k} = {v}" for k, v in SPECULATION_LEGEND.items()))
    return 0


def cmd_run(args) -> int:
    """Run one benchmark at one core count under every applicable scheme
    (DSMTX and TLS always; speculative_for when the workload declares a
    write_min reservation site)."""
    from repro.campaign import ScenarioSpec, build_scenario, sequential_seconds
    from repro.workloads import reservation_benchmarks

    _factory(args.benchmark)  # an unknown name exits with the registry hint
    fields = {"benchmark": args.benchmark, "cores": args.cores,
              "density": args.density}
    specs = [ScenarioSpec.from_dict(
        {**fields, "scheme": scheme, "coa_replicas": args.replicas})
        for scheme in ("dsmtx", "tls")]
    if args.benchmark in reservation_benchmarks():
        # COA read replicas belong to the DSMTX runtime.
        specs.append(ScenarioSpec.from_dict({**fields, "scheme": "specfor"}))
    sequential = None
    for spec in specs:
        system, _engine, config = build_scenario(spec)
        if sequential is None:
            sequential = sequential_seconds(spec, config)
            print(f"{args.benchmark} on {args.cores} cores "
                  f"(sequential: {sequential * 1e3:.2f} ms simulated)")
        result = system.run()
        stats = result.stats
        if spec.scheme == "specfor":
            label = "speculative_for"
            detail = (f"{stats.specfor_rounds} rounds, "
                      f"{stats.specfor_reservation_failures} reservation "
                      f"losses, {stats.specfor_carried} carried")
        else:
            label = system.workload.label
            detail = (f"{stats.committed_mtxs} MTXs, "
                      f"{stats.queue_bytes / 1e6:.1f} MB moved, "
                      f"{stats.coa_pages_served} COA pages")
        print(f"  {label:<24} {result.elapsed_seconds * 1e3:9.2f} ms  "
              f"{sequential / result.elapsed_seconds:6.1f}x   [{detail}]")
    return 0


def cmd_sweep(args) -> int:
    """Speedup curve for one benchmark (a Figure 4 panel)."""
    factory = _factory(args.benchmark)
    series: dict = {}
    for scheme in ("dsmtx", "tls"):
        label = (factory().dsmtx_plan().label if scheme == "dsmtx" else "TLS")
        points = {}
        for cores in args.cores:
            plan = (factory().dsmtx_plan() if scheme == "dsmtx"
                    else factory().tls_plan())
            if cores < plan.min_cores:
                continue
            points[cores] = measure_speedup(factory, scheme, cores).speedup
        series[label] = points
    print(render_series(series, title=f"{args.benchmark} scalability"))
    return 0


def cmd_geomean(args) -> int:
    """Geomean speedups across the whole suite (Figure 4(l))."""
    rows = []
    for cores in args.cores:
        best, tls_points = [], []
        for name, factory in BENCHMARKS.items():
            dsmtx = measure_speedup(factory, "dsmtx", cores).speedup
            tls = measure_speedup(factory, "tls", cores).speedup
            best.append(max(dsmtx, tls))
            tls_points.append(tls)
        rows.append([cores, f"{geomean(best):.1f}x", f"{geomean(tls_points):.1f}x"])
        print(f"  ... {cores} cores done", file=sys.stderr)
    print(render_table(["cores", "DSMTX Best", "TLS"], rows,
                       title="Geomean speedup (Figure 4(l))"))
    return 0


def cmd_bandwidth(_args) -> int:
    """Per-benchmark bandwidth requirements (Figure 5(a))."""
    rows = []
    for name, factory in BENCHMARKS.items():
        series = bandwidth_series(factory, points=3)
        rows.append([name] + [f"{p.cores}c: {p.bandwidth_kbps:,.0f}" for p in series])
    print(render_table(
        ["benchmark", "min cores", "+1 core", "+2 cores"], rows,
        title="Bandwidth requirement (kBps), Figure 5(a)",
    ))
    return 0


def cmd_trace(args) -> int:
    """Run one benchmark instrumented and export a Perfetto trace."""
    from repro.campaign import ScenarioSpec, build_scenario

    factory = _factory(args.benchmark)
    fields = {"benchmark": args.benchmark, "scheme": args.scheme,
              "cores": args.cores, "iterations": args.iterations}
    if not args.no_misspec:
        # Inject one deterministic misspeculation mid-run so the trace
        # exercises the recovery categories (drain/ERM/FLQ/SEQ).
        iterations = args.iterations or factory().iterations
        fields["misspec_iterations"] = [iterations // 2]
    system, _engine, _config = build_scenario(ScenarioSpec.from_dict(fields))
    label = system.workload.label
    hub = instrument(system)
    result = system.run()
    hub.finalize(system)

    out = args.out or f"{args.benchmark}.trace.json"
    metadata = {
        "benchmark": args.benchmark,
        "scheme": args.scheme,
        "plan": label,
        "cores": args.cores,
        "metrics": hub.metrics.snapshot(),
    }
    write_chrome_trace(hub.tracer, out, metadata=metadata)
    if args.csv:
        write_trace_csv(hub.tracer, args.csv)

    stats = result.stats
    elapsed_us = stats.elapsed_seconds * 1e6
    print(f"{args.benchmark} ({label}) on {args.cores} cores: "
          f"{stats.elapsed_seconds * 1e3:.2f} ms simulated, "
          f"{stats.committed_mtxs} MTXs, "
          f"{stats.misspeculations} misspeculation(s)")
    print(f"wrote {len(hub.tracer)} events to {out}"
          + (f" and {args.csv}" if args.csv else ""))
    if hub.tracer.dropped:
        print(f"warning: {hub.tracer.dropped} events dropped "
              f"(raise tracer capacity)", file=sys.stderr)
    print()
    print(render_attribution(hub.tracer, elapsed_us=elapsed_us))
    print()
    print(render_timeline(hub.tracer))
    print()
    print("open the JSON in https://ui.perfetto.dev (or chrome://tracing)")
    return 0


def cmd_chaos(args) -> int:
    """Run one benchmark under a seeded fault plan and prove recovery.

    The flags become a scenario (docs/CAMPAIGNS.md), validated and built
    by the campaign runner: the same workload runs fault-tolerant under
    the plan, then the runner's fault-free reference, and the command
    checks that the chaotic run committed the same results
    (docs/RESILIENCE.md).  ``--digest-only`` prints nothing but the
    outcome digest and skips the reference — run it twice and compare to
    verify byte-determinism (the CI chaos-smoke job does exactly this).
    """
    from repro.analysis import render_resilience_report, run_digest
    from repro.analysis.resilience import memory_fingerprint
    from repro.campaign import ScenarioSpec, build_scenario, run_reference

    spec = ScenarioSpec.from_dict({
        "benchmark": args.benchmark,
        "scheme": args.scheme,
        "cores": args.cores,
        "iterations": args.iterations,
        "density": args.density,
        "seed": args.seed,
        "batch_bytes": args.batch_bytes or None,
        "placement": args.placement,
        "fault_tolerance": True,
        "commit_replication": args.replicate_commit,
        "integrity": args.integrity,
        "faults": {
            "crash_node": -1 if args.crash_commit else args.crash_node,
            "crash_commit": args.crash_commit,
            "crash_at_ms": args.crash_at,
            "drop": args.drop,
            "dup": args.dup,
            "corruption": args.corruption,
            "degrade": args.degrade,
        },
    })
    system, engine, config = build_scenario(spec)
    stats = system.run().stats
    digest = run_digest(stats, master=system.commit.master, chaos=engine)
    if args.digest_only:
        print(digest)
        return 0

    reference = run_reference(spec, config)
    plan = engine.plan.describe() if engine is not None else "fault-free"
    print(f"{args.benchmark} on {args.cores} cores, fault plan (seed {args.seed}):")
    print("  " + plan.replace("\n", "\n  "))
    print()
    print(render_resilience_report(stats, chaos=engine,
                                   reference=reference.stats))
    print()
    same_memory = (memory_fingerprint(system.commit.master)
                   == memory_fingerprint(reference.commit.master))
    same_count = stats.committed_mtxs == reference.stats.committed_mtxs
    print(f"committed memory matches fault-free run: {same_memory}")
    print(f"committed MTX count matches: {same_count} "
          f"({stats.committed_mtxs})")
    print(f"scenario digest: {spec.digest()}")
    print(f"outcome digest: {digest}")
    if not (same_memory and same_count):
        print("FAILED: the chaotic run did not reproduce the fault-free "
              "results", file=sys.stderr)
        return 1
    return 0


def cmd_scrub(args) -> int:
    """Demonstrate the committed-memory scrubber: inject silent bit
    flips into the commit unit's master mid-run and report what the
    page-digest audit detected, repaired (from the standby's replicated
    copy), or had to declare unrepairable.
    """
    from dataclasses import replace

    from repro.analysis.resilience import memory_fingerprint
    from repro.campaign import ScenarioSpec, build_scenario, run_reference
    from repro.chaos import ChaosEngine, FaultPlan, StateCorruption

    spec = ScenarioSpec.from_dict({
        "benchmark": args.benchmark,
        "cores": args.cores,
        "iterations": args.iterations,
        "seed": args.seed,
        "placement": "spread",
        "fault_tolerance": True,
        "commit_replication": True,
        "integrity": True,
    })
    # Probe run: sizes the scrub interval to the workload so sweeps
    # actually happen inside these microsecond-scale simulated runs.
    probe, _engine, config = build_scenario(spec)
    probe_elapsed = probe.run().elapsed_seconds
    interval_s = (args.interval * 1e-3 if args.interval
                  else probe_elapsed / 16)
    config = replace(config, scrub_interval_s=interval_s)
    reference = run_reference(spec, config)
    at_s = (args.corrupt_at * 1e-3 if args.corrupt_at is not None
            else 0.5 * reference.stats.elapsed_seconds)
    plan = FaultPlan(
        faults=(StateCorruption("memory", at_s=at_s, words=args.words),),
        seed=args.seed,
    )
    system, _engine, _config = build_scenario(spec, config)
    engine = ChaosEngine(plan).attach(system.env)
    stats = system.run().stats

    flipped = sum(words for _t, _at, words in engine.state_corruption_log)
    print(f"{args.benchmark} on {args.cores} cores, integrity on, "
          f"scrub every {interval_s * 1e6:.2f} us simulated:")
    print(f"  injected: {flipped} silent bit flip(s) in committed master "
          f"memory at {at_s * 1e3:.3f} ms (seed {args.seed})")
    print(f"  audited:  {stats.ft_scrub_pages} page(s) over "
          f"{stats.ft_scrub_rounds} sweep(s)")
    print(f"  found:    {stats.ft_corruptions_detected} detected, "
          f"{stats.ft_corruptions_repaired} repaired from the standby, "
          f"{stats.ft_corruptions_unrepairable} unrepairable")
    same_memory = (memory_fingerprint(system.commit.master)
                   == memory_fingerprint(reference.commit.master))
    print(f"  committed memory matches fault-free run: {same_memory}")
    if not same_memory:
        print("FAILED: corruption survived the scrub", file=sys.stderr)
        return 1
    return 0


def _campaign_run(args) -> int:
    """``repro campaign run``: expand, sweep, persist, summarize."""
    from pathlib import Path

    from repro.analysis import render_campaign_summary
    from repro.campaign import CampaignStore, load_campaign, run_campaign

    campaign = load_campaign(args.file)
    scenarios = campaign.expand()
    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    print(f"campaign {campaign.name!r}: {len(scenarios)} scenario(s) "
          f"on {args.workers} worker(s)", file=sys.stderr)

    def progress(done, total, result):
        if not args.quiet:
            print(f"  [{done}/{total}] {result.name:<44} {result.status:<6} "
                  f"{result.outcome_digest[:12]} "
                  f"{result.elapsed_sim_seconds * 1e3:8.2f} ms sim",
                  file=sys.stderr)

    results = run_campaign(scenarios, workers=args.workers,
                           trace_dir=trace_dir, progress=progress)
    with CampaignStore(args.store) as store:
        import json as _json

        campaign_id = store.record_campaign(
            name=args.name or campaign.name,
            results=results,
            source=str(args.file),
            workers=args.workers,
            spec_json=_json.dumps(campaign.to_dict(), sort_keys=True),
        )
    print()
    print(render_campaign_summary(
        [r.record() | {"wall_seconds": r.wall_seconds} for r in results],
        title=f"campaign #{campaign_id} ({campaign.name})"))
    print(f"\nstored campaign #{campaign_id} in {args.store}")
    bad = sum(1 for r in results if not r.ok)
    if bad:
        print(f"{bad} scenario(s) not ok", file=sys.stderr)
        return 1
    return 0


def _campaign_report(args) -> int:
    """``repro campaign report``: aggregate tables of one stored run."""
    from repro.analysis import render_campaign_summary
    from repro.campaign import CampaignStore

    with CampaignStore(args.store) as store:
        campaign_id = store.resolve(args.campaign)
        if args.digests:
            for name, _spec, outcome in store.outcome_digests(campaign_id):
                print(f"{outcome}  {name}")
            return 0
        records = store.results(campaign_id)
        meta = next(c for c in store.campaigns() if c["id"] == campaign_id)
    print(render_campaign_summary(
        records,
        title=(f"campaign #{campaign_id} ({meta['name']}) — "
               f"{meta['created_at']}, {meta['workers']} worker(s)")))
    return 0


def _campaign_diff(args) -> int:
    """``repro campaign diff``: outcome-digest regression check."""
    from repro.analysis import render_campaign_diff
    from repro.campaign import CampaignStore

    with CampaignStore(args.store) as store:
        diff = store.diff(args.old, args.new)
    print(render_campaign_diff(diff))
    return 0 if diff.clean else 1


def _campaign_list(args) -> int:
    """``repro campaign list``: stored campaigns, oldest first."""
    from repro.analysis import render_table
    from repro.campaign import CampaignStore

    with CampaignStore(args.store) as store:
        campaigns = store.campaigns()
    if not campaigns:
        print(f"store {args.store} holds no campaigns yet")
        return 0
    rows = [[c["id"], c["name"], c["created_at"], c["workers"],
             f"{c['ok']}/{c['scenarios']}", c["source"]]
            for c in campaigns]
    print(render_table(["id", "name", "created", "workers", "ok", "source"],
                       rows, title=f"Campaigns in {args.store}"))
    return 0


def cmd_campaign(args) -> int:
    """Run declarative scenario campaigns (docs/CAMPAIGNS.md)."""
    handlers = {
        "run": _campaign_run,
        "report": _campaign_report,
        "diff": _campaign_diff,
        "list": _campaign_list,
    }
    return handlers[args.campaign_command](args)


def _core_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DSMTX reproduction: speculative parallelization on a "
                    "simulated commodity cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the benchmark suite (Table 2)")

    run = sub.add_parser("run", help="run one benchmark under both schemes")
    run.add_argument("benchmark")
    run.add_argument("--cores", type=int, default=32)
    run.add_argument("--replicas", type=int, default=0,
                     help="COA read replicas (extension; cores come off "
                          "the worker budget)")
    run.add_argument("--density", type=float, default=None,
                     help="conflict-density knob in [0,1] for the "
                          "irregular workloads")

    sweep = sub.add_parser("sweep", help="speedup curve (a Figure 4 panel)")
    sweep.add_argument("benchmark")
    sweep.add_argument("--cores", type=_core_list, default=list(DEFAULT_SWEEP))

    geo = sub.add_parser("geomean", help="suite geomean (Figure 4(l))")
    geo.add_argument("--cores", type=_core_list, default=[128])

    sub.add_parser("bandwidth", help="bandwidth requirements (Figure 5(a))")

    trace = sub.add_parser(
        "trace",
        help="run one benchmark instrumented; write a Perfetto trace "
             "(docs/OBSERVABILITY.md)",
    )
    trace.add_argument("benchmark")
    trace.add_argument("--cores", type=int, default=16)
    trace.add_argument("--scheme", choices=("dsmtx", "tls"), default="dsmtx")
    trace.add_argument("--iterations", type=int, default=None,
                       help="override the workload's iteration count")
    trace.add_argument("--out", default=None,
                       help="trace JSON path (default: <benchmark>.trace.json)")
    trace.add_argument("--csv", default=None,
                       help="also write a flat CSV of the events")
    trace.add_argument("--no-misspec", action="store_true",
                       help="do not inject the default mid-run misspeculation")

    chaos = sub.add_parser(
        "chaos",
        help="run under a seeded fault plan; verify recovery reproduces "
             "the fault-free results (docs/RESILIENCE.md)",
    )
    chaos.add_argument("benchmark", nargs="?", default="crc32")
    chaos.add_argument("--scheme", choices=("dsmtx", "specfor"),
                       default="dsmtx",
                       help="runtime to fault-inject: the DSMTX pipeline or "
                            "the deterministic-reservations runtime "
                            "(speculative_for; workers = cores - 1, minus "
                            "one more under --replicate-commit)")
    chaos.add_argument("--cores", type=int, default=8)
    chaos.add_argument("--iterations", type=int, default=24,
                       help="override the workload's iteration count")
    chaos.add_argument("--density", type=float, default=None,
                       help="conflict-density knob of the irregular "
                            "workloads (specfor benchmarks)")
    chaos.add_argument("--seed", type=int, default=7,
                       help="seed of the per-message fault draws")
    chaos.add_argument("--crash-node", type=int, default=0,
                       help="node to crash (the commit unit's node is only "
                            "survivable with --replicate-commit); negative "
                            "disables the crash")
    chaos.add_argument("--crash-commit", action="store_true",
                       help="crash whatever node hosts the commit unit "
                            "(overrides --crash-node; pair with "
                            "--replicate-commit to survive it)")
    chaos.add_argument("--replicate-commit", action="store_true",
                       help="run a hot-standby commit replica; a commit-node "
                            "crash promotes it (docs/RESILIENCE.md)")
    chaos.add_argument("--placement", choices=("pack", "spread"),
                       default="pack",
                       help="unit-to-node placement; spread isolates each "
                            "unit on its own node so single-node crashes "
                            "take out exactly one unit")
    chaos.add_argument("--crash-at", type=float, default=5.0,
                       help="crash time in simulated milliseconds")
    chaos.add_argument("--drop", type=float, default=0.0,
                       help="per-message loss probability")
    chaos.add_argument("--dup", type=float, default=0.0,
                       help="per-message duplication probability")
    chaos.add_argument("--corruption", type=float, default=0.0,
                       help="per-message silent bit-flip probability; pair "
                            "with --integrity so checksums convert the "
                            "corruption into repairable loss")
    chaos.add_argument("--integrity", action="store_true",
                       help="checksummed transport + state digests + "
                            "committed-page scrubbing (implies fault "
                            "tolerance; docs/RESILIENCE.md)")
    chaos.add_argument("--degrade", type=float, default=0.0,
                       help="degrade the fabric the whole run by this factor")
    chaos.add_argument("--batch-bytes", type=int, default=0,
                       help="override the queue batch size; small batches "
                            "make commits (and the replication stream) "
                            "progressive instead of one terminal round")
    chaos.add_argument("--digest-only", action="store_true",
                       help="print only the sha256 outcome digest "
                            "(CI determinism check)")

    scrub = sub.add_parser(
        "scrub",
        help="inject silent bit flips into committed memory and report "
             "the page-digest scrubber's detect/repair outcome "
             "(docs/RESILIENCE.md)",
    )
    scrub.add_argument("benchmark", nargs="?", default="crc32")
    scrub.add_argument("--cores", type=int, default=8)
    scrub.add_argument("--iterations", type=int, default=48,
                       help="override the workload's iteration count")
    scrub.add_argument("--words", type=int, default=2,
                       help="resident words to flip")
    scrub.add_argument("--seed", type=int, default=7,
                       help="seed of the victim-word draws")
    scrub.add_argument("--corrupt-at", type=float, default=None,
                       help="flip time in simulated milliseconds "
                            "(default: mid-run)")
    scrub.add_argument("--interval", type=float, default=0.0,
                       help="scrub interval in simulated milliseconds "
                            "(default: 1/16 of the run)")

    campaign = sub.add_parser(
        "campaign",
        help="declarative scenario campaigns: validated sweep grids fanned "
             "across host cores, with a persistent results store "
             "(docs/CAMPAIGNS.md)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    def _store_flag(p):
        p.add_argument("--store", default="campaigns.sqlite",
                       help="SQLite results store "
                            "(default: ./campaigns.sqlite)")

    crun = campaign_sub.add_parser(
        "run", help="expand a campaign file and run every scenario")
    crun.add_argument("file", help="campaign document (.json/.yaml)")
    crun.add_argument("--workers", type=int, default=1,
                      help="host processes to fan scenarios across "
                           "(results are byte-identical for any value)")
    crun.add_argument("--name", default=None,
                      help="store the run under this name "
                           "(default: the campaign's own name)")
    crun.add_argument("--trace-dir", default=None,
                      help="write Perfetto traces of scenarios marked "
                           "'trace: true' into this directory")
    crun.add_argument("--quiet", action="store_true",
                      help="suppress the per-scenario progress lines")
    _store_flag(crun)

    creport = campaign_sub.add_parser(
        "report", help="aggregate tables for one stored campaign")
    creport.add_argument("campaign", nargs="?", default="latest",
                         help="campaign id, 'latest' (default), or 'prev'")
    creport.add_argument("--digests", action="store_true",
                         help="print one 'outcome_digest  scenario' line per "
                              "scenario instead (CI golden comparison)")
    _store_flag(creport)

    cdiff = campaign_sub.add_parser(
        "diff", help="compare outcome digests of two stored campaigns; "
                     "exit 1 on drift")
    cdiff.add_argument("old", nargs="?", default="prev",
                       help="baseline campaign id (default: prev)")
    cdiff.add_argument("new", nargs="?", default="latest",
                       help="candidate campaign id (default: latest)")
    _store_flag(cdiff)

    clist = campaign_sub.add_parser("list", help="stored campaigns")
    _store_flag(clist)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "geomean": cmd_geomean,
        "bandwidth": cmd_bandwidth,
        "trace": cmd_trace,
        "chaos": cmd_chaos,
        "scrub": cmd_scrub,
        "campaign": cmd_campaign,
    }
    try:
        return handlers[args.command](args)
    except CampaignError as exc:
        # Scenario, campaign-document and store errors already carry the
        # field's path; show them as a one-line diagnosis, not a
        # traceback.
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module CLI entry
    raise SystemExit(main())

"""Aggregate reporting over campaign result records.

Consumes the canonical result records persisted by
:class:`repro.campaign.store.CampaignStore` (plain dicts; see
:meth:`repro.campaign.runner.ScenarioResult.record`) and renders the
three views ``repro campaign report``/``diff`` print:

* **speedup surfaces** — geomean speedup over the spec grid, one
  benchmark x cores table per scheme (the campaign-shaped analogue of
  the paper's Figure 4 panels);
* **recovery-latency distributions** — min/median/p90/max over every
  node-failure recovery episode in the sweep, plus lost-work and
  promotion totals;
* **digest regression diffs** — scenarios whose outcome digest moved
  between two stored campaigns (same scenario digest, different
  behavior).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.analysis.report import render_table
from repro.analysis.speedup import geomean

__all__ = [
    "quantile",
    "render_campaign_summary",
    "render_density_surface",
    "render_speedup_surfaces",
    "render_recovery_distribution",
    "render_campaign_diff",
]


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty value list (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _spread(values: Sequence[float], scale: float, unit: str) -> str:
    if not values:
        return "n/a"
    return (f"min {min(values) * scale:g}{unit}, "
            f"median {quantile(values, 0.5) * scale:g}{unit}, "
            f"p90 {quantile(values, 0.9) * scale:g}{unit}, "
            f"max {max(values) * scale:g}{unit}")


# -- speedup surfaces ------------------------------------------------------------


def render_speedup_surfaces(records: Sequence[Mapping]) -> str:
    """Benchmark x cores geomean-speedup table, one per scheme.

    Cells aggregate over every *other* swept axis (batch sizes, seeds,
    conflict densities, ...) with the geometric mean, so the table is
    the campaign's marginal speedup surface over the core-count axis.
    """
    sections = []
    schemes = sorted({r["scheme"] for r in records})
    for scheme in schemes:
        cells: dict[tuple, list] = {}
        for record in records:
            if record["scheme"] != scheme or record["speedup"] <= 0:
                continue
            cells.setdefault(
                (record["benchmark"], record["cores"]), []
            ).append(record["speedup"])
        if not cells:
            continue
        core_counts = sorted({cores for _b, cores in cells})
        benchmarks = sorted({bench for bench, _c in cells})
        rows = []
        for bench in benchmarks:
            row = [bench]
            for cores in core_counts:
                values = cells.get((bench, cores))
                row.append(f"{geomean(values):.1f}x" if values else "-")
            rows.append(row)
        sections.append(render_table(
            ["benchmark"] + [f"{c}c" for c in core_counts], rows,
            title=f"Speedup surface ({scheme}, geomean over other axes)",
        ))
    return "\n\n".join(sections)


# -- conflict density ------------------------------------------------------------


def render_density_surface(records: Sequence[Mapping]) -> str:
    """Per-density speedup surface: benchmark x density rows, one
    geomean-speedup column per scheme, plus the speculative_for-to-DSMTX
    ratio when both schemes ran the same cell.

    This is the conflict-density A/B view the reservations campaign
    reports: how each conflict-resolution paradigm degrades as the
    structural contention knob rises.  Empty string when no record
    carries a density (the campaign swept no irregular workload).
    """
    dense = [r for r in records
             if r.get("density") is not None and r["speedup"] > 0]
    if not dense:
        return ""
    schemes = sorted({r["scheme"] for r in dense})
    cells: dict[tuple, list] = {}
    for record in dense:
        key = (record["benchmark"], record["density"], record["scheme"])
        cells.setdefault(key, []).append(record["speedup"])
    rows = []
    ratio = "specfor" in schemes and "dsmtx" in schemes
    for bench, density in sorted({(r["benchmark"], r["density"])
                                  for r in dense}):
        row = [bench, f"{density:g}"]
        means = {}
        for scheme in schemes:
            values = cells.get((bench, density, scheme))
            means[scheme] = geomean(values) if values else None
            row.append(f"{means[scheme]:.2f}x" if values else "-")
        if ratio:
            sf, dx = means.get("specfor"), means.get("dsmtx")
            row.append(f"{sf / dx:.2f}" if sf and dx else "-")
        rows.append(row)
    headers = ["benchmark", "density"] + schemes
    if ratio:
        headers.append("specfor/dsmtx")
    return render_table(
        headers, rows,
        title="Conflict-density speedup surface (geomean over other axes)",
    )


# -- resilience ------------------------------------------------------------------


def render_recovery_distribution(records: Sequence[Mapping]) -> str:
    """Distribution of node-failure recovery latencies across the
    campaign; empty string when no scenario exercised a failover."""
    recoveries = [seconds for record in records
                  for seconds in record.get("recovery_seconds", ())]
    if not recoveries:
        return ""
    lost = sum(record.get("lost_iterations", 0) for record in records)
    promotions = sum(record.get("promotions", 0) for record in records)
    episodes = len(recoveries)
    scenarios = sum(1 for r in records if r.get("recovery_seconds"))
    lines = [
        f"failovers: {episodes} episode(s) across {scenarios} scenario(s), "
        f"{promotions} standby promotion(s)",
        f"recovery latency: {_spread(recoveries, 1e6, ' us')}",
        f"lost iterations:  {lost} total",
    ]
    return "\n".join(lines)


# -- summary ---------------------------------------------------------------------


def render_campaign_summary(records: Sequence[Mapping],
                            title: str = "") -> str:
    """The full ``repro campaign report`` body for one campaign."""
    sections = []
    total = len(records)
    ok = sum(1 for r in records if r["status"] == "ok")
    failed = sum(1 for r in records if r["status"] == "failed")
    errors = total - ok - failed
    header = (f"{total} scenario(s): {ok} ok, {failed} failed expectations, "
              f"{errors} errored")
    if title:
        header = f"{title}\n{header}"
    sections.append(header)

    misspecs = sum(r.get("misspeculations", 0) for r in records)
    sim_seconds = sum(r.get("elapsed_sim_seconds", 0.0) for r in records)
    wall = [r["wall_seconds"] for r in records if r.get("wall_seconds")]
    line = (f"simulated {sim_seconds * 1e3:.1f} ms across the sweep, "
            f"{misspecs} misspeculation(s)")
    if wall:
        line += f"; host wall {sum(wall):.1f} s ({_spread(wall, 1e3, ' ms')})"
    sections.append(line)

    surfaces = render_speedup_surfaces(records)
    if surfaces:
        sections.append(surfaces)
    density = render_density_surface(records)
    if density:
        sections.append(density)
    recovery = render_recovery_distribution(records)
    if recovery:
        sections.append(recovery)

    bad = [r for r in records if r["status"] != "ok"]
    if bad:
        rows = [[r["name"], r["status"], "; ".join(r.get("failures", []))[:72]]
                for r in bad[:20]]
        table = render_table(["scenario", "status", "why"], rows,
                             title="Scenarios not ok" +
                                   (f" (first 20 of {len(bad)})"
                                    if len(bad) > 20 else ""))
        sections.append(table)
    return "\n\n".join(sections)


# -- diffing ---------------------------------------------------------------------


def render_campaign_diff(diff, old_label: Optional[str] = None,
                         new_label: Optional[str] = None) -> str:
    """Human-readable regression diff of two stored campaigns."""
    old_label = old_label or f"campaign #{diff.old_id}"
    new_label = new_label or f"campaign #{diff.new_id}"
    sections = [
        f"{old_label} -> {new_label}: {diff.unchanged} unchanged, "
        f"{len(diff.changed)} changed, {len(diff.added)} added, "
        f"{len(diff.removed)} removed"
    ]
    if diff.changed:
        rows = [[name, digest[:12], old[:12], new[:12]]
                for name, digest, old, new in diff.changed]
        sections.append(render_table(
            ["scenario", "spec digest", "old outcome", "new outcome"], rows,
            title="Outcome digests that moved (same scenario spec)",
        ))
    if diff.added:
        rows = [[name, digest[:12]] for name, digest in diff.added]
        sections.append(render_table(
            ["scenario", "spec digest"], rows, title="Only in the new campaign"))
    if diff.removed:
        rows = [[name, digest[:12]] for name, digest in diff.removed]
        sections.append(render_table(
            ["scenario", "spec digest"], rows, title="Only in the old campaign"))
    if diff.clean:
        sections.append("no outcome drift: every shared scenario reproduced "
                        "its stored digest")
    return "\n\n".join(sections)

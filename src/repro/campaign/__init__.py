"""Scenario campaign service: declarative scenarios, parallel sweeps,
persistent results.

The paper's evaluation is a *grid* — benchmarks swept across core
counts, conflict densities, and cluster configurations — and this
package makes that grid a first-class artifact instead of a shell
loop:

* :mod:`repro.campaign.schema` — a validated declarative scenario
  schema (cluster config + workload + knobs + fault plan +
  expectations), loaded from JSON/YAML campaign files that expand
  bases x axes into hundreds of concrete scenarios;
* :mod:`repro.campaign.runner` — a sweep runner fanning scenarios
  across host cores via ``multiprocessing``, each child executing the
  deterministic engine and returning a byte-stable result record;
* :mod:`repro.campaign.store` — a SQLite results store keyed by
  scenario digest, powering aggregate reports and regression diffs
  (:mod:`repro.analysis.campaign`).

User guide: ``docs/CAMPAIGNS.md``.  CLI: ``repro campaign
run | report | diff | list``.
"""

from repro.campaign.runner import (
    RECORD_SCHEMA,
    ScenarioResult,
    build_scenario,
    run_campaign,
    run_reference,
    run_scenario,
    sequential_seconds,
)
from repro.campaign.schema import (
    CampaignSpec,
    ExpectationSpec,
    FaultSpec,
    ScenarioSpec,
    load_campaign,
    loads_campaign,
    scenario_digest,
)
from repro.campaign.store import DEFAULT_STORE, CampaignDiff, CampaignStore

__all__ = [
    "CampaignSpec",
    "ScenarioSpec",
    "FaultSpec",
    "ExpectationSpec",
    "load_campaign",
    "loads_campaign",
    "scenario_digest",
    "ScenarioResult",
    "build_scenario",
    "run_reference",
    "sequential_seconds",
    "run_scenario",
    "run_campaign",
    "RECORD_SCHEMA",
    "CampaignStore",
    "CampaignDiff",
    "DEFAULT_STORE",
]

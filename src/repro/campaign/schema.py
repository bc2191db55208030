"""Declarative scenario schema for campaign sweeps.

A *campaign* is a JSON or YAML document describing a grid of runs: a
set of base scenarios, a dictionary of sweep *axes* (field -> list of
values), and shared defaults.  Loading a campaign validates every
field — unknown keys, wrong types, and out-of-range values are
rejected with an error naming the exact path inside the document —
and :meth:`CampaignSpec.expand` multiplies the bases by the axes into
concrete, fully-resolved :class:`ScenarioSpec` objects.

Each resolved scenario is identified by its **scenario digest**: the
sha256 of its canonical dump.  Two campaign files that expand to the
same scenario produce the same digest, which is what lets the results
store match runs across campaigns (``repro campaign diff``) and what
the determinism tests pin (same digest -> byte-identical result
record, whatever the worker count).

The field reference, with defaults and validation rules, lives in
``docs/CAMPAIGNS.md``; ``scenarios/`` holds curated examples.
"""

from __future__ import annotations

import difflib
import itertools
import json
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional, Union

from repro.errors import CampaignError, CampaignValidationWarning

__all__ = [
    "FaultSpec",
    "ExpectationSpec",
    "ScenarioSpec",
    "CampaignSpec",
    "load_campaign",
    "loads_campaign",
    "scenario_digest",
]

#: Schemes a scenario may select: the two DSMTX-runtime plans
#: (``dsmtx_plan`` / ``tls_plan``) and the deterministic-reservations
#: runtime (``specfor`` — :class:`repro.paradigms.SpecForSystem`).
SCHEMES = ("dsmtx", "tls", "specfor")
#: Placement policies understood by :class:`repro.core.SystemConfig`.
PLACEMENTS = ("pack", "spread")

#: Fault fields that only take effect under the failure-aware runtime
#: (``fault_tolerance: true``): crashes need degraded-mode restart to be
#: survivable, and loss/duplication need the reliable transport to not
#: silently corrupt the run.  Degradation and stalls merely delay
#: traffic and are legal in any mode.
#: ``corruption`` rides along: silent bit flips are only *survivable*
#: when the reliable transport's checksums can turn them into loss.
FT_REQUIRED_FAULT_FIELDS = ("crash_node", "crash_worker", "crash_commit",
                            "drop", "dup", "corruption")


# -- validation helpers ----------------------------------------------------------


def _err(path: str, message: str) -> CampaignError:
    return CampaignError(f"{path}: {message}")


def _check_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise _err(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(data: dict, known: tuple, path: str) -> None:
    for key in data:
        if key not in known:
            hint = difflib.get_close_matches(str(key), known, n=1)
            suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise _err(
                path,
                f"unknown field {key!r}{suggestion}; known fields: "
                f"{', '.join(known)}",
            )


def _get_bool(data: dict, key: str, default: bool, path: str) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise _err(f"{path}.{key}", f"expected true/false, got {value!r}")
    return value


def _get_int(
    data: dict, key: str, default: Optional[int], path: str,
    minimum: Optional[int] = None,
) -> Optional[int]:
    value = data.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _err(f"{path}.{key}", f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _err(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    return value


def _get_float(
    data: dict, key: str, default: Optional[float], path: str,
    minimum: Optional[float] = None, maximum: Optional[float] = None,
) -> Optional[float]:
    value = data.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _err(f"{path}.{key}", f"expected a number, got {value!r}")
    value = float(value)
    if minimum is not None and value < minimum:
        raise _err(f"{path}.{key}", f"must be >= {minimum:g}, got {value:g}")
    if maximum is not None and value > maximum:
        raise _err(f"{path}.{key}", f"must be <= {maximum:g}, got {value:g}")
    return value


def _get_str(data: dict, key: str, default: str, path: str,
             choices: Optional[tuple] = None) -> str:
    value = data.get(key, default)
    if not isinstance(value, str):
        raise _err(f"{path}.{key}", f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise _err(f"{path}.{key}",
                   f"must be one of {', '.join(choices)}; got {value!r}")
    return value


# -- fault plan ------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault plan of one scenario (mirrors ``repro chaos``).

    All times are **simulated milliseconds**.  The per-message random
    draws (loss/duplication) are seeded by the scenario's ``seed``.
    """

    #: Node to crash; negative disables the crash.
    crash_node: int = -1
    #: speculative_for worker index to crash (scheme ``specfor`` only;
    #: negative disables).  Resolved at run time to the node hosting
    #: that worker, so the same scenario crashes "worker 1" whatever
    #: the placement policy seats it on.
    crash_worker: int = -1
    #: Crash whatever node hosts the commit unit (overrides crash_node).
    crash_commit: bool = False
    #: Crash time (simulated ms).
    crash_at_ms: float = 5.0
    #: Per-message loss probability.
    drop: float = 0.0
    #: Per-message duplication probability.
    dup: float = 0.0
    #: Per-message silent-corruption probability (one bit flipped in a
    #: value leaf; docs/RESILIENCE.md).  Pair with ``integrity: true``
    #: on the scenario to exercise detection and repair — without it
    #: the corruption commits silently.
    corruption: float = 0.0
    #: Fabric degradation factor (>= 1; 0 disables the window).
    degrade: float = 0.0
    #: Degradation window start (simulated ms).
    degrade_at_ms: float = 0.0
    #: Degradation window length (simulated ms).
    degrade_duration_ms: float = 1000.0
    #: Node whose fabric stalls; negative disables the stall.
    stall_node: int = -1
    #: Stall window start (simulated ms).
    stall_at_ms: float = 0.0
    #: Stall window length (simulated ms).
    stall_duration_ms: float = 0.1

    _KNOWN = (
        "crash_node", "crash_worker", "crash_commit", "crash_at_ms",
        "drop", "dup", "corruption",
        "degrade", "degrade_at_ms", "degrade_duration_ms",
        "stall_node", "stall_at_ms", "stall_duration_ms",
    )

    @classmethod
    def from_dict(cls, data: dict, path: str = "faults") -> "FaultSpec":
        _check_mapping(data, path)
        _reject_unknown(data, cls._KNOWN, path)
        spec = cls(
            crash_node=_get_int(data, "crash_node", -1, path),
            crash_worker=_get_int(data, "crash_worker", -1, path),
            crash_commit=_get_bool(data, "crash_commit", False, path),
            crash_at_ms=_get_float(data, "crash_at_ms", 5.0, path, minimum=0.0),
            drop=_get_float(data, "drop", 0.0, path, minimum=0.0, maximum=1.0),
            dup=_get_float(data, "dup", 0.0, path, minimum=0.0, maximum=1.0),
            corruption=_get_float(
                data, "corruption", 0.0, path, minimum=0.0, maximum=1.0),
            degrade=_get_float(data, "degrade", 0.0, path, minimum=0.0),
            degrade_at_ms=_get_float(data, "degrade_at_ms", 0.0, path, minimum=0.0),
            degrade_duration_ms=_get_float(
                data, "degrade_duration_ms", 1000.0, path),
            stall_node=_get_int(data, "stall_node", -1, path),
            stall_at_ms=_get_float(data, "stall_at_ms", 0.0, path, minimum=0.0),
            stall_duration_ms=_get_float(data, "stall_duration_ms", 0.1, path),
        )
        if spec.corruption >= 1.0:
            raise _err(f"{path}.corruption",
                       "probability 1.0 corrupts every message, which is "
                       "a partition, not a fault model; did you mean "
                       "0.999?")
        if 0.0 < spec.degrade < 1.0:
            raise _err(f"{path}.degrade",
                       f"a degradation factor is >= 1 (got {spec.degrade:g}); "
                       f"use 0 to disable the window")
        if spec.degrade and spec.degrade_duration_ms <= 0:
            raise _err(f"{path}.degrade_duration_ms",
                       f"must be positive, got {spec.degrade_duration_ms:g}")
        if spec.stall_node >= 0 and spec.stall_duration_ms <= 0:
            raise _err(f"{path}.stall_duration_ms",
                       f"must be positive, got {spec.stall_duration_ms:g}")
        if spec.crash_worker >= 0 and (spec.crash_node >= 0
                                       or spec.crash_commit):
            raise _err(f"{path}.crash_worker",
                       "a scenario schedules at most one crash; "
                       "crash_worker conflicts with crash_node/crash_commit")
        return spec

    def to_dict(self) -> dict:
        # ``crash_worker`` appears only when set, so fault specs that
        # predate the knob keep their scenario digests (the same
        # absent-features-leave-no-trace rule as ``density``).
        data = {
            "crash_node": self.crash_node,
            "crash_commit": self.crash_commit,
            "crash_at_ms": self.crash_at_ms,
            "drop": self.drop,
            "dup": self.dup,
            "degrade": self.degrade,
            "degrade_at_ms": self.degrade_at_ms,
            "degrade_duration_ms": self.degrade_duration_ms,
            "stall_node": self.stall_node,
            "stall_at_ms": self.stall_at_ms,
            "stall_duration_ms": self.stall_duration_ms,
        }
        if self.crash_worker >= 0:
            data["crash_worker"] = self.crash_worker
        if self.corruption > 0.0:
            data["corruption"] = self.corruption
        return data

    @property
    def ft_required_fields(self) -> tuple:
        """Fault fields set on this spec that need ``fault_tolerance``."""
        active = []
        if self.crash_node >= 0:
            active.append("crash_node")
        if self.crash_worker >= 0:
            active.append("crash_worker")
        if self.crash_commit:
            active.append("crash_commit")
        if self.drop > 0.0:
            active.append("drop")
        if self.dup > 0.0:
            active.append("dup")
        if self.corruption > 0.0:
            active.append("corruption")
        return tuple(active)

    @property
    def is_inert(self) -> bool:
        """True if this spec schedules no fault at all."""
        return (not self.ft_required_fields and self.degrade == 0.0
                and self.stall_node < 0)

    def build_plan(self, seed: int, commit_node: Optional[int] = None,
                   worker_nodes: Optional[tuple] = None):
        """The :class:`repro.chaos.FaultPlan` this spec describes.

        ``commit_node`` resolves ``crash_commit`` and ``worker_nodes``
        (worker index -> hosting node) resolves ``crash_worker`` (the
        runner passes both off the built system).  Returns ``None``
        for an inert spec so fault-free scenarios skip the chaos engine
        entirely (their digests are unchanged by its existence).
        """
        if self.is_inert:
            return None
        from repro.chaos import (
            FaultPlan,
            LinkDegrade,
            MessageCorruption,
            MessageDuplication,
            MessageLoss,
            NodeCrash,
            NodeStall,
        )

        faults = []
        crash_node = self.crash_node
        if self.crash_commit:
            if commit_node is None:
                raise CampaignError(
                    "crash_commit needs the built system's commit node")
            crash_node = commit_node
        if self.crash_worker >= 0:
            if worker_nodes is None:
                raise CampaignError(
                    "crash_worker needs the built system's worker placement")
            if self.crash_worker >= len(worker_nodes):
                raise CampaignError(
                    f"crash_worker {self.crash_worker} is out of range; "
                    f"the scenario runs {len(worker_nodes)} workers")
            crash_node = worker_nodes[self.crash_worker]
        if crash_node >= 0:
            faults.append(NodeCrash(node=crash_node, at_s=self.crash_at_ms * 1e-3))
        if self.degrade:
            faults.append(LinkDegrade(
                at_s=self.degrade_at_ms * 1e-3,
                duration_s=self.degrade_duration_ms * 1e-3,
                latency_factor=self.degrade,
                bandwidth_factor=self.degrade,
            ))
        if self.stall_node >= 0:
            faults.append(NodeStall(
                node=self.stall_node,
                at_s=self.stall_at_ms * 1e-3,
                duration_s=self.stall_duration_ms * 1e-3,
            ))
        if self.drop:
            faults.append(MessageLoss(probability=self.drop))
        if self.dup:
            faults.append(MessageDuplication(probability=self.dup))
        if self.corruption:
            faults.append(MessageCorruption(probability=self.corruption))
        return FaultPlan(faults=tuple(faults), seed=seed)


# -- expectations ----------------------------------------------------------------


@dataclass(frozen=True)
class ExpectationSpec:
    """Assertions checked against each scenario's outcome.

    A missed expectation marks the scenario ``failed`` in its result
    record (and fails ``repro campaign run``'s exit status); it never
    aborts the rest of the sweep.
    """

    #: Exact committed-MTX count (usually the iteration count).
    committed_mtxs: Optional[int] = None
    #: Upper bound on misspeculation recoveries.
    max_misspeculations: Optional[int] = None
    #: Lower bound on speedup vs the sequential baseline.
    min_speedup: Optional[float] = None
    #: Run a fault-free reference and require identical committed
    #: memory and MTX counts (the ``repro chaos`` recovery check;
    #: doubles the scenario's cost).
    matches_reference: bool = False

    _KNOWN = ("committed_mtxs", "max_misspeculations", "min_speedup",
              "matches_reference")

    @classmethod
    def from_dict(cls, data: dict, path: str = "expect") -> "ExpectationSpec":
        _check_mapping(data, path)
        _reject_unknown(data, cls._KNOWN, path)
        return cls(
            committed_mtxs=_get_int(data, "committed_mtxs", None, path, minimum=0),
            max_misspeculations=_get_int(
                data, "max_misspeculations", None, path, minimum=0),
            min_speedup=_get_float(data, "min_speedup", None, path, minimum=0.0),
            matches_reference=_get_bool(data, "matches_reference", False, path),
        )

    def to_dict(self) -> dict:
        return {
            "committed_mtxs": self.committed_mtxs,
            "max_misspeculations": self.max_misspeculations,
            "min_speedup": self.min_speedup,
            "matches_reference": self.matches_reference,
        }


# -- scenarios -------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-resolved scenario: everything one run needs."""

    #: Unique name inside the campaign (axis suffixes are appended by
    #: expansion, e.g. ``crc32/cores=16/seed=3``).
    name: str
    #: Benchmark from the Table 2 registry (``repro list``).
    benchmark: str
    #: Parallelization scheme: ``dsmtx`` or ``tls``.
    scheme: str = "dsmtx"
    #: Total cores (workers + try-commit + commit + extras).
    cores: int = 8
    #: Iteration-count override; ``null`` keeps the workload default.
    iterations: Optional[int] = None
    #: Seed of the fault plan's per-message random draws.
    seed: int = 0
    #: Queue batch-size override in bytes; ``null`` = cluster default.
    batch_bytes: Optional[int] = None
    #: Unit-to-node placement policy.
    placement: str = "pack"
    #: COA read replicas (each takes one core off the worker budget).
    coa_replicas: int = 0
    #: Enable the failure-aware runtime (docs/RESILIENCE.md).
    fault_tolerance: bool = False
    #: Run a hot-standby commit replica (requires fault_tolerance).
    commit_replication: bool = False
    #: Checksum every frame, digest checkpoints/replication, and scrub
    #: committed memory (requires fault_tolerance; docs/RESILIENCE.md).
    integrity: bool = False
    #: Iterations whose speculative execution must abort.
    misspec_iterations: tuple = ()
    #: Misspeculate every Nth iteration (0 disables) — the
    #: conflict-density knob for sweep axes.
    misspec_every: int = 0
    #: Structural conflict density in [0, 1] for the irregular workloads
    #: (vertex-pool size, neighbor degree, contraction order); ``null``
    #: keeps the workload default.  Rejected for Table 2 benchmarks.
    density: Optional[float] = None
    #: Deterministic fault plan (simulated-ms schedule).
    faults: FaultSpec = field(default_factory=FaultSpec)
    #: Outcome assertions.
    expect: ExpectationSpec = field(default_factory=ExpectationSpec)
    #: Capture a Perfetto trace of this scenario (written only when the
    #: runner is given a trace directory; docs/OBSERVABILITY.md).
    trace: bool = False

    _KNOWN = (
        "name", "benchmark", "scheme", "cores", "iterations", "seed",
        "batch_bytes", "placement", "coa_replicas", "fault_tolerance",
        "commit_replication", "integrity", "misspec_iterations",
        "misspec_every", "density", "faults", "expect", "trace",
    )

    @classmethod
    def from_dict(cls, data: dict, path: str = "scenario") -> "ScenarioSpec":
        """Validate and build one scenario; every error names ``path``.

        Fault fields that need the failure-aware runtime
        (:data:`FT_REQUIRED_FAULT_FIELDS`) are **ignored** when
        ``fault_tolerance`` is false: the scenario is built without
        them and a :class:`CampaignValidationWarning` names each
        ignored field.
        """
        _check_mapping(data, path)
        _reject_unknown(data, cls._KNOWN, path)
        benchmark = _get_str(data, "benchmark", "", path)
        if not benchmark:
            raise _err(f"{path}.benchmark", "a scenario needs a benchmark")
        from repro.workloads import ALL_BENCHMARKS, IRREGULAR

        if benchmark not in ALL_BENCHMARKS:
            hint = difflib.get_close_matches(benchmark, ALL_BENCHMARKS, n=1)
            suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise _err(f"{path}.benchmark",
                       f"unknown benchmark {benchmark!r}{suggestion}; "
                       f"run 'repro list' to see the registry")
        density = _get_float(data, "density", None, path,
                             minimum=0.0, maximum=1.0)
        if density is not None and benchmark not in IRREGULAR:
            raise _err(f"{path}.density",
                       f"benchmark {benchmark!r} takes no density knob; "
                       f"only the irregular workloads do: "
                       f"{', '.join(sorted(IRREGULAR))}")
        misspec_raw = data.get("misspec_iterations", ())
        if not isinstance(misspec_raw, (list, tuple)) or not all(
            isinstance(i, int) and not isinstance(i, bool) and i >= 0
            for i in misspec_raw
        ):
            raise _err(f"{path}.misspec_iterations",
                       f"expected a list of non-negative integers, "
                       f"got {misspec_raw!r}")
        faults = FaultSpec.from_dict(data.get("faults", {}), f"{path}.faults")
        fault_tolerance = _get_bool(data, "fault_tolerance", False, path)
        if not fault_tolerance:
            ignored = faults.ft_required_fields
            if ignored:
                warnings.warn(
                    f"{path}: fault field(s) {', '.join(ignored)} are ignored "
                    f"because fault_tolerance is false — crashes and message "
                    f"loss/duplication need the failure-aware runtime; set "
                    f"fault_tolerance: true to apply them",
                    CampaignValidationWarning,
                    stacklevel=2,
                )
                faults = replace(
                    faults, crash_node=-1, crash_worker=-1,
                    crash_commit=False, drop=0.0, dup=0.0, corruption=0.0)
        spec = cls(
            name=_get_str(data, "name", benchmark, path),
            benchmark=benchmark,
            scheme=_get_str(data, "scheme", "dsmtx", path, choices=SCHEMES),
            cores=_get_int(data, "cores", 8, path, minimum=3),
            iterations=_get_int(data, "iterations", None, path, minimum=1),
            seed=_get_int(data, "seed", 0, path, minimum=0),
            batch_bytes=_get_int(data, "batch_bytes", None, path, minimum=8),
            placement=_get_str(data, "placement", "pack", path,
                               choices=PLACEMENTS),
            coa_replicas=_get_int(data, "coa_replicas", 0, path, minimum=0),
            fault_tolerance=fault_tolerance,
            commit_replication=_get_bool(data, "commit_replication", False, path),
            integrity=_get_bool(data, "integrity", False, path),
            misspec_iterations=tuple(sorted(set(misspec_raw))),
            misspec_every=_get_int(data, "misspec_every", 0, path, minimum=0),
            density=density,
            faults=faults,
            expect=ExpectationSpec.from_dict(
                data.get("expect", {}), f"{path}.expect"),
            trace=_get_bool(data, "trace", False, path),
        )
        if spec.commit_replication and not spec.fault_tolerance:
            raise _err(f"{path}.commit_replication",
                       "a commit standby needs the failure-aware runtime; "
                       "set fault_tolerance: true")
        if spec.integrity and not spec.fault_tolerance:
            raise _err(f"{path}.integrity",
                       "checksums repair corruption by converting it into "
                       "loss, which only the reliable transport can "
                       "retransmit; set fault_tolerance: true")
        if spec.scheme == "specfor":
            if spec.coa_replicas:
                raise _err(f"{path}.coa_replicas",
                           "COA read replicas belong to the DSMTX runtime; "
                           "scheme 'specfor' ships snapshots to every "
                           "worker instead")
            if spec.faults.crash_worker >= spec.specfor_workers:
                raise _err(
                    f"{path}.faults.crash_worker",
                    f"worker {spec.faults.crash_worker} does not exist: "
                    f"{spec.cores} cores run {spec.specfor_workers} workers "
                    f"under scheme 'specfor'"
                    + (" with a replicated standby"
                       if spec.commit_replication else ""),
                )
        elif spec.faults.crash_worker >= 0:
            raise _err(f"{path}.faults.crash_worker",
                       f"crash_worker names a speculative_for worker and "
                       f"only applies under scheme 'specfor'; under scheme "
                       f"{spec.scheme!r} did you mean 'crash_node' (a "
                       f"cluster node) or 'crash_commit' (whichever node "
                       f"hosts the commit unit)?")
        spec._check_core_budget(path)
        return spec

    def _check_core_budget(self, path: str) -> None:
        """Reject a core count the chosen plan cannot run on, at load
        time — a campaign should fail before it fans out, not 80
        scenarios in."""
        try:
            pipeline_min = self.plan_min_cores()
        except CampaignError as exc:
            raise _err(f"{path}.scheme", str(exc)) from None
        reserved_extra = self.coa_replicas + (1 if self.commit_replication else 0)
        minimum = pipeline_min + reserved_extra
        if self.cores < minimum:
            raise _err(
                f"{path}.cores",
                f"benchmark {self.benchmark!r} under scheme {self.scheme!r} "
                f"needs at least {minimum} cores "
                f"({pipeline_min} for the pipeline + {reserved_extra} "
                f"reserved), got {self.cores}",
            )

    def plan_min_cores(self) -> int:
        """Minimum cores of this scenario's pipeline (cheap: reads the
        plan shape off a single-iteration workload instance).

        For scheme ``specfor`` this doubles as the reservation-site
        check: a workload without one is rejected here, at load time,
        with the paradigm's did-you-mean error.
        """
        from repro.workloads import ALL_BENCHMARKS

        workload = ALL_BENCHMARKS[self.benchmark](iterations=1)
        if self.scheme == "specfor":
            from repro.errors import ParadigmError
            from repro.paradigms import ensure_reservation_site

            try:
                ensure_reservation_site(workload)
            except ParadigmError as exc:
                raise CampaignError(str(exc)) from None
            # One worker plus the reservation-commit service; the
            # SystemConfig floor of 3 cores still applies above.
            return 2
        plan = (workload.dsmtx_plan() if self.scheme == "dsmtx"
                else workload.tls_plan())
        return plan.min_cores

    @property
    def specfor_workers(self) -> int:
        """Workers of a ``specfor`` run: every core beyond the
        reservation-commit service and the optional hot standby."""
        return self.cores - 1 - (1 if self.commit_replication else 0)

    def resolved_misspec_iterations(self, iterations: int) -> Optional[set]:
        """Explicit misspeculating iterations plus the ``misspec_every``
        comb, clipped to the actual iteration count."""
        bad = {i for i in self.misspec_iterations if i < iterations}
        if self.misspec_every:
            bad.update(range(self.misspec_every - 1, iterations,
                             self.misspec_every))
        return bad or None

    def to_dict(self) -> dict:
        """Canonical form: every field explicit, insertion order fixed.

        ``from_dict(to_dict(spec)) == spec`` — the round-trip identity
        the schema tests pin.  Exception: ``density`` and ``integrity``
        appear only when set, so scenarios that predate those knobs
        keep their digests (absent features leave no trace).
        """
        data = {
            "name": self.name,
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "cores": self.cores,
            "iterations": self.iterations,
            "seed": self.seed,
            "batch_bytes": self.batch_bytes,
            "placement": self.placement,
            "coa_replicas": self.coa_replicas,
            "fault_tolerance": self.fault_tolerance,
            "commit_replication": self.commit_replication,
            "misspec_iterations": list(self.misspec_iterations),
            "misspec_every": self.misspec_every,
            "faults": self.faults.to_dict(),
            "expect": self.expect.to_dict(),
            "trace": self.trace,
        }
        if self.density is not None:
            data["density"] = self.density
        if self.integrity:
            data["integrity"] = True
        return data

    def digest(self) -> str:
        """sha256 identity of this scenario (see :func:`scenario_digest`)."""
        return scenario_digest(self)


def scenario_digest(spec: ScenarioSpec) -> str:
    """sha256 over the canonical JSON dump of a resolved scenario.

    The digest is the scenario's identity in the results store: it
    changes when (and only when) any field that can affect the run
    changes, so re-running an identical campaign hits identical keys.
    ``hashlib`` is imported on demand, as in
    :func:`repro.analysis.resilience.run_digest`.
    """
    import hashlib

    canon = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- campaigns -------------------------------------------------------------------


def _merge(base: dict, overlay: dict) -> dict:
    """Dict merge, one level deep for the nested ``faults``/``expect``
    mappings (an overlay's nested fields override individually)."""
    merged = dict(base)
    for key, value in overlay.items():
        if (isinstance(value, dict) and isinstance(merged.get(key), dict)):
            merged[key] = {**merged[key], **value}
        else:
            merged[key] = value
    return merged


def _set_dotted(data: dict, dotted: str, value: Any, path: str) -> None:
    """Assign ``faults.drop``-style axis keys into a scenario dict."""
    parts = dotted.split(".")
    if len(parts) > 2:
        raise _err(path, f"axis key {dotted!r} nests too deep "
                         f"(at most one dot, e.g. 'faults.drop')")
    if len(parts) == 1:
        data[dotted] = value
        return
    head, tail = parts
    if head not in ("faults", "expect"):
        raise _err(path, f"axis key {dotted!r}: only 'faults.*' and "
                         f"'expect.*' may be dotted")
    nested = data.setdefault(head, {})
    if not isinstance(nested, dict):
        raise _err(path, f"axis key {dotted!r} conflicts with a "
                         f"non-mapping {head!r} value")
    nested[tail] = value


def _axis_value_label(value: Any) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class CampaignSpec:
    """A parsed campaign document: bases x axes, plus shared defaults."""

    name: str
    description: str = ""
    #: Field values merged under every scenario.
    defaults: dict = field(default_factory=dict)
    #: Sweep axes: field path -> list of values (dotted for
    #: ``faults.*`` / ``expect.*``).  The grid is the cartesian
    #: product, applied to every base scenario.
    axes: dict = field(default_factory=dict)
    #: Base scenario dicts (pre-merge, as authored).
    scenarios: tuple = ()
    #: Where the campaign was loaded from (diagnostics only).
    source: str = ""

    _KNOWN = ("name", "description", "defaults", "axes", "scenarios")

    @classmethod
    def from_dict(cls, data: dict, source: str = "") -> "CampaignSpec":
        _check_mapping(data, "campaign")
        _reject_unknown(data, cls._KNOWN, "campaign")
        name = _get_str(data, "name", "", "campaign")
        if not name:
            raise _err("campaign.name", "a campaign needs a name")
        defaults = _check_mapping(data.get("defaults", {}), "campaign.defaults")
        axes = _check_mapping(data.get("axes", {}), "campaign.axes")
        for key, values in axes.items():
            if not isinstance(values, list) or not values:
                raise _err(f"campaign.axes.{key}",
                           f"an axis is a non-empty list of values, "
                           f"got {values!r}")
        raw_scenarios = data.get("scenarios", [{}])
        if not isinstance(raw_scenarios, list) or not raw_scenarios:
            raise _err("campaign.scenarios",
                       f"expected a non-empty list, got {raw_scenarios!r}")
        for index, entry in enumerate(raw_scenarios):
            _check_mapping(entry, f"campaign.scenarios[{index}]")
        spec = cls(
            name=name,
            description=_get_str(data, "description", "", "campaign"),
            defaults=dict(defaults),
            axes={str(k): list(v) for k, v in axes.items()},
            scenarios=tuple(dict(entry) for entry in raw_scenarios),
            source=source,
        )
        spec.expand()  # validate the whole grid at load time
        return spec

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "defaults": dict(self.defaults),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "scenarios": [dict(entry) for entry in self.scenarios],
        }

    def expand(self) -> list:
        """The concrete scenario list: bases x cartesian axis product.

        Axis assignments append ``/key=value`` suffixes to each base's
        name, so every expanded scenario is addressable; duplicate
        names are a campaign error.
        """
        axis_items = list(self.axes.items())
        combos = list(itertools.product(*(values for _k, values in axis_items)))
        specs: list[ScenarioSpec] = []
        seen: dict[str, str] = {}
        for base_index, base in enumerate(self.scenarios):
            base_path = f"campaign.scenarios[{base_index}]"
            for combo in combos:
                merged = _merge(self.defaults, base)
                suffix = []
                for (key, _values), value in zip(axis_items, combo):
                    _set_dotted(merged, key, value, f"campaign.axes.{key}")
                    suffix.append(
                        f"{key.split('.')[-1]}={_axis_value_label(value)}")
                if suffix and "name" not in merged:
                    # Derive a base label so axis products of an unnamed
                    # scenario do not all collide on the benchmark name.
                    merged["name"] = str(merged.get("benchmark", "scenario"))
                if suffix:
                    merged["name"] = "/".join([merged["name"], *suffix])
                spec = ScenarioSpec.from_dict(merged, base_path)
                if spec.name in seen:
                    raise _err(
                        base_path,
                        f"duplicate scenario name {spec.name!r} (first "
                        f"defined at {seen[spec.name]}); scenario names "
                        f"must be unique after axis expansion",
                    )
                seen[spec.name] = base_path
                specs.append(spec)
        return specs


# -- loading ---------------------------------------------------------------------


def loads_campaign(text: str, *, fmt: str = "json",
                   source: str = "<string>") -> CampaignSpec:
    """Parse a campaign document from a string (``fmt``: json|yaml)."""
    if fmt == "yaml":
        try:
            import yaml
        except ImportError:
            raise CampaignError(
                f"{source}: YAML campaigns need the optional 'pyyaml' "
                f"dependency; install it or convert the file to JSON"
            ) from None
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise CampaignError(f"{source}: invalid YAML: {exc}") from None
    else:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise CampaignError(f"{source}: invalid JSON: {exc}") from None
    return CampaignSpec.from_dict(data, source=source)


def load_campaign(path: Union[str, Path]) -> CampaignSpec:
    """Load and validate a campaign file (.json, .yaml, or .yml)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CampaignError(f"cannot read campaign file {path}: {exc}") from None
    fmt = "yaml" if path.suffix.lower() in (".yaml", ".yml") else "json"
    return loads_campaign(text, fmt=fmt, source=str(path))

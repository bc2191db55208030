"""Declarative fault plans for deterministic fault injection.

A :class:`FaultPlan` is an immutable description of *what goes wrong
and when* during a simulated run: node crashes, link-quality windows,
probabilistic message loss/duplication, and transient node stalls.
Because the simulation clock is virtual and the plan's randomness comes
from one seeded generator drawn in simulation order, the same plan
against the same workload produces byte-identical runs — fault
scenarios are reproducible test cases, not flaky ones.

Plans are either written explicitly (pinned regression scenarios) or
generated from a seed with :meth:`FaultPlan.random` (fuzzing sweeps).
The :class:`~repro.chaos.engine.ChaosEngine` executes a plan against an
:class:`~repro.sim.Environment`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

from repro.errors import ChaosError

__all__ = [
    "NodeCrash",
    "LinkDegrade",
    "NodeStall",
    "MessageLoss",
    "MessageDuplication",
    "MessageCorruption",
    "StateCorruption",
    "STATE_CORRUPTION_TARGETS",
    "FaultPlan",
]


@dataclass(frozen=True)
class NodeCrash:
    """Fail-stop crash of one node at ``at_s``.

    Every process hosted on the node stops mid-instruction, and all
    traffic to or from the node is dropped from that instant on —
    including messages already in flight (they reach a dead NIC).
    Requires the failure-aware runtime
    (``SystemConfig.fault_tolerance``) to be survivable.
    """

    node: int
    at_s: float


@dataclass(frozen=True)
class LinkDegrade:
    """Inter-node fabric degradation window.

    While active, every inter-node message pays ``latency_factor``
    times the latency and ``1/bandwidth_factor`` of the bandwidth —
    a congested or renegotiated-down link, not a partition.
    """

    at_s: float
    duration_s: float
    latency_factor: float = 4.0
    bandwidth_factor: float = 4.0


@dataclass(frozen=True)
class NodeStall:
    """Transient stall of one node's fabric connectivity.

    Messages to or from the node during the window are held back until
    the window closes (a GC-style or switch-buffer pause: nothing is
    lost, everything is late).  Shorter than the failure detector's
    suspicion timeout, this exercises the retransmit path without a
    failover; longer, it still does not kill the node — heartbeats are
    management-path traffic — so it models exactly the gray failure a
    lease-based detector must *not* misclassify.
    """

    node: int
    at_s: float
    duration_s: float


@dataclass(frozen=True)
class MessageLoss:
    """Drop each inter-node message with ``probability`` inside the
    window (default: the whole run).  Sender-side costs are still paid
    — the packets leave the NIC and die on the wire."""

    probability: float
    start_s: float = 0.0
    end_s: float = math.inf


@dataclass(frozen=True)
class MessageDuplication:
    """Deliver each inter-node message twice with ``probability``
    inside the window (a retransmit-happy fabric or a misbehaving
    switch)."""

    probability: float
    start_s: float = 0.0
    end_s: float = math.inf


@dataclass(frozen=True)
class MessageCorruption:
    """Silently flip one bit in each inter-node message's payload with
    ``probability`` inside the window (cheap NIC / cable-marginal bit
    errors that arrive without any error signal).  The corrupted copy is
    what the wire delivers; the sender's retransmit buffer keeps the
    intact original, so under ``SystemConfig.integrity`` detection
    converts the corruption into a loss the retransmit path repairs."""

    probability: float
    start_s: float = 0.0
    end_s: float = math.inf


#: Valid :attr:`StateCorruption.target` values, in docs order.
STATE_CORRUPTION_TARGETS = ("memory", "checkpoint", "speculative")


@dataclass(frozen=True)
class StateCorruption:
    """Flip one bit in ``words`` resident words at ``at_s`` (non-ECC
    memory).  ``target`` picks the victim state:

    * ``"memory"`` — committed words in the commit unit's master (the
      page-digest scrubber's detection case; ``speculative_for`` runs no
      scrubber, so its systems reject this target under integrity);
    * ``"checkpoint"`` — the standby's checkpoint image (promotion must
      *refuse* the corrupted image; requires commit replication);
    * ``"speculative"`` — clean committed words cached in a worker's
      space (value-based read validation detects the corrupt read and
      the ordinary misspeculation re-execution repairs it; DSMTX and
      TLS only, ``speculative_for`` workers keep no such space).
    """

    target: str
    at_s: float
    words: int = 1


def _is_finite_time(value: float) -> bool:
    """A usable schedule time: finite and non-negative (NaN fails)."""
    return math.isfinite(value) and value >= 0


_WINDOW_KINDS = (LinkDegrade, NodeStall)
_PROBABILISTIC_KINDS = (MessageLoss, MessageDuplication, MessageCorruption)
_ALL_KINDS = (NodeCrash, StateCorruption) + _WINDOW_KINDS + _PROBABILISTIC_KINDS


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded schedule of faults."""

    faults: tuple = ()
    #: Seed of the per-message random draws (loss/duplication).  Two
    #: runs of the same plan share every draw, in simulation order.
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, _ALL_KINDS):
                raise ChaosError(f"not a fault: {fault!r}")
            if isinstance(fault, NodeCrash):
                if not _is_finite_time(fault.at_s) or fault.node < 0:
                    raise ChaosError(f"invalid crash: {fault!r}")
            elif isinstance(fault, _WINDOW_KINDS):
                # NaN fails every comparison, so each bound is stated as
                # a *requirement* — a NaN-carrying window is rejected
                # instead of slipping past an inverted check.
                if not (
                    _is_finite_time(fault.at_s)
                    and math.isfinite(fault.duration_s)
                    and fault.duration_s > 0
                ):
                    raise ChaosError(
                        f"fault window needs a finite start and a positive "
                        f"finite duration: {fault!r}"
                    )
                if isinstance(fault, LinkDegrade) and not (
                    fault.latency_factor >= 1.0 and fault.bandwidth_factor >= 1.0
                ):
                    raise ChaosError(
                        f"degrade factors must be >= 1 (it is a *degradation*): {fault!r}"
                    )
            elif isinstance(fault, StateCorruption):
                if fault.target not in STATE_CORRUPTION_TARGETS:
                    known = ", ".join(STATE_CORRUPTION_TARGETS)
                    raise ChaosError(
                        f"unknown state-corruption target {fault.target!r}; "
                        f"did you mean one of: {known}?"
                    )
                if not _is_finite_time(fault.at_s):
                    raise ChaosError(
                        f"state corruption needs a finite schedule time: {fault!r}"
                    )
                if not isinstance(fault.words, int) or fault.words < 1:
                    raise ChaosError(
                        f"state corruption must flip at least one word: {fault!r}"
                    )
            else:
                probability = fault.probability
                # NaN fails every comparison, so the range is stated as
                # a requirement; 1.0 is excluded — a certainty is a
                # partition/fuzzer bug, not a fault model, and under
                # loss it would defeat even infinite retransmits.
                if not 0.0 <= probability < 1.0:
                    hint = (
                        "; probability 1.0 means *every* message — did you "
                        "mean 0.999?"
                        if probability == 1.0
                        else ""
                    )
                    raise ChaosError(
                        f"probability outside [0, 1): {fault!r}{hint}"
                    )
                if not (_is_finite_time(fault.start_s) and fault.end_s > fault.start_s):
                    raise ChaosError(f"empty fault window: {fault!r}")
        self._reject_overlapping_degrades()

    def _reject_overlapping_degrades(self) -> None:
        """Overlapping degradation windows on the same fabric compound
        their factors in engine-iteration order — an effect nobody asked
        for, and one that silently changes when the plan is reordered.
        Sequential (even back-to-back) windows are fine; overlap is a
        plan bug."""
        windows = sorted(
            (f for f in self.faults if isinstance(f, LinkDegrade)),
            key=lambda f: (f.at_s, f.duration_s),
        )
        for earlier, later in zip(windows, windows[1:]):
            if later.at_s < earlier.at_s + earlier.duration_s:
                raise ChaosError(
                    f"overlapping link-degradation windows: {earlier!r} is "
                    f"still active when {later!r} starts; merge them into "
                    f"one window with the intended combined factors"
                )

    @property
    def crashes(self) -> tuple:
        return tuple(f for f in self.faults if isinstance(f, NodeCrash))

    @property
    def state_corruptions(self) -> tuple:
        return tuple(f for f in self.faults if isinstance(f, StateCorruption))

    @property
    def needs_random_draws(self) -> bool:
        """True if the plan consumes per-message random draws."""
        return any(isinstance(f, _PROBABILISTIC_KINDS) for f in self.faults)

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        nodes: int,
        horizon_s: float,
        crashes: int = 1,
        degrade_windows: int = 0,
        stalls: int = 0,
        loss: float = 0.0,
        duplication: float = 0.0,
        corruption: float = 0.0,
        state_corruptions: int = 0,
        crashable_nodes: Optional[Sequence[int]] = None,
    ) -> "FaultPlan":
        """Seeded pseudo-random plan over a ``horizon_s`` run estimate.

        Crash times land in the middle [20%, 70%] of the horizon so the
        run is neither trivially fault-free nor dead on arrival.
        ``crashable_nodes`` restricts the crash victims (by default
        every node but node 0, which conventionally hosts the commit
        unit under the pack placement).
        """
        if nodes < 2:
            raise ChaosError("a fault plan needs at least two nodes to be interesting")
        if horizon_s <= 0:
            raise ChaosError(f"horizon must be positive, got {horizon_s}")
        rng = Random(seed)
        faults: list = []
        pool = list(
            crashable_nodes if crashable_nodes is not None else range(1, nodes)
        )
        for _ in range(crashes):
            if not pool:
                break
            node = pool.pop(rng.randrange(len(pool)))
            faults.append(
                NodeCrash(node=node, at_s=rng.uniform(0.2, 0.7) * horizon_s)
            )
        degrades = sorted(
            (
                rng.uniform(0.0, 0.8) * horizon_s,
                rng.uniform(0.05, 0.2) * horizon_s,
                rng.uniform(2.0, 8.0),
                rng.uniform(2.0, 8.0),
            )
            for _ in range(degrade_windows)
        )
        cursor = 0.0
        for at_s, duration_s, latency_factor, bandwidth_factor in degrades:
            # Overlapping windows are a plan error (factors would
            # compound); push each window past the previous one's end.
            at_s = max(at_s, cursor)
            cursor = at_s + duration_s
            faults.append(
                LinkDegrade(
                    at_s=at_s,
                    duration_s=duration_s,
                    latency_factor=latency_factor,
                    bandwidth_factor=bandwidth_factor,
                )
            )
        for _ in range(stalls):
            faults.append(
                NodeStall(
                    node=rng.randrange(nodes),
                    at_s=rng.uniform(0.0, 0.8) * horizon_s,
                    duration_s=rng.uniform(0.02, 0.1) * horizon_s,
                )
            )
        if loss:
            faults.append(MessageLoss(probability=loss))
        if duplication:
            faults.append(MessageDuplication(probability=duplication))
        if corruption:
            faults.append(MessageCorruption(probability=corruption))
        for _ in range(state_corruptions):
            # Committed-memory flips land mid-run like the crashes do;
            # "memory" is the one target that needs neither a standby
            # nor speculative worker spaces (speculative_for under
            # integrity still rejects it: it runs no scrubber).
            faults.append(
                StateCorruption(
                    target="memory", at_s=rng.uniform(0.2, 0.7) * horizon_s
                )
            )
        return cls(faults=tuple(faults), seed=seed)

    def describe(self) -> str:
        """One line per fault, in schedule order."""
        if not self.faults:
            return "fault-free"
        lines = []
        for fault in sorted(
            self.faults, key=lambda f: getattr(f, "at_s", getattr(f, "start_s", 0.0))
        ):
            lines.append(repr(fault))
        return "\n".join(lines)

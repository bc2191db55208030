"""Deterministic execution of a :class:`~repro.chaos.plan.FaultPlan`.

The engine attaches to a simulation :class:`~repro.sim.Environment` as
``env.chaos`` and intervenes at exactly two kinds of points:

* **the wire** — :meth:`~repro.cluster.mpi.MPI.send` consults
  :meth:`ChaosEngine.on_wire` once per inter-node message, in simulation
  order, and obey the verdict: deliver (possibly with degraded wire
  parameters), drop, or duplicate.  Intra-node traffic is never touched
  — faults here model the *cluster fabric*, not shared memory.
* **the clock** — node crashes are scheduled as bare simulation
  callbacks at their plan time; executing one interrupts every process
  registered on the node and marks the node dead, which in turn drops
  all of its in-flight and future wire traffic.

Determinism: the only randomness (per-message loss/duplication draws)
comes from one ``random.Random(plan.seed)`` consumed in the simulation's
deterministic message order, and the simulated clock is virtual, so the
same (workload, config, plan) triple always produces the same run —
crash timing, retransmit counts, recovery latency and all.

When no engine is attached, ``env.chaos`` is ``None`` and every hook
site pays one is-None check (the obs-layer pattern).
"""

from __future__ import annotations

from random import Random
from typing import Any

from repro.chaos.plan import (
    FaultPlan,
    LinkDegrade,
    MessageCorruption,
    MessageDuplication,
    MessageLoss,
    NodeCrash,
    NodeStall,
    StateCorruption,
)
from repro.errors import ChaosError, ClusterFailedError, NodeCrashed

__all__ = ["ChaosEngine", "DELIVER", "DROP", "DUPLICATE", "CORRUPT"]

#: :meth:`ChaosEngine.on_wire` verdicts.
DELIVER = 0
DROP = 1
DUPLICATE = 2
#: Deliver a silently corrupted *copy* of the payload (the sender's
#: retransmit buffer keeps the intact original).
CORRUPT = 3


class ChaosEngine:
    """Executes one fault plan against one simulated run."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = Random(plan.seed)
        self.env = None
        self._system = None
        #: Nodes killed so far, in crash order.
        self.dead_nodes: set[int] = set()
        #: (node, at_s) of executed crashes.
        self.crash_log: list[tuple[int, float]] = []
        # Counters (mirrored into RunStats when bound to a system).
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0
        self.messages_corrupted = 0
        #: (target, at_s, words_flipped) of executed state corruptions.
        self.state_corruption_log: list[tuple[str, float, int]] = []
        # Pre-split fault schedule for the hot path.
        faults = plan.faults
        self._crashes = sorted(
            (f for f in faults if isinstance(f, NodeCrash)),
            key=lambda f: (f.at_s, f.node),
        )
        self._degrades = tuple(f for f in faults if isinstance(f, LinkDegrade))
        self._stalls = tuple(f for f in faults if isinstance(f, NodeStall))
        self._losses = tuple(f for f in faults if isinstance(f, MessageLoss))
        self._dups = tuple(f for f in faults if isinstance(f, MessageDuplication))
        self._corruptions = tuple(
            f for f in faults if isinstance(f, MessageCorruption)
        )
        self._state_corruptions = sorted(
            (f for f in faults if isinstance(f, StateCorruption)),
            key=lambda f: (f.at_s, f.target),
        )

    # -- lifecycle -----------------------------------------------------------

    def attach(self, env) -> "ChaosEngine":
        """Install on ``env`` and schedule the plan's crashes."""
        if self.env is not None:
            raise ChaosError("a ChaosEngine executes exactly one run; make a new one")
        if env.chaos is not None:
            raise ChaosError("environment already has a chaos engine attached")
        self.env = env
        env.chaos = self
        for fault in self._crashes:
            if fault.at_s < env.now:
                raise ChaosError(
                    f"crash scheduled in the past ({fault.at_s} < now={env.now})"
                )
            env.sleep(fault.at_s - env.now).callbacks.append(
                lambda _event, f=fault: self._execute_crash(f)
            )
        for fault in self._state_corruptions:
            if fault.at_s < env.now:
                raise ChaosError(
                    f"state corruption scheduled in the past "
                    f"({fault.at_s} < now={env.now})"
                )
            env.sleep(fault.at_s - env.now).callbacks.append(
                lambda _event, f=fault: self._execute_state_corruption(f)
            )
        return self

    def bind_system(self, system) -> None:
        """Called by the system's ``run``: learn the unit layout so
        crashes can be targeted, and reject a plan the system cannot
        honour (a crash it cannot survive, a state-corruption target it
        does not hold)."""
        self._system = system
        if self._crashes and not system.config.fault_tolerance:
            raise ChaosError(
                "the plan crashes nodes but SystemConfig.fault_tolerance is off; "
                "the runtime would hang waiting for the dead units"
            )
        targets = {f.target for f in self._state_corruptions}
        if "checkpoint" in targets and not system.config.commit_replication:
            raise ChaosError(
                'the plan corrupts a checkpoint image but there is no '
                'standby to hold one; set commit_replication=True (did '
                'you mean target="memory"?)'
            )
        if "speculative" in targets and not getattr(system, "workers", ()):
            raise ChaosError(
                f'the plan corrupts speculative state but a '
                f'{type(system).__name__} keeps no speculative worker '
                f'spaces (its workers compute on snapshots of committed '
                f'state), so the fault would flip nothing'
            )

    # -- the clock: node crashes ---------------------------------------------

    def _execute_crash(self, fault: NodeCrash) -> None:
        node = fault.node
        if node in self.dead_nodes:
            return
        self.dead_nodes.add(node)
        self.crash_log.append((node, self.env.now))
        system = self._system
        if system is None:
            return  # wire-only chaos on a bare environment
        # Resolved at crash time, not bind time: a standby promotion
        # moves the commit unit to a different node mid-run.
        commit_node = system.node_of(system.commit_tid)
        if node == commit_node and not self._standby_survives():
            # The commit unit holds the only copy of committed master
            # memory — and the failure detector lives with it, so
            # nothing is left to even declare the failure.  Fail the
            # run at the point of impact instead of hanging.  With a
            # live hot standby (commit replication) the crash proceeds
            # normally: the standby-side watcher declares it and the
            # standby is promoted.
            raise ClusterFailedError(
                f"node {node} hosted the commit unit (master memory); "
                f"the cluster cannot recover without a live commit standby"
            )
        if system.obs is not None:
            from repro.obs.tracer import CAT_CHAOS, PID_CLUSTER

            system.obs.tracer.instant(
                CAT_CHAOS, f"crash:node{node}", PID_CLUSTER,
                system.cluster.cores_per_node * node, node=node,
            )
            system.obs.metrics.counter("chaos.crashes").inc()
        cause = NodeCrashed(node)
        for process in system.processes_on_node(node):
            if process.is_alive:
                process.interrupt(cause)

    def _standby_survives(self) -> bool:
        """True when a hot commit standby exists and its node is alive
        (the commit-node crash is then survivable via promotion)."""
        system = self._system
        return (
            system.standby_alive
            and system.node_of(system.standby_tid) not in self.dead_nodes
        )

    def is_dead_node(self, node: int) -> bool:
        return node in self.dead_nodes

    # -- the clock: silent state corruption ----------------------------------

    def _execute_state_corruption(self, fault: StateCorruption) -> None:
        """Flip bits in resident words of the targeted state, bypassing
        all bookkeeping — non-ECC memory updates no dirty masks and no
        digest tables, which is exactly what makes it *silent*."""
        system = self._system
        if system is None:
            return  # wire-only chaos on a bare environment
        target = fault.target
        spaces: list = []
        dirty_ok = True
        if target == "memory":
            commit = getattr(system, "commit", None)
            if commit is not None:
                spaces.append(commit.master)
        elif target == "checkpoint":
            standby = getattr(system, "standby", None)
            if standby is not None and not standby.promoted:
                spaces.append(standby.image)
        else:  # "speculative"
            # Only *clean* committed words cached in a worker space: a
            # later read of one is validated against master and caught;
            # flipping a dirty (speculatively written) word would commit
            # the corruption — that is the "memory" target's job.
            dirty_ok = False
            dead = system.dead_tids
            spaces.extend(
                worker.space
                for worker in getattr(system, "workers", ())
                if worker.tid not in dead
            )
        flipped = self._flip_resident_words(spaces, fault.words, dirty_ok)
        self.state_corruption_log.append((target, self.env.now, flipped))
        if system.obs is not None:
            from repro.obs.tracer import CAT_CHAOS, PID_RUNTIME

            system.obs.tracer.instant(
                CAT_CHAOS, f"state_corruption:{target}", PID_RUNTIME, -1,
                target=target, words=flipped,
            )
            system.obs.metrics.counter("chaos.state_corruptions").inc(flipped)

    def _flip_resident_words(self, spaces, words: int, dirty_ok: bool) -> int:
        """Flip one bit in up to ``words`` resident integer words drawn
        uniformly from ``spaces``; returns how many were flipped."""
        rng = self._rng
        candidates: list = []
        for space in spaces:
            for page in space.iter_pages():
                dirty_mask = page.dirty_mask
                for index, value in page.items():
                    if not isinstance(value, int) or isinstance(value, bool):
                        continue
                    if not dirty_ok and (dirty_mask >> index) & 1:
                        continue
                    candidates.append((page, index))
        flipped = 0
        for _ in range(min(words, len(candidates))):
            page, index = candidates.pop(rng.randrange(len(candidates)))
            # Straight into the word array: Page.write would update the
            # masks, and honest bookkeeping is what corruption lacks.
            page.writable_words(index)[index] ^= 1 << rng.randrange(16)
            flipped += 1
        return flipped

    # -- the wire ------------------------------------------------------------

    def on_wire(
        self, src_node: int, dst_node: int, latency: float, bandwidth: float
    ) -> tuple[int, float, float]:
        """Adjudicate one inter-node message about to enter the wire.

        Returns ``(verdict, latency, bandwidth)``; the send path obeys
        the verdict and uses the (possibly degraded) wire parameters.
        Called in simulation order, which is what keeps the per-message
        random draws reproducible.
        """
        dead = self.dead_nodes
        if dead and (src_node in dead or dst_node in dead):
            self.messages_dropped += 1
            return DROP, latency, bandwidth
        now = self.env.now
        for window in self._degrades:
            if window.at_s <= now < window.at_s + window.duration_s:
                latency *= window.latency_factor
                bandwidth /= window.bandwidth_factor
                self.messages_delayed += 1
        for stall in self._stalls:
            end = stall.at_s + stall.duration_s
            if stall.at_s <= now < end and (
                src_node == stall.node or dst_node == stall.node
            ):
                # Held in a stalled NIC until the window closes.
                latency += end - now
                self.messages_delayed += 1
        for loss in self._losses:
            if loss.start_s <= now < loss.end_s:
                if self._rng.random() < loss.probability:
                    self.messages_dropped += 1
                    return DROP, latency, bandwidth
        for dup in self._dups:
            if dup.start_s <= now < dup.end_s:
                if self._rng.random() < dup.probability:
                    self.messages_duplicated += 1
                    return DUPLICATE, latency, bandwidth
        # Corruption draws come last so plans without corruption faults
        # consume exactly the draw sequence they always did.
        for corruption in self._corruptions:
            if corruption.start_s <= now < corruption.end_s:
                if self._rng.random() < corruption.probability:
                    return CORRUPT, latency, bandwidth
        return DELIVER, latency, bandwidth

    def corrupt_payload(self, payload: Any) -> Any:
        """Build the corrupted *copy* a ``CORRUPT`` verdict delivers.

        One integer value leaf gets one bit flipped — always a carried
        value, never an address, kind tag, or sequence number, so an
        unprotected run completes with silently wrong results instead of
        crashing the simulator.  The copy matters: the sender's
        retransmit buffer aliases the original frame, and the repair
        story depends on retransmissions arriving intact.  A payload
        with no corruptible leaf is returned unchanged and uncounted.
        """
        corrupted = _corrupt_copy(payload, self._rng)
        if corrupted is None:
            return payload
        self.messages_corrupted += 1
        system = self._system
        if system is not None and system.obs is not None:
            from repro.obs.tracer import CAT_CHAOS, PID_CLUSTER

            system.obs.tracer.instant(
                CAT_CHAOS, "message_corruption", PID_CLUSTER, 0,
            )
            system.obs.metrics.counter("chaos.messages_corrupted").inc()
        return corrupted

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """Counters of what the engine actually did this run.

        Corruption keys appear only when the plan contains corruption
        faults: absent features leave no trace, so pre-existing plans
        keep their pinned summaries and fingerprints byte-identical.
        """
        out = {
            "crashes": list(self.crash_log),
            "dead_nodes": sorted(self.dead_nodes),
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_delayed": self.messages_delayed,
        }
        if self._corruptions:
            out["messages_corrupted"] = self.messages_corrupted
        if self._state_corruptions:
            out["state_corruptions"] = list(self.state_corruption_log)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ChaosEngine dead={sorted(self.dead_nodes)} "
            f"dropped={self.messages_dropped} duplicated={self.messages_duplicated}>"
        )


# -- corrupted-copy construction ---------------------------------------------
#
# The flippable positions are *value* leaves only.  Addresses, kind
# tags, iteration numbers, and sequence numbers stay intact: corrupting
# those would crash an unprotected run (unmapped page) or wedge it
# (a lost VAL notice), where a flipped value lets it run to completion
# with divergent results — the failure mode the integrity layer exists
# to catch.

def _flip_int(value: int, rng) -> int:
    return value ^ (1 << rng.randrange(16))


def _value_leaf_positions(entries) -> list:
    """Indices of the batch entries whose value is a flippable int."""
    from repro.core.messages import DATA, READ, WRITE

    return [
        i
        for i, entry in enumerate(entries)
        if entry[0] in (WRITE, READ, DATA) and len(entry) > 2 and isinstance(entry[2], int)
    ]


def _corrupt_copy(payload, rng):
    """A copy of ``payload`` with one value-leaf bit flipped, or
    ``None`` when it holds no corruptible leaf."""
    from repro.core.messages import (
        CTL_COA_RESPONSE,
        BatchEnvelope,
        ControlEnvelope,
        Frame,
    )

    if isinstance(payload, Frame):
        # Corrupt the carried envelope; the stamped checksum rides along
        # unrecomputed, which is what lets the receiver notice.
        inner = _corrupt_copy(payload.payload, rng)
        return None if inner is None else payload._replace(payload=inner)
    if isinstance(payload, BatchEnvelope):
        positions = _value_leaf_positions(payload.entries)
        if not positions:
            return None
        i = positions[rng.randrange(len(positions))]
        entries = list(payload.entries)
        entry = entries[i]
        entries[i] = entry[:2] + (_flip_int(entry[2], rng),) + entry[3:]
        return payload._replace(entries=tuple(entries))
    if isinstance(payload, ControlEnvelope):
        if payload.kind != CTL_COA_RESPONSE or len(payload.payload) != 3:
            return None
        page_no, word_index, content = payload.payload
        if word_index is not None:
            if not isinstance(content, int):
                return None
            flipped = _flip_int(content, rng)
            return payload._replace(payload=(page_no, word_index, flipped))
        # A whole-page snapshot: flip one present word in a fresh copy.
        items = [
            (index, value)
            for index, value in content.items()
            if isinstance(value, int) and not isinstance(value, bool)
        ]
        if not items:
            return None
        snapshot = content.snapshot()
        index, value = items[rng.randrange(len(items))]
        snapshot.writable_words(index)[index] = _flip_int(value, rng)
        return payload._replace(payload=(page_no, None, snapshot))
    if isinstance(payload, list):
        # A stand-alone Channel batch: plain values on the wire.
        positions = [
            i
            for i, value in enumerate(payload)
            if isinstance(value, int) and not isinstance(value, bool)
        ]
        if not positions:
            return None
        copy = list(payload)
        i = positions[rng.randrange(len(positions))]
        copy[i] = _flip_int(copy[i], rng)
        return copy
    return None

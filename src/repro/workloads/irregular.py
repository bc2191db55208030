"""Irregular workloads for the deterministic-reservations paradigm.

The PBBS-style problems ``speculative_for`` shines on — spanning
forest, maximal independent set, and list contraction — modelled the
same way as the paper's Table 2 benchmarks: real values in simulated
memory plus calibrated cycle costs.  Each workload runs under *all*
paradigms:

* ``sequential_body`` — the reference loop (speedup baseline, SEQ
  recovery phase);
* ``dsmtx_plan`` / ``tls_plan`` — single-stage Spec-DOALL bodies whose
  loads of the mutable shared cells are marked speculative, so the
  value-validation pipeline detects *genuine* cross-iteration
  conflicts: misspeculation rates rise and fall with the ``density``
  knob, not with an injection schedule;
* ``reservation_site`` / ``specfor_step`` — the ``write_min``
  reserve/commit formulation for
  :class:`~repro.paradigms.specfor.SpecForSystem`.

All three step formulations are sequential-equivalent by the standard
deterministic-reservations argument: an iteration only wins when no
pending lower iteration reserved any slot it depends on, and same-round
winners have disjoint reservation sets, so their effects commute.  The
committed memory image is therefore identical to the sequential loop's
— the cross-paradigm equivalence tests pin exactly that.

``density`` in [0, 1] controls conflict density: 0 spreads the
structure out (reservations rarely collide, speculation rarely
misspeculates), 1 concentrates it (heavy contention under both
paradigms).  The conflict-density campaign sweeps this knob head-to-head
against TLS/DSMTX.
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.core.config import PipelineConfig
from repro.errors import ConfigurationError
from repro.paradigms.specfor import ReservationSite
from repro.workloads.base import ParallelPlan, Workload
from repro.workloads.common import mix, with_commit_token

__all__ = ["SpanningForest", "MaximalIndependentSet", "ListContraction"]


def _check_density(density: float) -> float:
    if not 0.0 <= density <= 1.0:
        raise ConfigurationError(
            f"density must be within [0, 1], got {density!r}"
        )
    return density


class _IrregularWorkload(Workload):
    """Shared shape of the reservation-site workload family."""

    suite = "PBBS"
    paradigm = "speculative_for / Spec-DOALL"
    speculation = ("MVS", "MV")

    def __init__(self, iterations, misspec_iterations=None, density=0.5):
        super().__init__(iterations, misspec_iterations)
        self.density = _check_density(density)

    # The DSMTX/TLS single-stage bodies share one implementation with
    # the sequential reference; only the speculative markings differ.

    def sequential_body(self, ctx):
        yield from self._body(ctx, speculative=False)

    def _stage_body(self, ctx):
        yield from self._body(ctx, speculative=True)

    def dsmtx_plan(self) -> ParallelPlan:
        return ParallelPlan(
            self,
            scheme="dsmtx",
            pipeline=PipelineConfig.from_kinds(["DOALL"]),
            stage_bodies=[self._stage_body],
            label="Spec-DOALL",
        )

    def tls_plan(self) -> ParallelPlan:
        return ParallelPlan(
            self,
            scheme="tls",
            pipeline=PipelineConfig.from_kinds(["DOALL"]),
            stage_bodies=[with_commit_token(self._stage_body)],
            label="TLS",
        )

    def _body(self, ctx, speculative):
        raise NotImplementedError
        yield  # pragma: no cover - generator protocol


# -- spanning forest -----------------------------------------------------------


class _SpanningForestStep:
    """Reserve both endpoint roots; the winner links max-root under
    min-root.  Roots are found on the round-start snapshot with no path
    compression — non-root parent pointers are written once and never
    change, so a pending lower iteration can only perturb this find by
    writing a *root*, which it must have reserved."""

    def __init__(self, workload: "SpanningForest") -> None:
        self.w = workload

    def _find(self, ctx, vertex: int) -> int:
        w = self.w
        while True:
            parent = ctx.read(w.parents_base + (vertex << 3))
            if parent == vertex:
                return vertex
            vertex = parent

    def reserve(self, ctx, iteration: int) -> int:
        from repro.paradigms.specfor import TRY_COMMIT

        w = self.w
        u, v = w.edge_u[iteration], w.edge_v[iteration]
        ctx.compute(w.edge_cycles)
        ru = self._find(ctx, u)
        rv = self._find(ctx, v)
        if ru != rv:
            ctx.reserve(min(ru, rv))
            ctx.reserve(max(ru, rv))
        return TRY_COMMIT

    def commit(self, ctx, iteration: int) -> bool:
        w = self.w
        u, v = w.edge_u[iteration], w.edge_v[iteration]
        ru = self._find(ctx, u)
        rv = self._find(ctx, v)
        if ru == rv:
            ctx.write(w.in_forest_base + (iteration << 3), 0)
        else:
            ctx.write(w.parents_base + (max(ru, rv) << 3), min(ru, rv))
            ctx.write(w.in_forest_base + (iteration << 3), 1)
        return True


class SpanningForest(_IrregularWorkload):
    name = "spanning_forest"
    description = "incremental spanning forest over a random edge list"

    #: Union/find bookkeeping per edge (cycles).
    edge_cycles = 15_000

    def __init__(self, iterations=96, misspec_iterations=None, density=0.5):
        super().__init__(iterations, misspec_iterations, density)
        # Conflict density = endpoint sharing: a dense graph draws its
        # edges from a small vertex pool, so roots collide constantly; a
        # sparse one spreads endpoints out.
        self.num_vertices = max(2, int(iterations * (1.6 - 1.4 * self.density)))
        # Edge i joins edge_u[i] and edge_v[i]: two flat arrays, 16 bytes
        # an edge, where a list of (u, v) tuples costs about 120.
        self.edge_u = array("q")
        self.edge_v = array("q")
        for i in range(iterations):
            u = int(mix(i, salt=11) * self.num_vertices)
            v = int(mix(i, salt=12) * self.num_vertices)
            if u == v:
                v = (u + 1) % self.num_vertices
            self.edge_u.append(u)
            self.edge_v.append(v)

    def build(self, uva, owner, store):
        self.parents_base = uva.malloc_page_aligned(owner, self.num_vertices * 8)
        self.in_forest_base = uva.malloc_page_aligned(owner, self.iterations * 8)
        store.write_array(self.parents_base, range(self.num_vertices))

    def reservation_site(self):
        return ReservationSite(slots=self.num_vertices, label="vertex root")

    def specfor_step(self):
        return _SpanningForestStep(self)

    def _seq_find(self, ctx, vertex, speculative):
        while True:
            parent = yield from ctx.load(
                self.parents_base + (vertex << 3), speculative
            )
            if parent == vertex:
                return vertex
            vertex = parent

    def _body(self, ctx, speculative):
        i = ctx.iteration
        u, v = self.edge_u[i], self.edge_v[i]
        ctx.compute(self.edge_cycles)
        # Parent cells are the mutable shared state: speculative loads
        # here are what the try-commit unit validates, so a concurrent
        # union on the same root is a genuine misspeculation.
        ru = yield from self._seq_find(ctx, u, speculative)
        rv = yield from self._seq_find(ctx, v, speculative)
        if speculative:
            ctx.speculate(not self.injected_misspec(i), "no union conflict assumed")
        if ru == rv:
            yield from ctx.store(self.in_forest_base + (i << 3), 0, forward=False)
        else:
            yield from ctx.store(
                self.parents_base + (max(ru, rv) << 3), min(ru, rv), forward=False
            )
            yield from ctx.store(self.in_forest_base + (i << 3), 1, forward=False)


# -- maximal independent set ---------------------------------------------------


class _MISStep:
    """A vertex with an IN neighbor (snapshot) goes OUT outright; an
    undecided vertex reserves itself plus every undecided neighbor and,
    if it wins them all, enters the set and knocks those neighbors out.
    Winning its own slot means no pending lower neighbor exists, so IN
    agrees with the lexicographically-first sequential MIS."""

    IN = 1
    OUT = 2

    def __init__(self, workload: "MaximalIndependentSet") -> None:
        self.w = workload

    def reserve(self, ctx, iteration: int) -> int:
        from repro.paradigms.specfor import DONE, TRY_COMMIT

        w = self.w
        ctx.compute(w.vertex_cycles)
        if ctx.read(w.flags_base + (iteration << 3)) != 0:
            return DONE
        undecided = []
        for neighbor in w.neighbors[iteration]:
            flag = ctx.read(w.flags_base + (neighbor << 3))
            if flag == self.IN:
                return TRY_COMMIT  # no reservations: going OUT is final
            if flag == 0:
                undecided.append(neighbor)
        ctx.reserve(iteration)
        for neighbor in undecided:
            ctx.reserve(neighbor)
        return TRY_COMMIT

    def commit(self, ctx, iteration: int) -> bool:
        w = self.w
        own = w.flags_base + (iteration << 3)
        for neighbor in w.neighbors[iteration]:
            if ctx.read(w.flags_base + (neighbor << 3)) == self.IN:
                ctx.write(own, self.OUT)
                return True
        ctx.write(own, self.IN)
        for neighbor in w.neighbors[iteration]:
            if ctx.read(w.flags_base + (neighbor << 3)) == 0:
                ctx.write(w.flags_base + (neighbor << 3), self.OUT)
        return True


class MaximalIndependentSet(_IrregularWorkload):
    name = "maximal_independent_set"
    description = "lexicographically-first MIS of a random graph"

    #: Per-vertex decision cost (cycles).
    vertex_cycles = 12_000

    def __init__(self, iterations=64, misspec_iterations=None, density=0.5):
        super().__init__(iterations, misspec_iterations, density)
        # Conflict density = average degree: more neighbors, more
        # overlapping reservations and more speculative-read conflicts.
        degree = 1 + int(round(self.density * 6))
        adjacency = [set() for _ in range(iterations)]
        for v in range(iterations):
            for k in range(degree):
                u = int(mix(v, salt=31 + k) * iterations)
                if u != v:
                    adjacency[v].add(u)
                    adjacency[u].add(v)
        self.neighbors = [sorted(adjacency[v]) for v in range(iterations)]

    def build(self, uva, owner, store):
        self.flags_base = uva.malloc_page_aligned(owner, self.iterations * 8)

    def reservation_site(self):
        return ReservationSite(slots=self.iterations, label="vertex")

    def specfor_step(self):
        return _MISStep(self)

    def _body(self, ctx, speculative):
        v = ctx.iteration
        ctx.compute(self.vertex_cycles)
        in_neighbor = False
        # The sequential greedy: IN unless some (lower, already decided)
        # neighbor is IN.  Neighbor flags are the contended cells.
        for neighbor in self.neighbors[v]:
            flag = yield from ctx.load(
                self.flags_base + (neighbor << 3), speculative
            )
            if flag == _MISStep.IN:
                in_neighbor = True
        if speculative:
            ctx.speculate(not self.injected_misspec(v), "stable neighborhood assumed")
        verdict = _MISStep.OUT if in_neighbor else _MISStep.IN
        yield from ctx.store(self.flags_base + (v << 3), verdict, forward=False)


# -- list contraction ----------------------------------------------------------


class _ListContractionStep:
    """Splice a node out of a doubly linked list: reserve the prev /
    self / next triple, and the winner rewires its neighbors and folds
    its value into the successor.  Same-round winners are at list
    distance >= 3, so their splices touch disjoint node triples."""

    def __init__(self, workload: "ListContraction") -> None:
        self.w = workload

    def reserve(self, ctx, iteration: int) -> int:
        from repro.paradigms.specfor import TRY_COMMIT

        w = self.w
        ctx.compute(w.splice_cycles)
        prev = ctx.read(w.prev_base + (iteration << 3))
        nxt = ctx.read(w.next_base + (iteration << 3))
        slots = sorted(
            {iteration}
            | ({prev - 1} if prev else set())
            | ({nxt - 1} if nxt else set())
        )
        for slot in slots:
            ctx.reserve(slot)
        return TRY_COMMIT

    def commit(self, ctx, iteration: int) -> bool:
        w = self.w
        prev = ctx.read(w.prev_base + (iteration << 3))
        nxt = ctx.read(w.next_base + (iteration << 3))
        value = ctx.read(w.value_base + (iteration << 3))
        if prev:
            ctx.write(w.next_base + ((prev - 1) << 3), nxt)
        if nxt:
            ctx.write(w.prev_base + ((nxt - 1) << 3), prev)
            accumulated = ctx.read(w.value_base + ((nxt - 1) << 3))
            ctx.write(w.value_base + ((nxt - 1) << 3), accumulated + value)
        ctx.write(w.out_base + (iteration << 3), value)
        return True


class ListContraction(_IrregularWorkload):
    name = "list_contraction"
    description = "value-folding contraction of a doubly linked list"

    #: Splice bookkeeping per node (cycles).
    splice_cycles = 10_000

    def __init__(self, iterations=64, misspec_iterations=None, density=0.5):
        super().__init__(iterations, misspec_iterations, density)
        # Conflict density = list locality: at 1 the list is in index
        # order, so a round's prefix is a run of adjacent nodes (every
        # splice collides with its neighbors); at 0 the permutation
        # scatters neighbors far apart in iteration order.
        n = iterations
        self.order = sorted(
            range(n),
            key=lambda i: (self.density * (i / n) + (1.0 - self.density) * mix(i, salt=51), i),
        )
        self.values = [1 + int(mix(i, salt=52) * 9) for i in range(n)]

    def build(self, uva, owner, store):
        n = self.iterations
        self.prev_base = uva.malloc_page_aligned(owner, n * 8)
        self.next_base = uva.malloc_page_aligned(owner, n * 8)
        self.value_base = uva.malloc_page_aligned(owner, n * 8)
        self.out_base = uva.malloc_page_aligned(owner, n * 8)
        prev_of = [0] * n
        next_of = [0] * n
        for position, node in enumerate(self.order):
            if position > 0:
                prev_of[node] = self.order[position - 1] + 1
            if position + 1 < n:
                next_of[node] = self.order[position + 1] + 1
        store.write_array(self.prev_base, prev_of)
        store.write_array(self.next_base, next_of)
        store.write_array(self.value_base, self.values)

    def reservation_site(self):
        return ReservationSite(slots=self.iterations, label="list node")

    def specfor_step(self):
        return _ListContractionStep(self)

    def _body(self, ctx, speculative):
        i = ctx.iteration
        ctx.compute(self.splice_cycles)
        # prev/next/value cells of the node's neighborhood are the
        # contended state: a concurrent splice next door rewires them.
        prev = yield from ctx.load(self.prev_base + (i << 3), speculative)
        nxt = yield from ctx.load(self.next_base + (i << 3), speculative)
        value = yield from ctx.load(self.value_base + (i << 3), speculative)
        if speculative:
            ctx.speculate(not self.injected_misspec(i), "no adjacent splice assumed")
        if prev:
            yield from ctx.store(self.next_base + ((prev - 1) << 3), nxt, forward=False)
        if nxt:
            yield from ctx.store(self.prev_base + ((nxt - 1) << 3), prev, forward=False)
            accumulated = yield from ctx.load(
                self.value_base + ((nxt - 1) << 3), speculative
            )
            yield from ctx.store(
                self.value_base + ((nxt - 1) << 3), accumulated + value, forward=False
            )
        yield from ctx.store(self.out_base + (i << 3), value, forward=False)

"""456.hmmer — gene sequence database search (SPEC CINT 2006).

Paper parallelization: **Spec-DSWP+[DOALL,S]** with memory versioning.
The first stage calculates sequence scores in parallel; the second
computes a histogram of the scores sequentially, with max-reduction for
the best score.  Spec-DSWP scales to high core counts because the
histogram stage is tiny and decoupled; TLS instead carries the histogram
and maximum through a cyclic synchronized dependence, putting
inter-thread communication latency on the critical path — its speedup
peaks and then flattens as threads (and inter-node hops) increase
(section 5.2).
"""

from __future__ import annotations

from repro.core.config import PipelineConfig
from repro.memory import PAGE_BYTES
from repro.workloads.base import ParallelPlan, Workload
from repro.workloads.common import mix_range, touch_pages

__all__ = ["Hmmer"]

#: Histogram bin count.
BINS = 64


class Hmmer(Workload):
    name = "456.hmmer"
    suite = "SPEC CINT 2006"
    description = "gene sequence database search"
    paradigm = "Spec-DSWP+[DOALL,S]"
    speculation = ("MV",)

    #: Viterbi scoring cost per sequence (cycles).
    score_cycles = 280_000
    #: Histogram update cost (cycles).
    histogram_cycles = 800
    #: Pages of HMM model tables every worker reads.
    model_pages = 2

    def __init__(self, iterations=2560, misspec_iterations=None):
        super().__init__(iterations, misspec_iterations)

    def build(self, uva, owner, store):
        self.model_base = uva.malloc_page_aligned(
            owner, self.model_pages * PAGE_BYTES, read_only=True
        )
        self.hist_base = uva.malloc_page_aligned(owner, BINS * 8)
        self.max_addr = uva.malloc(owner, 8)
        store.write(self.max_addr, 0)
        for page in range(self.model_pages):
            store.write(self.model_base + page * PAGE_BYTES, 17 + page)

    def _score(self, ctx):
        i = ctx.iteration
        bias = yield from touch_pages(ctx, self.model_base, [i % self.model_pages])
        ctx.speculate(not self.injected_misspec(i), "sequence error")
        ctx.compute(self.score_cycles)
        return int(mix_range(i, 0, 1000) + bias)

    def _histogram_update(self, ctx, score):
        ctx.compute(self.histogram_cycles)
        bin_addr = self.hist_base + 8 * (score % BINS)
        count = yield from ctx.load(bin_addr)
        yield from ctx.store(bin_addr, count + 1, forward=False)
        best = yield from ctx.load(self.max_addr)
        if score > best:
            # Max-reduction: only the new maximum is written back.
            yield from ctx.store(self.max_addr, score, forward=False)

    # -- sequential semantics ----------------------------------------------------------

    def sequential_body(self, ctx):
        i = ctx.iteration
        bias = yield from touch_pages(ctx, self.model_base, [i % self.model_pages])
        ctx.compute(self.score_cycles)
        score = int(mix_range(i, 0, 1000) + bias)
        yield from self._histogram_update(ctx, score)

    # -- Spec-DSWP plan -------------------------------------------------------------------

    def _stage0(self, ctx):
        score = yield from self._score(ctx)
        yield from ctx.produce("score", score)

    def _stage1(self, ctx):
        score = ctx.consume("score")
        yield from self._histogram_update(ctx, score)

    def dsmtx_plan(self):
        return ParallelPlan(
            self,
            scheme="dsmtx",
            pipeline=PipelineConfig.from_kinds(["DOALL", "S"]),
            stage_bodies=[self._stage0, self._stage1],
            label="Spec-DSWP+[DOALL,S]",
        )

    # -- TLS plan ------------------------------------------------------------------------------

    def _tls_body(self, ctx):
        score = yield from self._score(ctx)
        # The histogram and running maximum are synchronized loop-carried
        # dependences: each iteration's worker forwards them to the next,
        # a cyclic pattern whose latency bounds throughput.
        prev_max = yield from ctx.sync_recv("max")
        if prev_max is None:
            prev_max = yield from ctx.load(self.max_addr)
        hist = yield from ctx.sync_recv("hist")
        if hist is None:
            hist = {}
        ctx.compute(self.histogram_cycles)
        bin_index = score % BINS
        if bin_index in hist:
            count = hist[bin_index]
        else:
            count = yield from ctx.load(self.hist_base + 8 * bin_index)
        hist = dict(hist)
        hist[bin_index] = count + 1
        yield from ctx.store(self.hist_base + 8 * bin_index, count + 1, forward=False)
        best = max(prev_max, score)
        yield from ctx.store(self.max_addr, best, forward=False)
        yield from ctx.sync_send("max", best)
        yield from ctx.sync_send("hist", hist)

    def tls_plan(self):
        return ParallelPlan(
            self,
            scheme="tls",
            pipeline=PipelineConfig.from_kinds(["DOALL"]),
            stage_bodies=[self._tls_body],
            label="TLS",
        )

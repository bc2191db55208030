"""blackscholes — option pricing (PARSEC).

Paper parallelization: **DSWP+[Spec-DOALL,S]** with control-flow
speculation on an error condition.  The parallel stage prices options
independently (genuine Black-Scholes arithmetic on values held in
simulated memory); a small sequential stage collects results.  TLS peaks
around 52 cores because its ordered commit puts inter-thread
communication latency on the critical path (section 5.2).
"""

from __future__ import annotations

import math

from repro.core.config import PipelineConfig
from repro.memory import PAGE_BYTES
from repro.workloads.base import ParallelPlan, Workload
from repro.workloads.common import mix_range

__all__ = ["BlackScholes"]


def _cnd(x: float) -> float:
    """Cumulative standard normal distribution (Abramowitz-Stegun)."""
    k = 1.0 / (1.0 + 0.2316419 * abs(x))
    poly = k * (0.319381530 + k * (-0.356563782 + k * (1.781477937 + k * (
        -1.821255978 + k * 1.330274429))))
    value = 1.0 - math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * poly
    return value if x >= 0 else 1.0 - value


def black_scholes_call(spot: float, strike: float, rate: float,
                       volatility: float, expiry: float) -> float:
    """Black-Scholes European call price."""
    d1 = (math.log(spot / strike) + (rate + 0.5 * volatility ** 2) * expiry) / (
        volatility * math.sqrt(expiry))
    d2 = d1 - volatility * math.sqrt(expiry)
    return spot * _cnd(d1) - strike * math.exp(-rate * expiry) * _cnd(d2)


class BlackScholes(Workload):
    name = "blackscholes"
    suite = "PARSEC"
    description = "option pricing"
    paradigm = "DSWP+[Spec-DOALL,S]"
    speculation = ("CFS",)

    #: Pricing cost per option batch (cycles).
    price_cycles = 240_000
    #: Collection cost in the sequential stage (cycles).
    collect_cycles = 400
    #: Pages of shared option-parameter tables (volatility surfaces
    #: etc.); small, so per-worker Copy-On-Access traffic stays minor.
    table_pages = 2

    def __init__(self, iterations=3072, misspec_iterations=None):
        super().__init__(iterations, misspec_iterations)

    def build(self, uva, owner, store):
        self.tables_base = uva.malloc_page_aligned(
            owner, self.table_pages * PAGE_BYTES, read_only=True
        )
        self.prices_base = uva.malloc_page_aligned(owner, self.iterations * 8)
        self.total_addr = uva.malloc(owner, 8)
        store.write(self.total_addr, 0.0)
        for page in range(self.table_pages):
            store.write(self.tables_base + page * PAGE_BYTES, round(0.15 + 0.02 * page, 6))

    def _price(self, ctx, speculative: bool):
        i = ctx.iteration
        page = i % self.table_pages
        volatility = yield from ctx.load(self.tables_base + page * PAGE_BYTES)
        if speculative:
            # The error path (bad inputs) is speculated not taken.
            ctx.speculate(not self.injected_misspec(i), "pricing error condition")
        ctx.compute(self.price_cycles)
        spot = round(mix_range(i, 80.0, 120.0), 6)
        strike = round(mix_range(i, 90.0, 110.0, 1), 6)
        price = black_scholes_call(spot, strike, rate=0.05,
                                   volatility=volatility, expiry=1.0)
        return round(price, 6)

    # -- sequential semantics ------------------------------------------------------------

    def sequential_body(self, ctx):
        price = yield from self._price(ctx, speculative=False)
        yield from ctx.store(self.prices_base + 8 * ctx.iteration, price)
        ctx.compute(self.collect_cycles)
        total = yield from ctx.load(self.total_addr)
        yield from ctx.store(self.total_addr, round(total + price, 6))

    # -- Spec-DSWP plan ---------------------------------------------------------------------

    def _stage0(self, ctx):
        price = yield from self._price(ctx, speculative=True)
        yield from ctx.produce("price", price)

    def _stage1(self, ctx):
        # The sequential stage owns the result array: keeping the store
        # off the parallel stage avoids every worker COA-faulting the
        # shared output pages.
        price = ctx.consume("price")
        ctx.compute(self.collect_cycles)
        yield from ctx.store(self.prices_base + 8 * ctx.iteration, price, forward=False)
        total = yield from ctx.load(self.total_addr)
        yield from ctx.store(self.total_addr, round(total + price, 6), forward=False)

    def dsmtx_plan(self):
        return ParallelPlan(
            self,
            scheme="dsmtx",
            pipeline=PipelineConfig.from_kinds(["DOALL", "S"]),
            stage_bodies=[self._stage0, self._stage1],
            label="DSWP+[Spec-DOALL,S]",
        )

    # -- TLS plan --------------------------------------------------------------------------------

    def _tls_body(self, ctx):
        # The running total is a synchronized loop-carried dependence:
        # its value chains from each iteration's worker to the next, the
        # cyclic pattern that caps TLS scalability.
        price = yield from self._price(ctx, speculative=True)
        yield from ctx.store(self.prices_base + 8 * ctx.iteration, price, forward=False)
        ctx.compute(self.collect_cycles)
        prev = yield from ctx.sync_recv("total")
        if prev is None:
            prev = yield from ctx.load(self.total_addr)
        total = round(prev + price, 6)
        yield from ctx.store(self.total_addr, total, forward=False)
        yield from ctx.sync_send("total", total)

    def tls_plan(self):
        return ParallelPlan(
            self,
            scheme="tls",
            pipeline=PipelineConfig.from_kinds(["DOALL"]),
            stage_bodies=[self._tls_body],
            label="TLS",
        )

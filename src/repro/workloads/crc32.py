"""crc32 — polynomial code checksum (reference implementation).

Paper parallelization: **DSWP+[Spec-DOALL,S]** with control-flow
speculation.  On a cluster with a network file system the original
program spends most of its time reading files, so character reads are
replaced with block reads (``getc`` -> ``fread``); the program is then
speculatively parallelized assuming no errors occur in the CRC
computation.  Speedup is limited by the number of input files
(section 5.2) — with one worker per file the curve goes flat, and
variable file sizes leave a straggler tail.
"""

from __future__ import annotations

from repro.core.config import PipelineConfig
from repro.memory import PAGE_BYTES
from repro.workloads.base import ParallelPlan, Workload
from repro.workloads.common import mix_range, touch_pages

__all__ = ["Crc32"]


class Crc32(Workload):
    name = "crc32"
    suite = "Ref. Impl."
    description = "polynomial code checksum"
    paradigm = "DSWP+[Spec-DOALL,S]"
    speculation = ("CFS", "MV")

    #: File size bounds (pages) — iteration = one input file.
    min_file_pages = 4
    max_file_pages = 20
    #: CRC cost per file page (cycles).
    crc_cycles_per_page = 700_000
    #: Report cost in the sequential stage (cycles).
    report_cycles = 2_000

    def __init__(self, iterations=48, misspec_iterations=None):
        super().__init__(iterations, misspec_iterations)
        self._file_pages = [
            int(mix_range(i, self.min_file_pages, self.max_file_pages + 1, salt=4))
            for i in range(self.iterations)
        ]
        self._file_first_page = []
        first = 0
        for pages in self._file_pages:
            self._file_first_page.append(first)
            first += pages
        self._total_pages = first

    def build(self, uva, owner, store):
        self.files_base = uva.malloc_page_aligned(
            owner, self._total_pages * PAGE_BYTES, read_only=True
        )
        self.checksums_base = uva.malloc_page_aligned(owner, self.iterations * 8)
        for i, first in enumerate(self._file_first_page):
            store.write(self.files_base + first * PAGE_BYTES, i * 17 + 9)

    def _checksum(self, ctx, speculative: bool):
        i = ctx.iteration
        pages = self._file_pages[i]
        first = self._file_first_page[i]
        # Block read: fread pulls the file through COA page by page.
        seed = yield from touch_pages(ctx, self.files_base, range(first, first + pages))
        if speculative:
            ctx.speculate(not self.injected_misspec(i), "CRC error assumed absent")
        ctx.compute(self.crc_cycles_per_page * pages)
        return (seed * 0xEDB88320 + pages) & 0xFFFFFFFF

    # -- sequential semantics --------------------------------------------------------------

    def sequential_body(self, ctx):
        i = ctx.iteration
        crc = yield from self._checksum(ctx, speculative=False)
        ctx.compute(self.report_cycles)
        yield from ctx.store(self.checksums_base + 8 * i, crc)

    # -- Spec-DSWP plan -----------------------------------------------------------------------

    def _stage0(self, ctx):
        crc = yield from self._checksum(ctx, speculative=True)
        yield from ctx.produce("crc", crc)

    def _stage1(self, ctx):
        crc = ctx.consume("crc")
        ctx.compute(self.report_cycles)
        yield from ctx.store(self.checksums_base + 8 * ctx.iteration, crc, forward=False)

    def dsmtx_plan(self):
        return ParallelPlan(
            self,
            scheme="dsmtx",
            pipeline=PipelineConfig.from_kinds(["DOALL", "S"]),
            stage_bodies=[self._stage0, self._stage1],
            label="DSWP+[Spec-DOALL,S]",
        )

    # -- TLS plan ----------------------------------------------------------------------------------

    def _tls_body(self, ctx):
        i = ctx.iteration
        crc = yield from self._checksum(ctx, speculative=True)
        ctx.compute(self.report_cycles)
        yield from ctx.store(self.checksums_base + 8 * i, crc, forward=False)
        # Report ordering chains between iterations.
        position = yield from ctx.sync_recv("reportpos")
        if position is None:
            position = 0
        yield from ctx.sync_send("reportpos", position + 1)

    def tls_plan(self):
        return ParallelPlan(
            self,
            scheme="tls",
            pipeline=PipelineConfig.from_kinds(["DOALL"]),
            stage_bodies=[self._tls_body],
            label="TLS",
        )

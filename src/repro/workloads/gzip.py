"""164.gzip — file compressor (SPEC CINT 2000).

Paper parallelization: **Spec-DSWP+[S,DOALL,S]** with memory versioning.
Compression works in three stages: (1) read a block from the input
file, (2) compress blocks in parallel, (3) write the compressed block.
gzip uses a variable block size — the start of the next block is known
only after the current block compresses — so the Y-branch is used to
break that dependence and start blocks at fixed intervals; DSMTX's
dynamic memory versioning provides the multiple block-array versions.

gzip has the highest bandwidth requirement of the suite (Figure 5(a)):
every block moves through the pipeline queues in bulk, and the NIC of
the first stage's node saturates — which is exactly what limits its
speedup (section 5.2).
"""

from __future__ import annotations

from repro.core.config import PipelineConfig
from repro.memory import PAGE_BYTES, VersionedBuffer
from repro.workloads.base import ParallelPlan, Workload
from repro.workloads.common import touch_pages

__all__ = ["Gzip"]


class Gzip(Workload):
    name = "164.gzip"
    suite = "SPEC CINT 2000"
    description = "file compressor"
    paradigm = "Spec-DSWP+[S,DOALL,S]"
    speculation = ("MV",)

    #: Uncompressed block size moved into the parallel stage (bytes).
    block_bytes = 24_576
    #: Compressed block size moved out (bytes).
    output_bytes = 12_288
    #: Pages per input block (the file region each block covers).
    block_pages = block_bytes // PAGE_BYTES
    #: Cost to carve a block out of the input stream (cycles).
    read_cycles = 8_000
    #: Compression cost per block (cycles).
    compress_cycles = 900_000
    #: Cost to append a compressed block to the output file (cycles).
    write_cycles = 6_000
    #: Live versions of the block arrays (dynamic memory versioning).
    version_depth = 8

    def __init__(self, iterations=1400, misspec_iterations=None):
        super().__init__(iterations, misspec_iterations)

    def build(self, uva, owner, store):
        self.file_base = uva.malloc_page_aligned(
            owner, self.iterations * self.block_pages * PAGE_BYTES, read_only=True
        )
        self.block_versions = VersionedBuffer(
            uva, owner, nbytes=PAGE_BYTES, depth=self.version_depth, name="block"
        )
        self.output_base = uva.malloc_page_aligned(owner, self.iterations * 8)
        # One representative word per input page (the page's "contents").
        for i in range(self.iterations):
            store.write(self.file_base + i * self.block_pages * PAGE_BYTES, i * 7 + 1)

    def _block_pages_of(self, iteration):
        first = iteration * self.block_pages
        return range(first, first + self.block_pages)

    def _compress(self, ctx, seed):
        ctx.compute(self.compress_cycles)
        # A toy "compression": a deterministic digest of the block seed.
        digest = (seed * 2654435761) & 0xFFFFFFFF
        return digest

    # -- sequential semantics ----------------------------------------------------------

    def sequential_body(self, ctx):
        i = ctx.iteration
        ctx.compute(self.read_cycles)
        seed = yield from touch_pages(ctx, self.file_base, self._block_pages_of(i))
        digest = self._compress(ctx, seed + i)
        ctx.compute(self.write_cycles)
        yield from ctx.store(self.output_base + 8 * i, digest)

    # -- Spec-DSWP plan ------------------------------------------------------------------

    def _stage0(self, ctx):
        i = ctx.iteration
        ctx.compute(self.read_cycles)
        # The Y-branch speculates that starting the next block at a fixed
        # interval is safe; injected misspeculation models its failure.
        ctx.speculate(not self.injected_misspec(i), "Y-branch block boundary")
        # The reader stage owns the input stream (fread into its local
        # buffer), so the block reaches the parallel stage through the
        # pipeline queue — the bulk transfer that saturates this node's
        # NIC and bounds gzip's scalability.
        seed = i * 7 + 1
        yield from ctx.produce("block", seed + i, nbytes=self.block_bytes)

    def _stage1(self, ctx):
        i = ctx.iteration
        seed = ctx.consume("block")
        digest = self._compress(ctx, seed)
        # Scratch state lives in this MTX's version of the block array.
        yield from ctx.store(self.block_versions.element(i, 0), digest, forward=False)
        yield from ctx.produce("compressed", digest, nbytes=self.output_bytes)

    def _stage2(self, ctx):
        i = ctx.iteration
        digest = ctx.consume("compressed")
        ctx.compute(self.write_cycles)
        yield from ctx.store(self.output_base + 8 * i, digest, forward=False,
                             nbytes=self.output_bytes)

    def dsmtx_plan(self):
        return ParallelPlan(
            self,
            scheme="dsmtx",
            pipeline=PipelineConfig.from_kinds(["S", "DOALL", "S"]),
            stage_bodies=[self._stage0, self._stage1, self._stage2],
            label="Spec-DSWP+[S,DOALL,S]",
        )

    # -- TLS plan --------------------------------------------------------------------------

    def _tls_body(self, ctx):
        i = ctx.iteration
        ctx.compute(self.read_cycles)
        ctx.speculate(not self.injected_misspec(i), "block boundary speculation")
        # Each worker reads its own block from the file via COA.
        seed = yield from touch_pages(ctx, self.file_base, self._block_pages_of(i))
        digest = self._compress(ctx, seed + i)
        ctx.compute(self.write_cycles)
        # The whole compressed block is part of this transaction's
        # write-set, shipped to validation and commit at full volume.
        yield from ctx.store(self.output_base + 8 * i, digest, forward=False,
                             nbytes=self.output_bytes)
        # Ordered in-place output: the file write position chains from
        # iteration to iteration (variable compressed size).
        position = yield from ctx.sync_recv("outpos")
        if position is None:
            position = 0
        yield from ctx.sync_send("outpos", position + self.output_bytes)

    def tls_plan(self):
        return ParallelPlan(
            self,
            scheme="tls",
            pipeline=PipelineConfig.from_kinds(["DOALL"]),
            stage_bodies=[self._tls_body],
            label="TLS",
        )

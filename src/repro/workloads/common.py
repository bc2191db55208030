"""Shared helpers for the benchmark workload models.

The workload kernels mix *real* computation on simulated memory (so the
speculation machinery operates on genuine values) with *modelled* cycle
and byte costs calibrated to each benchmark's profile.  Two recurring
idioms live here:

* deterministic pseudo-randomness (:func:`mix`) — load imbalance and
  input variability must be reproducible run to run, so they derive
  from hashing the iteration index rather than a global RNG;
* page touching (:func:`touch_pages`) — modelling bulk data reads
  (files, dictionaries, weight arrays) as one word-load per page, which
  drives the Copy-On-Access machinery to transfer exactly the pages a
  real execution would.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.memory import PAGE_BYTES

__all__ = [
    "mix",
    "mix_range",
    "touch_pages",
    "page_addr",
    "with_commit_token",
]

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def mix(iteration: int, salt: int = 0) -> float:
    """Deterministic hash of (iteration, salt) to a float in [0, 1)."""
    x = (iteration * _GOLDEN + salt * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x / float(1 << 64)


def mix_range(iteration: int, low: float, high: float, salt: int = 0) -> float:
    """Deterministic value in [low, high) derived from the iteration."""
    return low + (high - low) * mix(iteration, salt)


def page_addr(base: int, page_index: int, word: int = 0) -> int:
    """Word address of ``word`` on the ``page_index``-th page of a
    page-aligned allocation at ``base``."""
    return base + page_index * PAGE_BYTES + word * 8


def with_commit_token(body, serialize: bool = False, sync_values: int = 1):
    """Wrap a TLS iteration body with the ordered-commit token.

    Cluster TLS commits transactions in iteration order by passing a
    token from each iteration's worker to the next — the cyclic,
    DOACROSS-like communication pattern that puts wire latency on TLS's
    critical path (sections 2.1 and 5.2).  ``sync_values`` models
    additional synchronized loop-carried values riding the same
    round trip (e.g. 456.hmmer's histogram chain).  ``serialize=True``
    moves the token wait to the *start* of the body: the synchronized
    dependence sits inside an inner loop, so iterations cannot overlap
    at all (the 464.h264ref case).
    """

    def wrapped(ctx):
        if serialize:
            yield from ctx.sync_recv("__token__")
            yield from body(ctx)
            yield from ctx.sync_send("__token__", 1)
            return
        yield from body(ctx)
        for index in range(sync_values):
            yield from ctx.sync_recv(f"__token{index}__")
        for index in range(sync_values):
            yield from ctx.sync_send(f"__token{index}__", 1)

    return wrapped


def touch_pages(ctx, base: int, page_indices: Sequence[int]) -> Generator:
    """Load one word from each listed page of a page-aligned buffer.

    Under the MTX context each first touch per worker costs one
    Copy-On-Access round trip and transfers the whole 4 KiB page — the
    model for bulk reads of committed data.  Returns the sum of the
    touched words so callers can feed it into their computation.
    """
    total = 0
    for page_index in page_indices:
        value = yield from ctx.load(page_addr(base, page_index))
        total += value if isinstance(value, (int, float)) else 0
    return total


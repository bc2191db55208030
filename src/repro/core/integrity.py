"""End-to-end integrity primitives (checksums and digests).

Commodity clusters are built from cheap NICs and non-ECC memory whose
signature failure mode is *silent* corruption: a flipped bit in a frame,
a checkpoint image, or a committed page arrives without any error
signal.  The fault-tolerant runtime already knows how to survive *loss*
(sequence numbers, acks, retransmits) — so the integrity layer's whole
job is to convert silent corruption into detected loss:

* :func:`payload_checksum` — a CRC32 over a canonical structural
  encoding of an envelope.  Senders stamp it onto every
  :class:`~repro.core.messages.Frame` (``SystemConfig.integrity``);
  receivers verify and *drop* mismatching frames, letting the
  retransmit machinery re-deliver the intact original.
* :func:`page_digest` / :func:`space_digest` — order-independent
  digests of the *present* words of a page / a whole address space.
  Epoch checkpoints and standby folds carry them so corrupted durable
  state is detected before it is ever served; the commit unit's
  page-digest table and the scrub process compare committed memory
  against them periodically.

The encoding is structural (type-tagged bytes, not ``repr``) so the
same logical payload digests identically across processes and runs —
a requirement for the pinned golden digests.  Everything here is pure
computation over plain values: zero-cost when ``integrity`` is off
because nothing calls it.
"""

from __future__ import annotations

import zlib
from typing import Any

__all__ = [
    "CHECKSUM_BYTES",
    "payload_checksum",
    "page_digest",
    "space_digest",
]

#: Simulated wire cost of one frame checksum (CRC32: 4 bytes).
CHECKSUM_BYTES = 4


def _encode(obj: Any, parts: list) -> None:
    """Append a canonical, type-tagged byte encoding of ``obj``.

    Handles the closed set of types that actually travel in envelopes:
    ints, floats, strings, bytes, None, bools, tuples/lists (including
    NamedTuple envelopes), dicts with sortable keys, and page snapshots
    (any object exposing ``number`` and ``items()``).  Unknown leaves
    fall back to their class name — never ``repr`` (ids are not stable
    across processes).

    The common shapes — exact ints and strs, None, and tuples, whose
    leaf items are encoded inline — are dispatched on ``type(obj)``
    first.  Everything else (bools, int and str subclasses, floats,
    bytes, lists, dicts, pages) takes the ``isinstance`` chain below,
    and both routes emit the same bytes for every value.
    """
    kind = type(obj)
    if kind is int:
        parts.append(b"i%d;" % obj)
    elif kind is str:
        encoded = obj.encode("utf-8")
        parts.append(b"s%d:" % len(encoded))
        parts.append(encoded)
    elif obj is None:
        parts.append(b"n")
    elif isinstance(obj, tuple):
        parts.append(b"(")
        for item in obj:
            kind = type(item)
            if kind is int:
                parts.append(b"i%d;" % item)
            elif kind is str:
                encoded = item.encode("utf-8")
                parts.append(b"s%d:" % len(encoded))
                parts.append(encoded)
            elif item is None:
                parts.append(b"n")
            else:
                _encode(item, parts)
        parts.append(b")")
    elif obj is True:
        parts.append(b"T")
    elif obj is False:
        parts.append(b"F")
    elif isinstance(obj, int):
        parts.append(b"i%d;" % obj)
    elif isinstance(obj, float):
        parts.append(b"f" + repr(obj).encode("ascii") + b";")
    elif isinstance(obj, str):
        encoded = obj.encode("utf-8")
        parts.append(b"s%d:" % len(encoded))
        parts.append(encoded)
    elif isinstance(obj, (bytes, bytearray)):
        parts.append(b"b%d:" % len(obj))
        parts.append(bytes(obj))
    elif isinstance(obj, list):
        parts.append(b"(")
        for item in obj:
            _encode(item, parts)
        parts.append(b")")
    elif isinstance(obj, dict):
        parts.append(b"{")
        for key in sorted(obj):
            _encode(key, parts)
            _encode(obj[key], parts)
        parts.append(b"}")
    elif hasattr(obj, "number") and hasattr(obj, "items"):
        # A page snapshot travelling in a COA response: digest its
        # identity and present words (the dirty mask is local bookkeeping).
        _encode_page(obj, parts)
    else:
        parts.append(b"?" + type(obj).__name__.encode("ascii") + b";")


def _encode_page(page: Any, parts: list) -> None:
    """Append ``page``'s number and the ``(index, value)`` pairs of its
    present words.  Indices are ints (as :meth:`Page.items` yields
    them); an exact-int value shares one format operation with its
    index."""
    parts.append(b"P%d[" % page.number)
    for index, value in page.items():
        if type(value) is int:
            parts.append(b"i%d;i%d;" % (index, value))
        else:
            parts.append(b"i%d;" % index)
            _encode(value, parts)
    parts.append(b"]")


def payload_checksum(payload: Any) -> int:
    """CRC32 of the canonical encoding of ``payload``."""
    parts: list = []
    _encode(payload, parts)
    return zlib.crc32(b"".join(parts))


def page_digest(page: Any) -> int:
    """CRC32 over one page's present ``(index, value)`` words."""
    if not page.present_mask:
        # The same bytes _encode_page builds for an empty page.
        return zlib.crc32(b"P%d[]" % page.number)
    parts: list = []
    _encode_page(page, parts)
    return zlib.crc32(b"".join(parts))


def space_digest(space: Any) -> int:
    """CRC32 over every present word of ``space``, page-number order.

    Depends only on logical content — dirty masks, shared arrays and
    installation history are excluded — so a standby image folded from
    the replication stream digests identically to the primary master it
    mirrors.
    """
    parts: list = []
    for page in space.iter_pages():
        if page.present_mask:
            _encode_page(page, parts)
    return zlib.crc32(b"".join(parts))

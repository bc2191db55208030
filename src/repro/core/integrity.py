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
  receivers recompute it from the payload they got, and *drop*
  mismatching frames, letting the retransmit machinery re-deliver the
  intact original.
* :func:`page_digest` — a per-word digest of one page's *present*
  words: the CRC32 of the page header ``P<number>[]`` plus the CRC32 of
  each present word's ``i<index>;<value>`` encoding, summed mod 2^32.
  Because it is a sum of per-word terms (:func:`word_digest`), the
  commit unit keeps its page-digest table current per written word, in
  O(1) per store, instead of re-encoding the pages a commit touched;
  its scrubber compares committed memory against that table.
* :func:`space_digest` — a CRC32 over every present word of a whole
  address space, page-number order.  Epoch checkpoints carry it so a
  corrupted standby image is detected before it is ever served.

*Collision bound.*  A page digest misses a change only if the changed
words' term differences sum to zero mod 2^32.  A change confined to one
word whose encoding keeps its length and differs within 32 consecutive
bits (a single flipped decimal digit, say) is always detected: CRC32
detects every burst error up to 32 bits.  Any other change — words
appearing, several words flipped, an encoding changing length — is
missed with probability about 2^-32 per audit if CRC32 values of
distinct encodings are taken as uniform, the same bound a single CRC32
over the whole page gives.

The encoding is structural (type-tagged bytes, not ``repr``) so the
same logical payload digests identically across processes and runs —
a requirement for the pinned golden digests.  The envelope classes and
the empty and one-word page snapshots that carry almost all traffic
are each encoded with one format operation; every other value takes
the general recursive encoder, and both routes emit the same bytes.
Everything here is pure computation over plain values: zero-cost when
``integrity`` is off because nothing calls it.
"""

from __future__ import annotations

import zlib
from typing import Any

from repro.core.messages import BatchEnvelope, ControlEnvelope
from repro.memory.page import Page

__all__ = [
    "CHECKSUM_BYTES",
    "DIGEST_MASK",
    "payload_checksum",
    "empty_page_digest",
    "word_digest",
    "page_digest",
    "space_digest",
]

#: Simulated wire cost of one frame checksum (CRC32: 4 bytes).
CHECKSUM_BYTES = 4

#: Page digests are sums of CRC32 terms, reduced mod 2^32.
DIGEST_MASK = 0xFFFFFFFF


def _encode(obj: Any, parts: list) -> None:
    """Append a canonical, type-tagged byte encoding of ``obj``.

    Handles the closed set of types that actually travel in envelopes:
    ints, floats, strings, bytes, None, bools, tuples/lists (including
    NamedTuple envelopes), dicts with sortable keys, and page snapshots
    (any object exposing ``number`` and ``items()``).  Unknown leaves
    fall back to their class name — never ``repr`` (ids are not stable
    across processes).

    The common shapes — exact ints and strs, None, the two envelope
    classes and page snapshots (:data:`_SHAPES`), and tuples, whose leaf
    items are encoded inline — are dispatched on ``type(obj)`` first.
    Everything else (bools, int and str subclasses, floats, bytes,
    lists, dicts, duck-typed pages) takes the ``isinstance`` chain
    below, and both routes emit the same bytes for every value.
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
    elif kind in _SHAPES:
        parts.append(_SHAPES[kind](obj))
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


def _encoded(obj: Any) -> bytes:
    """The canonical encoding of ``obj``, by the general encoder."""
    parts: list = []
    _encode(obj, parts)
    return b"".join(parts)


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


# -- one format operation per common shape --------------------------------------
#
# Each function below returns the exact bytes ``_encode`` would append
# for its class.  The fast branches test exact types, so a subclass
# (an IntEnum epoch, a str-subclass kind) or an unexpected payload
# falls through to the general encoder.


def _page_bytes(page: Page) -> bytes:
    """A page snapshot: empty and one-int-word pages in one format."""
    mask = page.present_mask
    if not mask:
        return b"P%d[]" % page.number
    if not mask & (mask - 1):
        index = mask.bit_length() - 1
        value = page.words[index]
        if type(value) is int:
            return b"P%d[i%d;i%d;]" % (page.number, index, value)
    parts: list = []
    _encode_page(page, parts)
    return b"".join(parts)


def _control_bytes(envelope: ControlEnvelope) -> bytes:
    """A control envelope.  The Copy-On-Access payloads — a request
    ``(page, requester, None)`` and a page response ``(page, None,
    snapshot)`` — are formatted inline with the envelope's fields."""
    kind, epoch, sender, payload = envelope
    if type(kind) is not str or type(epoch) is not int or type(sender) is not int:
        return b"(%b)" % b"".join(map(_encoded, envelope))
    head = kind.encode("utf-8")
    if type(payload) is tuple and len(payload) == 3:
        first, second, third = payload
        if type(first) is int:
            if type(second) is int and third is None:
                return b"(s%d:%bi%d;i%d;(i%d;i%d;n))" % (
                    len(head), head, epoch, sender, first, second
                )
            if second is None and type(third) is Page:
                return b"(s%d:%bi%d;i%d;(i%d;n%b))" % (
                    len(head), head, epoch, sender, first, _page_bytes(third)
                )
    return b"(s%d:%bi%d;i%d;%b)" % (
        len(head), head, epoch, sender, _encoded(payload)
    )


def _entry_bytes(entry: Any) -> bytes:
    """One batch entry: a kind tag and int or str fields, as in
    ``(W, address, value)``, ``(END, iteration, stage)``, ``(DATA,
    tag, value)`` or ``(VAL, iteration)``."""
    if type(entry) is tuple:
        size = len(entry)
        if size == 3:
            kind, first, second = entry
            if type(kind) is str and type(second) is int:
                head = kind.encode("utf-8")
                if type(first) is int:
                    return b"(s%d:%bi%d;i%d;)" % (len(head), head, first, second)
                if type(first) is str:
                    data = first.encode("utf-8")
                    return b"(s%d:%bs%d:%bi%d;)" % (
                        len(head), head, len(data), data, second
                    )
        elif size == 2:
            kind, first = entry
            if type(kind) is str and type(first) is int:
                head = kind.encode("utf-8")
                return b"(s%d:%bi%d;)" % (len(head), head, first)
    return _encoded(entry)


def _batch_bytes(envelope: BatchEnvelope) -> bytes:
    """A queue batch: its header fields in one format around its
    entries."""
    name, epoch, credit_id, entries, nbytes = envelope
    if (
        type(name) is str
        and type(epoch) is int
        and type(credit_id) is int
        and type(entries) is tuple
        and type(nbytes) is int
    ):
        head = name.encode("utf-8")
        return b"(s%d:%bi%d;i%d;(%b)i%d;)" % (
            len(head), head, epoch, credit_id,
            b"".join(map(_entry_bytes, entries)), nbytes,
        )
    return b"(%b)" % b"".join(map(_encoded, envelope))


#: Exact class -> its one-format encoder.
_SHAPES = {
    ControlEnvelope: _control_bytes,
    BatchEnvelope: _batch_bytes,
    Page: _page_bytes,
}


def payload_checksum(payload: Any) -> int:
    """CRC32 of the canonical encoding of ``payload``.

    Always a full recomputation from the payload's current contents:
    a receiver that verifies a frame re-encodes what it got, so a value
    changed after the sender stamped it reads as corruption.
    """
    shape = _SHAPES.get(type(payload))
    if shape is not None:
        return zlib.crc32(shape(payload))
    return zlib.crc32(_encoded(payload))


# -- digests of committed state -------------------------------------------------


def empty_page_digest(number: int) -> int:
    """:func:`page_digest` of page ``number`` with no present word."""
    return zlib.crc32(b"P%d[]" % number)


def word_digest(index: int, value: Any) -> int:
    """The term one present word adds to its page's digest: the CRC32
    of its ``i<index>;<value>`` encoding."""
    if type(value) is int:
        return zlib.crc32(b"i%d;i%d;" % (index, value))
    parts = [b"i%d;" % index]
    _encode(value, parts)
    return zlib.crc32(b"".join(parts))


def page_digest(page: Any) -> int:
    """Per-word digest of one page's present ``(index, value)`` words:
    the header's CRC32 plus each word's :func:`word_digest`, mod 2^32."""
    digest = empty_page_digest(page.number)
    for index, value in page.items():
        digest += word_digest(index, value)
    return digest & DIGEST_MASK


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

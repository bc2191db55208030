"""The integrity layer's canonical encoding is a contract: checksums
stamped on frames and digests of pages and address spaces must not move
when the encoder is made faster.

The reference below is the plain recursive ``isinstance`` encoder the
type-dispatched one replaced.  Property tests hold ``_encode``,
``payload_checksum`` and ``space_digest`` to its bytes for every shape
that travels: nested tuples, lists and dicts of every leaf type, the
NamedTuple envelopes, int and str subclasses, and page snapshots with
int and non-int words.  ``page_digest`` is held to a reference written
from its per-word definition over the same encoder.
"""

import zlib
from enum import IntEnum

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.integrity import (
    _encode,
    empty_page_digest,
    page_digest,
    payload_checksum,
    space_digest,
    word_digest,
)
from repro.core.messages import BatchEnvelope, ControlEnvelope, Frame
from repro.memory import AddressSpace, Page
from repro.memory.layout import WORDS_PER_PAGE


def reference_encode(obj, parts):
    if obj is None:
        parts.append(b"n")
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
    elif isinstance(obj, (tuple, list)):
        parts.append(b"(")
        for item in obj:
            reference_encode(item, parts)
        parts.append(b")")
    elif isinstance(obj, dict):
        parts.append(b"{")
        for key in sorted(obj):
            reference_encode(key, parts)
            reference_encode(obj[key], parts)
        parts.append(b"}")
    elif hasattr(obj, "number") and hasattr(obj, "items"):
        parts.append(b"P%d[" % obj.number)
        for index, value in obj.items():
            reference_encode(index, parts)
            reference_encode(value, parts)
        parts.append(b"]")
    else:
        parts.append(b"?" + type(obj).__name__.encode("ascii") + b";")


def reference_bytes(obj) -> bytes:
    parts = []
    reference_encode(obj, parts)
    return b"".join(parts)


def reference_page_digest(page) -> int:
    """The page digest from its definition: the CRC32 of the header
    ``P<number>[]`` plus, for every present word, the CRC32 of the
    reference encoding of its index followed by its value, mod 2**32.

    Collision bound: a change to a page goes unseen only if the changed
    words' CRC differences sum to 0 mod 2**32.  One word whose encoding
    keeps its length and differs within 32 consecutive bits is always
    seen (CRC32 catches every burst up to 32 bits); any other change is
    missed with probability about 2**-32, taking CRC32 values of
    distinct encodings as uniform.
    """
    total = zlib.crc32(b"P%d[]" % page.number)
    for index in range(WORDS_PER_PAGE):
        if page.present_mask >> index & 1:
            total += zlib.crc32(reference_bytes(index) + reference_bytes(page.words[index]))
    return total % 2**32


def reference_space_digest(space) -> int:
    parts = []
    for page in space.iter_pages():
        items = list(page.items())
        if not items:
            continue
        parts.append(b"P%d[" % page.number)
        for index, value in items:
            reference_encode(index, parts)
            reference_encode(value, parts)
        parts.append(b"]")
    return zlib.crc32(b"".join(parts))


class Level(IntEnum):
    LOW = 1
    HIGH = -7


class Tag(str):
    pass


class Opaque:
    """An unknown leaf: encoded by class name only."""


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.floats(),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.binary(max_size=6).map(bytearray),
    st.sampled_from(list(Level)),
    st.text(max_size=8).map(Tag),
    st.just(Opaque()),
)

int_words = st.integers(min_value=-(1 << 40), max_value=1 << 40)
word_values = st.one_of(int_words, leaves)


@st.composite
def pages(draw, values=word_values):
    """A page snapshot: empty (the shared zero array) or written."""
    number = draw(st.integers(min_value=0, max_value=1 << 30))
    words = draw(st.dictionaries(
        st.integers(min_value=0, max_value=WORDS_PER_PAGE - 1), values, max_size=12
    ))
    return Page(number, words).snapshot()


def envelopes(children):
    return st.one_of(
        st.builds(ControlEnvelope, st.text(max_size=12), st.integers(),
                  st.integers(), children),
        st.builds(BatchEnvelope, st.text(max_size=12), st.integers(),
                  st.integers(), st.lists(children, max_size=4).map(tuple),
                  st.integers(min_value=0)),
        st.builds(Frame, st.integers(), st.integers(), st.integers(),
                  children, st.integers(min_value=-1)),
    )


payloads = st.recursive(
    st.one_of(leaves, pages()),
    lambda children: st.one_of(
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        envelopes(children),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_encoder_emits_the_reference_bytes(payload):
    parts = []
    _encode(payload, parts)
    expected = reference_bytes(payload)
    assert b"".join(parts) == expected
    assert payload_checksum(payload) == zlib.crc32(expected)


@settings(max_examples=200, deadline=None)
@given(pages())
def test_page_digest_matches_the_per_word_reference(page):
    assert page_digest(page) == reference_page_digest(page)
    # The terms the commit unit's table sums are the same CRCs.
    terms = sum(word_digest(index, value) for index, value in page.items())
    assert page_digest(page) == (empty_page_digest(page.number) + terms) % 2**32


@settings(max_examples=100, deadline=None)
@given(st.lists(pages(), max_size=6, unique_by=lambda page: page.number))
def test_space_digest_hashes_the_reference_bytes(snapshots):
    space = AddressSpace("digest")
    for page in snapshots:
        space.install_page(page)
    assert space_digest(space) == reference_space_digest(space)


def test_envelopes_and_subclasses_take_the_reference_route():
    # Spot checks of the shapes a run sends most, plus the leaves the
    # type switch must leave to the isinstance chain.
    page = Page(9, {0: 5, 3: "x", 7: 2.5, 511: Level.HIGH}).snapshot()
    for payload in (
        ControlEnvelope("coa_request", 0, 3, (58720256, 0, None)),
        ControlEnvelope("coa_response", 1, 14, (58720256, None, page)),
        BatchEnvelope("fw:6>12", 0, 0, (("DATA", "crc", 318823141), ("END", 6, 0)), 24),
        Frame(1, 2, 3, ControlEnvelope("k", 0, 1, [True, False, Tag("t")]), -1),
        (Level.LOW, Tag("é"), b"\x00", bytearray(b"ab"), 1.0, -0.0, {2: "b", 1: "a"}),
        Page(4).snapshot(),
    ):
        parts = []
        _encode(payload, parts)
        assert b"".join(parts) == reference_bytes(payload)


# The one-format encoders take the envelope classes, the COA payloads and
# the batch entries a run sends, and empty or one-word pages.  Draw those
# shapes directly: with exact ints and strs, which take the one-format
# branches, and with int and str subclasses and bools mixed in at every
# position, which must fall back.
few_word_pages = st.builds(
    lambda number, words: Page(number, words).snapshot(),
    st.integers(min_value=0, max_value=1 << 30),
    st.dictionaries(st.integers(min_value=0, max_value=WORDS_PER_PAGE - 1),
                    st.one_of(int_words, word_values), max_size=2),
)


def hot_shapes(ints, texts):
    coa_payloads = st.one_of(
        st.tuples(ints, ints, st.none()),
        st.tuples(ints, st.none(), few_word_pages),
        st.tuples(ints, ints, word_values),
        word_values,
    )
    entries = st.one_of(
        st.tuples(texts, ints, ints),
        st.tuples(texts, texts, ints),
        st.tuples(texts, ints),
        st.tuples(texts, ints, ints, ints),
        st.tuples(texts, ints, word_values),
        word_values,
    )
    return st.one_of(
        st.builds(ControlEnvelope, texts, ints, ints, coa_payloads),
        st.builds(BatchEnvelope, texts, ints, ints,
                  st.lists(entries, max_size=4).map(tuple), ints),
        few_word_pages,
    )


hot_envelopes = st.one_of(
    hot_shapes(st.integers(), st.text(max_size=8)),
    hot_shapes(
        st.one_of(st.integers(), st.sampled_from(list(Level)), st.booleans()),
        st.one_of(st.text(max_size=8), st.text(max_size=4).map(Tag)),
    ),
)


@settings(max_examples=400, deadline=None)
@given(hot_envelopes)
def test_one_format_encoders_emit_the_reference_bytes(payload):
    parts = []
    _encode(payload, parts)
    expected = reference_bytes(payload)
    assert b"".join(parts) == expected
    assert payload_checksum(payload) == zlib.crc32(expected)

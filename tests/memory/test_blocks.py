"""Batch-access correctness: block APIs vs. a per-word reference model.

The batch primitives (``write_block``/``read_block``/``dirty_words``/
``extract_blocks``/``apply_blocks``/``apply_entries``) must be
indistinguishable from the per-word API they amortize.  The property tests here drive arbitrary
interleavings of both against a plain-dict reference model — including
page-boundary-straddling blocks and recovery (``reprotect_all``) in the
middle — and the negative-address regressions pin the up-front
validation added to ``get_page``/``apply_writes``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnmappedAddressError
from repro.memory import AddressSpace, Page
from repro.memory.layout import WORDS_PER_PAGE

# Keep addresses within a few pages so blocks straddle boundaries often.
_ADDRESSES = st.integers(0, 4 * WORDS_PER_PAGE - 1).map(lambda w: w * 8)
_VALUES = st.one_of(st.integers(-5, 5), st.text(max_size=2), st.floats(
    allow_nan=False, allow_infinity=False, width=16))

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _ADDRESSES, _VALUES),
        st.tuples(st.just("write_block"), _ADDRESSES,
                  st.lists(_VALUES, min_size=1, max_size=100)),
        st.tuples(st.just("reprotect"),),
    ),
    max_size=30,
)


def _apply_reference(model, op):
    """The per-word reference model: a flat {address: value} dict."""
    if op[0] == "write":
        model[op[1]] = op[2]
    elif op[0] == "write_block":
        for offset, value in enumerate(op[2]):
            model[op[1] + 8 * offset] = value
    else:  # reprotect
        model.clear()


def _apply_space(space, op):
    if op[0] == "write":
        space.write(op[1], op[2])
    elif op[0] == "write_block":
        space.write_block(op[1], op[2])
    else:
        space.reprotect_all()


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_interleaved_writes_match_per_word_model(ops):
    """Any interleaving of write_block/per-word write followed by
    dirty-word extraction equals the per-word reference model."""
    space = AddressSpace("prop")
    model = {}
    for op in ops:
        _apply_space(space, op)
        _apply_reference(model, op)
    assert dict(space.dirty_words()) == model
    # Every written word reads back; block reads agree word for word.
    for address, value in model.items():
        assert space.read(address) == value
        assert space.read_block(address, 1) == [value]
    # The dirty counter matches a from-scratch scan.
    assert space.dirty_page_count == sum(
        1 for page in space.pages.values() if page.dirty_mask
    )


@settings(max_examples=100, deadline=None)
@given(ops=_OPS)
def test_extract_blocks_round_trips(ops):
    """extract_blocks() -> apply_blocks() reproduces the word contents
    exactly, and blocks are maximal ascending runs."""
    space = AddressSpace("src")
    model = {}
    for op in ops:
        _apply_space(space, op)
        _apply_reference(model, op)
    blocks = space.extract_blocks()
    # Ascending, non-overlapping runs, maximal within each page (a run
    # crossing a page boundary is split at the boundary — extraction is
    # per-page, like every other page-granular consumer).
    previous_end = None
    flattened = {}
    for address, values in blocks:
        assert values, "empty block emitted"
        if previous_end is not None:
            assert address >= previous_end
            if address == previous_end:
                assert address % 4096 == 0, "adjacent runs not at a page split"
        previous_end = address + 8 * len(values)
        for offset, value in enumerate(values):
            flattened[address + 8 * offset] = value
    assert flattened == model
    target = AddressSpace("dst")
    target.apply_blocks(blocks)
    assert dict(target.dirty_words()) == model


def test_write_block_straddles_page_boundary():
    space = AddressSpace("straddle")
    base = (WORDS_PER_PAGE - 3) * 8  # 3 words on page 0, rest on page 1
    values = list(range(10))
    space.write_block(base, values)
    assert space.read_block(base, 10) == values
    assert space.pages[0].dirty_mask and space.pages[1].dirty_mask
    assert space.dirty_page_count == 2
    assert [v for _a, v in space.dirty_words()] == values


def test_read_block_of_unwritten_words_is_zero_filled():
    space = AddressSpace("zero")
    space.write(16, "x")
    assert space.read_block(0, 4) == [0, 0, "x", 0]


def test_read_block_rejects_bad_lengths_and_misalignment():
    space = AddressSpace("bad")
    with pytest.raises(UnmappedAddressError):
        space.read_block(0, 0)
    with pytest.raises(UnmappedAddressError):
        space.read_block(4, 2)
    with pytest.raises(UnmappedAddressError):
        space.write_block(-8, [1])


# -- negative-address regressions ------------------------------------------------


def test_get_page_rejects_negative_page_numbers():
    space = AddressSpace("neg")
    with pytest.raises(UnmappedAddressError):
        space.get_page(-1)
    # No phantom page materialized.
    assert -1 not in space.pages


def test_faulting_get_page_also_rejects_negative():
    space = AddressSpace("negf", faulting=True)
    with pytest.raises(UnmappedAddressError):
        space.get_page(-2)


def test_apply_writes_rejects_negative_addresses_atomically():
    space = AddressSpace("atomic")
    space.apply_writes([(0, "seed")])
    version_before = space.pages[0].version
    with pytest.raises(UnmappedAddressError):
        space.apply_writes([(8, "a"), (-8, "b"), (16, "c")])
    # Nothing from the rejected batch landed: validation is up-front.
    assert space.read(8) == 0
    assert space.read(16) == 0
    assert space.pages[0].version == version_before
    assert dict(space.dirty_words()) == {0: "seed"}


def test_apply_entries_rejects_negative_addresses_atomically():
    space = AddressSpace("atomic2")
    with pytest.raises(UnmappedAddressError):
        space.apply_entries([("W", 0, "a"), ("W", -16, "b"), ("W", 8, "c")])
    assert not space.pages


# -- apply_entries semantics ------------------------------------------------------


def test_apply_entries_applies_records_last_wins():
    space = AddressSpace("entries")
    words = space.apply_entries([
        ("W", 0, "old"),
        ("W", 0, "a"),
        ("W", 8, "mid"),
        ("W", 16, "c"),
        ("W", 8, "final", 4096),  # a 4th element prices the wire only
        ("W", 4096, "next"),
    ])
    assert words == 6
    assert space.read_block(0, 3) == ["a", "final", "c"]
    assert space.read(4096) == "next"
    # One version bump per touched page, not per entry.
    assert space.pages[0].version == 1
    assert space.pages[1].version == 1


def test_apply_entries_kind_strings_match_runtime_messages():
    # The memory layer cannot import repro.core (layering), so the entry
    # kinds are string literals; this pins them to the runtime constants.
    from repro.core import messages
    from repro.memory import address_space

    assert address_space._ENTRY_WRITE == messages.WRITE


# -- dirty counter and page-order cache -------------------------------------------


def test_dirty_page_count_is_incremental():
    space = AddressSpace("count")
    assert space.dirty_page_count == 0
    space.write(0, 1)
    space.write(8, 2)          # same page: still one dirty page
    assert space.dirty_page_count == 1
    space.write_block(4096, [1, 2])
    assert space.dirty_page_count == 2
    page = Page(9)
    page.write(0, "dirty")
    space.install_page(page)   # installing an already-dirty page counts
    assert space.dirty_page_count == 3
    space.drop_page(9)
    assert space.dirty_page_count == 2
    space.drop_page(0)
    assert space.dirty_page_count == 1
    assert space.reprotect_all() == 1
    assert space.dirty_page_count == 0


def test_page_writes_after_install_update_owner_counter():
    space = AddressSpace("owner")
    page = Page(3)
    space.install_page(page)
    assert space.dirty_page_count == 0
    page.write(0, "x")         # direct Page.write, not via the space
    assert space.dirty_page_count == 1


def test_iter_pages_cache_tracks_installs_and_drops():
    space = AddressSpace("order")
    for number in (5, 1, 9):
        space.get_page(number)
    assert [p.number for p in space.iter_pages()] == [1, 5, 9]
    space.get_page(3)          # materialize invalidates the cached order
    assert [p.number for p in space.iter_pages()] == [1, 3, 5, 9]
    space.drop_page(5)
    assert [p.number for p in space.iter_pages()] == [1, 3, 9]
    space.install_page(Page(2))
    assert [p.number for p in space.iter_pages()] == [1, 2, 3, 9]

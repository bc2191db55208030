"""Batch-access correctness: batch writes vs. a per-word reference model.

The batch primitive (``apply_writes``) must be indistinguishable from
the per-word stores it amortizes.  The property test here drives
arbitrary interleavings of it and per-word writes against a plain-dict
reference model — including batches spanning several pages and
recovery (``reprotect_all``) in the middle — and the negative-address
regressions pin the up-front validation added to
``get_page``/``apply_writes``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnmappedAddressError
from repro.memory import AddressSpace, Page
from repro.memory.layout import PAGE_SHIFT, WORD_SHIFT, WORDS_PER_PAGE

# Keep addresses within a few pages so batches span pages often.
_ADDRESSES = st.integers(0, 4 * WORDS_PER_PAGE - 1).map(lambda w: w * 8)
_VALUES = st.one_of(st.integers(-5, 5), st.text(max_size=2), st.floats(
    allow_nan=False, allow_infinity=False, width=16))
_PAIRS = st.lists(st.tuples(_ADDRESSES, _VALUES), min_size=1, max_size=40)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _ADDRESSES, _VALUES),
        st.tuples(st.just("apply_writes"), _PAIRS),
        st.tuples(st.just("reprotect"),),
    ),
    max_size=30,
)


def _apply_reference(model, op):
    """The per-word reference model: a flat {address: value} dict."""
    if op[0] == "write":
        model[op[1]] = op[2]
    elif op[0] == "reprotect":
        model.clear()
    else:
        for address, value in op[1]:
            model[address] = value


def _apply_space(space, op):
    if op[0] == "write":
        space.write(op[1], op[2])
    elif op[0] == "apply_writes":
        space.apply_writes(op[1])
    else:
        space.reprotect_all()


def dirty_words(space):
    """Every dirty word as ``{address: value}``, from the bitmasks."""
    out = {}
    for page in space.iter_pages():
        for index, value in page.items():
            if page.dirty_mask >> index & 1:
                out[page.number << PAGE_SHIFT | index << WORD_SHIFT] = value
    return out


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_interleaved_writes_match_per_word_model(ops):
    """Any interleaving of batch applies and per-word writes, followed
    by dirty-word extraction, equals the per-word reference model."""
    space = AddressSpace("prop")
    model = {}
    for op in ops:
        _apply_space(space, op)
        _apply_reference(model, op)
    assert dirty_words(space) == model
    # Every written word reads back, and every dirty word is present.
    for address, value in model.items():
        assert space.read(address) == value
    for page in space.pages.values():
        assert page.dirty_mask & ~page.present_mask == 0


def test_read_block_of_unwritten_words_is_zero_filled():
    space = AddressSpace("zero")
    space.write(16, "x")
    assert [space.read(address) for address in range(0, 32, 8)] == [0, 0, "x", 0]


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
    with pytest.raises(UnmappedAddressError):
        space.apply_writes([(8, "a"), (-8, "b"), (16, "c")])
    # Nothing from the rejected batch landed: validation is up-front.
    assert space.read(8) == 0
    assert space.read(16) == 0
    assert dirty_words(space) == {0: "seed"}


# -- apply_writes semantics -------------------------------------------------------


def test_apply_writes_applies_pairs_last_wins():
    space = AddressSpace("pairs")
    words = space.apply_writes([
        (0, "old"),
        (0, "a"),
        (8, "mid"),
        (16, "c"),
        (8, "final"),
        (4096, "next"),
    ])
    assert words == 6
    assert [space.read(address) for address in (0, 8, 16)] == ["a", "final", "c"]
    assert space.read(4096) == "next"


# -- page-order cache --------------------------------------------------------------


def test_iter_pages_cache_tracks_installs_and_drops():
    space = AddressSpace("order")
    for number in (5, 1, 9):
        space.get_page(number)
    assert [p.number for p in space.iter_pages()] == [1, 5, 9]
    space.get_page(3)          # materialize invalidates the cached order
    assert [p.number for p in space.iter_pages()] == [1, 3, 5, 9]
    space.install_page(Page(2))
    assert [p.number for p in space.iter_pages()] == [1, 2, 3, 5, 9]
    space.reprotect_all()      # dropping every page invalidates it too
    space.install_page(Page(7))
    assert [p.number for p in space.iter_pages()] == [7]

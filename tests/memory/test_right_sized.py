"""Right-sized page arrays.

A page's array holds the slots of words ``0..k`` for some ``k`` at
least its highest present word: a store past the end grows it, a read
past the end returns zero.  The contract pinned here:

* under any interleaving of every store path, snapshots, re-installs,
  array adoption (the scrubber's repair) and chaos-style flips of
  present words, a right-sized page and a twin whose arrays stay at the
  full 512 slots agree on every read, on their population, and on every
  integrity digest; and every present word lies inside the array;
* a one-word page holds one slot, and growth doubles up to the full
  page;
* a fixed crc32 run's master holds an exact number of word slots.  Slot
  counts are the same on every host, unlike RSS, so a change that
  re-inflates arrays fails here the way an event-count pin does.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import memory_fingerprint
from repro.core import DSMTXSystem, SystemConfig
from repro.core.integrity import page_digest, payload_checksum, space_digest
from repro.core.messages import CTL_COA_RESPONSE, ControlEnvelope
from repro.memory import PAGE_BYTES, WORDS_PER_PAGE, AddressSpace, Page
from repro.memory.page import ZERO_WORDS
from repro.workloads import Crc32

NUMBER = 3
BASE = NUMBER * PAGE_BYTES
# Slots around the doubling boundaries, so stores grow arrays often.
_INDICES = st.sampled_from([0, 1, 2, 5, 31, 32, 63, 64, 100, 255, 256, 400, 511])
_VALUES = st.one_of(st.integers(-3, 40), st.sampled_from(["a", "b"]))
_HOLDERS = st.integers(0, 7)
_PAIRS = st.lists(st.tuples(_INDICES, _VALUES), min_size=1, max_size=4)
_STORES = ("space.write", "page.write", "install_word", "apply_writes", "write_min")

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("snapshot"), _HOLDERS),
        st.tuples(st.just("install"), _HOLDERS, _HOLDERS),
        st.tuples(st.just("adopt"), _HOLDERS, _HOLDERS, _INDICES, _VALUES),
        st.tuples(st.just("flip"), _HOLDERS, st.integers(0, 511), st.integers(0, 15)),
        st.tuples(st.sampled_from(_STORES), _HOLDERS, _PAIRS),
    ),
    max_size=30,
)


def store(space, page, kind, pairs):
    if kind == "apply_writes":
        space.apply_writes([(BASE + 8 * index, value) for index, value in pairs])
        return
    for index, value in pairs:
        address = BASE + 8 * index
        if kind == "space.write":
            space.write(address, value)
        elif kind == "page.write":
            page.write(index, value)
        elif kind == "install_word":
            page.install_word(index, value)
        elif type(value) is int and value > 0 and type(space.read(address)) is int:
            space.write_min(address, value)


def adopt(page, source, index, value):
    """The scrubber's repair: a candidate built from a snapshot gives
    the page its array and population."""
    candidate = source.snapshot()
    candidate.install_word(index, value)
    page.words = candidate.words
    page.present_mask = candidate.present_mask


class Holders:
    """One page per address space: holder 0 is a master page, every
    other one a snapshot installed in a worker space of its own."""

    def __init__(self, full_width):
        master = AddressSpace("master")
        page = master.get_page(NUMBER)
        if full_width:
            page.words = [0] * WORDS_PER_PAGE
        self.spaces = [master]
        self.pages = [page]

    def apply(self, op, flip_index):
        kind, holder = op[0], op[1] % len(self.pages)
        spaces, pages = self.spaces, self.pages
        if kind == "snapshot":
            space = AddressSpace(f"worker{len(spaces)}", faulting=True)
            space.install_page(pages[holder].snapshot())
            spaces.append(space)
            pages.append(space.pages[NUMBER])
        elif kind == "install":
            # A re-fetch after a rollback: drop every page, install a
            # fresh snapshot of the source holder.
            target = op[2] % len(pages)
            page = pages[holder].snapshot()
            spaces[target].reprotect_all()
            spaces[target].install_page(page)
            pages[target] = page
        elif kind == "adopt":
            adopt(pages[op[2] % len(pages)], pages[holder], op[3], op[4])
        elif kind == "flip":
            if flip_index is not None:
                pages[holder].writable_words(flip_index)[flip_index] ^= 1 << op[3]
        else:
            store(spaces[holder], pages[holder], kind, op[2])


def flip_target(holders, op):
    """The chaos engine's choice: a present integer word, or ``None``."""
    page = holders.pages[op[1] % len(holders.pages)]
    words = [index for index, value in page.items() if type(value) is int]
    return words[op[2] % len(words)] if words else None


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_right_sized_pages_match_full_width_twins(ops):
    sized, full = Holders(full_width=False), Holders(full_width=True)
    for op in ops:
        flip_index = flip_target(sized, op) if op[0] == "flip" else None
        sized.apply(op, flip_index)
        full.apply(op, flip_index)
        for page in sized.pages:
            assert page.present_mask.bit_length() <= len(page.words) <= WORDS_PER_PAGE
    for space, page, twin_space, twin in zip(
        sized.spaces, sized.pages, full.spaces, full.pages
    ):
        assert len(twin.words) == WORDS_PER_PAGE  # the twin stayed full width
        assert space.pages[NUMBER] is page and twin_space.pages[NUMBER] is twin
        assert [page.read(i) for i in range(WORDS_PER_PAGE)] == [
            twin.read(i) for i in range(WORDS_PER_PAGE)
        ]
        assert [space.read(BASE + 8 * i) for i in range(WORDS_PER_PAGE)] == [
            twin_space.read(BASE + 8 * i) for i in range(WORDS_PER_PAGE)
        ]
        assert (page.present_mask, page.dirty_mask) == (twin.present_mask, twin.dirty_mask)
        assert list(page.items()) == list(twin.items())
        assert memory_fingerprint(space) == memory_fingerprint(twin_space)
        assert page_digest(page) == page_digest(twin)
        assert payload_checksum(
            ControlEnvelope(CTL_COA_RESPONSE, 0, 0, (NUMBER, None, page))
        ) == payload_checksum(ControlEnvelope(CTL_COA_RESPONSE, 0, 0, (NUMBER, None, twin)))
        assert space_digest(space) == space_digest(twin_space)


# -- exact memory pins -----------------------------------------------------------


def test_a_one_word_page_holds_one_slot():
    assert len(Page(4, {0: "a"}).words) == 1
    assert len(Page(4, {5: "a", 2: "b"}).words) == 6
    space = AddressSpace("master")
    space.write(BASE, 7)
    page = space.pages[NUMBER]
    assert page.words == [7]
    # A store past the end doubles the array, or grows it to the word.
    space.write(BASE + 8, 8)
    assert len(page.words) == 2
    space.write(BASE + 8 * 2, 9)
    assert len(page.words) == 4
    space.write(BASE + 8 * 100, 10)
    assert len(page.words) == 101
    space.write(BASE + 8 * 150, 11)
    assert len(page.words) == 202
    space.write(BASE + 8 * 300, 12)
    assert len(page.words) == 404
    space.write(BASE + 8 * 450, 13)
    assert len(page.words) == WORDS_PER_PAGE
    assert [space.read(BASE + 8 * i) for i in (0, 1, 2, 100, 150, 300, 450)] == [
        7, 8, 9, 10, 11, 12, 13
    ]
    # A snapshot shares the right-sized array; a read past its end is 0.
    copy = Page(5, {1: "x"}).snapshot()
    assert copy.words == (0, "x") and copy.read(WORDS_PER_PAGE - 1) == 0


def test_crc32_master_holds_an_exact_slot_total():
    """crc32 on 16 cores with two misspeculations: 96 output pages of
    one word each and one 96-word page, which grew to 128 slots.
    Full-width arrays held 97 x 512 = 49,664 slots."""
    workload = Crc32(iterations=96, misspec_iterations={40, 70})
    system = DSMTXSystem(workload.dsmtx_plan(), SystemConfig(total_cores=16))
    stats = system.run().stats
    assert len(stats.recoveries) == 2 and stats.coa_pages_served > 0
    written = [
        page for page in system.commit.master.pages.values()
        if page.words is not ZERO_WORDS
    ]
    assert len(written) == 97
    assert sum(len(page.words) for page in written) == 224

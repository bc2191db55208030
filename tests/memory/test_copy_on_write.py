"""Copy-on-write pages: snapshots share one frozen word array.

``Page.snapshot()`` freezes the source's private list into a tuple once
and hands that tuple to the copy; every store path swaps in a private
list before it writes.  The contract pinned here:

* any interleaving of snapshots, installs and every store path leaves
  each page with exactly the words and masks a per-page model gives it,
  however many pages share an array;
* N snapshots of an unchanged page share one array, and a later commit
  to the source leaves them as they were;
* a store that skips the check raises ``TypeError`` on a shared array;
* in real runs, a silent flip of committed memory or of the standby's
  checkpoint image never reaches a served snapshot, nor the other side
  of the standby's shared seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosEngine, FaultPlan, StateCorruption
from repro.core import DSMTXSystem, SystemConfig
from repro.memory import PAGE_BYTES, WORDS_PER_PAGE, AddressSpace, Page
from repro.workloads import Crc32

NUMBER = 3
BASE = NUMBER * PAGE_BYTES
# A few word slots, so stores through different holders collide often.
_INDICES = st.sampled_from([0, 1, 2, 5, WORDS_PER_PAGE - 1])
_VALUES = st.integers(-3, 40)
_HOLDERS = st.integers(0, 7)
_STORES = (
    "space.write", "page.write", "install_word", "apply_writes",
    "write_min", "flip",
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("snapshot"), _HOLDERS),
        st.tuples(st.just("install"), _HOLDERS, _HOLDERS),
        st.tuples(st.sampled_from(_STORES), _HOLDERS, _INDICES, _VALUES),
    ),
    max_size=40,
)


class Model:
    """One page's expected state: its words and its two masks."""

    def __init__(self, words=None, present=0):
        self.words = dict(words or {})
        self.present = present
        self.dirty = 0

    def copy(self):
        return Model(self.words, self.present)

    def store(self, kind, index, value):
        bit = 1 << index
        if kind == "flip":
            # Non-ECC memory: the word changes, no mask does.
            self.words[index] = self.words.get(index, 0) ^ 1 << (value % 16)
            return
        if kind == "write_min":
            current = self.words.get(index, 0)
            if value <= 0 or not (current == 0 or value < current):
                return
        self.words[index] = value
        self.present |= bit
        if kind != "install_word":
            self.dirty |= bit


def store(space, page, kind, index, value):
    address = BASE + 8 * index
    if kind == "space.write":
        space.write(address, value)
    elif kind == "page.write":
        page.write(index, value)
    elif kind == "install_word":
        page.install_word(index, value)
    elif kind == "apply_writes":
        space.apply_writes([(address, value)])
    elif kind == "write_min":
        if value > 0:
            space.write_min(address, value)
    else:  # flip, as the chaos engine does it
        page.writable_words(index)[index] ^= 1 << (value % 16)


@settings(max_examples=300, deadline=None)
@given(ops=_OPS)
def test_interleaved_snapshots_and_stores_match_a_per_page_model(ops):
    """Holder 0 is a master page; every other holder is a snapshot
    installed in a worker space of its own.  Whatever the order of
    snapshots, re-installs and stores, each holder ends with exactly its
    model's words and masks: no store reaches another page.  Words are
    compared through reads: an array holds only the slots up to at
    least its highest present word."""
    master = AddressSpace("master")
    master.write(BASE + 8, 7)
    spaces = [master]
    pages = [master.get_page(NUMBER)]
    models = [Model({1: 7}, present=1 << 1)]
    models[0].dirty = 1 << 1
    for op in ops:
        kind, holder = op[0], op[1] % len(pages)
        if kind == "snapshot":
            space = AddressSpace(f"worker{len(spaces)}", faulting=True)
            page = pages[holder].snapshot()
            space.install_page(page)
            spaces.append(space)
            pages.append(page)
            models.append(models[holder].copy())
        elif kind == "install":
            # A re-fetch after a rollback: the target drops its pages
            # (recovery's reprotect) and installs a fresh snapshot of
            # the source holder.
            target = op[2] % len(pages)
            page = pages[holder].snapshot()
            spaces[target].reprotect_all()
            spaces[target].install_page(page)
            pages[target] = page
            models[target] = models[holder].copy()
        else:
            store(spaces[holder], pages[holder], kind, op[2], op[3])
            models[holder].store(kind, op[2], op[3])
    for space, page, model in zip(spaces, pages, models):
        assert space.pages[NUMBER] is page
        expected = [model.words.get(index, 0) for index in range(WORDS_PER_PAGE)]
        assert [page.read(index) for index in range(WORDS_PER_PAGE)] == expected
        assert [space.read(BASE + 8 * index) for index in range(WORDS_PER_PAGE)] == expected
        assert page.present_mask == model.present
        assert page.dirty_mask == model.dirty


def test_snapshots_of_an_unchanged_page_share_one_array():
    master = AddressSpace("master")
    master.apply_writes([(BASE + 8 * index, index) for index in range(4)])
    page = master.get_page(NUMBER)
    copies = [page.snapshot() for _ in range(5)]
    copies.append(copies[0].snapshot())
    assert type(page.words) is tuple
    assert all(copy.words is page.words for copy in copies)
    assert all(copy.present_mask == page.present_mask for copy in copies)
    assert not any(copy.dirty_mask for copy in copies)


def test_commit_after_a_snapshot_leaves_the_snapshot_unchanged():
    master = AddressSpace("master")
    master.apply_writes([(BASE, "v1"), (BASE + 8, "kept")])
    served = master.get_page(NUMBER).snapshot()
    before = served.words
    master.apply_writes([(BASE, "v2"), (BASE + 16, "new")])
    assert served.words is before
    assert [served.read(index) for index in range(3)] == ["v1", "kept", 0]
    assert served.present_mask == 0b11
    assert [master.read(BASE + 8 * index) for index in range(3)] == ["v2", "kept", "new"]
    assert type(master.get_page(NUMBER).words) is list


def test_store_that_skips_the_check_raises_on_a_shared_array():
    page = Page(4, {1: "a"})
    copy = page.snapshot()
    for holder in (page, copy):
        with pytest.raises(TypeError):
            holder.words[1] = "b"
        with pytest.raises(TypeError):
            holder.words[0:2] = [1, 2]
    assert page.read(1) == copy.read(1) == "a"


# -- the mechanism in real runs -----------------------------------------------

CONFIG = SystemConfig(
    total_cores=8, placement="spread", fault_tolerance=True,
    commit_replication=True, integrity=True, batch_bytes=64,
)


def build():
    return DSMTXSystem(Crc32(iterations=32).dsmtx_plan(), CONFIG)


@pytest.fixture(scope="module")
def elapsed():
    return build().run().elapsed_seconds


def words_of(pages):
    return {page.number: list(page.words) for page in pages}


@pytest.mark.parametrize("target", ["memory", "checkpoint"])
def test_a_flip_reaches_neither_a_served_snapshot_nor_the_shared_seed(
    target, elapsed
):
    """Just before the flip, snapshot every master page (what a COA
    response carries) and note which standby image pages still share
    the master's array since the seed.  Just after it, the flipped side
    has changed, and the snapshots and the other side have not."""
    at_s = 0.5 * elapsed
    system = build()
    seen = {}

    def before(_event):
        master, image = system.commit.master, system.standby.image
        seen["served"] = [page.snapshot() for page in master.iter_pages()]
        shared = [
            number for number, page in image.pages.items()
            if page.words is master.pages[number].words
        ]
        assert shared, "no seed page still shared at the flip"
        seen["master"] = words_of(master.pages[n] for n in shared)
        seen["image"] = words_of(image.pages[n] for n in shared)
        seen["snapshots"] = words_of(seen["served"])

    def after(_event):
        master, image = system.commit.master, system.standby.image
        flipped, other = (master, image) if target == "memory" else (image, master)
        flipped_key, other_key = (
            ("master", "image") if target == "memory" else ("image", "master"))
        assert words_of(flipped.pages[n] for n in seen[flipped_key]) != seen[flipped_key]
        assert words_of(other.pages[n] for n in seen[other_key]) == seen[other_key]
        assert words_of(seen["served"]) == seen["snapshots"]
        seen["checked"] = True

    # Same instant as the flip: scheduled before the engine attaches,
    # ``before`` runs first; scheduled after it, ``after`` runs next.
    system.env.sleep(at_s).callbacks.append(before)
    plan = FaultPlan(faults=(StateCorruption(target, at_s=at_s, words=10_000),), seed=3)
    engine = ChaosEngine(plan).attach(system.env)
    system.env.sleep(at_s).callbacks.append(after)
    system.run()
    assert engine.state_corruption_log[0][2] > 0
    assert seen.get("checked")

"""Demand-zero pages: every never-written page shares ``ZERO_WORDS``.

A page holds the shared read-only zero array until its first store,
and a snapshot of an unwritten page shares it instead of copying (the
empty case of copy-on-write pages, ``tests/memory/test_copy_on_write.py``).
The contract pinned here:

* every write path swaps in a private list for the pages it writes and
  leaves neighbouring empty pages, and the zero array itself, all zero;
* a store that bypasses the write paths fails loudly (``TypeError``)
  instead of writing into every empty page at once;
* at the end of real runs — COA traffic and misspeculation recovery,
  and a corruption episode repaired by the scrubber — every page with
  no present word in the master, worker, try-commit and standby spaces
  still points at the zero array.
"""

import pytest

from repro.analysis import memory_fingerprint
from repro.chaos import ChaosEngine, FaultPlan, StateCorruption
from repro.core import DSMTXSystem, SystemConfig
from repro.memory import PAGE_BYTES, WORDS_PER_PAGE, AddressSpace, Page
from repro.memory.page import ZERO_WORDS
from repro.workloads import ALL_BENCHMARKS

ZEROS = (0,) * WORDS_PER_PAGE


def assert_shares_zero(page):
    assert page.words is ZERO_WORDS
    assert not page.present_mask


def assert_private(page):
    assert type(page.words) is list
    assert page.words is not ZERO_WORDS


def read_run(space, address, count):
    """``count`` consecutive words from ``address``, by word reads."""
    return [space.read(address + 8 * offset) for offset in range(count)]


def test_fresh_page_and_its_snapshot_share_the_zero_array():
    page = Page(4)
    assert_shares_zero(page)
    assert_shares_zero(page.snapshot())
    assert_shares_zero(Page(4, {}))
    assert_shares_zero(AddressSpace("master").get_page(4))


def test_page_built_with_words_gets_a_private_list():
    page = Page(4, {1: "a"})
    assert_private(page)
    assert page.read(1) == "a"
    # A snapshot freezes that list into a tuple the two pages share
    # (never ZERO_WORDS: the page holds a word).
    copy = page.snapshot()
    assert type(page.words) is tuple and copy.words is page.words
    assert page.words is not ZERO_WORDS
    assert copy.read(1) == "a" and copy.present_mask == page.present_mask
    page.write(2, "b")
    assert_private(page)
    assert copy.read(2) == 0


def test_bad_index_leaves_the_page_shared():
    page = Page(4)
    with pytest.raises(IndexError):
        page.write(WORDS_PER_PAGE, 1)
    with pytest.raises(IndexError):
        page.install_word(-1, 1)
    assert_shares_zero(page)


# Each case writes into page 1 (and page 0 for batches spanning both)
# of a master space where pages 0-2 already exist; page 2 is the empty
# neighbour that must keep sharing the zero array.
WRITE_PATHS = {
    "Page.write": (lambda s: s.get_page(1).write(3, 7), {1}),
    "Page.install_word": (lambda s: s.get_page(1).install_word(3, 7), {1}),
    "AddressSpace.write": (lambda s: s.write(PAGE_BYTES + 24, 7), {1}),
    "write_min": (lambda s: s.write_min(PAGE_BYTES + 24, 7), {1}),
    "apply_writes": (
        lambda s: s.apply_writes([(8, 7), (PAGE_BYTES + 32, 8), (PAGE_BYTES + 40, 9)]),
        {0, 1},
    ),
}


@pytest.mark.parametrize("name", sorted(WRITE_PATHS))
def test_write_path_swaps_in_a_private_list(name):
    write, written = WRITE_PATHS[name]
    space = AddressSpace("master")
    for number in range(3):
        assert_shares_zero(space.get_page(number))
    write(space)
    for number in range(3):
        page = space.get_page(number)
        if number in written:
            assert_private(page)
            assert page.present_mask
        else:
            assert_shares_zero(page)
    assert read_run(space, 2 * PAGE_BYTES, WORDS_PER_PAGE) == [0] * WORDS_PER_PAGE
    assert ZERO_WORDS == ZEROS


def test_write_to_a_coa_copy_leaves_the_master_page_shared():
    master = AddressSpace("master")
    worker = AddressSpace("worker", faulting=True)
    worker.install_page(master.get_page(1).snapshot())
    worker.write(PAGE_BYTES, "speculative")
    assert_private(worker.pages[1])
    assert_shares_zero(master.get_page(1))
    assert master.read(PAGE_BYTES) == 0


def test_stray_store_into_an_unwritten_page_raises():
    page = Page(4)
    with pytest.raises(TypeError):
        page.words[3] = 1
    with pytest.raises(TypeError):
        page.words[0:2] = [1, 2]
    assert ZERO_WORDS == ZEROS


def test_read_block_over_unwritten_pages_returns_a_list_of_zeros():
    space = AddressSpace("master")
    assert read_run(space, PAGE_BYTES - 16, 6) == [0] * 6
    worker = AddressSpace("worker", faulting=True)
    worker.install_page(space.get_page(0).snapshot())
    worker.install_page(space.get_page(1).snapshot())
    assert read_run(worker, PAGE_BYTES - 16, 6) == [0] * 6
    assert_shares_zero(worker.pages[0])
    assert_shares_zero(worker.pages[1])


# -- the mechanism in real runs -----------------------------------------------


def unit_spaces(system):
    spaces = [system.commit.master, system.try_commit.shadow]
    spaces += [worker.space for worker in system.workers]
    if system.standby is not None:
        spaces.append(system.standby.image)
    return spaces


def assert_empty_pages_share_zero(system):
    empty = 0
    for space in unit_spaces(system):
        for page in space.pages.values():
            if not page.present_mask:
                assert page.words is ZERO_WORDS, (space.name, page.number)
                empty += 1
    assert empty  # crc32's read-only input pages arrive empty
    assert ZERO_WORDS == ZEROS


def test_coa_and_recovery_keep_empty_pages_shared():
    workload = ALL_BENCHMARKS["crc32"](iterations=16, misspec_iterations={3})
    system = DSMTXSystem(workload.dsmtx_plan(), SystemConfig(total_cores=8))
    result = system.run()
    assert result.stats.coa_pages_served > 0
    assert result.stats.recoveries
    assert_empty_pages_share_zero(system)


def test_scrub_repair_keeps_empty_pages_shared():
    config = SystemConfig(
        total_cores=8, placement="spread", fault_tolerance=True,
        commit_replication=True, integrity=True,
    )

    def build():
        workload = ALL_BENCHMARKS["crc32"](iterations=16)
        return DSMTXSystem(workload.dsmtx_plan(), config)

    reference = build()
    elapsed = reference.run().elapsed_seconds
    system = build()
    plan = FaultPlan(
        faults=(StateCorruption("memory", at_s=0.5 * elapsed, words=2),), seed=7)
    engine = ChaosEngine(plan).attach(system.env)
    stats = system.run().stats
    assert engine.state_corruption_log
    assert stats.ft_corruptions_repaired >= 1
    assert stats.ft_corruptions_unrepairable == 0
    assert memory_fingerprint(system.commit.master) == memory_fingerprint(
        reference.commit.master)
    assert_empty_pages_share_zero(system)

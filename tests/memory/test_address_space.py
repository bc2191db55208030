"""Unit tests for pages and address spaces."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtectionFault, UnmappedAddressError
from repro.memory import PAGE_BYTES, AddressSpace, Page, page_number


# ---------------------------------------------------------------------------
# Page
# ---------------------------------------------------------------------------


def test_page_default_zero():
    page = Page(0)
    assert page.read(0) == 0
    assert page.read(511) == 0


def test_page_write_read():
    page = Page(0)
    page.write(3, 42)
    assert page.read(3) == 42
    assert page.dirty_mask == 1 << 3


def test_page_index_bounds():
    page = Page(0)
    with pytest.raises(IndexError):
        page.read(512)
    with pytest.raises(IndexError):
        page.write(-1, 0)


def test_page_snapshot_is_independent():
    page = Page(7, {1: "a"})
    copy = page.snapshot()
    assert copy.number == 7
    assert copy.present_mask == page.present_mask
    assert copy.dirty_mask == 0
    copy.write(1, "b")
    assert page.read(1) == "a"


# ---------------------------------------------------------------------------
# AddressSpace: master (non-faulting) mode
# ---------------------------------------------------------------------------


def test_master_space_materializes_pages():
    space = AddressSpace("master")
    assert space.read(0) == 0
    space.write(PAGE_BYTES * 10 + 8, 99)
    assert space.read(PAGE_BYTES * 10 + 8) == 99
    assert space.has_page(10)


def test_unaligned_access_rejected():
    space = AddressSpace("master")
    with pytest.raises(UnmappedAddressError):
        space.read(5)
    with pytest.raises(UnmappedAddressError):
        space.write(12, 0)


def test_apply_writes_last_wins():
    space = AddressSpace("master")
    space.apply_writes([(0, 1), (8, 2), (0, 3), (PAGE_BYTES, 4)])
    assert space.read(0) == 3  # group commit: last update takes effect
    assert space.read(8) == 2
    assert space.read(PAGE_BYTES) == 4


# ---------------------------------------------------------------------------
# AddressSpace: worker (faulting) mode
# ---------------------------------------------------------------------------


def test_faulting_space_read_faults():
    space = AddressSpace("worker", faulting=True)
    with pytest.raises(ProtectionFault) as exc_info:
        space.read(PAGE_BYTES * 2)
    assert exc_info.value.page_number == 2
    assert space.faults_taken == 1


def test_faulting_space_write_faults():
    # Stores also trip the access protection (mprotect faults on write).
    space = AddressSpace("worker", faulting=True)
    with pytest.raises(ProtectionFault):
        space.write(0, 42)


def test_install_page_clears_protection():
    space = AddressSpace("worker", faulting=True)
    space.install_page(Page(0, {1: "committed"}))
    assert space.read(8) == "committed"
    space.write(16, "speculative")
    assert space.read(16) == "speculative"
    assert space.pages_installed == 1


def test_get_page_faults_in_faulting_space():
    space = AddressSpace("worker", faulting=True)
    with pytest.raises(ProtectionFault):
        space.get_page(0)


def test_reprotect_all_discards_everything():
    space = AddressSpace("worker", faulting=True)
    space.install_page(Page(0))
    space.install_page(Page(1))
    assert space.reprotect_all() == 2
    with pytest.raises(ProtectionFault):
        space.read(0)


def test_iter_pages_sorted():
    space = AddressSpace("master")
    space.write(PAGE_BYTES * 5, 1)
    space.write(0, 1)
    space.write(PAGE_BYTES * 2, 1)
    assert [p.number for p in space.iter_pages()] == [0, 2, 5]


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

addresses = st.integers(min_value=0, max_value=2**30).map(lambda a: a * 8)


@given(st.dictionaries(addresses, st.integers(), max_size=40))
def test_write_read_round_trip(mapping):
    space = AddressSpace("master")
    for address, value in mapping.items():
        space.write(address, value)
    for address, value in mapping.items():
        assert space.read(address) == value


@given(st.lists(st.tuples(addresses, st.integers()), max_size=40))
def test_apply_writes_matches_sequential_stores(writes):
    via_apply = AddressSpace("a")
    via_apply.apply_writes(writes)
    sequential = AddressSpace("b")
    for address, value in writes:
        sequential.write(address, value)
    for address, _ in writes:
        assert via_apply.read(address) == sequential.read(address)


@given(st.sets(addresses, max_size=30))
def test_reprotect_restores_fault_on_every_page(touched):
    space = AddressSpace("worker", faulting=True)
    for address in touched:
        space.install_page(Page(page_number(address)))
    space.reprotect_all()
    for address in touched:
        with pytest.raises(ProtectionFault):
            space.read(address)

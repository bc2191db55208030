"""Per-process virtual address spaces.

Every DSMTX unit — worker, try-commit, commit — executes in its own
physical memory (paper section 3.1).  An :class:`AddressSpace` models
one such memory as a page table of flat-array
:class:`~repro.memory.page.Page` objects.

Two protection modes exist:

* ``faulting=False`` — the *master* space of the commit unit: pages
  materialize on demand, reads of untouched words return zero.
* ``faulting=True`` — a worker or try-commit space: every page starts
  access-protected; the first touch raises
  :class:`~repro.errors.ProtectionFault`, which the Copy-On-Access layer
  catches to fetch the committed page from the commit unit.  During
  misspeculation recovery, :meth:`reprotect_all` discards all local
  pages, reinstating the protections (paper section 4.3, step four).

Workload bodies touch memory one word at a time.  Three page-level
batch primitives serve the runtime units: the commit unit applies a
commit group of ``W`` log records with :meth:`apply_entries` (one
version bump per touched page), and a standby seeds its image from the
master with :meth:`extract_blocks` / :meth:`apply_blocks` (runs of
consecutive words, moved as list slices by :meth:`write_block`).
:meth:`read_block` and :meth:`dirty_words` read runs and write-sets
back out of the per-page bitmasks; the tests use them as the reference
model for the batch primitives.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import ProtectionFault, UnmappedAddressError
from repro.memory.layout import (
    PAGE_MASK,
    PAGE_SHIFT,
    WORD_MASK,
    WORD_SHIFT,
    WORDS_PER_PAGE,
    check_word_aligned,
)
from repro.memory.page import ZERO_WORDS, Page
from repro.obs.tracer import CAT_PAGE_FAULT, PID_RUNTIME

__all__ = ["AddressSpace"]

#: The log-entry kind :meth:`AddressSpace.apply_entries` applies.  It
#: mirrors ``repro.core.messages.WRITE`` — the memory layer cannot import
#: the runtime layer, so the contract is pinned by
#: ``tests/memory/test_blocks.py``.
_ENTRY_WRITE = "W"


class AddressSpace:
    """A page-table-backed, word-granular virtual memory."""

    __slots__ = (
        "name",
        "faulting",
        "pages",
        "pages_installed",
        "faults_taken",
        "obs",
        "owner_tid",
        "_dirty_pages",
        "_page_order",
    )

    def __init__(self, name: str, faulting: bool = False) -> None:
        self.name = name
        self.faulting = faulting
        self.pages: Dict[int, Page] = {}
        #: Pages installed via COA since the last reprotect (stats).
        self.pages_installed = 0
        #: Protection faults taken (stats; each one is a COA round trip).
        self.faults_taken = 0
        #: Observability hook: :func:`repro.obs.instrument` attaches the
        #: hub here (plus the owning unit's tid); ``None`` means no-op.
        self.obs = None
        self.owner_tid = -1
        #: Incrementally maintained count of dirty pages (kept by the
        #: write paths and by :meth:`Page.write` via the owner backref).
        self._dirty_pages = 0
        #: Sorted page numbers, invalidated on install/drop/materialize.
        self._page_order: List[int] | None = None

    # -- word access ------------------------------------------------------------

    def read(self, address: int) -> object:
        """Read the word at ``address``.

        In a faulting space, touching an uninstalled page raises
        :class:`ProtectionFault`.
        """
        # Fast path: aligned access to an installed page is one dict
        # lookup and one list index.  A word index derived from an
        # aligned non-negative address is always in range.
        page = self.pages.get(address >> PAGE_SHIFT)
        if page is not None and not address & WORD_MASK and address >= 0:
            return page.words[(address & PAGE_MASK) >> WORD_SHIFT]
        check_word_aligned(address)
        page = self._page_miss(address, address >> PAGE_SHIFT)
        return page.read((address & PAGE_MASK) >> WORD_SHIFT)

    def write(self, address: int, value: object) -> None:
        """Write ``value`` to the word at ``address``.

        Stores also fault on protected pages: the OS access protections
        DSMTX installs trip on any first touch (section 4.2).
        """
        page = self.pages.get(address >> PAGE_SHIFT)
        if page is not None and not address & WORD_MASK and address >= 0:
            index = (address & PAGE_MASK) >> WORD_SHIFT
            array = page.words
            if array is ZERO_WORDS:
                array = page.words = [0] * WORDS_PER_PAGE
            array[index] = value
            if not page.dirty_mask:
                self._dirty_pages += 1
            bit = 1 << index
            page.dirty_mask |= bit
            page.present_mask |= bit
            return
        check_word_aligned(address)
        page = self._page_miss(address, address >> PAGE_SHIFT)
        page.write((address & PAGE_MASK) >> WORD_SHIFT, value)

    def write_min(self, address: int, value: int) -> int:
        """Priority write: keep the *minimum* of ``value`` and the word
        already at ``address``; return the surviving winner.

        The commutative primitive behind deterministic reservations
        (Blelloch et al.): because min is order-independent, any
        interleaving of ``write_min`` calls over a round leaves the same
        winner in every slot, so reservation outcomes cannot depend on
        worker count or message arrival order.  An unwritten word reads
        back 0, which here means *empty* — callers encode priorities as
        positive integers (the reservation table stores ``iteration + 1``).
        """
        if value <= 0:
            raise UnmappedAddressError(
                f"write_min needs a positive priority, got {value!r}"
            )
        current = self.read(address)
        if current == 0 or value < current:
            self.write(address, value)
            return value
        return current

    def _page_miss(self, address: int, page_no: int) -> Page:
        if self.faulting:
            self.faults_taken += 1
            if self.obs is not None:
                self.obs.tracer.instant(
                    CAT_PAGE_FAULT, "protection_fault", PID_RUNTIME,
                    self.owner_tid, page=page_no, space=self.name,
                )
                self.obs.metrics.counter("memory.protection_faults").inc()
            raise ProtectionFault(address, page_no)
        page = Page(page_no)
        page.owner = self
        self.pages[page_no] = page
        self._page_order = None
        return page

    # -- block access ------------------------------------------------------------

    def read_block(self, address: int, count: int) -> list:
        """Read ``count`` consecutive words starting at ``address``.

        The run may straddle page boundaries; each page contributes one
        list-slice copy.  In a faulting space the first uninstalled page
        raises :class:`ProtectionFault` (the caller fetches it and
        retries — reads are idempotent).
        """
        if count <= 0:
            raise UnmappedAddressError(f"block length must be positive, got {count}")
        check_word_aligned(address)
        pages = self.pages
        out: list = []
        while count:
            page_no = address >> PAGE_SHIFT
            page = pages.get(page_no)
            if page is None:
                page = self._page_miss(address, page_no)
            index = (address & PAGE_MASK) >> WORD_SHIFT
            take = WORDS_PER_PAGE - index
            if take > count:
                take = count
            out += page.words[index:index + take]
            count -= take
            address += take << WORD_SHIFT
        return out

    def write_block(self, address: int, values: Sequence) -> None:
        """Write the run of words ``values`` starting at ``address``.

        Slice-assigns per page and updates the bitmasks with one mask OR
        per page.  In a faulting space an uninstalled page raises
        :class:`ProtectionFault` mid-run; the caller fetches the page
        and re-issues the whole block (idempotent: same values).
        """
        check_word_aligned(address)
        count = len(values)
        if count == 0:
            return
        pages = self.pages
        offset = 0
        while offset < count:
            page_no = address >> PAGE_SHIFT
            page = pages.get(page_no)
            if page is None:
                page = self._page_miss(address, page_no)
            index = (address & PAGE_MASK) >> WORD_SHIFT
            take = WORDS_PER_PAGE - index
            if take > count - offset:
                take = count - offset
            page.writable_words()[index:index + take] = values[offset:offset + take]
            if not page.dirty_mask:
                self._dirty_pages += 1
            run_mask = ((1 << take) - 1) << index
            page.dirty_mask |= run_mask
            page.present_mask |= run_mask
            offset += take
            address += take << WORD_SHIFT

    def dirty_words(self) -> List[Tuple[int, object]]:
        """Every dirty word as ``(address, value)``, ascending address.

        This is bitmask-driven write-set extraction: no dictionary diff,
        just bit scans over ``dirty_mask``.
        """
        out: List[Tuple[int, object]] = []
        append = out.append
        for page in self.iter_pages():
            mask = page.dirty_mask
            if not mask:
                continue
            base = page.number << PAGE_SHIFT
            words = page.words
            while mask:
                low = mask & -mask
                index = low.bit_length() - 1
                append((base | (index << WORD_SHIFT), words[index]))
                mask ^= low
        return out

    def extract_blocks(self) -> List[Tuple[int, list]]:
        """Present words as maximal run-length ``(address, values)``
        blocks, ascending address — the batch form of iterating
        ``page.items()`` word by word.  Used to seed replicas (standby
        image bootstrap) without a per-word Python loop.
        """
        blocks: List[Tuple[int, list]] = []
        append = blocks.append
        for page in self.iter_pages():
            mask = page.present_mask
            if not mask:
                continue
            base = page.number << PAGE_SHIFT
            words = page.words
            while mask:
                start = (mask & -mask).bit_length() - 1
                run = mask >> start
                # Length of the run of consecutive set bits from start:
                # position of the lowest zero bit of ``run``.
                length = ((run + 1) & ~run).bit_length() - 1
                append((base | (start << WORD_SHIFT), words[start:start + length]))
                mask &= ~(((1 << length) - 1) << start)
        return blocks

    # -- page management ---------------------------------------------------------

    def has_page(self, page_no: int) -> bool:
        """True if the page is installed (unprotected)."""
        return page_no in self.pages

    def get_page(self, page_no: int) -> Page:
        """Fetch (materializing in a non-faulting space) page ``page_no``.

        Negative page numbers are rejected up front: silently
        materializing a page at a negative address would hide workload
        address-arithmetic bugs behind phantom memory.
        """
        page = self.pages.get(page_no)
        if page is None:
            if page_no < 0:
                raise UnmappedAddressError(
                    f"page number {page_no} is negative; no page below "
                    "address 0 can exist"
                )
            if self.faulting:
                raise ProtectionFault(page_no * 4096, page_no)
            page = Page(page_no)
            page.owner = self
            self.pages[page_no] = page
            self._page_order = None
        return page

    def install_page(self, page: Page) -> None:
        """Install a COA-transferred page copy, clearing its protection."""
        self.pages[page.number] = page
        page.owner = self
        if page.dirty_mask:
            self._dirty_pages += 1
        self._page_order = None
        self.pages_installed += 1
        if self.obs is not None:
            self.obs.metrics.counter("memory.pages_installed").inc()

    def drop_page(self, page_no: int) -> None:
        """Discard one page, reinstating its protection."""
        page = self.pages.pop(page_no, None)
        if page is not None:
            page.owner = None
            if page.dirty_mask:
                self._dirty_pages -= 1
            self._page_order = None

    def reprotect_all(self) -> int:
        """Discard every page (recovery step four).

        Returns the number of pages dropped, which recovery uses to cost
        the protection-reinstatement work.
        """
        dropped = len(self.pages)
        for page in self.pages.values():
            page.owner = None
        self.pages.clear()
        self._dirty_pages = 0
        self._page_order = None
        return dropped

    @property
    def dirty_page_count(self) -> int:
        """Pages modified since installation (speculative state volume).

        O(1): the counter is maintained incrementally by the write
        paths, not recomputed by scanning the page table.
        """
        return self._dirty_pages

    # -- bulk operations -----------------------------------------------------------

    def apply_writes(self, writes: Iterable[Tuple[int, object]]) -> None:
        """Apply an ordered sequence of ``(address, value)`` writes.

        Used by the commit unit's group transaction commit: updates are
        applied in subTX (program) order, so the last update to a
        location wins (paper section 3.1).  Bumps the version of every
        touched page so later COA snapshots are distinguishable.

        Every address is validated *before* anything is applied: a
        negative or misaligned address raises
        :class:`~repro.errors.UnmappedAddressError` with master memory
        untouched, instead of failing after a partial apply.
        """
        if not isinstance(writes, (list, tuple)):
            writes = list(writes)
        for address, _value in writes:
            if address < 0 or address & WORD_MASK:
                check_word_aligned(address)
        pages = self.pages
        touched = set()
        for address, value in writes:
            page_no = address >> PAGE_SHIFT
            page = pages.get(page_no)
            if page is None:
                page = self.get_page(page_no)
            index = (address & PAGE_MASK) >> WORD_SHIFT
            array = page.words
            if array is ZERO_WORDS:
                array = page.words = [0] * WORDS_PER_PAGE
            array[index] = value
            if not page.dirty_mask:
                self._dirty_pages += 1
            bit = 1 << index
            page.dirty_mask |= bit
            page.present_mask |= bit
            touched.add(page_no)
        for page_no in touched:
            pages[page_no].bump_version()

    def apply_blocks(self, blocks: Iterable[Tuple[int, Sequence]]) -> int:
        """Apply ordered ``(address, values)`` run-length blocks.

        The batch analogue of :meth:`apply_writes`: validates every
        block up front, slice-assigns in order (last write wins), bumps
        each touched page once, and returns the number of words applied.
        """
        if not isinstance(blocks, (list, tuple)):
            blocks = list(blocks)
        for address, values in blocks:
            if address < 0 or address & WORD_MASK:
                check_word_aligned(address)
        words = 0
        touched = set()
        for address, values in blocks:
            count = len(values)
            words += count
            first_page = address >> PAGE_SHIFT
            last_page = (address + (count << WORD_SHIFT) - 1) >> PAGE_SHIFT if count else first_page
            touched.update(range(first_page, last_page + 1))
            self.write_block(address, values)
        pages = self.pages
        for page_no in touched:
            pages[page_no].bump_version()
        return words

    def apply_entries(self, entries: Iterable[tuple]) -> int:
        """Apply a commit group of log entries in order.

        Entries are runtime write records ``("W", address, value[,
        nbytes])`` — the kind string mirrors ``repro.core.messages``.
        Validates every entry up front, applies last-wins in entry
        order, bumps each touched page once, and returns the number of
        words applied.
        """
        if not isinstance(entries, (list, tuple)):
            entries = list(entries)
        for entry in entries:
            if entry[0] != _ENTRY_WRITE:  # pragma: no cover - defensive
                raise UnmappedAddressError(
                    f"apply_entries got unexpected entry kind {entry[0]!r}"
                )
            address = entry[1]
            if address < 0 or address & WORD_MASK:
                check_word_aligned(address)
        pages = self.pages
        touched = set()
        for entry in entries:
            address = entry[1]
            page_no = address >> PAGE_SHIFT
            page = pages.get(page_no)
            if page is None:
                page = self.get_page(page_no)
            index = (address & PAGE_MASK) >> WORD_SHIFT
            array = page.words
            if array is ZERO_WORDS:
                array = page.words = [0] * WORDS_PER_PAGE
            array[index] = entry[2]
            if not page.dirty_mask:
                self._dirty_pages += 1
            bit = 1 << index
            page.dirty_mask |= bit
            page.present_mask |= bit
            touched.add(page_no)
        for page_no in touched:
            pages[page_no].bump_version()
        return len(entries)

    def iter_pages(self) -> Iterator[Page]:
        """All installed pages, in page-number order (cached sort)."""
        order = self._page_order
        if order is None:
            order = self._page_order = sorted(self.pages)
        pages = self.pages
        for page_no in order:
            yield pages[page_no]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "faulting" if self.faulting else "master"
        return f"<AddressSpace {self.name!r} ({kind}) {len(self.pages)} pages>"

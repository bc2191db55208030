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

Workload bodies touch memory one word at a time.  One page-level batch
primitive, :meth:`apply_writes`, applies an ordered set of ``(address,
value)`` pairs, last write wins: the commit unit's commit groups, the
standbys' folds and replays and the reservation service's commits.
Pages are copy-on-write and right-sized (:mod:`repro.memory.page`):
:meth:`install_page` takes a :meth:`~repro.memory.page.Page.snapshot`
that shares the committed page's frozen array, every store path here
swaps in a private list before it writes and grows it when the word
lies past its end, and a read past the end returns zero.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import ProtectionFault, UnmappedAddressError
from repro.memory.layout import (
    PAGE_MASK,
    PAGE_SHIFT,
    WORD_MASK,
    WORD_SHIFT,
    check_word_aligned,
)
from repro.memory.page import Page
from repro.obs.tracer import CAT_PAGE_FAULT, PID_RUNTIME

__all__ = ["AddressSpace"]


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
        # aligned non-negative address is always in the page; past the
        # end of its right-sized array lies a word never written.
        page = self.pages.get(address >> PAGE_SHIFT)
        if page is not None and not address & WORD_MASK and address >= 0:
            try:
                return page.words[(address & PAGE_MASK) >> WORD_SHIFT]
            except IndexError:
                return 0
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
            if type(array) is tuple:
                array = page.writable_words(index)
            try:
                array[index] = value
            except IndexError:
                page.writable_words(index)[index] = value
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
        self.pages[page_no] = page
        self._page_order = None
        return page

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
            self.pages[page_no] = page
            self._page_order = None
        return page

    def install_page(self, page: Page) -> None:
        """Install a page copy (a COA transfer or a standby seed page),
        clearing its protection."""
        self.pages[page.number] = page
        self._page_order = None
        self.pages_installed += 1
        if self.obs is not None:
            self.obs.metrics.counter("memory.pages_installed").inc()

    def reprotect_all(self) -> int:
        """Discard every page (recovery step four).

        Returns the number of pages dropped, which recovery uses to cost
        the protection-reinstatement work.
        """
        dropped = len(self.pages)
        self.pages.clear()
        self._page_order = None
        return dropped

    # -- bulk operations -----------------------------------------------------------

    def apply_writes(self, writes: Iterable[Tuple[int, object]]) -> int:
        """Apply an ordered sequence of ``(address, value)`` writes and
        return how many were applied.

        The one batch store: the commit unit's commit groups, the
        standbys' checkpoint folds and promotion replays, and the
        reservation service's commits.  Updates are applied in program
        order, so the last update to a location wins (paper section
        3.1).

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
        for address, value in writes:
            page_no = address >> PAGE_SHIFT
            page = pages.get(page_no)
            if page is None:
                page = self.get_page(page_no)
            index = (address & PAGE_MASK) >> WORD_SHIFT
            array = page.words
            if type(array) is tuple:
                array = page.writable_words(index)
            try:
                array[index] = value
            except IndexError:
                page.writable_words(index)[index] = value
            bit = 1 << index
            page.dirty_mask |= bit
            page.present_mask |= bit
        return len(writes)

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

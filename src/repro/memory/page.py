"""Memory pages.

A :class:`Page` stores its words in a fixed-size flat array (one slot
per word) plus two word-granular bitmasks:

* ``present_mask`` — words explicitly written or installed.  This is
  the page's *population*: :meth:`items` iterates it, and the
  word-granularity COA ablation uses it for per-word presence checks.
* ``dirty_mask`` — words written since the page entered its current
  address space.  Write-set extraction
  (:meth:`~repro.memory.address_space.AddressSpace.dirty_words`) reads
  it directly instead of diffing dictionaries.

Pages are demand-zero.  Every page that was never written shares one
read-only array, :data:`ZERO_WORDS`, the way an OS backs untouched
memory with its shared zero page; a page gets a private list only on
its first write, and :meth:`Page.snapshot` of an unwritten page shares
the zero array instead of copying it.  Read-only inputs touched once
(crc32's files: most pages a COA run materializes in the master and
ships to a worker) therefore cost no word storage at all.  Every store
into ``words`` first swaps in a private list with one ``words is
ZERO_WORDS`` check (:meth:`Page.writable_words`, or inlined on the hot
paths of :class:`~repro.memory.address_space.AddressSpace`).  The zero
array is a tuple, so a store that skips the check raises ``TypeError``
instead of writing into every empty page at once.

Word values stay boxed Python objects (workloads store ints, floats and
strings), so a private array is a plain list — a contiguous C array of
object pointers — rather than ``array('q')``/numpy, which would coerce
values and change committed results.  The flat layout is what makes
block reads/writes single slice operations.

Pages carry a monotonically increasing ``version`` so Copy-On-Access
snapshots can be identified (Figure 3(b) shows workers holding different
versions of the same page), and a ``dirty`` flag (derived from
``dirty_mask``) so recovery can count the pages whose protection must be
reinstated.  ``owner`` backrefs the :class:`AddressSpace` the page is
installed in, letting the space keep an O(1) dirty-page counter.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.memory.layout import WORDS_PER_PAGE

__all__ = ["Page", "ZERO_WORDS"]

#: The word array shared by every never-written page.  Read-only: a
#: page swaps in a private list before its first store.
ZERO_WORDS: tuple = (0,) * WORDS_PER_PAGE


class Page:
    """One 4 KiB page of word-granular values."""

    __slots__ = ("number", "words", "version", "present_mask", "dirty_mask", "owner")

    def __init__(self, number: int, words: Dict[int, object] | None = None, version: int = 0) -> None:
        self.number = number
        #: Flat word array, one slot per word (zero = never written);
        #: :data:`ZERO_WORDS` until the first store.
        self.words: list | tuple = ZERO_WORDS
        self.version = version
        self.present_mask = 0
        self.dirty_mask = 0
        #: AddressSpace this page is installed in (dirty accounting).
        self.owner = None
        if words:
            array = self.words = [0] * WORDS_PER_PAGE
            mask = 0
            for index, value in words.items():
                self._check_index(index)
                array[index] = value
                mask |= 1 << index
            self.present_mask = mask

    @property
    def dirty(self) -> bool:
        """True if any word was written since installation."""
        return self.dirty_mask != 0

    def writable_words(self) -> list:
        """The page's private word list, swapped in for the shared zero
        array on first use."""
        words = self.words
        if words is ZERO_WORDS:
            words = self.words = [0] * WORDS_PER_PAGE
        return words

    def read(self, index: int) -> object:
        """Value of word ``index`` (zero if never written)."""
        self._check_index(index)
        return self.words[index]

    def write(self, index: int, value: object) -> None:
        """Set word ``index`` to ``value``; marks the word dirty."""
        self._check_index(index)
        self.writable_words()[index] = value
        if not self.dirty_mask and self.owner is not None:
            self.owner._dirty_pages += 1
        bit = 1 << index
        self.dirty_mask |= bit
        self.present_mask |= bit

    def install_word(self, index: int, value: object) -> None:
        """Set word ``index`` without dirtying it (a committed copy
        pulled in by the word-granularity COA ablation)."""
        self._check_index(index)
        self.writable_words()[index] = value
        self.present_mask |= 1 << index

    def snapshot(self) -> "Page":
        """An independent copy at the same version (a COA transfer).

        An unwritten page's copy shares :data:`ZERO_WORDS`."""
        copy = Page.__new__(Page)
        copy.number = self.number
        words = self.words
        copy.words = words if words is ZERO_WORDS else words[:]
        copy.version = self.version
        copy.present_mask = self.present_mask
        copy.dirty_mask = 0
        copy.owner = None
        return copy

    def bump_version(self) -> None:
        """Advance the version (called when committed state changes)."""
        self.version += 1

    def items(self) -> Iterator[Tuple[int, object]]:
        """Iterate over (word index, value) pairs actually present, in
        ascending index order."""
        mask = self.present_mask
        words = self.words
        while mask:
            low = mask & -mask
            index = low.bit_length() - 1
            yield index, words[index]
            mask ^= low

    @property
    def word_count(self) -> int:
        """Number of words actually present."""
        return self.present_mask.bit_count()

    @staticmethod
    def _check_index(index: int) -> None:
        if not 0 <= index < WORDS_PER_PAGE:
            raise IndexError(f"word index {index} outside [0, {WORDS_PER_PAGE})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Page {self.number} v{self.version} {self.word_count} words>"

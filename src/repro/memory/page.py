"""Memory pages.

A :class:`Page` stores its words in a flat array (one slot per word)
plus two word-granular bitmasks:

* ``present_mask`` — words explicitly written or installed.  This is
  the page's *population*: :meth:`items` iterates it, and the
  word-granularity COA ablation uses it for per-word presence checks.
* ``dirty_mask`` — words written since the page entered its current
  address space: a worker's speculative stores, which the chaos
  engine's speculative-corruption fault leaves alone.  Recovery does
  not read it: reinstating protection is priced per page dropped
  (:meth:`~repro.memory.address_space.AddressSpace.reprotect_all`
  returns ``len(pages)``).

Pages are copy-on-write.  A page whose ``words`` is a tuple shares that
array and never writes into it; a page whose ``words`` is a list owns
it.  :meth:`Page.snapshot` (a Copy-On-Access transfer, a standby's seed
page) freezes the source's private list into a tuple once and hands the
same tuple to the copy, so N workers holding one committed page version
(Figure 3(b)) hold one array between them.  Every store into ``words``
first swaps in a private list (:meth:`Page.writable_words`, behind one
inlined ``type(words) is tuple`` check on the hot paths of
:class:`~repro.memory.address_space.AddressSpace`), so a write to the
master, to a worker's copy or to a standby image never reaches another
holder of the array.  A store that skips the check raises ``TypeError``
instead of writing into every sharer at once.

Every page that was never written shares one read-only full-width
array, :data:`ZERO_WORDS`, the way an OS backs untouched memory with its
shared zero page.  Read-only inputs touched once (crc32's files: most
pages a COA run materializes in the master and ships to a worker)
therefore cost no word storage at all, read without ever running past
the end, and the scrubber answers a ``ZERO_WORDS`` page in O(1).

Arrays are right-sized.  A page's array holds the slots of words
``0..k`` for some ``k`` at least the index of its highest present word
(and at most ``WORDS_PER_PAGE - 1``), so a page with one written word
costs one slot, not 512.  The first store into an unwritten page
allocates ``index + 1`` slots; a later store past the end grows the
page's private list in place, at least doubling it, up to the full
page (:meth:`Page.writable_words`).  Every present word therefore lies inside
the array: :meth:`Page.items`, the integrity encoders and the chaos
engine's flips, which touch present words only, index it directly.  A
read past the end is a word never written and returns zero.  A snapshot
freezes the array at its length, so COA responses and standby seeds
share the right-sized tuple.

Word values stay boxed Python objects (workloads store ints, floats and
strings), so a private array is a plain list — a contiguous C array of
object pointers — rather than ``array('q')``/numpy, which would coerce
values and change committed results.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.memory.layout import WORDS_PER_PAGE

__all__ = ["Page", "ZERO_WORDS"]

#: The word array shared by every never-written page: full width, so
#: reads of it never run past the end.  Read-only, like every tuple a
#: page holds: a page swaps in a private list before its first store.
ZERO_WORDS: tuple = (0,) * WORDS_PER_PAGE


class Page:
    """One 4 KiB page of word-granular values."""

    __slots__ = ("number", "words", "present_mask", "dirty_mask")

    def __init__(self, number: int, words: Dict[int, object] | None = None) -> None:
        self.number = number
        #: Flat word array, one slot per word up to at least the highest
        #: present one (zero = never written): a shared tuple
        #: (:data:`ZERO_WORDS` until the first store) or a private list.
        self.words: list | tuple = ZERO_WORDS
        self.present_mask = 0
        self.dirty_mask = 0
        if words:
            mask = 0
            for index in words:
                self._check_index(index)
                mask |= 1 << index
            array = self.words = [0] * mask.bit_length()
            for index, value in words.items():
                array[index] = value
            self.present_mask = mask

    def writable_words(self, index: int) -> list:
        """The page's private word list, with a slot for word ``index``.

        A shared array is swapped for a private list first: the zero
        page for ``index + 1`` zero slots, a frozen tuple for a list copy
        of it.  A list too short for ``index`` grows in place to ``index
        + 1`` slots or double its length, whichever is more, up to the
        full page."""
        words = self.words
        if type(words) is tuple:
            words = self.words = (
                [0] * (index + 1) if words is ZERO_WORDS else list(words)
            )
        size = len(words)
        if index >= size:
            words.extend([0] * (min(WORDS_PER_PAGE, max(index + 1, 2 * size)) - size))
        return words

    def read(self, index: int) -> object:
        """Value of word ``index`` (zero if never written)."""
        self._check_index(index)
        try:
            return self.words[index]
        except IndexError:  # past the end of the array: never written
            return 0

    def write(self, index: int, value: object) -> None:
        """Set word ``index`` to ``value``; marks the word dirty."""
        self._check_index(index)
        self.writable_words(index)[index] = value
        bit = 1 << index
        self.dirty_mask |= bit
        self.present_mask |= bit

    def install_word(self, index: int, value: object) -> None:
        """Set word ``index`` without dirtying it (a committed copy
        pulled in by the word-granularity COA ablation)."""
        self._check_index(index)
        self.writable_words(index)[index] = value
        self.present_mask |= 1 << index

    def snapshot(self) -> "Page":
        """A clean copy with the same words and present words (a COA
        transfer), sharing this page's array.

        A private list is frozen into a tuple of the same length first,
        once; each sharer copies the tuple back into a list of its own
        when it is first written."""
        words = self.words
        if type(words) is not tuple:
            words = self.words = tuple(words)
        copy = Page.__new__(Page)
        copy.number = self.number
        copy.words = words
        copy.present_mask = self.present_mask
        copy.dirty_mask = 0
        return copy

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
        return f"<Page {self.number} {self.word_count} words>"

"""Data memory image shared by the functional executor and the PFM fabric.

Memory is doubleword (8-byte) granular and lazily materialized: a named
region is just a reserved address range, and untouched words read as zero.
This keeps multi-megabyte benchmark arrays cheap — only words actually
written occupy storage — while still giving every access a real address
that the cache hierarchy maps to a 64-byte line.

The same image is read by Load-Agent-injected loads from custom components
(see :mod:`repro.pfm.load_agent`), which is how a component's run-ahead
loads observe the program's data structures exactly as the paper describes.

The architectural digest (:mod:`repro.core.archstate`) folds the final
image in as ``"{addr}={value!r}\\n"`` lines in address order.  Rendering
every materialized word on every run would dominate a short run's
out-of-loop cost, yet a run writes only a small part of its image.  So a
built image can be *snapshotted*: :meth:`MemoryImage.snapshot` attaches
an :class:`ImageRendering` of the pristine contents (shared by every
build of the same workload, see :func:`repro.workloads.tracecache.annotate`)
and from then on records each stored address in a write set.
:meth:`MemoryImage.rendered` splices the two: blocks holding no written
address come from the pristine rendering, the rest are re-rendered from
the live words.  Before the snapshot nothing is recorded, so building an
image pays no write-set cost.
"""

from __future__ import annotations

import re
import zlib
from array import array
from bisect import bisect_right
from typing import Iterator

WORD_BYTES = 8

#: Words per rendering block: the unit that is re-rendered when a run
#: writes into it.
BLOCK_WORDS = 256

_LINE = "%s=%r\n"
_ADDR = re.compile(rb"^(\d+)=", re.M)


def _render(words: dict, addrs: list[int]) -> bytes:
    """``"{addr}={value!r}\\n"`` lines of *addrs* (sorted) in one pass."""
    flat: list = [None] * (2 * len(addrs))
    flat[::2] = addrs
    flat[1::2] = map(words.__getitem__, addrs)
    return ((_LINE * len(addrs)) % tuple(flat)).encode()


class ImageRendering:
    """Rendered lines of a pristine image, in compressed blocks.

    ``blocks[k]`` holds the zlib-compressed lines of up to
    :data:`BLOCK_WORDS` words in address order; ``starts[k]`` is the
    address of its first word.  Block *k* owns every address from
    ``starts[k]`` up to ``starts[k + 1]``, so a word written later into a
    gap between pristine words still falls in exactly one block.
    """

    __slots__ = ("starts", "blocks", "nwords")

    def __init__(self, words: dict) -> None:
        addrs = sorted(words)
        self.nwords = len(addrs)
        self.starts = array("q", addrs[::BLOCK_WORDS])
        self.blocks = [
            zlib.compress(_render(words, addrs[i:i + BLOCK_WORDS]), 1)
            for i in range(0, len(addrs), BLOCK_WORDS)
        ]


class MemoryImage:
    """Lazily-materialized doubleword-addressable memory.

    Addresses are byte addresses and must be 8-byte aligned.  Regions are
    allocated from a bump pointer; region base addresses stand in for the
    program's heap/static layout.
    """

    def __init__(self, base: int = 0x1000_0000):
        self._words: dict[int, float] = {}
        self._bump = base
        self._regions: dict[str, tuple[int, int]] = {}
        #: Pristine rendering and the addresses stored since it was taken;
        #: both None until :meth:`snapshot`.
        self.rendering: ImageRendering | None = None
        self._written: set[int] | None = None

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #

    def allocate(self, name: str, nwords: int, align: int = 64) -> int:
        """Reserve *nwords* doublewords under *name*; return the base address."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        if nwords <= 0:
            raise ValueError("region must have at least one word")
        base = (self._bump + align - 1) // align * align
        self._bump = base + nwords * WORD_BYTES
        self._regions[name] = (base, nwords)
        return base

    def base(self, name: str) -> int:
        return self._regions[name][0]

    def size_words(self, name: str) -> int:
        return self._regions[name][1]

    def regions(self) -> dict[str, tuple[int, int]]:
        return dict(self._regions)

    def contains(self, name: str, addr: int) -> bool:
        base, nwords = self._regions[name]
        return base <= addr < base + nwords * WORD_BYTES

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    def load(self, addr: int) -> float:
        """Read the doubleword at *addr* (0 if never written)."""
        if addr % WORD_BYTES:
            raise ValueError(f"misaligned load address {addr:#x}")
        return self._words.get(addr, 0)

    def store(self, addr: int, value: float) -> None:
        """Write *value* to the doubleword at *addr*."""
        if addr % WORD_BYTES:
            raise ValueError(f"misaligned store address {addr:#x}")
        self._words[addr] = value
        written = self._written
        if written is not None:
            written.add(addr)

    def load_index(self, name: str, index: int) -> float:
        """Read element *index* of region *name*."""
        return self.load(self.base(name) + index * WORD_BYTES)

    def store_index(self, name: str, index: int, value: float) -> None:
        """Write element *index* of region *name*."""
        self.store(self.base(name) + index * WORD_BYTES, value)

    def store_array(self, name: str, values) -> int:
        """Allocate (if needed) and fill region *name* with *values*."""
        values = list(values)
        if name not in self._regions:
            self.allocate(name, max(1, len(values)))
        base = self.base(name)
        addrs = range(base, base + len(values) * WORD_BYTES, WORD_BYTES)
        self._words.update(zip(addrs, values))
        if self._written is not None:
            self._written.update(addrs)
        return base

    def touched_words(self) -> int:
        """Number of words actually materialized (for tests/diagnostics)."""
        return len(self._words)

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def snapshot(self, rendering: ImageRendering | None = None) -> ImageRendering:
        """Mark the current contents pristine and start recording writes.

        *rendering* must render exactly the current contents (a rendering
        of an identical earlier build); None renders them now.  Returns
        the rendering in use.
        """
        if rendering is None:
            rendering = ImageRendering(self._words)
        self.rendering = rendering
        self._written = set()
        return rendering

    def rendered(self) -> Iterator[bytes]:
        """All materialized words as ``"{addr}={value!r}\\n"`` lines.

        Yields non-empty chunks whose concatenation is the lines of every
        word in address order.  Without a snapshot that is one full pass
        over the image.  After one, blocks without a written address are
        the pristine rendering's bytes and every other block is rendered
        again from the live words, so each written word is read from the
        live image.
        """
        words = self._words
        rendering = self.rendering
        if rendering is None:
            addrs = sorted(words)
            for i in range(0, len(addrs), BLOCK_WORDS):
                yield _render(words, addrs[i:i + BLOCK_WORDS])
            return
        starts = rendering.starts
        dirty: dict[int, list[int]] = {}
        for addr in self._written:
            dirty.setdefault(bisect_right(starts, addr) - 1, []).append(addr)
        head = dirty.pop(-1, None)
        if head:
            yield _render(words, sorted(head))
        for k, block in enumerate(rendering.blocks):
            lines = zlib.decompress(block)
            written = dirty.get(k)
            if written is not None:
                addrs = set(map(int, _ADDR.findall(lines)))
                addrs.update(written)
                lines = _render(words, sorted(addrs))
            yield lines

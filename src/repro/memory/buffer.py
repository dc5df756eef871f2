"""Multi-buffering for Data Blocks.

Every Data Block "has a multi-buffering to store the data" (§III-B3):
kernels read step *n-1* data from the **read buffer** while writing
step *n* results into the **write buffer**; a successful ``refresh``
swaps the two.  Each buffer is a collection of pages, each backed by a
chunk from a memory pool (possibly different pools, see
:class:`repro.memory.pool.PoolGroup`) — or, the buffers of a Data Block
an Env owns, *homed*: generation ``g`` is the Block's rows of slab ``g``
of the Env's dense image (:class:`~repro.memory.env.DenseImage`), whose
swap — once for all of its Blocks — says which generation is read.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from .errors import BlockError
from .page import Page
from .pool import PoolGroup

__all__ = ["BlockBuffer", "MultiBuffer"]


class BlockBuffer:
    """One buffer generation of a Data Block: a list of pages."""

    def __init__(
        self,
        element_count: int,
        page_elements: int,
        components: int,
        dtype,
        allocator: Optional[PoolGroup] = None,
    ) -> None:
        if element_count <= 0:
            raise BlockError("buffer must hold a positive number of elements")
        if page_elements <= 0:
            raise BlockError("page size must be positive")
        self.element_count = int(element_count)
        self.page_elements = int(page_elements)
        self.components = int(components)
        self.dtype = np.dtype(dtype)
        self.pages: List[Page] = []
        # Page ``i`` holds the elements from ``i * page_elements`` on, the
        # last one only those left: consecutive Blocks' rows follow each other.
        for index, start in enumerate(range(0, self.element_count, self.page_elements)):
            live = min(self.page_elements, self.element_count - start)
            self.pages.append(Page(index, live, self.components, self.dtype, allocator))
        self._runs: Optional[List[np.ndarray]] = None

    # ------------------------------------------------------------------
    @property
    def page_count(self) -> int:
        return len(self.pages)

    @property
    def nbytes(self) -> int:
        return sum(page.nbytes for page in self.pages)

    def locate(self, element_index: int) -> tuple:
        """Return ``(page, slot)`` for a linear element index."""
        if element_index < 0 or element_index >= self.element_count:
            raise BlockError(
                f"element index {element_index} outside buffer of {self.element_count}"
            )
        return (
            self.pages[element_index // self.page_elements],
            element_index % self.page_elements,
        )

    def read(self, element_index: int) -> np.ndarray:
        page, slot = self.locate(element_index)
        return page.read(slot)

    def write(self, element_index: int, value) -> None:
        page, slot = self.locate(element_index)
        page.write(slot, value)

    def page_of(self, element_index: int) -> int:
        """Return the page index containing ``element_index``."""
        return self.locate(element_index)[0].index

    def runs(self) -> List[np.ndarray]:
        """The buffer's elements as maximal contiguous views, in order,
        cached: a homed buffer's one run of image rows; else pages whose
        chunks are byte-adjacent in one arena (allocated back to back)
        merge, so bulk copies pay one slice assignment per *run*, not per
        page.  Alignment padding, a spill into another pool or a
        fragmented free list ends a run."""
        runs = self._runs
        if runs is None:
            spans: List[list] = []  # [pool, first byte, end byte]
            for page in self.pages:
                chunk = page.chunk
                if chunk is None:  # made without an allocator, not homed yet
                    return []
                live = page.elements * self.components * self.dtype.itemsize
                if spans and spans[-1][0] is chunk.pool and spans[-1][2] == chunk.offset:
                    spans[-1][2] += live
                else:
                    spans.append([chunk.pool, chunk.offset, chunk.offset + live])
            runs = self._runs = [
                pool._backing[lo:hi].view(self.dtype).reshape(-1, self.components)
                for pool, lo, hi in spans
            ]
        return runs

    def dense(self) -> np.ndarray:
        """The buffer as a fresh contiguous ``(element_count, components)`` array."""
        out = np.empty((self.element_count, self.components), dtype=self.dtype)
        start = 0
        for run in self.runs():
            stop = start + run.shape[0]
            out[start:stop] = run
            start = stop
        return out

    def load_dense(self, data: np.ndarray) -> None:
        """Scatter a contiguous array back into the pages."""
        data = np.asarray(data, dtype=self.dtype).reshape(self.element_count, self.components)
        start = 0
        for run in self.runs():
            stop = start + run.shape[0]
            run[...] = data[start:stop]
            start = stop

    def rehome(self, rows: np.ndarray) -> None:
        """Move the pages into ``rows`` (``(element_count, components)``
        of a dense-image slab); the caller moves the contents."""
        for page in self.pages:
            start = page.index * self.page_elements
            page.rehome(rows[start : start + page.elements])
        self._runs = [rows]

    def set_valid(self, valid: bool) -> None:
        for page in self.pages:
            page.valid = valid

    def release(self) -> None:
        for page in self.pages:
            page.release()
        self.pages.clear()
        self._runs = None

    def __iter__(self) -> Iterator[Page]:
        return iter(self.pages)


class MultiBuffer:
    """Read/write buffer pair (double buffering by default).

    ``depth`` larger than 2 is supported for pipelined schemes (the
    paper only needs 2); the ``home`` image's swap rotates which
    generation is the read buffer (generation 0 while not homed).
    """

    def __init__(
        self,
        element_count: int,
        page_elements: int,
        components: int,
        dtype,
        allocator: Optional[PoolGroup] = None,
        depth: int = 2,
    ) -> None:
        if depth < 1:
            raise BlockError("MultiBuffer depth must be >= 1")
        self.depth = depth
        self.buffers: List[BlockBuffer] = [
            BlockBuffer(element_count, page_elements, components, dtype, allocator)
            for _ in range(depth)
        ]
        #: The :class:`~repro.memory.env.DenseImage` whose slab rows the
        #: generations are; None until an Env homes the buffer.
        self.home = None

    # ------------------------------------------------------------------
    @property
    def read_index(self) -> int:
        """Which of :attr:`buffers` is the read buffer."""
        return 0 if self.home is None else self.home.generation % self.depth

    @property
    def content_generation(self) -> int:
        """How often the home image swapped (0 while not homed)."""
        return 0 if self.home is None else self.home.generation

    @property
    def read_buffer(self) -> BlockBuffer:
        return self.buffers[self.read_index]

    @property
    def write_buffer(self) -> BlockBuffer:
        return self.buffers[(self.read_index + 1) % self.depth]

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self.buffers)

    def vacate(self) -> List[np.ndarray]:
        """Copies of the generations, the read buffer's first (none if made
        without an allocator); the pages' own chunks go back to their pools."""
        if self.buffers[0].pages[0].array is None:
            return []
        saved = [
            self.buffers[(self.read_index + ahead) % self.depth].dense()
            for ahead in range(self.depth)
        ]
        for buf in self.buffers:
            for page in buf.pages:
                page.release()
        return saved

    def rehome(self, rows: List[np.ndarray], image) -> None:
        """Move generation ``g`` into ``rows[g]``, rows of a slab of
        ``image``, and read the generation ``image`` reads from now on."""
        for buf, generation in zip(self.buffers, rows):
            buf.rehome(generation)
        self.home = image

    def release(self) -> None:
        for buf in self.buffers:
            buf.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiBuffer(depth={self.depth}, read={self.read_index}, "
            f"generation={self.content_generation})"
        )

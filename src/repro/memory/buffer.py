"""Multi-buffering for Data Blocks.

Every Data Block "has a multi-buffering to store the data" (§III-B3):
kernels read step *n-1* data from the **read buffer** while writing
step *n* results into the **write buffer**; a successful ``refresh``
swaps the two.  Each buffer is a collection of pages, each page backed
by a chunk from a memory pool (possibly different pools, see
:class:`repro.memory.pool.PoolGroup`).
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
        allocator: PoolGroup,
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
        self._runs: Optional[List[np.ndarray]] = None
        remaining = self.element_count
        index = 0
        while remaining > 0:
            in_page = min(self.page_elements, remaining)
            # Pages are uniformly sized (page_elements) so page index maps
            # directly to element ranges; the final partial page still
            # reserves a full page worth of elements, mirroring the fixed
            # page granularity of the C++ prototype.
            page = Page(index, self.page_elements, self.components, self.dtype, allocator)
            if in_page < self.page_elements:
                page.array[in_page:, :] = 0
            self.pages.append(page)
            remaining -= in_page
            index += 1

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
        if element_index < 0 or element_index >= self.element_count:
            raise BlockError(
                f"element index {element_index} outside buffer of {self.element_count}"
            )
        return element_index // self.page_elements

    def runs(self) -> List[np.ndarray]:
        """The buffer's elements as maximal contiguous arena views, in order.

        Pages whose pool chunks are byte-adjacent in one arena (the usual
        case — a buffer's pages are allocated back to back) merge into a
        single ``(elements, components)`` view over that arena, so bulk
        copies pay one slice assignment per *run*, not per page.  A chunk
        padded by the pool alignment, a spill into another pool or a
        fragmented free list ends a run; the last page is trimmed to the
        buffer's element count.  Pages are only ever refilled in place,
        so the views are cached for the life of the buffer.
        """
        runs = self._runs
        if runs is None:
            row_bytes = self.components * self.dtype.itemsize
            spans: List[list] = []  # [pool, first byte, end byte]
            remaining = self.element_count
            for page in self.pages:
                chunk = page.chunk
                live = min(page.elements, remaining)
                remaining -= live
                if spans and spans[-1][0] is chunk.pool and spans[-1][2] == chunk.offset:
                    spans[-1][2] += live * row_bytes
                else:
                    spans.append([chunk.pool, chunk.offset, chunk.offset + live * row_bytes])
            runs = self._runs = [
                pool._backing[lo:hi].view(self.dtype).reshape(-1, self.components)
                for pool, lo, hi in spans
            ]
        return runs

    def dense(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Assemble the buffer as one contiguous ``(element_count, components)``
        array: into ``out`` when given (the Env's dense read image), else
        into a fresh copy."""
        if out is None:
            out = np.empty((self.element_count, self.components), dtype=self.dtype)
        start = 0
        for run in self.runs():
            stop = start + run.shape[0]
            out[start:stop] = run
            start = stop
        return out

    def load_dense(self, data: np.ndarray) -> None:
        """Scatter a contiguous array back into the pages (all marked dirty)."""
        data = np.asarray(data, dtype=self.dtype).reshape(self.element_count, self.components)
        start = 0
        for run in self.runs():
            stop = start + run.shape[0]
            run[...] = data[start:stop]
            start = stop
        for page in self.pages:
            page.dirty = True

    def clear_dirty(self) -> None:
        for page in self.pages:
            page.dirty = False

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
    paper only needs 2); ``swap`` rotates which generation is the read
    buffer.
    """

    def __init__(
        self,
        element_count: int,
        page_elements: int,
        components: int,
        dtype,
        allocator: PoolGroup,
        depth: int = 2,
    ) -> None:
        if depth < 1:
            raise BlockError("MultiBuffer depth must be >= 1")
        self.depth = depth
        self.buffers: List[BlockBuffer] = [
            BlockBuffer(element_count, page_elements, components, dtype, allocator)
            for _ in range(depth)
        ]
        self._read_index = 0
        self.swaps = 0

    # ------------------------------------------------------------------
    @property
    def read_buffer(self) -> BlockBuffer:
        return self.buffers[self._read_index]

    @property
    def write_buffer(self) -> BlockBuffer:
        if self.depth == 1:
            return self.buffers[0]
        return self.buffers[(self._read_index + 1) % self.depth]

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self.buffers)

    def swap(self) -> None:
        """Make the current write buffer the new read buffer."""
        if self.depth > 1:
            self._read_index = (self._read_index + 1) % self.depth
        self.swaps += 1
        self.write_buffer.clear_dirty()

    def release(self) -> None:
        for buf in self.buffers:
            buf.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiBuffer(depth={self.depth}, read={self._read_index}, swaps={self.swaps})"

"""Pages: the granularity at which the platform manages and moves data.

The Memory Library exposes two interfaces (§III-B6):

* the **Block-based interface** used by end-user kernels (Global/Local
  address get/set), and
* the **Page-based interface** used by the aspect modules to manage
  validity and to communicate data between tasks page-by-page rather
  than block-by-block.

A :class:`Page` is a fixed number of *elements* (an element being
whatever the DSL defines: one grid point value, one unstructured cell
record, one particle bucket) of pool memory: a chunk of its own, or — the
pages of a Data Block an Env owns — rows of a slab of the Env's dense
image (:class:`~repro.memory.env.DenseImage`), which holds the chunk.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import BlockError
from .pool import Chunk, PoolGroup

__all__ = ["Page", "PageKey"]


class PageKey(tuple):
    """Hashable identifier of a page: ``(block_id, page_index)``.

    Aspect modules exchange :class:`PageKey` lists when negotiating
    which pages to transfer (the "list of non-existent pages" in
    AspectType III).
    """

    __slots__ = ()

    def __new__(cls, block_id: int, page_index: int) -> "PageKey":
        return super().__new__(cls, (int(block_id), int(page_index)))

    @property
    def block_id(self) -> int:
        return self[0]

    @property
    def page_index(self) -> int:
        return self[1]

    def __repr__(self) -> str:
        return f"PageKey(block={self[0]}, page={self[1]})"


class Page:
    """A fixed-size run of elements of pool memory: its own chunk from
    ``allocator``, or — without one — whatever :meth:`rehome` gives it."""

    __slots__ = ("index", "elements", "components", "dtype", "chunk", "_view", "valid")

    def __init__(
        self,
        index: int,
        elements: int,
        components: int,
        dtype,
        allocator: Optional[PoolGroup] = None,
    ) -> None:
        if elements <= 0 or components <= 0:
            raise BlockError("page must hold a positive number of elements/components")
        self.index = int(index)
        self.elements = int(elements)
        self.components = int(components)
        self.dtype = np.dtype(dtype)
        #: The chunk the page owns; None for rows of a dense-image slab.
        self.chunk: Optional[Chunk] = None
        self._view: Optional[np.ndarray] = None
        if allocator is not None:
            self.chunk = allocator.allocate(self.nbytes)
            view = self.chunk.as_array(self.dtype, self.elements * self.components)
            self._view = view.reshape(self.elements, self.components)
        #: Whether a read may be served from the page.  Every page is
        #: born valid, a Buffer-only Block's too: until the first step
        #: boundary marks it stale (``Env.invalidate_buffer_only``) it
        #: holds a placeholder field value (``Env._fill_unfilled``).
        self.valid: bool = True

    # ------------------------------------------------------------------
    @property
    def array(self) -> np.ndarray:
        """The ``(elements, components)`` numpy view over the page's chunk."""
        return self._view

    @property
    def nbytes(self) -> int:
        if self.chunk is None:
            return self.elements * self.components * self.dtype.itemsize
        return self.chunk.size

    def rehome(self, view: np.ndarray) -> None:
        """Make ``view`` — ``(elements, components)`` of ``dtype`` — the
        page's memory (the caller moves the contents); a chunk of its own
        goes back to its pool."""
        self.release()
        self.chunk, self._view = None, view

    def read(self, slot: int) -> np.ndarray:
        """Return the component vector of element ``slot`` (no copy)."""
        return self._view[slot]

    def write(self, slot: int, value) -> None:
        """Store ``value`` into element ``slot``."""
        self._view[slot] = value

    def fill_from(self, data: np.ndarray, *, valid: bool = True) -> None:
        """Overwrite the whole page (used by the communication advice)."""
        data = np.asarray(data, dtype=self.dtype).reshape(self.elements, self.components)
        self._view[...] = data
        self.valid = valid

    def snapshot(self) -> np.ndarray:
        """Return a copy of the page contents (what gets sent over the network)."""
        return self._view.copy()

    def release(self) -> None:
        """Return the page's own chunk, if it has one, to its pool."""
        if self.chunk is not None and not self.chunk.freed:
            self.chunk.free()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Page(index={self.index}, elements={self.elements}, valid={self.valid})"

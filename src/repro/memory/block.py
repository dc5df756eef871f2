"""The Block hierarchy.

"The global structure of the target data is represented by a tree
structure of Blocks (Env).  A Block, which is a unit of data to be
computed by a subkernel, is a fixed-size data structure with dimensions
implemented for each target computation." (§III-B3)

Concrete kinds, mirroring the paper:

=================  ===========================================================
:class:`DataBlock`        entity Block with multi-buffered data; the only kind
                          with a valid ``dm_tid`` and the only kind assigned to
                          tasks for calculation
:class:`EmptyBlock`       joint of the tree (root, grouping nodes)
:class:`BufferOnlyBlock`  buffer for data communicated from other tasks;
                          pages valid from creation, a placeholder until
                          the first step boundary marks them stale
:class:`StaticDataBlock`  provides constant data (USGrid out-of-domain cells)
:class:`ArithmeticBlock`  generates data from an arithmetic expression of the
                          address (Dirichlet boundary conditions, dummy wall
                          particles)
:class:`ReferenceBlock`   redirects accesses to another Block through an
                          address mapping (Neumann boundary conditions)
=================  ===========================================================

Every Block carries its placement information in space (``origin`` and
``shape`` in the global index space) plus the three parameters the
paper lists: ``is_valid``, ``dm_tid`` (data-manage task id) and
``ch_tid`` (calc-handle task id).
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .address import (
    GlobalAddress,
    LocalAddress,
    box_contains,
    global_addresses,
    offset_in_box,
    to_local,
)
from .buffer import MultiBuffer
from .errors import AddressError, BlockError
from .pool import PoolGroup

__all__ = [
    "Block",
    "DataBlock",
    "BufferOnlyBlock",
    "EmptyBlock",
    "StaticDataBlock",
    "ArithmeticBlock",
    "ReferenceBlock",
]

_block_id_counter = itertools.count(1)


def inside_box(addrs: np.ndarray, origin: Sequence[int], shape: Sequence[int]) -> np.ndarray:
    """Whether each row of the ``(n, ndim)`` ``addrs`` lies in the box at
    ``origin`` of extent ``shape``, column by column: a reduction over the
    short axis runs ``n`` inner loops of ``ndim``, ten times slower."""
    inside = np.ones(addrs.shape[0], dtype=bool)
    for column, lo, extent in zip(addrs.T, origin, shape):
        inside &= column >= lo
        inside &= column < lo + extent
    return inside


def _inside(block: "Block", addrs) -> np.ndarray:
    """``addrs`` as an ``(n, ndim)`` int64 array, checked in one test to
    lie inside ``block``'s extent (:class:`AddressError` names the first
    address outside)."""
    addrs = np.asarray(addrs, dtype=np.int64).reshape(-1, block.ndim)
    outside = np.flatnonzero(~inside_box(addrs, block.origin, block.shape))
    if outside.size:
        raise AddressError(
            f"{tuple(addrs[outside[0]].tolist())} outside {block.kind} block {block.name!r}"
        )
    return addrs


class Block:
    """Base class of all Block kinds."""

    kind = "abstract"

    def __init__(
        self,
        origin: Sequence[int],
        shape: Sequence[int],
        *,
        name: str = "",
    ) -> None:
        if len(origin) != len(shape):
            raise BlockError("origin and shape must have the same dimensionality")
        #: Stable identifier unique within the process; page keys and the
        #: simulated network address blocks by this id.
        self.block_id: int = next(_block_id_counter)
        self.origin: Tuple[int, ...] = tuple(int(c) for c in origin)
        self.shape: Tuple[int, ...] = tuple(int(c) for c in shape)
        self.name = name or f"{self.kind}#{self.block_id}"
        self.parent: Optional["Block"] = None
        self.children: List["Block"] = []
        #: Readability flag (paper: "Indicates if the data is readable").
        self.is_valid: bool = True
        #: Data-manage task id; only Data Blocks have a meaningful value.
        self.dm_tid: Optional[int] = None
        #: Calc-handle task id.
        self.ch_tid: Optional[int] = None

    # -- tree structure -------------------------------------------------
    def add_child(self, child: "Block") -> "Block":
        """Attach ``child`` to this block and return it."""
        if child.parent is not None:
            raise BlockError(f"block {child.name} already has a parent")
        child.parent = self
        self.children.append(child)
        return child

    def iter_subtree(self):
        """Yield this block and all descendants (pre-order)."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    # -- spatial queries -------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.origin)

    @property
    def element_count(self) -> int:
        count = 1
        for extent in self.shape:
            count *= extent
        return count

    def contains(self, addr: Sequence[int]) -> bool:
        """True when ``addr`` lies inside this block's own extent."""
        return box_contains(self.origin, self.shape, addr)

    # -- data access (overridden by concrete kinds) ----------------------
    @property
    def holds_data(self) -> bool:
        """True for kinds that can answer read requests."""
        return False

    def read(self, addr: Sequence[int]) -> np.ndarray:
        raise BlockError(f"{self.kind} block {self.name!r} cannot be read")

    def write(self, addr: Sequence[int], value) -> None:
        raise BlockError(f"{self.kind} block {self.name!r} cannot be written")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(id={self.block_id}, origin={self.origin}, "
            f"shape={self.shape}, dm_tid={self.dm_tid}, ch_tid={self.ch_tid})"
        )


class EmptyBlock(Block):
    """A joint of the Env tree.  Holds no data."""

    kind = "empty"

    def __init__(self, origin: Sequence[int] = (0,), shape: Sequence[int] = (0,), **kw) -> None:
        super().__init__(origin, shape, **kw)
        self.is_valid = False

    def contains(self, addr: Sequence[int]) -> bool:
        # A joint never resolves an address itself; search descends into
        # its children instead.
        return False

    def covers(self, addr: Sequence[int]) -> bool:
        """True when the address falls inside any descendant's extent.

        Used by the Env search to decide whether descending into this
        joint can possibly succeed (a cheap bounding-box union).
        """
        return any(
            child.contains(addr) or (isinstance(child, EmptyBlock) and child.covers(addr))
            for child in self.children
        )


class DataBlock(Block):
    """Entity Block with multi-buffered data.

    Parameters
    ----------
    origin, shape:
        Placement of the block in the global index space.
    components:
        Number of scalar components per element (1 for SGrid, 1 for each
        USGrid value, particle buckets pack whole bucket records).
    page_elements:
        Elements per page (the platform's communication granularity).
    allocator:
        Pool (group) the buffers draw chunks from; None for a Block whose
        pages will be the image rows :meth:`Env.add_data_block` gives it.
    dtype:
        Element dtype, float64 by default.
    depth:
        Multi-buffer depth (2 = double buffering).
    """

    kind = "data"

    def __init__(
        self,
        origin: Sequence[int],
        shape: Sequence[int],
        *,
        components: int,
        page_elements: int,
        allocator: Optional[PoolGroup] = None,
        dtype=np.float64,
        depth: int = 2,
        name: str = "",
    ) -> None:
        super().__init__(origin, shape, name=name)
        self.components = int(components)
        self.page_elements = int(page_elements)
        self.buffer = MultiBuffer(
            self.element_count, self.page_elements, self.components, dtype, allocator, depth
        )
        self.dm_tid = 0
        self.ch_tid = 0
        #: Static per-element side data registered by the DSL layer
        #: (e.g. the neighbour tables of the unstructured grid).  Stored
        #: outside the multi-buffer because it never changes per step.
        self.static_fields: dict = {}

    # ------------------------------------------------------------------
    @property
    def holds_data(self) -> bool:
        return True

    def element_index(self, addr: Sequence[int]) -> int:
        """Linear (row-major) index of a *global* address inside this block."""
        local = to_local(self.origin, addr)
        return offset_in_box(self.shape, local)

    def local_element_index(self, local: Sequence[int]) -> int:
        return offset_in_box(self.shape, local)

    # -- element access ---------------------------------------------------
    def read(self, addr: Sequence[int]) -> np.ndarray:
        """Read the element at global address ``addr`` from the read buffer."""
        value = self.buffer.read_buffer.read(self.element_index(addr))
        if self.components == 1:
            return value[0]
        return value

    def write(self, addr: Sequence[int], value) -> None:
        """Write the element at global address ``addr`` into the write buffer."""
        self.buffer.write_buffer.write(self.element_index(addr), value)

    def write_local(self, local: Sequence[int], value) -> None:
        self.buffer.write_buffer.write(self.local_element_index(local), value)

    # -- page interface (used by aspect modules) ---------------------------
    def page_count(self) -> int:
        return self.buffer.read_buffer.page_count

    def page_snapshot(self, page_index: int) -> np.ndarray:
        """Copy of a read-buffer page (what the owning task sends)."""
        return self.buffer.read_buffer.pages[page_index].snapshot()

    def page_view(self, page_index: int) -> np.ndarray:
        """The read-buffer page's backing array, **without copying**.

        Zero-copy export for transports and checkpoint stores that copy
        the bytes themselves (shared-memory publish, spool pickling).
        The view aliases live pool memory: it is only stable between the
        refresh protocol's synchronisation points, and callers must
        never write through it.
        """
        return self.buffer.read_buffer.pages[page_index].array

    @property
    def content_generation(self) -> int:
        """Monotonic stamp of the read buffer's content: how often the
        Block's image class swapped (0 before an Env homes the Block).

        Owned blocks' read buffers change only at a refresh swap (a class
        re-home moves rows, not bytes), so an unchanged generation means
        every page still holds the bytes of the previous export — the
        shared-memory arena serves repeat fetches from the same slot.
        """
        return self.buffer.content_generation

    def page_fill(self, page_index: int, data: np.ndarray) -> None:
        """Overwrite a read-buffer page (what a receiving task installs)."""
        self.buffer.read_buffer.pages[page_index].fill_from(data)

    # -- bulk access --------------------------------------------------------
    def dense(self) -> np.ndarray:
        """Contiguous copy of the read buffer, shaped ``shape + (components,)``."""
        data = self.buffer.read_buffer.dense()
        return data.reshape(self.shape + (self.components,))

    def load_dense(self, data: np.ndarray, *, into_write: bool = False) -> None:
        """Load a contiguous array into the read (or write) buffer."""
        target = self.buffer.write_buffer if into_write else self.buffer.read_buffer
        target.load_dense(np.asarray(data).reshape(self.element_count, self.components))

    @property
    def nbytes(self) -> int:
        static = sum(arr.nbytes for arr in self.static_fields.values())
        return self.buffer.nbytes + static


class BufferOnlyBlock(DataBlock):
    """Data Block that only acts as a landing buffer for remote data.

    It has storage but no owner responsibility: ``dm_tid`` is None and
    ``is_valid`` is False, so validity is per page.  The pages are valid
    from creation and hold a placeholder field value
    (:meth:`Env._fill_unfilled`) until the first step boundary's
    :meth:`Env.invalidate_buffer_only` marks them stale; from then on the
    distributed-memory aspect fills them each step.
    """

    kind = "buffer_only"

    def __init__(self, *args, owner_tid: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.is_valid = False
        self.dm_tid = None
        self.ch_tid = None
        #: Task id of the rank that owns the authoritative copy.
        self.owner_tid = owner_tid

    def read(self, addr: Sequence[int]) -> np.ndarray:
        index = self.element_index(addr)
        page = self.buffer.read_buffer.pages[self.buffer.read_buffer.page_of(index)]
        if not (self.is_valid or page.valid):
            raise BlockError(
                f"buffer-only block {self.name!r} read before its data arrived "
                f"(page {page.index})"
            )
        return super().read(addr)

    def write(self, addr: Sequence[int], value) -> None:
        raise BlockError("buffer-only blocks are read-only for kernels")

    def invalidate(self) -> None:
        """Mark all pages stale (done at every step boundary)."""
        self.is_valid = False
        for buf in self.buffer.buffers:
            buf.set_valid(False)


class StaticDataBlock(Block):
    """Block providing constant data for every address it covers."""

    kind = "static"

    def __init__(
        self,
        origin: Sequence[int],
        shape: Sequence[int],
        value,
        *,
        components: int = 1,
        name: str = "",
    ) -> None:
        super().__init__(origin, shape, name=name)
        self.components = int(components)
        self._value = np.asarray(value, dtype=np.float64).reshape(-1)
        if self._value.size not in (1, self.components):
            raise BlockError(
                f"static value has {self._value.size} components, expected 1 or {components}"
            )

    @property
    def holds_data(self) -> bool:
        return True

    def read(self, addr: Sequence[int]) -> np.ndarray:
        if not self.contains(addr):
            raise AddressError(f"{addr} outside static block {self.name!r}")
        if self.components == 1:
            return self._value[0]
        if self._value.size == 1:
            return np.full(self.components, self._value[0])
        return self._value.copy()

    def read_many(self, addrs) -> np.ndarray:
        """:meth:`read` of every row of an ``(n, ndim)`` address array, as
        a read-only ``(n, components)`` float64 broadcast of the value."""
        n = _inside(self, addrs).shape[0]
        return np.broadcast_to(self._value, (n, self.components))


class ArithmeticBlock(Block):
    """Block generating data from an arithmetic expression of the address.

    Used for Dirichlet boundary conditions and, in the particle DSL, to
    return buckets of dummy wall particles outside the domain.
    """

    kind = "arithmetic"

    def __init__(
        self,
        origin: Sequence[int],
        shape: Sequence[int],
        expression: Callable[[GlobalAddress], np.ndarray],
        *,
        components: int = 1,
        name: str = "",
    ) -> None:
        super().__init__(origin, shape, name=name)
        if not callable(expression):
            raise BlockError("ArithmeticBlock expression must be callable")
        self.expression = expression
        self.components = int(components)

    @property
    def holds_data(self) -> bool:
        return True

    def read(self, addr: Sequence[int]) -> np.ndarray:
        if not self.contains(addr):
            raise AddressError(f"{addr} outside arithmetic block {self.name!r}")
        value = self.expression(GlobalAddress(addr))
        if np.size(value) not in (1, self.components):
            self._wrong_count(addr, value)
        return value

    def read_many(self, addrs) -> np.ndarray:
        """:meth:`read` of every row of an ``(n, ndim)`` address array, as
        a read-only ``(n, components)`` float64 array: one ``expression``
        call per address, the results stacked once and a 1-value result
        broadcast to ``components``."""
        addrs = _inside(self, addrs)
        n, expression = addrs.shape[0], self.expression
        if not n:
            return np.empty((0, self.components))
        values = [expression(a) for a in global_addresses(addrs)]
        try:
            stacked = np.asarray(values, dtype=np.float64).reshape(n, -1)
        except ValueError:  # results of different sizes
            stacked = None
        if stacked is None or stacked.shape[1] not in (1, self.components):
            for a, value in zip(addrs.tolist(), values):
                if np.size(value) not in (1, self.components):
                    self._wrong_count(a, value)
            stacked = np.array(
                [np.broadcast_to(np.ravel(v), (self.components,)) for v in values],
                dtype=np.float64,
            )
        return np.broadcast_to(stacked, (n, self.components))

    def _wrong_count(self, addr, value):
        raise BlockError(
            f"arithmetic block {self.name!r} gave {np.size(value)} values at "
            f"{tuple(addr)}, expected 1 or {self.components}"
        )


class ReferenceBlock(Block):
    """Block redirecting accesses to another block through an address map.

    Used for Neumann (mirror) boundary conditions: an address outside
    the domain is mapped to the mirrored interior address and served
    from the referenced block (or from the Env if the mapped address
    belongs to a different block).
    """

    kind = "reference"

    def __init__(
        self,
        origin: Sequence[int],
        shape: Sequence[int],
        mapper: Callable[[GlobalAddress], GlobalAddress],
        target: Optional[Block] = None,
        *,
        name: str = "",
    ) -> None:
        super().__init__(origin, shape, name=name)
        if not callable(mapper):
            raise BlockError("ReferenceBlock mapper must be callable")
        self.mapper = mapper
        self.target = target
        #: Set by the Env when attached so that mapped addresses outside
        #: ``target`` can still be resolved by a full search.
        self.env = None

    @property
    def holds_data(self) -> bool:
        return True

    def read(self, addr: Sequence[int]) -> np.ndarray:
        if not self.contains(addr):
            raise AddressError(f"{addr} outside reference block {self.name!r}")
        mapped = self.mapper(GlobalAddress(addr))
        if self.target is not None and self.target.contains(mapped):
            return self.target.read(mapped)
        if self.env is not None:
            return self.env.read(mapped)
        raise BlockError(
            f"reference block {self.name!r} cannot resolve mapped address {mapped}"
        )

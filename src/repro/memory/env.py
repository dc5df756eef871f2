"""The Env: a tree of Blocks representing the whole data domain.

"The global structure of the target data is represented by a tree
structure of Blocks (Env)." (§III-B3)  The default tree shape follows
the paper's Fig. 2: an Empty root whose children are (a) the boundary
blocks (Arithmetic / Reference / Static) and (b) an Empty *joint* whose
children are the Data Blocks.  The joint keeps boundary blocks on a
different branch so that the locality-prioritising search hits them
last; DSL developers may insert further joints to increase locality.

The Env implements the Memory Library's Block-based interface
(§III-B6):

* :meth:`Env.get_blocks` — Blocks whose ``ch_tid`` is the caller's task
  (the aspect modules advise this join point to split Blocks across the
  tasks of their layer — AspectType II);
* :meth:`Env.refresh` — tries to finish the step: fails if any access to
  non-existent data happened, otherwise swaps the multi-buffers
  (AspectType III advises this join point to move pages between tasks);
* :meth:`Env.read_from` — Global/Local address access starting from a
  Block, with the optional "surely inside" flag and MMAT support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..aop.registry import TAG_GET_BLOCKS, TAG_REFRESH, annotate
from .address import GlobalAddress, to_local
from .boxes import BoxGrid
from .block import (
    ArithmeticBlock,
    Block,
    BufferOnlyBlock,
    DataBlock,
    EmptyBlock,
    ReferenceBlock,
    StaticDataBlock,
)
from .errors import AddressError, EnvError, PoolExhaustedError
from .mmat import MMAT, sorted_unique
from .page import PageKey
from .pool import Chunk, MemoryPool, PoolGroup

__all__ = ["Env", "EnvStats", "DenseImage"]


@dataclass
class EnvStats:
    """Counters describing how the Env was exercised: the searches and
    MMAT hits behind the MMAT effectiveness numbers of the Fig. 6 bench,
    and the dense image's assemblies and re-homes that
    ``PlatformRun.summary()`` reports."""

    searches: int = 0
    search_steps: int = 0
    mmat_hits: int = 0
    #: Copies of Buffer-only pages into the image's ghost tail: a plan
    #: table's rows, or a Block's (open steps; owned Blocks' pages *are*
    #: image rows).
    dense_assemblies: int = 0
    #: Times owned rows of the dense image moved, by reason: a Block added
    #: with pages of its own, a class outgrowing its slabs.  Set-up only.
    rehomes_late_block: int = 0
    rehomes_class_grew: int = 0
    #: Scalar reads resolved to a Buffer-only Block: remote data the
    #: compiled plans (and so the pushed halo) do not cover.
    buffer_only_reads: int = 0

    @property
    def image_rehomes(self) -> int:
        return self.rehomes_late_block + self.rehomes_class_grew

    def as_dict(self) -> dict:
        return dict(self.__dict__, image_rehomes=self.image_rehomes)


class DenseImage:
    """The dense image of one ``(components, dtype, depth)`` class of Blocks
    (docs/architecture.md, *Dense read image*, has the drawing).

    Compiled access plans do not read pages: they index one contiguous
    array per buffer generation, the rows of *all* the Env's Blocks of a
    class, so a plan is one gather per class however many Blocks its
    sites land in.  ``slabs`` are ``depth`` such arrays, each one pool
    chunk; ``read`` / ``next`` are those of the current read / write
    generation, and :meth:`swap` — ``Env.refresh``, nothing else — swaps
    every Block by counting ``generation`` on.

    * Rows ``[0, ghost_base)`` **are** the page memory of the owned
      Blocks: each has rows ``[base, base + element_count)`` of every
      slab, and its buffer generation ``g``'s pages are views of slab ``g``.
    * The **ghost tail** behind them has a row per element of the
      Buffer-only Blocks (its *halo row*).  In the ``next`` slab's tail, in
      halo-row order, they are those Blocks' pages (generation ``g`` in
      slab ``g + 1``).  In the ``read`` slab's, placed by :meth:`ghost_index`,
      they are what this step's plans read, written only between its halo
      wait and the next swap: slots copied in (:meth:`Env.copy_pushes`), or
      the rows of valid pages a plan reads, no other (:meth:`Env.fill_ghosts`),
      or a whole Block's valid pages (``fresh``: the Blocks so copied).

    Row bases and halo rows never move; outgrowing the slabs moves
    ``ghost_base``.  That and every renumbering (:meth:`number`) count
    ``layout`` on: compiled tables re-aim their ghost sites once per layout.
    """

    __slots__ = (
        "components", "dtype", "depth", "local_rows", "halo_rows", "chunks", "slabs", "owned",
        "remote", "generation", "ghost_base", "ghost_places", "pushed", "layout",
        "fresh",
    )

    def __init__(self, components: int, dtype, depth: int = 2) -> None:
        self.components = int(components)
        self.dtype = np.dtype(dtype)
        self.depth = int(depth)
        self.local_rows = 0
        self.halo_rows = 0
        self.chunks: List[Chunk] = []
        self.slabs: List[np.ndarray] = []
        #: The owned / Buffer-only Blocks whose pages are rows of the slabs.
        self.owned: List[DataBlock] = []
        self.remote: List[DataBlock] = []
        #: Swaps so far: the owned Blocks' content generation.
        self.generation = 0
        #: The first ghost row of every slab: its owned-row capacity.
        self.ghost_base = 0
        #: Per halo row, its place in the tail since the last numbering;
        #: rows past the table (added since) sit at their own (None: all).
        self.ghost_places: Optional[np.ndarray] = None
        #: Tail rows, from its start, that the owners' pushes fill.
        self.pushed = 0
        self.layout = 0
        #: Ids of the Buffer-only Blocks whose valid pages the tail holds
        #: whole (a ``dense_read`` copied them); a plan's fill copies only
        #: the rows it reads and adds no Block here.
        self.fresh: Set[int] = set()

    @property
    def read(self) -> Optional[np.ndarray]:
        return self.slabs[self.generation % self.depth] if self.slabs else None

    @property
    def next(self) -> Optional[np.ndarray]:
        return self.slabs[(self.generation + 1) % self.depth] if self.slabs else None

    @property
    def tail(self) -> int:
        """Ghost rows each slab holds."""
        return len(self.slabs[0]) - self.ghost_base if self.slabs else 0

    def ghost_index(self, halo: np.ndarray) -> np.ndarray:
        """The rows of the read slab that hold the halo rows ``halo``."""
        places = self.ghost_places
        if places is None:
            return self.ghost_base + halo
        if places.size < self.halo_rows:
            places = self.ghost_places = np.append(places, np.arange(places.size, self.halo_rows))
        return self.ghost_base + places[halo]

    def rows_of(self, slot: tuple) -> List[np.ndarray]:
        """Per buffer generation, the rows holding the pages of a Block's slot."""
        _, lo, hi, halo = slot
        if not halo:
            return [slab[lo:hi] for slab in self.slabs]
        base = self.ghost_base
        return [self.slabs[(g + 1) % self.depth][base + lo : base + hi] for g in range(self.depth)]

    def allocate(self, allocator, capacity: int, tail: int, owner: str) -> None:
        """Give the old slabs back and take ``depth`` of ``capacity`` owned
        rows and ``tail`` ghost rows (their contents are the caller's to move)."""
        for chunk in self.chunks:
            chunk.free()
        self.chunks, self.slabs = [], []
        self.ghost_base = capacity
        self.layout += 1
        rows = capacity + tail
        nbytes = rows * self.components * self.dtype.itemsize
        for generation in range(self.depth if rows else 0):
            try:
                chunk = allocator.allocate(nbytes)
            except PoolExhaustedError as exc:
                self.allocate(allocator, 0, 0, owner)
                raise PoolExhaustedError(
                    f"Env {owner!r}: no pool holds slab {generation} of {self.depth} of "
                    f"its dense image ({rows} rows x {self.components} of "
                    f"{self.dtype}, {nbytes} bytes): {exc}"
                ) from exc
            self.chunks.append(chunk)
            cells = chunk.as_array(self.dtype, rows * self.components)
            self.slabs.append(cells.reshape(rows, self.components))

    def reserve(self, block: DataBlock) -> tuple:
        """Hand ``block`` its rows: ``(self, first row, end row, is halo)``."""
        halo = isinstance(block, BufferOnlyBlock)
        count = block.element_count
        if halo:
            base, self.halo_rows = self.halo_rows, self.halo_rows + count
        else:
            base, self.local_rows = self.local_rows, self.local_rows + count
        (self.remote if halo else self.owned).append(block)
        return (self, base, base + count, halo)

    def number(self, runs: Sequence[np.ndarray]) -> None:
        """Place the halo rows ``runs`` (sorted, disjoint) at the tail's
        start, one after the other; the rows they displace there move to
        the places they left, every other row stays at its own."""
        pushed = np.concatenate([np.empty(0, dtype=np.intp), *runs])
        self.pushed, self.layout = pushed.size, self.layout + 1
        self.fresh.clear()
        kept = np.zeros(pushed.size, dtype=bool)
        kept[pushed[pushed < pushed.size]] = True
        places = np.arange(self.halo_rows)
        places[pushed] = np.arange(pushed.size)
        places[np.flatnonzero(~kept)] = np.sort(pushed[pushed >= pushed.size])
        self.ghost_places = places if pushed.size else None

    def swap(self) -> None:
        """Swap ``read`` and ``next`` (the new one's tail empty) and, with
        them, every owned Block's buffers."""
        self.generation += 1
        self.fresh.clear()


def _address(array: np.ndarray) -> int:
    """The address of ``array``'s first element."""
    return array.__array_interface__["data"][0]


class Env:
    """Tree of Blocks plus the Memory Library's Block-based interface."""

    def __init__(
        self,
        *,
        allocator: Optional[PoolGroup] = None,
        pool_bytes: int = 64 * 1024 * 1024,
        mmat_enabled: bool = False,
        name: str = "env",
    ) -> None:
        if allocator is None:
            allocator = PoolGroup([MemoryPool(pool_bytes, name=f"{name}.pool")])
        self.allocator = allocator
        self.name = name
        self.root = EmptyBlock(name=f"{name}.root")
        #: Joint under which all Data Blocks live (paper Fig. 2, node 3).
        self.data_joint = EmptyBlock(name=f"{name}.joint")
        self.root.add_child(self.data_joint)
        self.boundary_blocks: List[Block] = []
        self.blocks_by_id: Dict[int, Block] = {
            self.root.block_id: self.root,
            self.data_joint.block_id: self.data_joint,
        }
        self.stats = EnvStats()
        self.mmat = MMAT(enabled=mmat_enabled)
        #: The dense image compiled plans index and owned Blocks live in
        #: (see :class:`DenseImage`), one per ``(components, dtype, depth)``
        #: class of Data Blocks in the tree — one in every stock DSL — and
        #: each Block's rows in it as ``(image, first row, end row, is halo)``.
        self._images: Dict[tuple, DenseImage] = {}
        self._slots: Dict[int, tuple] = {}
        #: Pages found missing (non-existent / not-yet-valid) since the
        #: last refresh.  AspectType III advice consumes this list.
        self.missing_pages: Set[PageKey] = set()
        #: Missing pages of the refresh that most recently failed; kept so
        #: the communication advice (and the Dry-run record) can see them
        #: after ``refresh`` already returned False.
        self.last_failed_pages: Set[PageKey] = set()
        #: The step counter advanced by successful, non-warm-up refreshes.
        self.step = 0
        #: Publish protocol (set by the distributed-memory aspect): per
        #: slot table the ``(image, sorted halo rows, first tail row)`` the
        #: owners push into it, and whether the read slabs' tails hold this
        #: step's pushes (from a push's completion until the next swap).
        self._pushed_rows: List[Tuple[DenseImage, np.ndarray, int]] = []
        self._pushes_in = False
        #: Whether any Buffer-only page may be valid (pages are born valid,
        #: installs validate them): lets the per-step invalidation of a
        #: run whose halo is pushed, not installed, return at once.
        self._halo_pages_live = True
        #: Buffer-only Blocks made without data whose pages, valid by
        #: birth, still hold what their rows held: a field value
        #: (:meth:`_placeholder`) goes in at their first read or install,
        #: until the first invalidation.
        self._unfilled: Set[int] = set()
        #: Box tables of :meth:`locate_blocks`, one per address
        #: dimensionality; built lazily, dropped when the tree changes.
        self._box_tables: Dict[int, tuple] = {}
        #: ``(owned, owned + Buffer-only)`` Data Blocks in tree order;
        #: built lazily, dropped when the tree changes.
        self._data_block_lists: Optional[Tuple[list, list]] = None

    # ------------------------------------------------------------------
    # tree construction (used by DSL layers)
    # ------------------------------------------------------------------
    def _register(self, block: Block) -> Block:
        self.blocks_by_id[block.block_id] = block
        self._box_tables.clear()
        self.mmat.drop_staged()  # resolved against the tree as it was
        self._data_block_lists = None
        if isinstance(block, ReferenceBlock):
            block.env = self
        return block

    def _image_of(self, components: int, dtype, depth: int) -> DenseImage:
        key = (int(components), np.dtype(dtype), int(depth))
        image = self._images.get(key)
        if image is None:  # only a miss builds one
            image = self._images.setdefault(key, DenseImage(*key))
        return image

    def reserve_image(self, components: int, dtype, rows: int, depth: int = 2, *,
                      ghosts: int = 0) -> None:
        """Make room, once, for ``rows`` more owned rows and ``ghosts`` more
        Buffer-only rows of a class: a DSL target sizes the slabs before it
        adds its first Block, so none moves."""
        image = self._image_of(components, dtype, depth)
        self.stats.rehomes_class_grew += self._resize(
            image, image.local_rows + int(rows), image.halo_rows + int(ghosts)
        )

    def _resize(self, image: DenseImage, capacity: int, tail: int = 0) -> bool:
        """Slabs of at least ``capacity`` owned and ``tail`` ghost rows for
        ``image``: snapshot, free, allocate, restore — the pool (often full)
        never holds two layouts at once — and every page re-pointed.
        Returns whether owned rows with data moved."""
        held, before, ghosts = image.local_rows, image.ghost_base, image.tail
        if capacity <= before and tail <= ghosts:
            return False
        saved = [(slab[:held].copy(), slab[before:].copy()) for slab in image.slabs]
        try:
            image.allocate(self.allocator, max(capacity, before), max(tail, ghosts), self.name)
        except PoolExhaustedError:
            image.allocate(self.allocator, before, ghosts, self.name)  # what fitted before
            raise
        finally:
            base = image.ghost_base
            for slab, (rows, tail_rows) in zip(image.slabs, saved):
                slab[:held] = rows
                slab[base : base + len(tail_rows)] = tail_rows
            for block in image.owned + image.remote:
                if block.buffer.home is image:
                    block.buffer.rehome(image.rows_of(self._slots[block.block_id]), image)
        return held > 0

    def add_data_block(self, block: DataBlock, *, parent: Optional[Block] = None) -> DataBlock:
        """Attach a Data (or Buffer-only) Block under the data joint.

        The Block gets the next free rows of its class's dense-image slabs
        as its pages — owned rows, or a Buffer-only Block's tail rows (the
        slabs grow by exactly that much unless :meth:`reserve_image` made
        room); one made with an allocator is *re-homed*: its generations
        copied in, its own chunks returned first — a pool that cannot hold
        the grown slabs raises with the Env as it was, but the Block emptied.
        """
        if not isinstance(block, DataBlock):
            raise EnvError("add_data_block expects a DataBlock (or subclass)")
        buf = block.buffer
        image = self._image_of(block.components, buf.read_buffer.dtype, buf.depth)
        halo = isinstance(block, BufferOnlyBlock)
        # A single-buffered class has no next slab: its remote pages stay apart.
        homed = not halo or image.depth > 1
        saved, count = buf.vacate() if homed else [], block.element_count
        moved = self._resize(image, image.local_rows + count * (not halo),
                             image.halo_rows + count * halo)
        late = bool(saved) and not halo  # an owned Block with pages of its own moved in
        self.stats.rehomes_late_block += late
        self.stats.rehomes_class_grew += moved and not late
        (parent or self.data_joint).add_child(block)
        self._halo_pages_live = True  # a new Buffer-only Block's pages are born valid
        if halo and homed and not saved:  # made without data of its own
            self._unfilled.add(block.block_id)
        slot = self._slots[block.block_id] = image.reserve(block)
        if homed:
            buf.rehome(image.rows_of(slot), image)
        for ahead, rows in enumerate(saved):
            buf.buffers[(buf.read_index + ahead) % buf.depth].load_dense(rows)
        return self._register(block)

    def add_boundary_block(self, block: Block) -> Block:
        """Attach a boundary block directly under the root (paper Fig. 2, node 2)."""
        if isinstance(block, DataBlock):
            raise EnvError("boundary blocks must be virtual blocks, not DataBlocks")
        self.root.add_child(block)
        self.boundary_blocks.append(block)
        return self._register(block)

    def add_joint(self, *, parent: Optional[Block] = None, name: str = "") -> EmptyBlock:
        """Insert an extra Empty joint (DSL developers use this to add locality)."""
        joint = EmptyBlock(name=name or f"{self.name}.joint{len(self.blocks_by_id)}")
        (parent or self.data_joint).add_child(joint)
        self._register(joint)
        return joint

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def data_blocks(self, *, include_buffer_only: bool = False) -> List[DataBlock]:
        """All Data Blocks in Z-order-friendly tree order."""
        lists = self._data_block_lists
        if lists is None:
            every = [b for b in self.data_joint.iter_subtree() if isinstance(b, DataBlock)]
            owned = [b for b in every if not isinstance(b, BufferOnlyBlock)]
            lists = self._data_block_lists = (owned, every)
        return list(lists[include_buffer_only])

    def block(self, block_id: int) -> Block:
        try:
            return self.blocks_by_id[block_id]
        except KeyError:
            raise EnvError(f"unknown block id {block_id}") from None

    # ------------------------------------------------------------------
    # Block-based interface — the join points advised by aspect modules
    # ------------------------------------------------------------------
    @annotate(TAG_GET_BLOCKS)
    def get_blocks(self, warmup: bool = False) -> List[DataBlock]:
        """Return the Blocks this task must update this step.

        Without any aspect woven (serial execution) this is simply every
        Data Block of the Env.  The shared-memory / distributed-memory
        aspect modules advise this join point to return only the caller
        task's share (AspectType II).
        """
        return self.data_blocks()

    @annotate(TAG_REFRESH)
    def refresh(self, warmup: bool = False) -> bool:
        """Attempt to complete the current step.

        Returns True (and swaps every local Data Block's buffers) only
        when no access to non-existent data occurred since the previous
        refresh; otherwise records the failed pages in
        :attr:`last_failed_pages` and returns False so the caller
        re-executes the step (§III-B9).

        During warm-up (``warmup=True``) buffers are *not* swapped: the
        warm-up pass only gathers communication information and its
        numerical results are discarded.
        """
        if self.missing_pages:
            self.last_failed_pages = set(self.missing_pages)
            self.missing_pages.clear()
            return False
        self.last_failed_pages = set()
        if warmup:
            return True
        # The one place buffers swap: every owned Block's and, with them,
        # the slabs they are rows of.
        for image in self._images.values():
            image.swap()
        self.step += 1
        self._pushes_in = False  # every owner's data just moved on
        return True

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    def read_from(
        self,
        start: Block,
        addr: Sequence[int],
        *,
        assume_inside: bool = False,
    ):
        """Read the element at global address ``addr`` starting the search at ``start``.

        ``assume_inside=True`` is the paper's static/dynamic flag meaning
        "the data is undoubtedly contained in the start Block": the Env
        search is skipped entirely.
        """
        # This is the hottest scalar path of the platform: skip the
        # relative-tuple construction entirely when MMAT is disabled (it
        # is only ever used as a memo key).
        if assume_inside:
            return start.read(addr)

        mmat = self.mmat
        if mmat.enabled:
            relative = tuple(a - o for a, o in zip(addr, start.origin))
            memo_block = mmat.lookup(start.block_id, relative)
            if memo_block is not None:
                self.stats.mmat_hits += 1
                return self._read_resolved(memo_block, addr)
        else:
            relative = None

        if start.holds_data and start.contains(addr):
            if relative is not None:
                mmat.remember(start.block_id, relative, start)
            return start.read(addr)

        target = self.find_block(addr, start=start)
        if target is None:
            raise AddressError(
                f"no block of Env {self.name!r} contains address {tuple(addr)}"
            )
        if relative is not None:
            mmat.remember(start.block_id, relative, target)
        return self._read_resolved(target, addr)

    def _read_resolved(self, block: Block, addr: Sequence[int]):
        """Read from an already-resolved block, handling not-yet-valid buffers."""
        if isinstance(block, BufferOnlyBlock):
            self.stats.buffer_only_reads += 1
            index = block.element_index(addr)
            buf = block.buffer.read_buffer
            page = buf.pages[buf.page_of(index)]
            if not (block.is_valid or page.valid):
                key = PageKey(block.block_id, page.index)
                self.missing_pages.add(key)
                # The step's results will be discarded (refresh fails): a
                # field value stands in, so ``fn`` never sees a made-up zero.
                value = self._placeholder(self._slots[block.block_id][0])
                return value[0] if block.components == 1 else value.copy()
            self._fill_unfilled(block)
        return block.read(addr)

    def read(self, addr: Sequence[int]):
        """Read starting the search at the root (used by Reference blocks)."""
        target = self.find_block(addr, start=self.root)
        if target is None:
            raise AddressError(f"no block of Env {self.name!r} contains address {tuple(addr)}")
        return self._read_resolved(target, addr)

    # ------------------------------------------------------------------
    # Env search
    # ------------------------------------------------------------------
    def find_block(self, addr: Sequence[int], *, start: Optional[Block] = None) -> Optional[Block]:
        """Locality-prioritising search for the Block containing ``addr``.

        Starting from ``start`` the search first explores the node
        itself, then its descendants, then (moving upward one level at a
        time) the untried subtrees of each ancestor.  Because boundary
        blocks hang off the root on a separate branch, they are examined
        last — exactly the ordering rationale of the paper's Fig. 2.
        """
        self.stats.searches += 1
        node = start if start is not None else self.root
        visited: Set[int] = set()
        while node is not None:
            found = self._search_down(node, addr, visited)
            if found is not None:
                return found
            node = node.parent
        return None

    def _search_down(self, node: Block, addr: Sequence[int], visited: Set[int]) -> Optional[Block]:
        if node.block_id in visited:
            return None
        visited.add(node.block_id)
        self.stats.search_steps += 1
        if node.holds_data and node.contains(addr):
            return node
        for child in node.children:
            found = self._search_down(child, addr, visited)
            if found is not None:
                return found
        return None

    def box_blocks(self, ndim: int) -> List[Block]:
        """The data-holding ``ndim``-D Blocks in root search order, which
        the positions :meth:`locate_blocks` returns index."""
        return self._box_table(ndim)[0]

    def box_position(self, block: Block) -> int:
        """The position of data-holding ``block`` in :meth:`box_blocks`."""
        position = self._box_table(block.ndim)[1].get(block.block_id)
        if position is None:
            raise EnvError(f"block {block.name!r} is not a data-holding Block of Env {self.name!r}")
        return position

    def _box_table(self, ndim: int) -> tuple:
        """``(blocks, {block id: position}, grid)`` of the ``ndim``-D data
        Blocks (``grid``: their :class:`~repro.memory.boxes.BoxGrid`).

        Blocks are listed in the order a search from the root visits
        them; the data joint is the root's first child, so its Blocks
        come first.
        """
        table = self._box_tables.get(ndim)
        if table is None:
            def listed(top: Block) -> List[Block]:
                return [b for b in top.iter_subtree() if b.holds_data and b.ndim == ndim]

            blocks = listed(self.root)
            lo = np.array([b.origin for b in blocks], dtype=np.int64).reshape(-1, ndim)
            hi = lo + np.array([b.shape for b in blocks], dtype=np.int64).reshape(-1, ndim)
            position = {b.block_id: k for k, b in enumerate(blocks)}
            n_joint = len(listed(self.data_joint))
            grid = BoxGrid(lo, hi, n_joint) if blocks else None
            table = (blocks, position, grid)
            self._box_tables[ndim] = table
        return table

    def locate_blocks(self, addresses, *, start: Optional[Block] = None) -> np.ndarray:
        """:meth:`find_block` for an ``(n, ndim)`` array of addresses at
        once, as positions into :meth:`box_blocks` (-1: no Block).

        Every address is looked up in its cell of the box table's
        :class:`~repro.memory.boxes.BoxGrid` (no Block the cell does not
        list can hold it); the first containing Block in root search
        order is the answer.  That order is also what a search
        from ``start`` finds whenever at most one Block of ``start``'s own
        branch contains the address — a start under the data joint
        exhausts the joint before any boundary Block.  The remaining
        addresses (overlapping Blocks under the data joint, or a
        ``start`` on another branch) go through the scalar search, so
        the start-relative priority stays exact.  Counts one search and
        one search step per table-resolved address.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        first, ambiguous = self.locate_boxes(addrs, starts=(start,))
        position = self._box_table(addrs.shape[1])[1]
        for i in np.flatnonzero(ambiguous).tolist():
            found = self.find_block(tuple(addrs[i].tolist()), start=start)
            first[i] = -1 if found is None else position[found.block_id]
        return first

    def locate_boxes(
        self, addresses: np.ndarray, *, starts: Sequence[Optional[Block]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The box-table half of :meth:`locate_blocks`, for a search from
        any of ``starts``: ``(positions, ambiguous)``.  An ambiguous
        address is one a search from some start may find in another
        Block than the root order does; its position is left for the
        caller's scalar search.  Counts one search and one search step
        per other address.  Costs O(1) per address and listed Block of
        its grid cell, not O(Blocks)."""
        n, ndim = addresses.shape
        blocks, _, grid = self._box_table(ndim)
        # Matches a search from a start may order differently than one
        # from the root: those under the joint, or all of them when some
        # start is neither the root nor under the joint.
        contest_all = False
        for start in starts:
            node = start
            while node is not None and node is not self.data_joint:
                node = node.parent
            if node is None and start is not None and start is not self.root:
                contest_all = True
                break
        if n and blocks:
            first, ambiguous = grid.locate(addresses, contest_all)
        else:
            first, ambiguous = np.full(n, -1, dtype=np.intp), np.zeros(n, dtype=bool)
        located = n - int(np.count_nonzero(ambiguous))
        self.stats.searches += located
        self.stats.search_steps += located
        return first, ambiguous

    # ------------------------------------------------------------------
    # page-based interface (used by aspect modules / the simulated network)
    # ------------------------------------------------------------------
    def page_snapshot(self, key: PageKey) -> np.ndarray:
        block = self.block(key.block_id)
        if not isinstance(block, DataBlock):
            raise EnvError(f"page snapshot requested from non-data block {block.name!r}")
        return block.page_snapshot(key.page_index)

    def page_export(self, key: PageKey) -> Tuple[np.ndarray, int]:
        """Zero-copy page export: ``(read-buffer view, content generation)``.

        The shared-memory transport copies the view's bytes into its
        arena itself, so no intermediate snapshot is allocated; the
        generation (its image class's swap count) lets it reuse the
        published slot untouched while the read buffer hasn't swapped.
        The view aliases live pool memory — callers must copy before the
        next refresh and never write through it.
        """
        block = self.block(key.block_id)
        if not isinstance(block, DataBlock):
            raise EnvError(f"page export requested from non-data block {block.name!r}")
        return block.page_view(key.page_index), block.content_generation

    def page_install(self, key: PageKey, data: np.ndarray) -> None:
        self.page_install_many([(key, data)])

    def page_install_many(self, items: Iterable[Tuple[PageKey, np.ndarray]]) -> None:
        """Install a batch of fetched pages (one aggregated halo exchange),
        each touched Block's ghost rows dropped from ``fresh`` once."""
        touched: Set[int] = set()
        for key, data in items:
            block = self.block(key.block_id)
            if not isinstance(block, DataBlock):
                raise EnvError(f"page install requested on non-data block {block.name!r}")
            self._fill_unfilled(block)
            block.page_fill(key.page_index, data)
            touched.add(key.block_id)
        self._halo_pages_live = True
        self.invalidate_dense(touched)

    def invalidate_buffer_only(self) -> None:
        """Mark every Buffer-only Block stale (done at each step boundary)."""
        if not self._halo_pages_live:
            return  # nothing was installed since the last call
        self._halo_pages_live = False
        self._unfilled.clear()
        stale = [block for image in self._images.values() for block in image.remote]
        for block in stale:
            block.invalidate()
        self.invalidate_dense(b.block_id for b in stale)

    # ------------------------------------------------------------------
    # pushed halo (publish protocol of the distributed-memory aspect)
    # ------------------------------------------------------------------
    @property
    def plan_generation(self) -> tuple:
        """Changes whenever the set of compiled plans may have: what a
        site-granular communication plan was derived from."""
        return (self.mmat.resets, self.mmat.plan_compiles)

    def plan_halo_rows(self) -> List[Tuple[DenseImage, np.ndarray]]:
        """Per image, the sorted distinct halo rows the ghost sites of every
        compiled plan read — the sites an owner must publish."""
        tables: Dict[int, Tuple[DenseImage, list]] = {}
        for plan in self.mmat.plans.values():
            for seg in plan.halo_segments:
                tables.setdefault(id(seg.image), (seg.image, []))[1].append(seg.ghost_halo)
        return [(image, sorted_unique(np.concatenate(parts))) for image, parts in tables.values()]

    def halo_row_blocks(self, image: DenseImage, rows: np.ndarray):
        """Resolve halo rows of ``image`` to their Blocks: ``(blocks, block
        index per row, element index per row)``."""
        bases = np.array([self._slots[b.block_id][1] for b in image.remote], dtype=np.intp)
        which = np.searchsorted(bases, rows, side="right") - 1
        return list(image.remote), which, rows - bases[which]

    def set_pushed_rows(self, tables: Iterable[Tuple[DenseImage, np.ndarray]]) -> None:
        """Declare the halo rows the owners publish from now on, one
        ``(image, sorted halo rows)`` per slot table in the order
        :meth:`copy_pushes` hands the slots over, and number every image's
        tail to match (:meth:`DenseImage.number`): owner-major runs."""
        self._pushed_rows, runs = [], {}
        for image, rows in tables:
            first = sum(run.size for run in runs.setdefault(id(image), []))
            runs[id(image)].append(rows)
            self._pushed_rows.append((image, rows, first))
        for image in self._images.values():
            image.number(runs.get(id(image), ()))
        self._pushes_in = False

    def copy_pushes(self, slots: Sequence[np.ndarray], *, check: bool = False) -> None:
        """Copy each slot (``(rows, components)``, in :meth:`set_pushed_rows`
        order) into its run of the read slab's tail, read until the next
        swap; ``check`` (``REPRO_CHECK``) asserts every run equals its slot."""
        for (image, _rows, first), slot in zip(self._pushed_rows, slots):
            base = image.ghost_base + first
            image.read[base : base + len(slot)] = slot
            image.fresh.clear()
            if check and image.read[base : base + len(slot)].tobytes() != slot.tobytes():
                raise EnvError(f"Env {self.name!r}: a ghost run differs from its slot")
        self._pushes_in = True

    def fill_ghosts(self, plan) -> None:
        """Make the ghost rows ``plan`` reads current: unless the pushes are
        in and cover the plan, its pages checked once — invalid ones
        recorded missing (the step is re-executed) — and the
        rows it reads, and no other, written in one pass per table
        (:attr:`~repro.memory.mmat.PlanSegment.ghost_fill`): the valid
        pages' rows copied, a field value (:meth:`_placeholder`) in the
        others that no push of this step filled (its ``fn`` never computes
        on what the tail held).  Pages valid by birth that
        :meth:`_fill_unfilled` has not filled yet count as not valid."""
        if not plan.has_halo:
            return
        pushed = self._pushes_in and plan.covered()
        if not pushed:
            pages = plan.pages
            valid = [block.is_valid or block.buffer.read_buffer.pages[key.page_index].valid
                     for key, block in pages]
            self.missing_pages.update(key for (key, _), ok in zip(pages, valid) if not ok)
            unfilled = self._unfilled
            if unfilled:
                valid = [ok and b.block_id not in unfilled for ok, (_, b) in zip(valid, pages)]
            valid = np.array(valid, dtype=bool)
            for seg in plan.halo_segments:
                self._fill_rows(seg.image, *seg.ghost_fill, valid)
        from ..runtime.shm import protocol_checks  # memory sits below runtime
        for seg in plan.halo_segments if protocol_checks() else ():
            filled = seg.image.pushed if pushed else seg.image.halo_rows
            if seg.rows()[0].max() >= seg.image.ghost_base + filled:
                raise EnvError(f"Env {self.name!r}: a compiled table reads past the filled tail")

    def _fill_rows(self, image: DenseImage, halo: np.ndarray, page_of: np.ndarray,
                   valid: np.ndarray) -> None:
        """Write the halo rows ``halo`` (sorted) of the read slab: the rows
        of valid pages (``valid[page_of]``) copied from the pages — in the
        next slab's tail, or apart in a single-buffered class — a field
        value into the others, unless this step's pushes filled them."""
        ok = valid[page_of]
        rows = image.ghost_index(halo)
        if image.depth > 1:
            pages = image.next[image.ghost_base + halo[ok]]
        else:
            dense = [block.buffer.read_buffer.dense() for block in image.remote]
            pages = np.concatenate(dense)[halo[ok]]
        image.read[rows[ok]] = pages
        stale = rows[~ok]
        if self._pushes_in:  # rows this step's pushes filled stay
            stale = stale[stale >= image.ghost_base + image.pushed]
        image.read[stale] = self._placeholder(image)
        self.stats.dense_assemblies += 1

    def _ghost_rows(self, block: DataBlock) -> Tuple[np.ndarray, np.ndarray]:
        """``(read-slab rows, valid)`` of Buffer-only ``block``'s ghost rows:
        per element, its row and whether its page is valid."""
        image, lo, hi, _ = self._slots[block.block_id]
        pages = block.buffer.read_buffer.pages
        valid = np.repeat([block.is_valid or p.valid for p in pages], [p.elements for p in pages])
        return image.ghost_index(np.arange(lo, hi)), valid

    def _fill_ghosts(self, image: DenseImage, block: DataBlock) -> None:
        """Copy the valid pages of Buffer-only ``block`` into its ghost rows
        of the read slab, and a field value (:meth:`_placeholder`) into
        those of its pages not valid yet that no push of this step filled:
        the step that reads them is re-executed, but its ``fn`` never
        computes on what the tail held."""
        self._fill_unfilled(block)
        rows, valid = self._ghost_rows(block)
        image.read[rows[valid]] = block.buffer.read_buffer.dense()[valid]
        if not valid.all():
            stale = rows[~valid]
            if self._pushes_in:  # rows this step's pushes filled stay
                stale = stale[stale >= image.ghost_base + image.pushed]
            image.read[stale] = self._placeholder(image)
        image.fresh.add(block.block_id)
        self.stats.dense_assemblies += 1

    def _fill_unfilled(self, block: DataBlock) -> None:
        """Give a Buffer-only Block's pages, if valid by birth and never
        read or installed into, a field value in every generation: a
        warm-up reads them before any data arrived."""
        if block.block_id in self._unfilled:
            self._unfilled.discard(block.block_id)
            value = self._placeholder(self._slots[block.block_id][0])
            for buf in block.buffer.buffers:
                buf.load_dense(np.broadcast_to(value, (block.element_count, block.components)))

    @staticmethod
    def _placeholder(image: DenseImage) -> np.ndarray:
        """What a read of a page not valid yet returns: the first owned row
        of the read slab, a value the field holds (zeros while the class
        owns no row)."""
        if image.local_rows:
            return image.read[0]
        return np.zeros(image.components, dtype=image.dtype)

    # ------------------------------------------------------------------
    # bulk access (used by compiled access plans)
    # ------------------------------------------------------------------
    def dense_read(self, block: DataBlock) -> np.ndarray:
        """``(elements, components)`` of a Block's read buffer in the dense
        image (:class:`DenseImage`): an owned Block's *is* its read buffer,
        a slice aliasing the image until the next refresh, never to be
        written through; a Buffer-only Block's ghost rows, a copy."""
        image, lo, hi, halo = self.image_slot(block)
        if not halo:
            return image.read[lo:hi]
        if block.block_id not in image.fresh:
            self._fill_ghosts(image, block)
        return image.read[image.ghost_index(np.arange(lo, hi))]

    def image_slot(self, block: DataBlock) -> tuple:
        """``(image, first row, end row, is halo)`` of an attached Data Block."""
        try:
            return self._slots[block.block_id]
        except KeyError:
            raise EnvError(
                f"block {block.name!r} is not a Data Block of Env {self.name!r}"
            ) from None

    def store_rows(self, blocks: Sequence[DataBlock], values: np.ndarray) -> None:
        """Write ``values`` over *every* element of a tile (owned Blocks
        whose image rows follow each other): one slice store into ``next``
        — their write buffers, never its ghost tail."""
        image, lo, _, _ = self.image_slot(blocks[0])
        hi = self._slots[blocks[-1].block_id][2]
        if hi > image.ghost_base:
            raise EnvError(f"Env {self.name!r}: a store of rows {lo}..{hi} reaches the ghost tail")
        image.next[lo:hi] = values

    def invalidate_dense(self, block_ids: Iterable[int]) -> None:
        """Stop trusting the ghost rows of the Buffer-only Blocks
        ``block_ids`` (installed into, invalidated): the next open read
        copies their pages again.  Owned Blocks have no copy."""
        for block_id in block_ids:
            slot = self._slots.get(block_id)
            if slot is not None:
                slot[0].fresh.discard(block_id)

    def check_dense_image(self) -> None:
        """Raise :class:`EnvError` unless the :class:`DenseImage` invariant
        holds: every page is its rows of the slabs (by address) — owned ones
        ahead of the ghost tail, Buffer-only ones in the next generation's
        tail; every buffer is bound to its own image (so reads its read
        generation); slabs overlap neither each other nor kernel scratch (a
        fused store never lands in the field it was computed from); the
        ghost rows of a fresh Buffer-only Block equal its valid pages."""
        def fail(what: str):
            raise EnvError(f"dense image of Env {self.name!r}: {what}")

        for image in self._images.values():
            slabs = image.slabs
            apart = slabs + list(self.mmat._scratch.values())  # padded fields among them
            if any(np.may_share_memory(a, b) for k, a in enumerate(slabs) for b in apart[k + 1:]):
                fail(f"slabs of class {(image.components, image.dtype)} overlap "
                     "each other or kernel scratch")
            if image.local_rows > image.ghost_base or image.halo_rows > image.tail:
                fail(f"class {(image.components, image.dtype)} holds more rows than its slabs")
        for block_id, slot in self._slots.items():
            image, halo, block = slot[0], slot[3], self.blocks_by_id[block_id]
            buf = block.buffer
            if buf.home is not image and (not halo or image.depth > 1):
                fail(f"the buffers of block {block.name!r} are not bound to its image")
            start = slot[1] + (image.ghost_base if halo else 0)
            for generation, rows in zip(buf.buffers, image.rows_of(slot) if buf.home else ()):
                # One address per page; its rows' is the slab rows' plus an offset.
                base, step = _address(rows), rows.strides[0] * generation.page_elements
                for page in generation.pages:
                    if _address(page.array) != base + page.index * step:
                        first = page.index * generation.page_elements
                        fail(f"page {page.index} of block {block.name!r} is not "
                             f"rows {start + first}.. of its slab")
            if halo and block_id in image.fresh:
                rows, valid = self._ghost_rows(block)
                if not np.array_equal(image.read[rows[valid]], buf.read_buffer.dense()[valid]):
                    fail(f"the ghost rows of block {block.name!r} are marked fresh "
                         "but differ from its pages")

    def check_pushed_rows(self) -> None:
        """Raise :class:`EnvError` unless the rows declared by
        :meth:`set_pushed_rows` cover every halo row a compiled plan reads
        (the communication plan ⊇ the plans' requirements)."""
        if not all(plan.covered() for plan in self.mmat.plans.values()):
            raise EnvError(
                f"Env {self.name!r}: compiled plans read halo rows the owners "
                "were never asked to publish"
            )

    def plan_page_requirements(self) -> Set[PageKey]:
        """Union of the Buffer-only (halo) pages every compiled plan reads.

        The distributed-memory aspect merges this set into its Dry-run
        prefetch: once a plan is compiled, the full halo of the sweep is
        known statically and can be bulk-fetched one page per message,
        without waiting for a failed refresh to reveal each page.
        """
        needed: Set[PageKey] = set()
        for plan in self.mmat.plans.values():
            needed.update(plan.remote_pages())
        return needed

    # ------------------------------------------------------------------
    # accounting (Fig. 12)
    # ------------------------------------------------------------------
    def image_scratch_bytes(self) -> int:
        """What image and kernels keep *outside* the pool: MMAT read scratch
        and padded fields, the fused kernels' tables."""
        return self.mmat.scratch_bytes()

    def structure_bytes(self) -> int:
        """Rough footprint of the Env structure itself: the tree, each
        buffer's page list and Page descriptors, the MMAT memo and plans."""
        import sys

        total = 0
        for block in self.blocks_by_id.values():
            total += sys.getsizeof(block)
            total += sys.getsizeof(block.children)
            for buf in block.buffer.buffers if isinstance(block, DataBlock) else ():
                total += sys.getsizeof(buf.pages) + sum(map(sys.getsizeof, buf.pages))
        total += self.mmat.memory_bytes() - self.mmat.scratch_bytes()
        return total

    def memory_report(self) -> dict:
        """Decomposition used by the Fig. 12 benchmark."""
        pool_stats = self.allocator.stats() if isinstance(self.allocator, PoolGroup) else {}
        try:
            self.check_dense_image()
            image_error = None
        except EnvError as exc:
            image_error = str(exc)
        return {
            "pool_capacity": self.allocator.capacity_bytes,
            "pool_used": self.allocator.used_bytes,
            "pool_unused": self.allocator.free_bytes,
            "env_structure": self.structure_bytes(),
            "image_scratch": self.image_scratch_bytes(),
            #: What :meth:`check_dense_image` found wrong; None: nothing.
            "image_error": image_error,
            "pools": {name: stats.__dict__ for name, stats in pool_stats.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Env(name={self.name!r}, data_blocks={len(self.data_blocks())}, "
            f"boundaries={len(self.boundary_blocks)}, step={self.step})"
        )

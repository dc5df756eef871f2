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

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..aop.registry import TAG_GET_BLOCKS, TAG_REFRESH, annotate
from .address import GlobalAddress, to_local
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
from .mmat import MMAT
from .page import PageKey
from .pool import Chunk, MemoryPool, PoolGroup

__all__ = ["Env", "EnvStats", "DenseImage"]


@dataclass
class EnvStats:
    """Counters describing how the Env was exercised.

    These feed three places: the MMAT effectiveness numbers in the
    Fig. 6 bench, the communication volumes used by the cost model for
    the scaling figures, and the working-memory estimate of Fig. 12.
    """

    reads: int = 0
    in_block_reads: int = 0
    out_of_block_reads: int = 0
    searches: int = 0
    search_steps: int = 0
    mmat_hits: int = 0
    missing_recorded: int = 0
    refreshes: int = 0
    failed_refreshes: int = 0
    buffer_swaps: int = 0
    #: Buffer-only Blocks copied into the image's ``halo`` mirror (owned
    #: Blocks' pages *are* image rows).
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
    array of the read buffers of *all* the Env's Blocks of a class, so a
    plan is one gather however many Blocks its sites land in.

    * ``slabs`` — for the Blocks the Env owns that array is not a copy,
      it **is** the page memory: ``depth`` arrays of ``(rows,
      components)``, each one pool chunk the image holds.  Every owned
      Block has the rows ``[base, base + element_count)`` of all of them;
      the pages of its buffer generation ``g`` are views of those rows of
      slab ``g``.  ``read`` / ``next`` are the slabs of the current read /
      write generation.  The Blocks' buffers read ``generation`` from
      here, so :meth:`swap` — ``Env.refresh``, nothing else — swaps all
      of them by counting it on.
    * ``halo`` — ``(halo_rows, components)`` for the Buffer-only Blocks,
      outside the pool and single-buffered (they never swap): a *mirror*
      of their pages, assembled on demand (``fresh``: the Blocks whose
      rows are current).  Only open steps read it: on a closed step the
      owners' pushes are read where they land, in the slots
      (:meth:`Env.pushed_slots`).

    Row bases are handed out once, at ``Env.add_data_block``, and never
    move, so compiled row indices stay valid while the tree grows; slabs
    are re-allocated when a class outgrows them, ``halo`` is re-assembled.
    """

    __slots__ = (
        "components", "dtype", "depth", "local_rows", "halo_rows",
        "chunks", "slabs", "owned", "generation", "halo", "fresh",
    )

    def __init__(self, components: int, dtype, depth: int = 2) -> None:
        self.components = int(components)
        self.dtype = np.dtype(dtype)
        self.depth = int(depth)
        self.local_rows = 0
        self.halo_rows = 0
        self.chunks: List[Chunk] = []
        self.slabs: List[np.ndarray] = []
        #: The Blocks whose pages are rows of the slabs, in row order.
        self.owned: List[DataBlock] = []
        #: Swaps so far: the owned Blocks' content generation.
        self.generation = 0
        self.halo: Optional[np.ndarray] = None
        #: Ids of the Buffer-only Blocks whose ``halo`` rows are current.
        self.fresh: Set[int] = set()

    @property
    def read(self) -> Optional[np.ndarray]:
        return self.slabs[self.generation % self.depth] if self.slabs else None

    @property
    def next(self) -> Optional[np.ndarray]:
        return self.slabs[(self.generation + 1) % self.depth] if self.slabs else None

    def allocate(self, allocator, capacity: int, owner: str) -> None:
        """Give the old slabs back and take ``depth`` of ``capacity`` rows
        (their contents are the caller's to move)."""
        for chunk in self.chunks:
            chunk.free()
        self.chunks, self.slabs = [], []
        nbytes = capacity * self.components * self.dtype.itemsize
        for generation in range(self.depth if capacity else 0):
            try:
                chunk = allocator.allocate(nbytes)
            except PoolExhaustedError as exc:
                self.allocate(allocator, 0, owner)
                raise PoolExhaustedError(
                    f"Env {owner!r}: no pool holds slab {generation} of {self.depth} of "
                    f"its dense image ({capacity} rows x {self.components} of "
                    f"{self.dtype}, {nbytes} bytes): {exc}"
                ) from exc
            self.chunks.append(chunk)
            cells = chunk.as_array(self.dtype, capacity * self.components)
            self.slabs.append(cells.reshape(capacity, self.components))

    def reserve(self, block: DataBlock) -> tuple:
        """Hand ``block`` its rows: ``(self, first row, end row, is halo)``."""
        halo = isinstance(block, BufferOnlyBlock)
        count = block.element_count
        if halo:
            base, self.halo_rows = self.halo_rows, self.halo_rows + count
            self.halo = None  # a mirror: the next read assembles it at its new size
            self.fresh.clear()
        else:
            base, self.local_rows = self.local_rows, self.local_rows + count
            self.owned.append(block)
        return (self, base, base + count, halo)

    def swap(self) -> int:
        """Swap ``read`` and ``next`` and, with them, the buffers of every
        owned Block; returns how many Blocks swapped."""
        self.generation += 1
        return len(self.owned)


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
        self._image_lock = threading.Lock()
        #: Pages found missing (non-existent / not-yet-valid) since the
        #: last refresh.  AspectType III advice consumes this list.
        self.missing_pages: Set[PageKey] = set()
        #: Missing pages of the refresh that most recently failed; kept so
        #: the communication advice (and the Dry-run record) can see them
        #: after ``refresh`` already returned False.
        self.last_failed_pages: Set[PageKey] = set()
        #: The step counter advanced by successful, non-warm-up refreshes.
        self.step = 0
        #: In-flight overlapped halo exchange installed by the
        #: distributed-memory aspect (an object with ``complete(env, *,
        #: drained=...)``); completed lazily by the first reader that
        #: needs halo data, or drained at the next refresh / finalize.
        self._pending_halo = None
        self._halo_lock = threading.Lock()
        #: Publish protocol (set by the distributed-memory aspect): per
        #: slot table the ``(image, sorted halo rows)`` the owners push
        #: into it, numbered by negotiation, and, from a push's completion
        #: until the next buffer swap, the slots (as functions viewing them).
        self._pushed_rows: List[Tuple[DenseImage, np.ndarray]] = []
        self._negotiation = 0
        self._pushed_slots: Optional[Sequence[Callable[[], np.ndarray]]] = None
        #: Whether any Buffer-only page may be valid (pages are born valid,
        #: installs validate them): lets the per-step invalidation of a
        #: run whose halo is pushed, not installed, return at once.
        self._halo_pages_live = True
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

    def reserve_image(self, components: int, dtype, rows: int, depth: int = 2) -> None:
        """Make room, once, for ``rows`` more owned rows of a class: a DSL
        target sizes the slabs before it adds its first Block, so none moves."""
        image = self._image_of(components, dtype, depth)
        self.stats.rehomes_class_grew += self._resize(image, image.local_rows + int(rows))

    def _resize(self, image: DenseImage, capacity: int) -> bool:
        """Slabs of ``capacity`` rows for ``image``: snapshot, free, allocate,
        restore — the pool (often full) never holds two layouts at once — and
        every owned page re-pointed.  Returns whether rows with data moved."""
        held, before = image.local_rows, len(image.slabs[0]) if image.slabs else 0
        if capacity <= before:
            return False
        saved = [slab[:held].copy() for slab in image.slabs]
        try:
            image.allocate(self.allocator, capacity, self.name)
        except PoolExhaustedError:
            image.allocate(self.allocator, before, self.name)  # what fitted before
            raise
        finally:
            for slab, rows in zip(image.slabs, saved):
                slab[:held] = rows
            for block in image.owned:
                _, lo, hi, _ = self._slots[block.block_id]
                block.buffer.rehome([slab[lo:hi] for slab in image.slabs], image)
        return held > 0

    def add_data_block(self, block: DataBlock, *, parent: Optional[Block] = None) -> DataBlock:
        """Attach a Data (or Buffer-only) Block under the data joint.

        A Buffer-only Block keeps its pages.  An owned Block gets the next
        free rows of its class's dense-image slabs as its pages (the slabs
        grow by exactly that much unless :meth:`reserve_image` made room);
        one made with an allocator is *re-homed*: its generations copied
        in, its own chunks returned first — a pool that cannot hold the
        grown slabs raises with the Env as it was, but the Block emptied.
        """
        if not isinstance(block, DataBlock):
            raise EnvError("add_data_block expects a DataBlock (or subclass)")
        buf = block.buffer
        image = self._image_of(block.components, buf.read_buffer.dtype, buf.depth)
        if not isinstance(block, BufferOnlyBlock):
            lo, hi = image.local_rows, image.local_rows + block.element_count
            saved = buf.vacate()
            moved = self._resize(image, hi)
            buf.rehome([slab[lo:hi] for slab in image.slabs], image)
            for ahead, rows in enumerate(saved):
                image.slabs[(image.generation + ahead) % image.depth][lo:hi] = rows
            self.stats.rehomes_late_block += bool(saved)
            self.stats.rehomes_class_grew += moved and not saved
        (parent or self.data_joint).add_child(block)
        self._halo_pages_live = True  # a new Buffer-only Block's pages are born valid
        self._slots[block.block_id] = image.reserve(block)
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
        self.stats.refreshes += 1
        if self.missing_pages:
            self.last_failed_pages = set(self.missing_pages)
            self.missing_pages.clear()
            self.stats.failed_refreshes += 1
            return False
        self.last_failed_pages = set()
        if warmup:
            return True
        if self._pending_halo is not None:
            # A parked exchange would land its rows on the swapped images.
            from ..runtime.shm import protocol_checks  # memory sits below runtime

            if protocol_checks():
                raise EnvError(
                    f"Env {self.name!r} swaps with a halo exchange still parked "
                    "(every PendingHalo must complete before a swap)"
                )
        # The one place buffers swap: every owned Block's and, with them,
        # the slabs they are rows of.
        for image in self._images.values():
            self.stats.buffer_swaps += image.swap()
        self.step += 1
        self._pushed_slots = None  # every owner's data just moved on
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
        # This is the hottest scalar path of the platform; localise the
        # stats object and skip the relative-tuple construction entirely
        # when MMAT is disabled (it is only ever used as a memo key).
        stats = self.stats
        stats.reads += 1
        if assume_inside:
            stats.in_block_reads += 1
            return start.read(addr)

        mmat = self.mmat
        if mmat.enabled:
            relative = tuple(a - o for a, o in zip(addr, start.origin))
            memo_block = mmat.lookup(start.block_id, relative)
            if memo_block is not None:
                stats.mmat_hits += 1
                return self._read_resolved(memo_block, addr)
        else:
            relative = None

        if start.holds_data and start.contains(addr):
            stats.in_block_reads += 1
            if relative is not None:
                mmat.remember(start.block_id, relative, start)
            return start.read(addr)

        stats.out_of_block_reads += 1
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
                # An overlapped halo exchange may still be in flight; its
                # pages count as present — complete it and re-check before
                # declaring the page missing (scalar-path overlap hook).
                if self._pending_halo is not None:
                    self.complete_pending_halo()
                    page = buf.pages[buf.page_of(index)]
            if not (block.is_valid or page.valid):
                key = PageKey(block.block_id, page.index)
                self.missing_pages.add(key)
                self.stats.missing_recorded += 1
                # The step's results will be discarded (refresh fails), so a
                # placeholder value is acceptable here.
                return 0.0 if block.components == 1 else np.zeros(block.components)
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
        position = self._box_table(block.ndim)[4].get(block.block_id)
        if position is None:
            raise EnvError(f"block {block.name!r} is not a data-holding Block of Env {self.name!r}")
        return position

    def _box_table(self, ndim: int) -> tuple:
        """``(blocks, lo, hi, n_joint, {block id: position})`` of the ``ndim``-D data Blocks.

        Blocks are listed in the order a search from the root visits
        them; the data joint is the root's first child, so its
        ``n_joint`` Blocks come first.
        """
        table = self._box_tables.get(ndim)
        if table is None:
            def listed(top: Block) -> List[Block]:
                return [b for b in top.iter_subtree() if b.holds_data and b.ndim == ndim]

            blocks = listed(self.root)
            lo = np.array([b.origin for b in blocks], dtype=np.int64).reshape(-1, ndim)
            hi = lo + np.array([b.shape for b in blocks], dtype=np.int64).reshape(-1, ndim)
            position = {b.block_id: k for k, b in enumerate(blocks)}
            table = (blocks, lo, hi, len(listed(self.data_joint)), position)
            self._box_tables[ndim] = table
        return table

    def locate_blocks(self, addresses, *, start: Optional[Block] = None) -> np.ndarray:
        """:meth:`find_block` for an ``(n, ndim)`` array of addresses at
        once, as positions into :meth:`box_blocks` (-1: no Block).

        Every address is tested against the box table of the
        data-holding Blocks whose box meets the addresses' bounding box
        (no other Block can hold one) with one (chunked) broadcast
        comparison; the first containing Block in root search order is
        the answer.  The kept Blocks stay in that order, so dropping the
        others changes no answer.  That order is also what a search from
        ``start`` finds whenever at most one Block of ``start``'s own
        branch contains the address — a start under the data joint
        exhausts the joint before any boundary Block.  The remaining
        addresses (overlapping Blocks under the data joint, or a
        ``start`` on another branch) go through the scalar search, so
        the start-relative priority stays exact.  Counts one search and
        one search step per table-resolved address.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        first, ambiguous = self.locate_boxes(addrs, starts=(start,))
        position = self._box_table(addrs.shape[1])[4]
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
        per other address."""
        n, ndim = addresses.shape
        blocks, lo, hi, n_joint, _ = self._box_table(ndim)
        kept = np.empty(0, dtype=np.intp)
        if n and blocks:
            meets = (lo <= addresses.max(axis=0)) & (hi > addresses.min(axis=0))
            kept = np.flatnonzero(meets.all(axis=1))
        # Matches a search from a start may order differently than one
        # from the root: those under the joint, or all of them when some
        # start is neither the root nor under the joint.
        contested = int(np.searchsorted(kept, n_joint))
        for start in starts:
            node = start
            while node is not None and node is not self.data_joint:
                node = node.parent
            if node is None and start is not None and start is not self.root:
                contested = kept.size
                break
        first = np.full(n, -1, dtype=np.intp)
        ambiguous = np.zeros(n, dtype=bool)
        if kept.size:
            lo, hi = lo[kept], hi[kept]
            # At most 64k (address, Block) pairs a chunk: a tile's table
            # locates tens of thousands of addresses at once, and the
            # broadcast's temporaries are this size.
            chunk = max(1, (1 << 16) // kept.size)
            for s in range(0, n, chunk):
                a = addresses[s : s + chunk, None, :]
                hit = ((a >= lo) & (a < hi)).all(axis=2)
                first[s : s + chunk] = np.where(hit.any(axis=1), kept[hit.argmax(axis=1)], -1)
                ambiguous[s : s + chunk] = hit[:, :contested].sum(axis=1) > 1
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
        block = self.block(key.block_id)
        if not isinstance(block, DataBlock):
            raise EnvError(f"page install requested on non-data block {block.name!r}")
        block.page_fill(key.page_index, data)
        self._halo_pages_live = True
        self.invalidate_dense((key.block_id,))

    def page_install_many(self, items: Iterable[Tuple[PageKey, np.ndarray]]) -> None:
        """Install a batch of fetched pages (one aggregated halo exchange).

        Equivalent to :meth:`page_install` per item, but invalidates each
        touched block's dense image rows only once per block.
        """
        touched: Set[int] = set()
        for key, data in items:
            block = self.block(key.block_id)
            if not isinstance(block, DataBlock):
                raise EnvError(f"page install requested on non-data block {block.name!r}")
            block.page_fill(key.page_index, data)
            touched.add(key.block_id)
        self._halo_pages_live = True
        self.invalidate_dense(touched)

    def invalidate_buffer_only(self) -> None:
        """Mark every Buffer-only Block stale (done at each step boundary)."""
        if not self._halo_pages_live:
            return  # nothing was installed since the last call
        self._halo_pages_live = False
        stale = [
            b for b in self.data_blocks(include_buffer_only=True)
            if isinstance(b, BufferOnlyBlock)
        ]
        for block in stale:
            block.invalidate()
        self.invalidate_dense(b.block_id for b in stale)

    # ------------------------------------------------------------------
    # overlapped halo exchange (used by the distributed-memory aspect)
    # ------------------------------------------------------------------
    def set_pending_halo(self, pending) -> None:
        """Install an in-flight overlapped halo exchange on this Env.

        Any exchange still pending from a previous step is completed
        first (its pages would otherwise overwrite the newer data),
        then ``pending`` becomes the exchange the next halo reader —
        a boundary plan segment, a scalar Buffer-only access, or the
        next refresh — will complete.
        """
        self.complete_pending_halo(drained=True)
        with self._halo_lock:
            self._pending_halo = pending

    def has_pending_halo(self) -> bool:
        """Whether an overlapped halo exchange is still in flight."""
        return self._pending_halo is not None

    def complete_pending_halo(self, *, drained: bool = False) -> bool:
        """Wait for and install the in-flight halo exchange, if any.

        Thread-safe (hybrid runs: several shared-memory threads sweep
        one rank's Env concurrently — exactly one completes the
        exchange, the others block until the pages are installed).
        ``drained=True`` marks a completion that hid no latency (refresh
        entry / re-issue), accounted separately by the aspect.  Returns
        True when an exchange was completed by this call.
        """
        if self._pending_halo is None:
            return False
        with self._halo_lock:
            pending = self._pending_halo
            if pending is None:
                return False
            try:
                pending.complete(self, drained=drained)
            finally:
                self._pending_halo = None
            return True

    # ------------------------------------------------------------------
    # pushed halo (publish protocol of the distributed-memory aspect)
    # ------------------------------------------------------------------
    @property
    def plan_generation(self) -> tuple:
        """Changes whenever the set of compiled plans may have: what a
        site-granular communication plan was derived from."""
        return (self.mmat.resets, self.mmat.plan_compiles)

    def plan_halo_rows(self) -> List[Tuple[DenseImage, np.ndarray]]:
        """Per image, the sorted distinct ``halo`` rows every compiled
        plan's halo tables read — the sites an owner must publish."""
        tables: Dict[int, Tuple[DenseImage, list]] = {}
        for plan in self.mmat.plans.values():
            for seg in plan.split()[1]:
                tables.setdefault(id(seg.image), (seg.image, []))[1].append(seg.src_idx)
        return [(image, np.unique(np.concatenate(parts))) for image, parts in tables.values()]

    def halo_row_blocks(self, image: DenseImage, rows: np.ndarray):
        """Resolve sorted ``halo`` rows of ``image`` to their Blocks:
        ``(blocks, block index per row, element index per row)``."""
        slots = sorted(
            (lo, block_id)
            for block_id, (owner, lo, _hi, halo) in self._slots.items()
            if halo and owner is image
        )
        bases = np.array([lo for lo, _ in slots], dtype=np.intp)
        which = np.searchsorted(bases, rows, side="right") - 1
        return [self.blocks_by_id[block_id] for _, block_id in slots], which, rows - bases[which]

    def set_pushed_rows(self, tables: Iterable[Tuple[DenseImage, np.ndarray]]) -> None:
        """Declare where the owners publish ``halo`` rows from now on: one
        ``(image, sorted rows)`` per slot table, in the order
        :meth:`set_pushed_slots` hands the slots over."""
        self._pushed_rows = list(tables)
        self._negotiation += 1
        self._pushed_slots = None

    def set_pushed_slots(self, slots: Sequence[Callable[[], np.ndarray]]) -> None:
        """Hand over this step's pushes until the next swap: per slot table
        :meth:`set_pushed_rows` declared, in its order, a function viewing it
        as ``(rows, components)`` — a view kept would pin shared memory."""
        self._pushed_slots = slots

    def pushed_slots(self, segment) -> Optional[list]:
        """``[(slot, its row per site, sites), …]``, one per owner, of a halo
        :class:`~repro.memory.mmat.PlanSegment` whose every row this step's
        pushes hold; None when it reads pages."""
        slots = self._pushed_slots
        if slots is None:
            return None
        negotiation, aimed = segment.aimed
        if negotiation != self._negotiation:
            aimed, src, dst = [], segment.src_idx, segment.dst_idx
            unread = np.ones(src.size, dtype=bool)
            for k, (image, rows) in enumerate(self._pushed_rows):
                if image is not segment.image:
                    continue
                at = np.searchsorted(rows, src).clip(max=rows.size - 1)
                hit = rows[at] == src
                if hit.all():  # one owner's table: no copy of the sites
                    aimed.append((k, at, dst))
                elif hit.any():
                    aimed.append((k, at[hit], dst[hit]))
                unread &= ~hit
            aimed = None if unread.any() else aimed
            segment.aimed = (self._negotiation, aimed)
        return None if aimed is None else [(slots[k](), rows, sites) for k, rows, sites in aimed]

    # ------------------------------------------------------------------
    # bulk access (used by compiled access plans)
    # ------------------------------------------------------------------
    def dense_read(self, block: DataBlock) -> np.ndarray:
        """``(elements, components)`` view of a Block's read buffer in the
        dense image (:class:`DenseImage`).

        An owned Block's *is* its read buffer: a slice.  A Buffer-only
        Block's pages are copied into its ``halo`` rows when those are not
        fresh (a page install, an invalidation).  The view aliases the
        image: current until the next refresh or install, never to be
        written through.
        """
        image, lo, hi, halo = self.image_slot(block)
        if not halo:
            return image.read[lo:hi]
        rows = self._halo_array(image)[lo:hi]
        if block.block_id not in image.fresh:
            block.buffer.read_buffer.dense(out=rows)
            image.fresh.add(block.block_id)
            self.stats.dense_assemblies += 1
        return rows

    def _halo_array(self, image: DenseImage) -> np.ndarray:
        """The ``halo`` array of ``image``, allocated on its first use."""
        # Hybrid threads sweep one Env concurrently: exactly one may allocate,
        # or a Block assembled into the loser's array would count as fresh.
        if image.halo is None:
            with self._image_lock:
                if image.halo is None:
                    image.halo = np.empty((image.halo_rows, image.components), dtype=image.dtype)
        return image.halo

    def image_slot(self, block: DataBlock) -> tuple:
        """``(image, first row, end row, is halo)`` of an attached Data Block."""
        try:
            return self._slots[block.block_id]
        except KeyError:
            raise EnvError(
                f"block {block.name!r} is not a Data Block of Env {self.name!r}"
            ) from None

    def fresh_halo(self, image: DenseImage, sources: Iterable[DataBlock]) -> np.ndarray:
        """The ``halo`` array a plan's halo table indexes, with every
        Block of ``sources`` fresh."""
        for block in sources:
            if block.block_id not in image.fresh:
                self.dense_read(block)
        return image.halo

    def store_rows(self, blocks: Sequence[DataBlock], values: np.ndarray) -> None:
        """Write ``values`` over *every* element of a tile (owned Blocks
        whose image rows follow each other): one slice store into ``next``
        — their write buffers."""
        image, lo, _, _ = self.image_slot(blocks[0])
        image.next[lo : self._slots[blocks[-1].block_id][2]] = values

    def invalidate_dense(self, block_ids: Iterable[int]) -> None:
        """Stop trusting the ``halo`` rows of the Buffer-only Blocks
        ``block_ids`` (installed into, invalidated): the next
        :meth:`dense_read` re-assembles them.  Owned Blocks have no mirror."""
        for block_id in block_ids:
            slot = self._slots.get(block_id)
            if slot is not None:
                slot[0].fresh.discard(block_id)

    def check_dense_image(self) -> None:
        """Raise :class:`EnvError` unless the :class:`DenseImage` invariant
        holds: owned pages are their image rows (by address), every owned
        buffer is bound to its own image (so reads its read generation),
        slabs overlap neither each other nor kernel scratch (a fused store
        never lands in the field it was computed from), fresh ``halo`` rows
        equal their buffer's bytes."""
        def fail(what: str):
            raise EnvError(f"dense image of Env {self.name!r}: {what}")

        for image in self._images.values():
            slabs = image.slabs
            apart = slabs + list(self.mmat._scratch.values())  # padded fields among them
            if any(np.may_share_memory(a, b) for k, a in enumerate(slabs) for b in apart[k + 1:]):
                fail(f"slabs of class {(image.components, image.dtype)} overlap "
                     "each other or kernel scratch")
        for block_id, (image, lo, hi, halo) in self._slots.items():
            block = self.blocks_by_id[block_id]
            buf = block.buffer
            if halo:
                if block_id in image.fresh and (
                    image.halo[lo:hi].tobytes() != buf.read_buffer.dense().tobytes()
                ):
                    fail(f"the halo rows of block {block.name!r} are marked fresh "
                         "but differ from its buffer")
            elif buf.home is not image:
                fail(f"the buffers of block {block.name!r} are not bound to its image")
            else:
                for generation, slab in zip(buf.buffers, image.slabs):
                    for page in generation.pages:
                        first = lo + page.index * generation.page_elements
                        if page.array.ctypes.data != slab[first:].ctypes.data:
                            fail(f"page {page.index} of block {block.name!r} is not "
                                 f"rows {first}.. of its slab")

    def check_pushed_rows(self) -> None:
        """Raise :class:`EnvError` unless the rows declared by
        :meth:`set_pushed_rows` cover every halo row a compiled plan reads
        (the communication plan ⊇ the plans' requirements)."""
        for image, rows in self.plan_halo_rows():
            pushed = [table for owner, table in self._pushed_rows if owner is image]
            if not np.isin(rows, np.concatenate(pushed) if pushed else []).all():
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
        """What image and kernels keep *outside* the pool: ``halo`` mirrors,
        MMAT read scratch and padded fields, the fused kernels' tables."""
        halo = sum(img.halo.nbytes for img in self._images.values() if img.halo is not None)
        return halo + self.mmat.scratch_bytes()

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

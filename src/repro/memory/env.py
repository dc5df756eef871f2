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
* :meth:`Env.read_from` / :meth:`Env.write_from` — Global/Local address
  access starting from a Block, with the optional "surely inside" flag
  and MMAT support.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
from .errors import AddressError, EnvError
from .mmat import MMAT, as_tile
from .page import PageKey
from .pool import MemoryPool, PoolGroup

__all__ = ["Env", "EnvStats", "DenseImage"]


@dataclass
class EnvStats:
    """Counters describing how the Env was exercised.

    These feed three places: the MMAT effectiveness numbers in the
    Fig. 6 bench, the communication volumes used by the cost model for
    the scaling figures, and the working-memory estimate of Fig. 12.
    """

    reads: int = 0
    writes: int = 0
    in_block_reads: int = 0
    out_of_block_reads: int = 0
    searches: int = 0
    search_steps: int = 0
    mmat_hits: int = 0
    missing_recorded: int = 0
    refreshes: int = 0
    failed_refreshes: int = 0
    buffer_swaps: int = 0
    #: Blocks whose pages were copied into the dense read image because
    #: the image did not hold their current read buffer (0 per step in a
    #: steady-state full-store sweep).
    dense_assemblies: int = 0
    #: Scalar reads resolved to a Buffer-only Block: remote data the
    #: compiled plans (and so the pushed halo) do not cover.
    buffer_only_reads: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    def merged_with(self, other: "EnvStats") -> "EnvStats":
        merged = EnvStats()
        for key in self.__dict__:
            setattr(merged, key, getattr(self, key) + getattr(other, key))
        return merged


class DenseImage:
    """The dense read image of one ``(components, dtype)`` class of Blocks.

    Compiled access plans do not read pages: they index one contiguous
    copy of the read buffers of *all* the Env's Blocks of a class, so a
    plan is one gather however many Blocks its sites land in.  Layout:

    * ``read`` / ``next`` — ``(local_rows, components)``; every owned
      Data Block has the rows ``[base, base + element_count)`` of both.
      ``read`` mirrors the read buffers, ``next`` receives this step's
      full-block stores (:meth:`Env.note_full_store`); a successful
      non-warm-up refresh swaps the two together with the buffers.
    * ``halo`` — ``(halo_rows, components)`` for the Buffer-only Blocks,
      single-buffered because Buffer-only Blocks never swap: their read
      buffer is only ever refilled in place by page installs.  Under the
      publish protocol the owners' pushes land *here*, not in the pages
      (:meth:`Env.install_pushed_halo`): the pushed rows are then current
      although their Blocks are not ``fresh`` and their pages not valid.

    Row bases are handed out once, at ``Env.add_data_block``, and never
    move, so a compiled plan's row indices stay valid while the tree
    grows.  The arrays are allocated on first use; a new owned Block
    drops ``read`` / ``next`` (re-allocated at the new size on the next
    use), a new Buffer-only Block grows ``halo`` in place.

    **Invariant** (checked by :meth:`Env.check_dense_image`): for every
    Block in ``fresh`` its image rows equal ``read_buffer.dense()``; for
    every Block in ``next_fresh`` its ``next`` rows equal
    ``write_buffer.dense()``.  A Block in neither set says nothing — its
    rows are assembled from the pages by the next :meth:`Env.dense_read`.
    """

    __slots__ = (
        "components", "dtype", "local_rows", "halo_rows",
        "read", "next", "halo", "fresh", "next_fresh",
    )

    def __init__(self, components: int, dtype) -> None:
        self.components = int(components)
        self.dtype = np.dtype(dtype)
        self.local_rows = 0
        self.halo_rows = 0
        self.read: Optional[np.ndarray] = None
        self.next: Optional[np.ndarray] = None
        self.halo: Optional[np.ndarray] = None
        #: Ids of the Blocks (owned and Buffer-only) whose rows are current.
        self.fresh: Set[int] = set()
        #: Ids of the owned Blocks fully stored into ``next`` this step.
        self.next_fresh: Set[int] = set()

    def reserve(self, block: DataBlock) -> tuple:
        """Hand ``block`` its rows: ``(self, first row, end row, is halo)``."""
        halo = isinstance(block, BufferOnlyBlock)
        count = block.element_count
        if halo:
            base, self.halo_rows = self.halo_rows, self.halo_rows + count
            if self.halo is not None:
                # Pushed rows have no pages to be re-assembled from: grow.
                grown = np.empty((self.halo_rows, self.components), dtype=self.dtype)
                grown[:base] = self.halo
                self.halo = grown
        else:
            base, self.local_rows = self.local_rows, self.local_rows + count
            # The arrays are now too short: drop them and what they held.
            self.read = self.next = None
        self.invalidate()
        return (self, base, base + count, halo)

    def invalidate(self) -> None:
        """Trust no row (neither side) until it is assembled or stored again."""
        self.fresh.clear()
        self.next_fresh.clear()

    def swap(self) -> None:
        """The buffers swapped: this step's full stores are now the reads."""
        self.read, self.next = self.next, self.read
        self.fresh, self.next_fresh = self.next_fresh, set()


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
        #: The dense read image compiled plans index (see
        #: :class:`DenseImage`), one per ``(components, dtype)`` class of
        #: Data Blocks in the tree — one in every stock DSL — and each
        #: Block's rows in it as ``(image, first row, end row, is halo)``.
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
        #: image (by id) the mask of halo rows the owners push each closed
        #: step with the ids of that image's Buffer-only Blocks, an epoch
        #: bumped whenever the masks change, and whether
        #: the pushed rows hold the current step's data — from a push's
        #: completion until the next buffer swap.
        self._pushed_rows: Dict[int, tuple] = {}
        self._pushed_epoch = 0
        self._pushed_current = False
        #: Whether any Buffer-only page may be valid (pages are born valid,
        #: installs validate them): lets the per-step invalidation of a
        #: run whose halo is pushed, not installed, return at once.
        self._halo_pages_live = True
        #: Box tables of :meth:`find_blocks`, one per address
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

    def add_data_block(self, block: DataBlock, *, parent: Optional[Block] = None) -> DataBlock:
        """Attach a Data (or Buffer-only) Block under the data joint."""
        if not isinstance(block, DataBlock):
            raise EnvError("add_data_block expects a DataBlock (or subclass)")
        (parent or self.data_joint).add_child(block)
        self._halo_pages_live = True  # a new Buffer-only Block's pages are born valid
        key = (block.components, block.buffer.read_buffer.dtype)
        image = self._images.get(key)
        if image is None:
            image = self._images[key] = DenseImage(*key)
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

    def owned_blocks(self, task_id: int) -> List[DataBlock]:
        """Data Blocks whose calc-handle task id equals ``task_id``."""
        return [b for b in self.data_blocks() if b.ch_tid == task_id]

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
            # The step re-executes against the unchanged read buffers, so
            # this step's full-block stores are not (yet) readable data.
            self.invalidate_dense()
            return False
        self.last_failed_pages = set()
        if warmup:
            self.invalidate_dense()
            return True
        owned = self.data_blocks()
        for block in owned:
            block.refresh_swap()
        self.stats.buffer_swaps += len(owned)
        self.step += 1
        self._pushed_current = False  # every owner's data just moved on
        # The buffers just written by full-block stores are now the read
        # buffers: the image rows that mirrored them are valid reads.
        for image in self._images.values():
            image.swap()
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

    def write_from(self, start: Block, addr: Sequence[int], value) -> None:
        """Write ``value`` at global address ``addr``; out-of-block writes search the Env."""
        self.stats.writes += 1
        if start.contains(addr):
            self.discard_full_store(start.block_id)
            start.write(addr, value)
            return
        target = self.find_block(addr, start=start)
        if target is None:
            raise AddressError(
                f"no block of Env {self.name!r} contains address {tuple(addr)} for writing"
            )
        self.discard_full_store(target.block_id)
        target.write(addr, value)

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

    def _box_table(self, ndim: int) -> tuple:
        """``(blocks, lo, hi, n_joint)`` of the data-holding ``ndim``-D Blocks.

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
            table = (blocks, lo, hi, len(listed(self.data_joint)))
            self._box_tables[ndim] = table
        return table

    def find_blocks(self, addresses, *, start: Optional[Block] = None) -> List[Optional[Block]]:
        """:meth:`find_block` for an ``(n, ndim)`` array of addresses at once.

        Every address is tested against the box table of all
        data-holding Blocks with one (chunked) broadcast comparison; the
        first containing Block in root search order is the answer.  That
        order is also what a search from ``start`` finds whenever at most
        one Block of ``start``'s own branch contains the address — a
        start under the data joint exhausts the joint before any boundary
        Block.  The remaining addresses (overlapping Blocks under the
        data joint, or a ``start`` on another branch) go through the
        scalar search, so the start-relative priority stays exact.
        Counts one search and one search step per table-resolved address.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        n, ndim = addrs.shape
        blocks, lo, hi, n_joint = self._box_table(ndim)
        node = start
        while node is not None and node is not self.data_joint:
            node = node.parent
        # Matches a search from ``start`` may order differently than one
        # from the root: those under the joint, or all of them when
        # ``start`` is neither the root nor under the joint.
        from_root = start is None or start is self.root
        contested = n_joint if from_root or node is not None else len(blocks)
        first = np.full(n, -1, dtype=np.intp)
        ambiguous = np.zeros(n, dtype=bool)
        if blocks:
            chunk = max(1, (1 << 20) // len(blocks))
            for s in range(0, n, chunk):
                a = addrs[s : s + chunk, None, :]
                hit = ((a >= lo) & (a < hi)).all(axis=2)
                first[s : s + chunk] = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
                ambiguous[s : s + chunk] = hit[:, :contested].sum(axis=1) > 1
        found = [blocks[i] if i >= 0 else None for i in first.tolist()]
        scalar = np.flatnonzero(ambiguous).tolist()
        for i in scalar:
            found[i] = self.find_block(tuple(addrs[i].tolist()), start=start)
        self.stats.searches += n - len(scalar)
        self.stats.search_steps += n - len(scalar)
        return found

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
        generation (the block's buffer-swap count) lets it reuse the
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
        """Declare which ``halo`` rows the owners publish from now on."""
        self._pushed_rows = {}
        for image, rows in tables:
            mask = np.zeros(image.halo_rows, dtype=bool)
            mask[rows] = True
            blocks = self.halo_row_blocks(image, rows)[0]
            self._pushed_rows[id(image)] = (mask, {block.block_id for block in blocks})
        self._pushed_epoch += 1
        self._pushed_current = False

    def install_pushed_halo(self, tables: Iterable[Tuple[DenseImage, np.ndarray, np.ndarray]]) -> None:
        """Store this step's pushed ``values`` into ``rows`` of each image's
        ``halo`` array; from here until the next swap, halo tables covered
        by :meth:`set_pushed_rows` read them without a page-validity pass."""
        for image, rows, values in tables:
            halo = image.halo
            if halo is None:
                halo = self._allocate(image, "halo")
            halo[rows] = values
            # The rows no longer mirror the Buffer-only pages.
            image.fresh -= self._pushed_rows[id(image)][1]
        self._pushed_current = True

    def halo_pushed(self, segment) -> bool:
        """Whether ``segment`` (a halo :class:`~repro.memory.mmat.PlanSegment`)
        reads only rows the current step's push delivered."""
        if not self._pushed_current:
            return False
        if segment.push_epoch != self._pushed_epoch:
            mask = self._pushed_rows.get(id(segment.image), (None,))[0]
            idx = segment.src_idx
            segment.push_covered = bool(
                mask is not None and idx.size and idx.max() < mask.size and mask[idx].all()
            )
            segment.push_epoch = self._pushed_epoch
        return segment.push_covered

    # ------------------------------------------------------------------
    # bulk access (used by compiled access plans)
    # ------------------------------------------------------------------
    def dense_read(self, block: DataBlock) -> np.ndarray:
        """``(elements, components)`` view of a Block's read buffer in the
        dense read image (:class:`DenseImage`).

        The Block's pages are copied into its image rows only when the
        rows are not fresh — after a refresh that did not promote a full
        store of the Block, a page install, a Buffer-only invalidation.
        The view aliases the image: it is current until the next refresh
        or install, and callers must not write through it.
        """
        image, lo, hi, halo = self.image_slot(block)
        array = image.halo if halo else image.read
        if array is None:
            array = self._allocate(image, "halo" if halo else "read")
        rows = array[lo:hi]
        if block.block_id not in image.fresh:
            if halo and self._pushed_current and not block.is_valid:
                # Some of these rows were pushed and have no valid page
                # behind them: copy the pages that did arrive (a repair
                # fetch), leave the rest, and do not call the Block fresh.
                for page in block.buffer.read_buffer.pages:
                    if page.valid:
                        first = page.index * page.elements
                        part = rows[first : first + page.elements]
                        part[...] = page.array[: part.shape[0]]
            else:
                block.buffer.read_buffer.dense(out=rows)
                image.fresh.add(block.block_id)
            self.stats.dense_assemblies += 1
        return rows

    def _allocate(self, image: DenseImage, side: str) -> np.ndarray:
        """Allocate the ``read`` / ``next`` / ``halo`` array of ``image``
        on its first use."""
        # Hybrid threads sweep one Env concurrently: exactly one may
        # allocate, or a Block assembled into the loser's array would
        # count as fresh.
        with self._image_lock:
            array = getattr(image, side)
            if array is None:
                rows = image.halo_rows if side == "halo" else image.local_rows
                array = np.empty((rows, image.components), dtype=image.dtype)
                setattr(image, side, array)
        return array

    def image_slot(self, block: DataBlock) -> tuple:
        """``(image, first row, end row, is halo)`` of an attached Data Block."""
        try:
            return self._slots[block.block_id]
        except KeyError:
            raise EnvError(
                f"block {block.name!r} is not a Data Block of Env {self.name!r}"
            ) from None

    def image_rows(self, image: DenseImage, sources: Iterable[DataBlock], halo: bool) -> np.ndarray:
        """The image array a merged plan table indexes — the owned rows,
        or the Buffer-only rows when ``halo`` — with every Block of
        ``sources`` fresh."""
        fresh = image.fresh
        for block in sources:
            if block.block_id not in fresh:
                self.dense_read(block)
        return image.halo if halo else image.read

    def note_full_store(self, block, flat: np.ndarray) -> None:
        """Record that ``flat`` was just written over *every* element of
        ``block``'s write buffer (a fused store, a ``scatter``).

        The values are mirrored into the Block's ``next`` image rows,
        which the next successful refresh makes its read rows (the write
        buffer becomes the read buffer), so steady-state full-block
        sweeps never re-assemble pages.  Callers that write to the block
        through any other path must call :meth:`discard_full_store` or
        the mirrored rows would go stale.
        ``block`` may be a tile (owned Blocks whose image rows follow
        each other): one slice assignment stores it.
        """
        blocks = as_tile(block)
        image, lo, _, halo = self.image_slot(blocks[0])
        if halo:
            return  # Buffer-only Blocks never swap: nothing to promote
        array = image.next
        if array is None:
            array = self._allocate(image, "next")
        hi = self._slots[blocks[-1].block_id][2]
        array[lo:hi] = np.asarray(flat).reshape(-1, image.components)
        image.next_fresh.update(b.block_id for b in blocks)

    def discard_full_store(self, block_id: int) -> None:
        """Drop a pending full-block store (the block was written again)."""
        slot = self._slots.get(block_id)
        if slot is not None:
            slot[0].next_fresh.discard(block_id)

    def invalidate_dense(self, block_ids: Optional[Iterable[int]] = None) -> None:
        """Stop trusting the dense image rows of ``block_ids`` (default:
        of every Block): their buffers were written behind the image's
        back — a page install, a checkpoint restore, a Buffer-only
        invalidation.  The next :meth:`dense_read` re-assembles them."""
        if block_ids is None:
            for image in self._images.values():
                image.invalidate()
            return
        for block_id in block_ids:
            slot = self._slots.get(block_id)
            if slot is not None:
                slot[0].fresh.discard(block_id)
                slot[0].next_fresh.discard(block_id)

    def check_dense_image(self) -> None:
        """Raise :class:`EnvError` unless the :class:`DenseImage` invariant
        holds: fresh rows equal the read buffer, pending full stores the
        write buffer (bit for bit)."""
        for block_id, (image, lo, hi, halo) in self._slots.items():
            block = self.blocks_by_id[block_id]
            sides = [("halo" if halo else "read", image.fresh, block.buffer.read_buffer)]
            if not halo:
                sides.append(("next", image.next_fresh, block.buffer.write_buffer))
            for side, fresh, buf in sides:
                if block_id not in fresh:
                    continue
                array = getattr(image, side)
                if array is None or array[lo:hi].tobytes() != buf.dense().tobytes():
                    raise EnvError(
                        f"dense image of Env {self.name!r}: the {side} rows of block "
                        f"{block.name!r} are marked fresh but differ from its buffer"
                    )

    def check_pushed_rows(self) -> None:
        """Raise :class:`EnvError` unless the rows declared by
        :meth:`set_pushed_rows` cover every halo row a compiled plan reads
        (the communication plan ⊇ the plans' requirements)."""
        for image, rows in self.plan_halo_rows():
            mask = self._pushed_rows.get(id(image), (None,))[0]
            if mask is None or rows[-1] >= mask.size or not mask[rows].all():
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
    def data_bytes(self) -> int:
        """Bytes of pool memory held by block buffers."""
        return sum(b.nbytes for b in self.data_blocks(include_buffer_only=True))

    def structure_bytes(self) -> int:
        """Rough footprint of the Env structure itself (tree + MMAT memo)."""
        import sys

        total = 0
        for block in self.blocks_by_id.values():
            total += sys.getsizeof(block)
            total += sys.getsizeof(block.children)
        total += self.mmat.memory_bytes()
        return total

    def memory_report(self) -> dict:
        """Decomposition used by the Fig. 12 benchmark."""
        pool_stats = self.allocator.stats() if isinstance(self.allocator, PoolGroup) else {}
        return {
            "pool_capacity": self.allocator.capacity_bytes,
            "pool_used": self.allocator.used_bytes,
            "pool_unused": self.allocator.free_bytes,
            "env_structure": self.structure_bytes(),
            "pools": {name: stats.__dict__ for name, stats in pool_stats.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Env(name={self.name!r}, data_blocks={len(self.data_blocks())}, "
            f"boundaries={len(self.boundary_blocks)}, step={self.step})"
        )

"""Shared machinery for DSL processing systems (the paper's "DSL Part").

A DSL processing system on the platform consists of an "Annotation
Library for Target Apps" and a "Memory Library for Target Apps"
(§III-B8): it defines the Block/Env structure for its application
class, how application coordinates map to Blocks, and the sugar the
end-user kernels use.  The three sample DSLs of the paper (structured
grid, unstructured grid, particle method) share a fair amount of that
machinery, collected here:

* :class:`DslTarget` — the base class DSL targets inherit (itself a
  :class:`~repro.annotation.target.TargetApplication`), providing the
  Z-order task assignment (paper §IV-C) and per-rank Block
  materialisation (Data Block locally, Buffer-only Block for remote
  owners — paper Fig. 2b/2c);
* :class:`BlockKernel` — the equivalent of Listing 1's
  ``InitKernelMacros`` / ``GetD`` / ``GetDD`` / ``SetD`` macros.
"""

from __future__ import annotations

import math
from operator import add
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..annotation.target import TargetApplication
from ..kernels import fused_kernel_for
from ..memory.block import BufferOnlyBlock, DataBlock
from ..memory.env import Env
from ..memory.errors import BlockError
from ..memory.mmat import as_tile, compile_address_plan, compile_offsets_plan
from ..memory.mmat import site_cuts, stencil_table
from ..memory.zorder import morton_encode
from ..obs.spans import global_tracer
from ..runtime.shm import protocol_checks
from ..runtime.task import current_task
from ..runtime.tracing import global_trace

__all__ = ["DslTarget", "BlockKernel", "BlockSpec", "evaluate_init"]


def evaluate_init(
    init: Optional[Callable[[Any, Any], Any]], xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """The initial field ``init(x, y)`` at the sites ``(xs, ys)``, as float64.

    ``init`` is a pure function of ``(x, y)``.  It is tried once on the
    int64 coordinate arrays, under ``np.errstate(all="raise")``, and its
    result kept when it is a bool/int/float array of the sites' shape or
    a scalar (broadcast); integer arithmetic then wraps as NumPy's does.
    An ``init`` that raises on arrays or returns anything else is called
    once per site with Python ints, in the arrays' C order.  ``None`` is
    the zero field.
    """
    if init is None:
        return np.zeros(xs.shape)
    try:
        with np.errstate(all="raise"):
            values = np.asarray(init(xs, ys))
        if values.dtype.kind in "biuf" and values.shape in (xs.shape, ()):
            return np.broadcast_to(values, xs.shape).astype(np.float64)
    except Exception:  # not elementwise over arrays: evaluate per site
        pass
    per_site = np.frompyfunc(init, 2, 1)
    return per_site(xs.astype(object), ys.astype(object)).astype(np.float64)


class BlockSpec:
    """Static description of one Block the DSL wants to materialise."""

    __slots__ = ("origin", "shape", "logical_key", "grid_coords", "_zorder")

    def __init__(
        self,
        origin: Sequence[int],
        shape: Sequence[int],
        logical_key: Any,
        grid_coords: Sequence[int],
    ) -> None:
        self.origin = tuple(int(c) for c in origin)
        self.shape = tuple(int(c) for c in shape)
        self.logical_key = logical_key
        #: Coordinates of the block in units of blocks; the Z-order index
        #: of these coordinates drives the task assignment.
        self.grid_coords = tuple(int(c) for c in grid_coords)
        self._zorder: Optional[int] = None

    def zorder(self) -> int:
        # Morton encoding is pure in grid_coords; cache it because the
        # task assignment evaluates it once per spec per rank warm-up.
        if self._zorder is None:
            self._zorder = morton_encode(tuple(max(c, 0) for c in self.grid_coords))
        return self._zorder


class BlockKernel:
    """Per-Block accessor used inside kernels (GetD / GetDD / SetD).

    ``get(local, inside)`` mirrors the paper's ``GetD(LA_t{{...}}, cond)``:
    ``inside`` is the statically/dynamically supplied flag meaning "the
    address is certainly within this Block", letting the platform skip
    the Env search.  ``get_direct`` mirrors ``GetDD`` (always skip), and
    ``set`` mirrors ``SetD`` (write into the Block's write buffer).

    ``work_per_set`` is the amount of work (in units of the reference
    grid-point update the cost model is calibrated on) one ``set``
    represents; grid DSLs use 1, the particle DSL uses the per-bucket
    pair-interaction count so the cost model sees the true compute load.

    Besides the scalar accessors the kernel offers a **batched API**
    (:meth:`gather` / :meth:`gather_global` / :meth:`scatter` /
    :meth:`sweep`): when MMAT is enabled the access pattern is compiled
    once into an :class:`~repro.memory.mmat.AccessPlan` and every later
    iteration executes as a handful of NumPy gathers instead of
    ``size_x * size_y`` scalar calls.  Without MMAT (or after
    ``MMAT.reset`` until the next compile) the batched calls fall back
    transparently to the scalar path, element by element.

    ``block`` may be a **tile** (:meth:`DslTarget.tile_kernels`): a run
    of the task's Data Blocks of one image class whose image rows follow
    each other.  ``gather`` / ``gather_global`` / ``scatter`` /
    ``static_field`` treat it as one Block of ``sum(element_count)``
    elements — one access plan, one result, one store — and whatever
    needs Block geometry (scalar accessors, ``sweep``, ``block``) raises.
    A one-Block kernel is the tile of one.
    """

    __slots__ = (
        "env",
        "blocks",
        "elements",
        "plan_key",
        "_trace",
        "_work",
        "_reads",
        "_widest",
        "_static",
        "_siblings",
    )

    def __init__(
        self,
        env: Env,
        block,
        *,
        work_per_set: int = 1,
    ) -> None:
        self.env = env
        #: The Blocks of the tile in image-row order, their elements (the
        #: leading axis of its tables and results), how its plan keys begin.
        self.blocks = as_tile(block)
        self.elements = sum(b.element_count for b in self.blocks)
        self.plan_key = (self.blocks[0].block_id, len(self.blocks))
        self._trace = global_trace().for_task()
        self._work = max(int(work_per_set), 1)
        #: Batched reads of the current kernel body (their scratch index;
        #: restarted by ``DslTarget``), most sites per element of any.
        self._reads = 0
        self._widest = 1
        self._static: dict = {}
        #: The Blocks of the task's one-Block kernels (``DslTarget``): this
        #: kernel's first miss of a stencil compiles theirs in its pass.
        self._siblings: Sequence[DataBlock] = ()

    # ------------------------------------------------------------------
    @property
    def block(self) -> DataBlock:
        """The Block of a one-Block kernel; a wider tile has none."""
        if len(self.blocks) != 1:
            raise BlockError(f"a tile of {len(self.blocks)} Blocks has no Block geometry")
        return self.blocks[0]

    def get(self, local: Sequence[int], inside: bool = False):
        """Read the element at block-relative coordinates ``local``."""
        block = self.block
        addr = tuple(map(add, block.origin, local))
        return self.env.read_from(block, addr, assume_inside=bool(inside))

    def get_global(self, addr: Sequence[int], inside: bool = False):
        """Read the element at a *global* address (unstructured-grid neighbours)."""
        return self.env.read_from(self.block, tuple(addr), assume_inside=bool(inside))

    def get_direct(self, local: Sequence[int]):
        """Read skipping the Env search entirely (the paper's ``GetDD``)."""
        block = self.block
        addr = tuple(map(add, block.origin, local))
        return self.env.read_from(block, addr, assume_inside=True)

    def set(self, local: Sequence[int], value) -> None:
        """Write the element at block-relative coordinates ``local``."""
        self.block.write_local(tuple(local), value)
        self._trace.updates += self._work

    def set_global(self, addr: Sequence[int], value) -> None:
        self.block.write(tuple(addr), value)
        self._trace.updates += self._work

    # ------------------------------------------------------------------
    # batched (vectorized) API
    # ------------------------------------------------------------------
    def gather(self, offsets: Sequence[Sequence[int]]) -> np.ndarray:
        """Read every element of the tile at each stencil ``offset``, in bulk.

        Returns ``(len(offsets),) + shape`` for single-component Blocks,
        ``(len(offsets), elements, components)`` otherwise.  With
        MMAT enabled the offsets are compiled once into an access plan;
        otherwise every site is read through the scalar path.  A tile's
        own elements (``[(0,)]``) are a read-only view of the dense image.
        """
        offsets = tuple(tuple(int(c) for c in off) for off in offsets)
        n_off = len(offsets)
        first = self.blocks[0]
        if self.env.mmat.enabled:  # offset-major
            out = self._execute(self._offsets_plan(offsets))
        else:  # element-major
            out = self._gather_addresses_scalar(stencil_table(self.blocks, offsets))
            out = out.reshape(self.elements, n_off, first.components).transpose(1, 0, 2)
        if first.components == 1:
            return out.reshape((n_off,) + self.shape)
        return out.reshape(n_off, self.elements, first.components)

    def _plan(self, key: Optional[tuple], compile_plan: Callable, sites: int,
              staged: Optional[Callable] = None):
        """Cached, staged (``staged()``: a plan another kernel's compile
        pass made for this tile, or None) or compiled plan of this tile
        (``key`` None: never cached); a staged plan enters the cache as a
        compile of its own would."""
        mmat = self.env.mmat
        if key is None:
            with global_tracer().span("plan.compile", sites=sites):
                plan = compile_plan()
            # Per-call compiles are by design, not cache misses: counting
            # them as plan_compiles would make coverage numbers report
            # near-zero hit rates for apps with dynamic address tables.
            mmat.note_uncached_compile()
            self._trace.plan_compiles_uncached += 1
            return plan
        key = self.plan_key + key
        plan = mmat.plan_lookup(key)
        if plan is None:
            plan = staged() if staged is not None else None
            if plan is None:
                with global_tracer().span("plan.compile", sites=sites):
                    plan = compile_plan()
            mmat.plan_store(key, plan)
            self._trace.plan_compiles += 1
        return plan

    def _execute(self, plan) -> np.ndarray:
        """Run ``plan`` as this kernel body's next batched read."""
        out = plan.execute(self.env, self._reads)
        self._reads += 1
        self._widest = max(self._widest, plan.n_sites // self.elements)
        self.env.mmat.note_execution(plan)
        self._trace.plan_sites += plan.n_sites
        return out

    def _offsets_plan(self, offsets):
        """Cached-or-compiled access plan for normalized stencil ``offsets``.

        A one-Block kernel's miss takes the plan a sibling's pass staged
        for its Block or, failing that, compiles one pass for its Block and
        every sibling Block of its image class without a plan of
        ``offsets`` (:func:`compile_offsets_plan`'s ``siblings``)."""
        key = ("offsets", offsets)
        plan = self.env.mmat.plan_lookup(self.plan_key + key)
        if plan is not None:
            return plan
        env, blocks = self.env, self.blocks
        if len(blocks) > 1:
            return self._plan(key, lambda: compile_offsets_plan(env, blocks, offsets), self.elements)
        return self._plan(
            key,
            lambda: compile_offsets_plan(env, blocks[0], offsets, siblings=self._unplanned(key)),
            self.elements,
            staged=lambda: env.mmat.take_staged(blocks[0].block_id, offsets),
        )

    def _unplanned(self, key: tuple) -> List[DataBlock]:
        """The other sibling Blocks of this Block's image class that have
        no plan of ``key`` yet."""
        env, block = self.env, self.blocks[0]
        image = env.image_slot(block)[0]
        return [
            b for b in self._siblings
            if b is not block and env.image_slot(b)[0] is image
            and env.mmat.plan_lookup((b.block_id, 1) + key) is None
        ]

    def gather_global(self, addresses, *, key: Optional[str] = None) -> np.ndarray:
        """Bulk-read arbitrary *global* addresses (indirect neighbours).

        ``addresses`` is an integer array (any shape for 1-D address
        spaces; last axis = coordinates otherwise); the result has the
        site shape of ``addresses`` (plus a components axis for
        multi-component Blocks).  On a tile the leading axis lists its
        elements; with MMAT on each column ``[:, j]`` of a 2-D table's
        result is contiguous.  ``key`` names the address table for
        plan caching — pass it whenever the table is static (Assumption
        II), e.g. ``key="neighbors"`` for the USGrid neighbour lists.
        Without a ``key`` the plan is compiled per call and never
        cached (a content-derived cache key would retain one plan per
        distinct table for the life of the memo, and every stale plan's
        halo pages would keep being prefetched).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        first = self.blocks[0]
        sites_shape = addresses.shape if first.ndim == 1 else addresses.shape[:-1]
        cell = () if first.components == 1 else (first.components,)
        if not self.env.mmat.enabled:
            return self._gather_addresses_scalar(addresses).reshape(sites_shape + cell)
        plan = self._plan(
            None if key is None else ("addresses", key, addresses.shape),
            lambda: compile_address_plan(self.env, self.blocks, addresses),
            addresses.size // first.ndim,
        )
        out = self._execute(plan)
        if len(sites_shape) == 2:  # column-major: (k, elements) transposed
            return out.reshape(sites_shape[::-1] + cell).swapaxes(0, 1)
        return out.reshape(sites_shape + cell)

    def scatter(self, values: np.ndarray) -> None:
        """Write a whole tile of results into the write buffers at once.

        Accepts ``shape`` (single-component) or ``(elements,
        components)`` arrays — or anything broadcastable to them, e.g. a
        constant scalar; one store into the tile's ``next`` image rows: the
        write-buffer pages per-element :meth:`set` writes.
        """
        cell = (self.elements, self.blocks[0].components)
        data = np.asarray(values)
        try:
            data = data.reshape(cell)
        except ValueError:
            data = np.broadcast_to(data, cell)
        self.env.store_rows(self.blocks, data)
        self._trace.updates += self._work * self.elements

    def sweep(self, fn: Callable[..., np.ndarray], offsets: Sequence[Sequence[int]]) -> None:
        """One full-block update: gather ``offsets``, apply ``fn``, scatter.

        ``fn`` receives one array per offset (each shaped like the
        Block) and must return the new field, shaped like the Block (or
        anything broadcastable to it).  ``fn`` must be *elementwise over
        sites* — each output site depends only on the per-offset values
        at that site, true for every stencil update — and must not assume
        the Block's shape: it is also applied to 1-D arrays, and may be
        evaluated on extra lanes whose inputs are field values and whose
        results are dropped.

        With MMAT on, a single-component Block's sweep runs through the
        fused kernel (:mod:`repro.kernels`), warm-up passes included: the
        compiled plan fills a padded scratch field and ``fn`` runs once,
        on one contiguous 1-D slice of it per offset (the pad columns'
        lanes are the dropped ones).  Any other sweep (MMAT off, multi-component Blocks) is
        ``scatter(fn(*gather(offsets)))``, ``fn`` on Block-shaped arrays.
        """
        offsets = tuple(tuple(int(c) for c in off) for off in offsets)
        env = self.env
        block = self.block
        if env.mmat.enabled and block.components == 1:
            plan = self._offsets_plan(offsets)
            kern = fused_kernel_for(env, block, plan, fn, trace=self._trace)
            kern(env, fn, self._trace, self._work)
            return
        with global_tracer().span("sweep"):
            self.scatter(fn(*self.gather(offsets)))

    # -- scalar fallback (MMAT disabled: no memoization allowed) -----------
    def _gather_addresses_scalar(self, addresses: np.ndarray) -> np.ndarray:
        env = self.env
        first = self.blocks[0]
        flat = addresses.reshape(-1, first.ndim).tolist()
        cuts = site_cuts(self.blocks, len(flat))
        out = np.empty((len(flat), first.components), dtype=first.buffer.read_buffer.dtype)
        for block, lo, hi in zip(self.blocks, cuts, cuts[1:]):
            for site in range(lo, hi):
                out[site] = env.read_from(block, tuple(flat[site]), assume_inside=False)
        env.mmat.note_fallback(len(flat))
        self._trace.plan_fallback_sites += len(flat)
        return out

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """The Block's shape; ``(elements,)`` for a wider tile."""
        return self.blocks[0].shape if len(self.blocks) == 1 else (self.elements,)

    def static_field(self, name: str) -> np.ndarray:
        """A static per-element side array registered by the DSL (a wider
        tile's: the Blocks' arrays joined once, in order)."""
        if len(self.blocks) == 1:
            return self.blocks[0].static_fields[name]
        if name not in self._static:
            self._static[name] = np.concatenate([b.static_fields[name] for b in self.blocks])
        return self._static[name]


class DslTarget(TargetApplication):
    """Base class for DSL processing-system targets.

    Subclasses (SGrid2D, USGrid2D, Particle) implement
    :meth:`build_env` and whatever accessors their application class
    needs; this base provides the task assignment and the Block
    materialisation that every DSL shares.
    """

    #: Qualitative access pattern reported to the cost model
    #: ('contiguous' | 'random' | 'bucketed').
    ACCESS_PATTERN = "contiguous"
    #: Approximate bytes touched per element update (cost-model contention term).
    BYTES_PER_UPDATE = 40
    #: Work (in reference grid-point-update units) that one kernel ``set``
    #: represents.  Grid DSLs leave it at 1; the particle DSL raises it to
    #: the per-bucket pair-interaction count.
    WORK_PER_UPDATE = 1

    def __init__(self, config: Optional[dict] = None) -> None:
        super().__init__(config)
        self.loops: int = int(self.config.get("loops", 4))
        #: Kernel implementation the app should run: ``"vectorized"``
        #: (batched gather/scatter through access plans, the default) or
        #: ``"scalar"`` (the per-element reference path of the paper's
        #: Listing 1).  Apps consult this in their ``kernel``.
        self.kernel_mode: str = str(self.config.get("kernel", "vectorized"))
        if self.kernel_mode not in ("vectorized", "scalar"):
            raise ValueError(
                f"kernel must be 'vectorized' or 'scalar', got {self.kernel_mode!r}"
            )
        #: ``(task, tile budget)`` -> the kernels that task last swept with
        #: and what they were built from (:meth:`_kernels`).
        self._kernel_cache: dict = {}

    @property
    def vectorized(self) -> bool:
        return self.kernel_mode == "vectorized"

    # ------------------------------------------------------------------
    # task assignment (paper §IV-C: Z-order done in the DSL layer)
    # ------------------------------------------------------------------
    def assign_tasks(self, specs: List[BlockSpec]) -> List[Tuple[BlockSpec, int]]:
        """Assign each Block spec to a task using the Z-order curve.

        Blocks are sorted by the Morton index of their block-grid
        coordinates and dealt out in contiguous runs, so neighbouring
        Blocks tend to share a task (spatial locality across the
        partition).  Returns ``(spec, task_id)`` pairs in Z-order; the
        deal is the virtual class's ``platform.assign_blocks`` join point.
        """
        total = max(self.total_tasks, 1)
        keys = [spec.zorder() for spec in specs]
        # 1-D DSLs (and pre-sorted spec lists in general) are already in
        # Z-order; skip the re-sort that shows up in warm-up profiles.
        if all(a <= b for a, b in zip(keys, keys[1:])):
            ordered = list(specs)
        else:
            ordered = [spec for _, spec in sorted(zip(keys, specs), key=lambda kv: kv[0])]
        per_task = math.ceil(len(ordered) / total)
        return [(spec, min(i // per_task, total - 1)) for i, spec in enumerate(ordered)]

    def omp_threads(self) -> int:
        if self.platform is None:
            return 1
        return max(self.platform.parallelism_of("omp"), 1)

    # ------------------------------------------------------------------
    # per-rank Block materialisation (paper Fig. 2b/2c)
    # ------------------------------------------------------------------
    def materialize_blocks(
        self,
        env: Env,
        specs: List[BlockSpec],
        *,
        components: int,
        page_elements: int,
        dtype=np.float64,
    ) -> List[DataBlock]:
        """Create this rank's view of every Block and attach it to ``env``.

        Blocks assigned to the current rank become Data Blocks; Blocks
        owned by other ranks become Buffer-only Blocks (storage for
        their pages, valid from creation with a placeholder value until
        the first step boundary).  In shared-memory
        or serial runs every Block is a Data Block.
        """
        task = current_task()
        omp = self.omp_threads()
        assignment = self.assign_tasks(specs)
        mine = [tid // omp == task.mpi_rank or task.mpi_size == 1 for _, tid in assignment]
        # Owned Blocks live in the Env's dense image, the others' rows in its
        # ghost tail: size its slabs once for all of them, so none ever moves.
        cells = [math.prod(spec.shape) for spec, _ in assignment]
        owned = sum(n for n, own in zip(cells, mine) if own)
        env.reserve_image(components, dtype, owned, ghosts=sum(cells) - owned)
        created: List[DataBlock] = []
        for (spec, task_id), own in zip(assignment, mine):
            owner_rank = task_id // omp
            if own:
                block = DataBlock(
                    spec.origin,
                    spec.shape,
                    components=components,
                    page_elements=page_elements,
                    dtype=dtype,  # no allocator: its pages are rows of the image
                    name=f"data{spec.logical_key}",
                )
            else:
                block = BufferOnlyBlock(
                    spec.origin,
                    spec.shape,
                    components=components,
                    page_elements=page_elements,
                    dtype=dtype,  # no allocator: its pages are rows of the ghost tail
                    owner_tid=owner_rank,
                    name=f"remote{spec.logical_key}",
                )
            block.logical_key = spec.logical_key
            block.dm_tid = owner_rank * omp
            block.ch_tid = task_id
            env.add_data_block(block)
            created.append(block)
        return created

    # ------------------------------------------------------------------
    def build_env(self) -> Env:  # pragma: no cover - abstract
        """Build and return this target's Env (implemented by each DSL)."""
        raise NotImplementedError

    def initialize(self) -> None:
        """Default initialise: build the Env."""
        self.build_env()

    def owned_part(self) -> list:
        """``(origin, shape, values)`` of every Data Block this rank owns:
        its answer, which the DSL's ``finalize`` keeps as ``result``."""
        assert self.env is not None
        return [(b.origin, b.shape, self.env.dense_read(b)) for b in self.env.data_blocks()]

    def kernel_for(self, block) -> BlockKernel:
        """Return the kernel accessor for ``block`` or a tile (InitKernelMacros)."""
        assert self.env is not None, "initialize() must build the Env first"
        return BlockKernel(self.env, block, work_per_set=self.WORK_PER_UPDATE)

    def refresh(self, warmup: bool = False) -> bool:
        """End the step on this task's Env (``Env.refresh``, a join point)."""
        assert self.env is not None
        done = self.env.refresh(warmup)
        if protocol_checks():
            self.env.check_dense_image()
        return done

    def block_kernels(self, warmup: bool = False) -> Iterator[Tuple[DataBlock, BlockKernel]]:
        """``(block, kernel)`` per Block of this task, for user code that
        reads Block geometry (``sweep``, scalar accessors, bucket bounds)."""
        for kernel in self._kernels(warmup, 0):
            yield kernel.block, kernel

    def tile_kernels(self, warmup: bool = False) -> List[BlockKernel]:
        """This task's Blocks as kernels over *tiles* (:class:`BlockKernel`),
        for user code to which a cell's position in its Block means
        nothing.  A tile ends where the image class changes, the image
        rows stop following each other (another task's Blocks between) or
        a read would gather over :data:`TILE_BYTES` (``run.mmat_stats``)."""
        return self._kernels(warmup, TILE_BYTES)

    def _kernels(self, warmup: bool, budget: int) -> List[BlockKernel]:
        """The task's kernels, kept until ``get_blocks`` answers with other
        Blocks, the MMAT is reset or a table wider than sized for was read."""
        env = self.env
        blocks = env.get_blocks(warmup)
        key = (current_task().global_task_id, budget)
        state, swept, kernels = self._kernel_cache.get(key, (None, None, None))
        if kernels is None:  # nothing read yet: the tables the DSL registered on a Block
            first = blocks[:1]
            widths = [t.size // b.element_count for b in first for t in b.static_fields.values()]
        else:
            widths = [k._widest for k in kernels]
        width = max(widths, default=1) if budget else 1
        if state != (env.mmat.resets, width) or swept != blocks:
            tiles, splits = _split_tiles(env, blocks, width, budget)
            stale = {k.plan_key for k in kernels or ()}
            kernels = [self.kernel_for(tile) for tile in tiles]
            singles = [k.blocks[0] for k in kernels if len(k.blocks) == 1]
            for kernel in kernels:
                kernel._widest = width
                kernel._siblings = singles
            env.mmat.plan_discard(stale - {k.plan_key for k in kernels})
            if budget:
                env.mmat.note_tiles(key[0], len(tiles), len(blocks), splits)
            self._kernel_cache[key] = ((env.mmat.resets, width), blocks, kernels)
        for kernel in kernels:
            kernel._reads = 0
        return kernels


#: Most bytes one batched read of a tile may gather (elements x sites per
#: element of the widest table read so far x item size): a memory bound,
#: not a tuning knob — see the curve in docs/architecture.md, *Tiles*.
TILE_BYTES = 4 << 20


def _split_tiles(env: Env, blocks: Sequence[DataBlock], width: int, budget: int):
    """Cut ``blocks`` into tiles of at most ``budget`` gathered bytes:
    ``(tiles, {reason: boundaries})``."""
    tiles: List[List[DataBlock]] = []
    splits: dict = {}
    last_image, end, held = None, 0, 0
    for block in blocks:
        image, lo, hi, _ = env.image_slot(block)
        nbytes = (hi - lo) * width * image.components * image.dtype.itemsize
        if image is not last_image:
            reason = "image class"
        elif lo != end:
            reason = "ownership"
        else:
            reason = "budget" if held + nbytes > budget else None
        if reason is None:
            tiles[-1].append(block)
        else:
            if tiles:
                splits[reason] = splits.get(reason, 0) + 1
            tiles.append([block])
            held = 0
        last_image, end, held = image, hi, held + nbytes
    return tiles, splits

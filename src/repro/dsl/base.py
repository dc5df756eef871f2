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

import itertools
import math
from operator import add
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..annotation.target import TargetApplication
from ..kernels import fused_kernel_for
from ..memory.block import BufferOnlyBlock, DataBlock
from ..memory.env import Env
from ..memory.mmat import compile_address_plan, compile_offsets_plan
from ..memory.zorder import morton_encode
from ..obs.spans import global_tracer
from ..runtime.task import SERIAL_TASK, current_task
from ..runtime.tracing import global_trace

__all__ = ["DslTarget", "BlockKernel", "BlockSpec"]


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
    """

    __slots__ = (
        "env",
        "block",
        "origin",
        "_trace",
        "_work",
        "_fuse",
        "_temporal",
        "_codegen",
        "_warmup",
    )

    def __init__(
        self,
        env: Env,
        block: DataBlock,
        *,
        work_per_set: int = 1,
        fuse: bool = True,
        temporal_block: int = 1,
        codegen: Optional[str] = None,
        warmup: bool = False,
    ) -> None:
        self.env = env
        self.block = block
        self.origin = block.origin
        self._trace = global_trace().for_task()
        self._work = max(int(work_per_set), 1)
        #: Whether sweeps may run through fused kernels (plan + fn
        #: compiled into one generated function); warm-up sweeps always
        #: use the legacy path — their results are discarded and the
        #: step counter (the temporal-cache key) does not advance.
        self._fuse = bool(fuse)
        self._temporal = max(int(temporal_block), 1)
        self._codegen = codegen
        self._warmup = bool(warmup)

    # ------------------------------------------------------------------
    def get(self, local: Sequence[int], inside: bool = False):
        """Read the element at block-relative coordinates ``local``."""
        addr = tuple(map(add, self.origin, local))
        return self.env.read_from(self.block, addr, assume_inside=bool(inside))

    def get_global(self, addr: Sequence[int], inside: bool = False):
        """Read the element at a *global* address (unstructured-grid neighbours)."""
        return self.env.read_from(self.block, tuple(addr), assume_inside=bool(inside))

    def get_direct(self, local: Sequence[int]):
        """Read skipping the Env search entirely (the paper's ``GetDD``)."""
        addr = tuple(map(add, self.origin, local))
        return self.env.read_from(self.block, addr, assume_inside=True)

    def set(self, local: Sequence[int], value) -> None:
        """Write the element at block-relative coordinates ``local``."""
        self.env.discard_full_store(self.block.block_id)
        self.block.write_local(tuple(local), value)
        self._trace.updates += self._work

    def set_global(self, addr: Sequence[int], value) -> None:
        self.env.discard_full_store(self.block.block_id)
        self.block.write(tuple(addr), value)
        self._trace.updates += self._work

    # ------------------------------------------------------------------
    # batched (vectorized) API
    # ------------------------------------------------------------------
    def gather(self, offsets: Sequence[Sequence[int]]) -> np.ndarray:
        """Read every element of the Block at each stencil ``offset``, in bulk.

        Returns ``(len(offsets),) + shape`` for single-component Blocks,
        ``(len(offsets), element_count, components)`` otherwise.  With
        MMAT enabled the offsets are compiled once into an access plan;
        otherwise every site is read through the scalar path.
        """
        offsets = tuple(tuple(int(c) for c in off) for off in offsets)
        env = self.env
        block = self.block
        if not env.mmat.enabled:
            out = self._gather_offsets_scalar(offsets)
        else:
            plan = self._offsets_plan(offsets)
            out = plan.execute(env)
            env.mmat.note_execution(plan)
            self._trace.plan_gathers += 1
            self._trace.plan_sites += plan.n_sites
        if block.components == 1:
            return out.reshape((len(offsets),) + block.shape)
        return out.reshape(len(offsets), block.element_count, block.components)

    def _offsets_plan(self, offsets):
        """Cached-or-compiled access plan for normalized stencil ``offsets``."""
        env = self.env
        block = self.block
        mmat = env.mmat
        key = (block.block_id, "offsets", offsets)
        plan = mmat.plan_lookup(key)
        if plan is None:
            with global_tracer().span("plan.compile", sites=block.element_count):
                plan = compile_offsets_plan(env, block, offsets)
            mmat.plan_store(key, plan)
            self._trace.plan_compiles += 1
        return plan

    def gather_global(self, addresses, *, key: Optional[str] = None) -> np.ndarray:
        """Bulk-read arbitrary *global* addresses (indirect neighbours).

        ``addresses`` is an integer array (any shape for 1-D address
        spaces; last axis = coordinates otherwise); the result has the
        site shape of ``addresses`` (plus a components axis for
        multi-component Blocks).  ``key`` names the address table for
        plan caching — pass it whenever the table is static (Assumption
        II), e.g. ``key="neighbors"`` for the USGrid neighbour lists.
        Without a ``key`` the plan is compiled per call and never
        cached (a content-derived cache key would retain one plan per
        distinct table for the life of the memo, and every stale plan's
        halo pages would keep being prefetched).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        block = self.block
        sites_shape = addresses.shape if block.ndim == 1 else addresses.shape[:-1]
        env = self.env
        mmat = env.mmat
        if not mmat.enabled:
            out = self._gather_addresses_scalar(addresses)
        else:
            plan = None
            if key is not None:
                cache_key = (block.block_id, "addresses", key, addresses.shape)
                plan = mmat.plan_lookup(cache_key)
            if plan is None:
                with global_tracer().span("plan.compile", sites=int(np.prod(sites_shape))):
                    plan = compile_address_plan(env, block, addresses)
                if key is not None:
                    mmat.plan_store(cache_key, plan)
                    self._trace.plan_compiles += 1
                else:
                    # Per-call compiles are by design, not cache misses:
                    # counting them as plan_compiles would make coverage
                    # numbers report near-zero hit rates for apps with
                    # dynamic address tables.
                    mmat.note_uncached_compile()
                    self._trace.plan_compiles_uncached += 1
            out = plan.execute(env)
            mmat.note_execution(plan)
            self._trace.plan_gathers += 1
            self._trace.plan_sites += plan.n_sites
        if block.components == 1:
            return out.reshape(sites_shape)
        return out.reshape(sites_shape + (block.components,))

    def scatter(self, values: np.ndarray) -> None:
        """Write a whole block of results into the write buffer at once.

        Accepts ``shape`` (single-component) or ``(element_count,
        components)`` arrays — or anything broadcastable to them, e.g. a
        constant scalar; the write-buffer pages are marked dirty exactly
        as per-element :meth:`set` calls would.
        """
        block = self.block
        data = np.asarray(values)
        try:
            data = data.reshape(block.element_count, block.components)
        except ValueError:
            data = np.broadcast_to(data, (block.element_count, block.components))
        block.load_dense(data, into_write=True)
        self.env.note_full_store(block, data)
        self._trace.updates += self._work * block.element_count

    def sweep(self, fn: Callable[..., np.ndarray], offsets: Sequence[Sequence[int]]) -> None:
        """One full-block update: gather ``offsets``, apply ``fn``, scatter.

        ``fn`` receives one array per offset (each shaped like the
        Block) and must return the new field, shaped like the Block (or
        anything broadcastable to it).  When an overlapped halo exchange
        is in flight the sweep runs interior sites first, waits for the
        halo, then finishes the boundary rim — see :meth:`sweep_segment`
        for the elementwise ``fn`` contract, which every stencil update
        satisfies by construction.

        With MMAT enabled the compiled access plan and ``fn`` are fused
        into one generated kernel (:mod:`repro.kernels`) that applies
        ``fn`` to shifted views of a padded scratch field instead of
        materialising the per-offset gather tensor; unfusable cases and
        warm-up sweeps fall back to :meth:`sweep_segment` transparently.
        """
        offsets = tuple(tuple(int(c) for c in off) for off in offsets)
        env = self.env
        if self._fuse and not self._warmup and env.mmat.enabled:
            plan = self._offsets_plan(offsets)
            kern = fused_kernel_for(
                env,
                self.block,
                plan,
                fn,
                temporal=self._temporal,
                codegen=self._codegen,
                trace=self._trace,
            )
            if kern is not None:
                kern(env, fn, self._trace, self._work)
                return
        self.sweep_segment(fn, offsets)

    def sweep_segment(
        self, fn: Callable[..., np.ndarray], offsets: Sequence[Sequence[int]]
    ) -> None:
        """Overlap-aware sweep: compute the interior while the halo travels.

        The compiled access plan is split into its interior and boundary
        sub-plans (:meth:`~repro.memory.mmat.AccessPlan.split`).  Sites
        whose stencil touches only locally-owned data are gathered *and
        updated* first; only then is the in-flight halo exchange
        completed (``Env.complete_pending_halo``) and the halo-dependent
        boundary sites finished — so the whole communication round-trip
        hides behind the interior computation.  Without a pending
        exchange, a compiled plan, or any halo dependence, this is
        exactly :meth:`gather` + ``fn`` + :meth:`scatter`.

        ``fn`` must be *elementwise over sites*: each output site may
        depend only on the per-offset values gathered **at that site**
        (true for every stencil update — the per-offset arrays exist
        precisely so ``fn`` needs no internal shifting).  ``fn`` is
        applied to 1-D site slices here, so it must not assume the
        block's 2-D/3-D shape.
        """
        offsets = tuple(tuple(int(c) for c in off) for off in offsets)
        env = self.env
        block = self.block
        tracer = global_tracer()
        plan = self._offsets_plan(offsets) if env.mmat.enabled else None
        if plan is None or not plan.has_halo or not env.has_pending_halo():
            # No overlap opportunity: the plain gather path (which itself
            # completes a pending exchange before its boundary segments).
            with tracer.span("sweep"):
                self.scatter(fn(*self.gather(offsets)))
            return

        n_off = len(offsets)
        n_elem = block.element_count
        comps = block.components
        out = np.empty((plan.n_sites, comps), dtype=plan.dtype)

        # Output elements whose stencil reaches halo data; everything
        # else is computable from the interior gather alone.
        interior_elems, boundary_elems = plan.element_partition()
        per_offset = out.reshape(n_off, n_elem, comps)
        result = np.empty((n_elem, comps), dtype=plan.dtype)

        def apply(elems: np.ndarray) -> None:
            if not elems.size:
                return
            # fn may return a broadcastable constant (legal on the
            # non-overlap gather+scatter path): broadcast instead of
            # reshaping so it does not crash mid-overlap.
            if comps == 1:
                args = [per_offset[oi, elems, 0] for oi in range(n_off)]
                vals = np.asarray(fn(*args))
                if vals.size == elems.size:
                    result[elems, 0] = vals.reshape(elems.size)
                else:
                    result[elems, 0] = np.broadcast_to(vals, (elems.size,))
            else:
                args = [per_offset[oi, elems] for oi in range(n_off)]
                vals = np.asarray(fn(*args))
                if vals.size == elems.size * comps:
                    result[elems] = vals.reshape(elems.size, comps)
                else:
                    result[elems] = np.broadcast_to(vals, (elems.size, comps))

        with tracer.span("sweep.interior", sites=int(interior_elems.size)):
            plan.gather_interior(env, out)
            apply(interior_elems)        # … while the halo is in flight
        env.complete_pending_halo()      # wait + install the halo pages
        with tracer.span("sweep.boundary", sites=int(boundary_elems.size)):
            missing = plan.gather_boundary(env, out)
            apply(boundary_elems)        # finish the halo-dependent rim

        plan.account(env, missing)
        env.mmat.note_execution(plan)
        self._trace.plan_gathers += 1
        self._trace.plan_sites += plan.n_sites
        self.scatter(result)

    # -- scalar fallbacks (MMAT disabled: no memoization allowed) ----------
    def _gather_offsets_scalar(self, offsets) -> np.ndarray:
        env = self.env
        block = self.block
        origin = self.origin
        shape = block.shape
        n_elem = block.element_count
        out = np.empty((len(offsets) * n_elem, block.components), dtype=np.float64)
        locals_iter = list(itertools.product(*(range(s) for s in shape)))
        for oi, off in enumerate(offsets):
            base = oi * n_elem
            for linear, local in enumerate(locals_iter):
                tgt = tuple(map(add, local, off))
                inside = all(0 <= t < s for t, s in zip(tgt, shape))
                addr = tuple(map(add, origin, tgt))
                out[base + linear] = env.read_from(block, addr, assume_inside=inside)
        env.mmat.note_fallback(len(offsets) * n_elem)
        self._trace.plan_fallback_sites += len(offsets) * n_elem
        return out

    def _gather_addresses_scalar(self, addresses: np.ndarray) -> np.ndarray:
        env = self.env
        block = self.block
        nd = block.ndim
        flat = addresses.reshape(-1) if nd == 1 else addresses.reshape(-1, nd)
        n_sites = flat.shape[0]
        out = np.empty((n_sites, block.components), dtype=np.float64)
        for site in range(n_sites):
            addr = (int(flat[site]),) if nd == 1 else tuple(int(c) for c in flat[site])
            out[site] = env.read_from(block, addr, assume_inside=False)
        env.mmat.note_fallback(n_sites)
        self._trace.plan_fallback_sites += n_sites
        return out

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.block.shape

    def static_field(self, name: str) -> np.ndarray:
        """Access a static per-element side array registered by the DSL."""
        return self.block.static_fields[name]


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
        #: Whether sweeps may compile plan+fn into fused kernels
        #: (config ``fuse``, default on; only effective with MMAT).
        self.fuse_kernels: bool = bool(self.config.get("fuse", True))
        #: Temporal blocking depth override (config ``temporal_block``);
        #: None defers to the platform's ``temporal_block`` attribute.
        tb = self.config.get("temporal_block")
        self.temporal_block: Optional[int] = None if tb is None else max(int(tb), 1)
        #: Codegen backend override for fused kernels (config
        #: ``codegen``; None = registry default / env var).
        self.kernel_codegen: Optional[str] = self.config.get("codegen")

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
        partition).  Returns ``(spec, task_id)`` pairs in Z-order.
        """
        total = max(self.total_tasks, 1)
        # An elastically shrunk world (rank recovery) has fewer live
        # ranks than the platform was built with; the task context
        # carries the actual world size, so size the deal by it — a
        # stale total would assign Blocks to ranks that no longer exist.
        task = current_task()
        if task is not SERIAL_TASK:
            total = max(task.mpi_size * self.omp_threads(), 1)
        keys = [spec.zorder() for spec in specs]
        # 1-D DSLs (and pre-sorted spec lists in general) are already in
        # Z-order; skip the re-sort that shows up in warm-up profiles.
        if all(a <= b for a, b in zip(keys, keys[1:])):
            ordered = list(specs)
        else:
            ordered = [spec for _, spec in sorted(zip(keys, specs), key=lambda kv: kv[0])]
        # After a rank failure the recovery manager re-partitions the dead
        # rank's blocks onto the survivors; the resulting logical-key →
        # rank map overrides the default contiguous deal.
        override = None
        if self.platform is not None:
            override = self.platform.context.get("resilience_ownership")
        per_task = math.ceil(len(ordered) / total)
        omp = self.omp_threads()
        per_rank_count: dict = {}
        assignment: List[Tuple[BlockSpec, int]] = []
        for position, spec in enumerate(ordered):
            rank = override.get(spec.logical_key) if override else None
            if rank is not None:
                # Deal the rank's blocks round-robin over its omp threads,
                # mirroring the contiguous deal's task granularity.
                nth = per_rank_count.get(rank, 0)
                per_rank_count[rank] = nth + 1
                task_id = rank * omp + (nth % omp)
            else:
                task_id = min(position // per_task, total - 1) if per_task else 0
            assignment.append((spec, task_id))
        return assignment

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
        pages fetched on demand, initially invalid).  In shared-memory
        or serial runs every Block is a Data Block.
        """
        task = current_task()
        my_rank = task.mpi_rank
        omp = self.omp_threads()
        created: List[DataBlock] = []
        for spec, task_id in self.assign_tasks(specs):
            owner_rank = task_id // omp
            master_tid = owner_rank * omp
            if owner_rank == my_rank or task.mpi_size == 1:
                block = DataBlock(
                    spec.origin,
                    spec.shape,
                    components=components,
                    page_elements=page_elements,
                    allocator=env.allocator,
                    dtype=dtype,
                    name=f"data{spec.logical_key}",
                )
            else:
                block = BufferOnlyBlock(
                    spec.origin,
                    spec.shape,
                    components=components,
                    page_elements=page_elements,
                    allocator=env.allocator,
                    dtype=dtype,
                    owner_tid=owner_rank,
                    name=f"remote{spec.logical_key}",
                )
            block.logical_key = spec.logical_key
            block.dm_tid = master_tid
            block.ch_tid = task_id
            env.add_data_block(block)
            created.append(block)
        return created

    # ------------------------------------------------------------------
    def register_access_profile(self) -> None:
        """Record the workload's qualitative access profile for the cost model."""
        counters = global_trace().for_task()
        counters.access_pattern = self.ACCESS_PATTERN
        counters.bytes_per_update = self.BYTES_PER_UPDATE

    # ------------------------------------------------------------------
    def build_env(self) -> Env:  # pragma: no cover - abstract
        """Build and return this target's Env (implemented by each DSL)."""
        raise NotImplementedError

    def initialize(self) -> None:
        """Default initialise: build the Env and record the access profile."""
        self.register_access_profile()
        self.build_env()

    def kernel_for(self, block: DataBlock, warmup: bool = False) -> BlockKernel:
        """Return the kernel accessor for ``block`` (Listing 1's InitKernelMacros)."""
        assert self.env is not None, "initialize() must build the Env first"
        temporal = self.temporal_block
        if temporal is None:
            platform = getattr(self, "platform", None)
            temporal = getattr(platform, "temporal_block", 1) if platform else 1
        return BlockKernel(
            self.env,
            block,
            work_per_set=self.WORK_PER_UPDATE,
            fuse=self.fuse_kernels,
            temporal_block=temporal,
            codegen=self.kernel_codegen,
            warmup=warmup,
        )

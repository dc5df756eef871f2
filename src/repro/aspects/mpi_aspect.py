"""Distributed-memory aspect module (the paper's "aspect of MPI").

This module weaves the distributed-memory layer into an application:

* **AspectType I — control of the runtime and tasks.**  Around the
  program entry point it creates the simulated MPI world, runs the
  whole program once per rank (SPMD) and finalises the runtime — the
  direct analogue of "the initialization runtime and finalization
  runtime Advices are performed before and after the entry point
  (main of C++ programs)".
* **AspectType II — assigning Blocks to tasks.**  Around
  ``Env.get_blocks`` it restricts the returned Blocks to those whose
  data-manage task belongs to the caller's rank.  (As in the paper's
  prototype, the actual Z-order assignment is computed by the DSL layer
  when it builds each rank's Env; the advice enforces/documents the
  ownership split.)
* **AspectType III — communication of data between tasks.**  Around
  ``Env.refresh`` it implements the collective step protocol: agree
  whether every rank's step succeeded, fetch the pages recorded as
  non-existent from their owners when it did not, and — via the
  **Dry-run** record — prefetch, after every successful refresh, the
  pages this rank is known to need so later steps do not fail at all
  (the Dry-run record united with the halo pages of every compiled
  access plan).  Pages move one way only: **one bulk request/reply pair
  per owning rank** (:meth:`ExecutionWorld.fetch_pages_bulk_async`),
  issued to every owner, then waited for and installed.  The repair
  runs before the step barrier, the prefetch right after it; either
  way the exchange is complete when the refresh returns, so no halo
  exchange is ever in flight outside this advice.

  Where the world's ranks share memory (``world.control``) that page
  exchange is only how a run *opens*.  The halo tables of the compiled
  plans declare exactly which remote element rows a rank reads, so each
  consumer tells each owner once (:class:`PushPlan`, one collective),
  and from then on a step is **closed**: the per-step agreement is an
  AND over shared words, the owner *publishes* the declared rows into a
  stamped slot right after its swap, and the consumer waits for the
  stamps and copies the slots into its ghost tail before the refresh
  returns — no request, no reply, no barrier.  The agreement carries, next
  to "my step succeeded", each rank's statement that the pushed rows
  are all the remote data it reads; one rank that cannot say so (a
  recompiled plan, a scalar halo read, a key-less ``gather_global``)
  takes every rank through the page protocol for that step, and a
  changed plan set is renegotiated after it.  ``docs/protocols.md`` has
  the state table and the ordering argument.

The module also registers every rank's Env and Blocks in the world's
:class:`~repro.runtime.backends.base.BlockDirectory` (after ``Initialize``),
which is what lets page fetches name remote Blocks by logical key.

Pointcuts are declared in the textual pointcut language
(``"tagged('platform.entry')"``), matching the annotation tags of
:mod:`repro.aop.registry` — the Python analogue of AspectC++'s string
match expressions.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from ..aop.advice import after_returning, around
from ..memory.block import BufferOnlyBlock, DataBlock
from ..memory.mmat import sorted_unique
from ..memory.page import PageKey
from ..obs.spans import global_tracer
from ..runtime.backends import DEFAULT_BACKEND, create_world
from ..runtime.backends.base import CommHandle, ExecutionWorld, HaloLink
from ..runtime.errors import CollectiveError, NetworkError, PageFetchError
from ..runtime.shm import protocol_checks
from ..runtime.task import current_task
from ..runtime.tracing import global_trace
from .base import LayerAspect

__all__ = ["DistributedMemoryAspect", "PushPlan"]

#: Flags of the per-step agreement (``world.allreduce_bits``).
_OK = 1        # my step read no missing page
_CLOSED = 2    # the pushed rows are all the remote data my step reads
_CURRENT = 4   # my PushPlan was derived from the plans I hold now

#: Why a rank can never publish; reported even if the run never closed.
_NEVER_CLOSES = "no slots"


def _named(keys) -> str:
    """``keys`` for an error message: the first eight pages, and how many more."""
    keys = sorted(keys)
    more = f" (+{len(keys) - 8} more)" if len(keys) > 8 else ""
    return "pages " + ", ".join(map(repr, keys[:8])) + more


def _page_bytes(env, keys) -> int:
    """Payload bytes of the pages ``keys``: what their owners' snapshots hold."""
    total = 0
    for key in keys:
        page = env.block(key.block_id).buffer.read_buffer.pages[key.page_index]
        total += page.elements * page.components * page.dtype.itemsize
    return total


def _wait_halo(handle: CommHandle, what, trace, **attrs):
    """Wait ``handle`` under the ``halo.wait`` span (carrying ``attrs``: the
    exchange's ``pages`` or ``sites``) and credit the time blocked to
    ``trace.halo_wait_ns``; returns its :class:`BulkFetchResult`.

    A wait that fails — a dropped or corrupt reply, a timeout, a dead
    owner — raises :class:`PageFetchError` naming ``what()`` was outstanding.
    """
    wait_start = time.perf_counter_ns()
    try:
        with global_tracer().span("halo.wait", **attrs):
            result = handle.wait()
    except PageFetchError:
        raise
    except (NetworkError, CollectiveError) as exc:
        raise PageFetchError(f"{what()} failed: {exc}") from exc
    trace.halo_wait_ns += time.perf_counter_ns() - wait_start
    return result


def _install_pages(env, manifest: Dict[Tuple[Any, int], PageKey], handle: CommHandle, trace) -> None:
    """Wait for one rank's bulk page exchange, install its pages, account
    the traffic.  ``manifest`` maps what was issued — ``(logical block
    key, page index)`` — to the local :class:`PageKey`."""
    result = _wait_halo(handle, lambda: f"halo exchange of {_named(manifest.values())}", trace,
                        pages=len(manifest))
    env.page_install_many((manifest[lk, page], data) for lk, page, data in result.pages)
    trace.pages_fetched += len(result.pages)


def _copy_pushes(env, plan: PushPlan, world, rank: int, trace) -> None:
    """Wait for the stamps of exactly the owners ``rank`` reads — through
    ``CommHandle.wait``, so halo waiting is measured in one place — copy
    each owner's slot, one contiguous copy, into its run of the ghost tail
    (:meth:`~repro.memory.env.Env.copy_pushes`), which the plans then read
    until the next swap, and count the slots."""
    round = world.halo_round(rank)
    handle = world.await_halo(rank, [link for link, _ in plan.inbound])
    result = _wait_halo(handle, lambda: f"published halo of {plan.inbound_sites} sites", trace,
                        sites=plan.inbound_sites)
    slots = [_slot_rows(link, image, lo, hi) for link, tables in plan.inbound
             for image, _, lo, hi in tables]
    env.copy_pushes(slots, check=protocol_checks())
    if protocol_checks():
        # REPRO_CHECK: the slots hold, per owner, what it stored — nothing
        # rewrote them before this rank's copy.
        for link, tables in plan.inbound:
            crc = 0
            for _, _, lo, hi in tables:
                crc = zlib.crc32(link.slot[lo:hi], crc)
            world.control.acknowledge(link.owner, link.consumer, round, crc)
    trace.halo_pushes += result.exchanges


def _slot_rows(link: HaloLink, image, lo: int, hi: int) -> np.ndarray:
    """Bytes ``[lo, hi)`` of a halo slot as rows of ``image``'s class.

    Built per use, never kept: the world drops ``link.slot`` when it
    closes, and a surviving view would pin the mapped segment.
    """
    return link.slot[lo:hi].view(image.dtype).reshape(-1, image.components)


@dataclass
class PushPlan:
    """One rank's site-granular communication schedule (publish protocol).

    Derived, at an open step, from the halo tables of every compiled
    access plan: per owner the sorted distinct element rows this rank
    reads (``inbound``), and — received from the consumers in the same
    collective — per consumer the rows of this rank's own read image
    they read (``outbound``).  Each table is one fancy-index: the owner
    ``np.take`` s ``idx`` out of its image into the link's slot, and the
    consumer copies the slot into the run of its ghost tail that holds
    the halo rows ``rows`` (:meth:`~repro.memory.env.Env.set_pushed_rows`
    numbers them, owner-major in this order).
    """

    #: ``Env.plan_generation`` the site sets were derived from.
    generation: tuple
    #: Buffer-only pages those plans read; the Dry-run record must stay
    #: inside it for the pushed rows to be all the rank prefetches.
    pages: frozenset
    #: Payload bytes of ``pages``: what the paper's prototype moves a step.
    page_bytes: int = 0
    #: Per owner: ``(link, [(image, halo rows, slot byte lo, hi), …])``.
    inbound: List[Tuple[HaloLink, list]] = field(default_factory=list)
    #: Per consumer: ``(link, [(image, read rows, lo, hi), …])``.
    outbound: List[Tuple[HaloLink, list]] = field(default_factory=list)
    #: Element rows all inbound tables carry per step.
    inbound_sites: int = 0
    #: Whether any agreed step ran closed on this plan yet.
    closed_once: bool = False


class DistributedMemoryAspect(LayerAspect):
    """Aspect module managing the distributed-memory (MPI-like) layer.

    The runtime itself is pluggable: the Platform's ``backend`` selects
    an execution backend from :mod:`repro.runtime.backends` (``serial``
    | ``threads`` | ``process`` | any registered custom backend) for a
    world of two or more ranks — a world of one is always the serial
    world — and its ``comm_timeout`` bounds every wait of the world.
    """

    layer = "mpi"
    #: Precedence: *inside* the shared-memory aspect (see aspects/__init__),
    #: so that in hybrid runs only each rank's master thread executes the
    #: collective refresh protocol.
    order = 20

    def __init__(self, processes: int = 1) -> None:
        super().__init__(parallelism=processes)
        self.world: ExecutionWorld | None = None
        #: Dry-run record: rank -> set of local PageKeys that had to be
        #: fetched at least once; prefetched after every successful refresh.
        self._dry_run: Dict[int, Set[PageKey]] = {}
        #: Publish protocol: rank -> PushPlan of the latest negotiation,
        #: rank -> {owner: HaloLink} of the slots it allocated (reused by
        #: a renegotiation that fits), and rank -> the Env counters
        #: ``(uncached plan compiles, scalar Buffer-only reads)`` as of
        #: its previous refresh — a step that moved them read remote data
        #: the pushed rows do not cover.
        self._push_plans: Dict[int, PushPlan] = {}
        self._inbound_links: Dict[int, Dict[int, HaloLink]] = {}
        self._uncovered_reads: Dict[int, Tuple[int, int]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def bind_world(self, world: Optional[ExecutionWorld]) -> None:
        """Adopt ``world`` for the coming run, forgetting every per-world plan."""
        self.world = world
        self._dry_run = {rank: set() for rank in range(world.size)} if world else {}
        self._push_plans = {}
        self._inbound_links = {}
        self._uncovered_reads = {}

    # ------------------------------------------------------------------
    # AspectType I — control of the runtime and tasks
    # ------------------------------------------------------------------
    @around("tagged('platform.entry')", order=0)
    def manage_runtime(self, jp):
        """Initialise the distributed runtime, run the program per rank, finalise.

        The one code path of a world's life: an outer advice that proceeds
        again gets a new world, of the size ``parallelism`` says then.
        """
        platform = self.platform
        backend = getattr(platform, "backend", None) or DEFAULT_BACKEND
        omp_threads = platform.parallelism_of("omp") if platform is not None else 1
        entry = jp.continuation()
        world = create_world(backend, self.parallelism, timeout=self.comm_timeout())
        self.bind_world(world)
        if platform is not None:
            platform.context["mpi_world"] = world

        def rank_main(ctx):
            # A rank's answer rides its result channel: rank 0 hands back
            # its application instance, every other rank its ``result``.
            app = entry()
            return app if ctx.mpi_rank == 0 else app.result

        try:
            results = world.run_spmd(rank_main, omp_threads=omp_threads)
        finally:
            # Finalise on failure too: an un-finalised world would keep
            # every rank's Env replica alive until the next run.
            world.finalize()
        app = results[0].value
        if platform is not None:
            platform.context["rank_results"] = [app.result] + [r.value for r in results[1:]]
        return app

    # ------------------------------------------------------------------
    # Env / Block registration (runs after the DSL built each rank's Env)
    # ------------------------------------------------------------------
    @after_returning("tagged('platform.initialize')", order=0)
    def register_env(self, jp):
        """Register the rank's Env replica and its Blocks with the world."""
        world = self.world
        if world is None:
            return
        app = jp.target
        env = getattr(app, "env", None)
        if env is None:
            return
        rank = current_task().mpi_rank
        world.register_env(rank, env)
        omp_threads = current_task().omp_threads
        for block in env.data_blocks(include_buffer_only=True):
            logical_key = getattr(block, "logical_key", None)
            if logical_key is None:
                continue
            owns = isinstance(block, DataBlock) and not isinstance(block, BufferOnlyBlock)
            owns = owns and block.dm_tid == rank * omp_threads
            world.register_block(logical_key, rank, block.block_id, owner=owns)
        # Every rank must finish registering before any rank starts
        # computing (a fetch may target any rank from the first step);
        # backends without a shared directory also exchange entries here.
        world.commit_registration()

    # ------------------------------------------------------------------
    # AspectType II — assigning Blocks to tasks
    # ------------------------------------------------------------------
    @around("tagged('memory.get_blocks')", order=0)
    def assign_blocks(self, jp):
        """Restrict the Block list to those managed by the caller's rank."""
        blocks = jp.proceed()
        if self.world is None:
            return blocks
        task = current_task()
        master_tid = task.mpi_rank * task.omp_threads
        return [b for b in blocks if b.dm_tid == master_tid]

    # ------------------------------------------------------------------
    # AspectType III — communication of data between tasks
    # ------------------------------------------------------------------
    @around("tagged('memory.refresh')", order=0)
    def exchange_data(self, jp):
        """Collective refresh: agree on the step, then publish or exchange the halo."""
        world = self.world
        if world is None:
            return jp.proceed()
        env = jp.target
        task = current_task()
        rank = task.mpi_rank
        trace = global_trace().for_task()
        warmup = bool(jp.args[0]) if jp.args else bool(jp.kwargs.get("warmup", False))
        tracer = global_tracer()
        local_ok = not env.missing_pages
        push = self._push_plans.get(rank)
        reason = self._open_reason(env, rank, push, warmup)
        # A world without slots has nothing to negotiate: its plan is
        # "current" by definition, so the bit never asks for a negotiation.
        current = reason == _NEVER_CLOSES or (
            push is not None and push.generation == env.plan_generation
        )
        flags = (_OK if local_ok else 0) | (_CLOSED if reason is None else 0) | (
            _CURRENT if current else 0
        )
        with tracer.span("step.allreduce"):
            agreed = world.allreduce_bits(flags)
        trace.collectives += 1
        if protocol_checks():
            env.check_dense_image()

        if not agreed & _OK:
            # At least one rank accessed data it does not have: nobody may
            # swap; ranks that failed fetch the missing pages and the step
            # is re-executed (§III-B9).
            if local_ok:
                needed: Set[PageKey] = set()
                result = False
            else:
                result = jp.proceed()  # records last_failed_pages, no swap
                needed = set(env.last_failed_pages)
            with tracer.span("halo.repair", pages=len(needed)):
                self._repair(env, rank, needed, trace)
            with tracer.span("step.barrier"):
                world.barrier()
            trace.collectives += 1
            return False

        # Every rank can finish the step: swap buffers (unless warm-up) …
        result = jp.proceed()

        if agreed & _CLOSED:
            # … and every rank reads nothing but pushed rows: publish mine
            # (the stamp orders what the barrier used to), copy theirs in.
            push.closed_once = True
            # The Dry-run record lies inside ``push.pages`` (else the step
            # were open): those are the pages the paper's prototype fetches.
            trace.paper_pages += len(push.pages)
            trace.paper_bytes += push.page_bytes
            env.invalidate_buffer_only()
            if protocol_checks():
                env.check_pushed_rows()
            with tracer.span("halo.publish", links=len(push.outbound)):
                self._publish(env, push)
            _copy_pushes(env, push, world, rank, trace)
            return result

        if reason is not None and not warmup and world.size > 1 and (
            reason == _NEVER_CLOSES or (push is not None and push.closed_once)
        ):
            world.record_open_step(rank, reason)
        with tracer.span("step.barrier"):
            world.barrier()
        trace.collectives += 1
        # … then prefetch, with the owners' new data, every page this rank
        # is known to need for the next step: the Dry-run record (pages
        # that were observed missing) united with the halo pages of every
        # compiled access plan — one bulk exchange per owner.
        env.invalidate_buffer_only()
        with self._lock:
            prefetch = set(self._dry_run.get(rank, ()))
        plan_pages = env.plan_page_requirements()
        prefetch |= plan_pages
        if not warmup:
            trace.paper_pages += len(prefetch)
            trace.paper_bytes += _page_bytes(env, prefetch)
        self._fetch_pages(env, rank, prefetch, trace)
        if not agreed & _CURRENT:
            # Some rank's plans changed since the last negotiation (or
            # there was none): tell the owners what is read now, so the
            # following steps can run closed.
            with tracer.span("plan.push_negotiate"):
                self._negotiate_push(env, rank, plan_pages)
        return result

    def _open_reason(self, env, rank: int, push: Optional[PushPlan], warmup: bool) -> Optional[str]:
        """Why this rank's step cannot be closed, or ``None`` when it can:
        the pushed rows are provably all the remote data it reads."""
        mmat = env.mmat
        reads = (mmat.plan_compiles_uncached, env.stats.buffer_only_reads)
        before = self._uncovered_reads.get(rank, reads)
        self._uncovered_reads[rank] = reads
        if self.world.control is None:
            return _NEVER_CLOSES
        if warmup:
            return "warm-up"
        if push is None or push.generation != env.plan_generation:
            return "plan generation changed"
        if not mmat.enabled:
            return "MMAT disabled"
        if env.missing_pages:
            return "missing page"
        if reads[0] != before[0]:
            return "key-less gather_global"
        if reads[1] != before[1]:
            return "scalar halo read"
        with self._lock:
            if not self._dry_run.get(rank, set()) <= push.pages:
                return "dry-run pages outside plans"
        return None

    # ------------------------------------------------------------------
    # publish protocol
    # ------------------------------------------------------------------
    def _publish(self, env, push: PushPlan) -> None:
        """Store the rows each consumer reads into its slot, then stamp it."""
        world = self.world
        checks = protocol_checks()
        for link, tables in push.outbound:
            if checks:
                world.control.claim(link.owner, link.consumer)
            crc = 0 if checks else None
            sites = 0
            for image, idx, lo, hi in tables:
                rows = image.read  # the owned Blocks' read buffers themselves
                # mode="clip": the indices were range-checked when the plan
                # was negotiated, and the default mode would buffer the slot.
                np.take(rows, idx, axis=0, out=_slot_rows(link, image, lo, hi), mode="clip")
                sites += idx.size
                if checks:
                    crc = zlib.crc32(rows[idx].tobytes(), crc)
            world.publish_halo(link, sites, crc)

    def _negotiate_push(self, env, rank: int, plan_pages: Set[PageKey]) -> None:
        """Collective: tell every owner which of its rows this rank's plans read.

        Each consumer sizes and allocates one slot per owner and sends,
        through one allgather, the slot's descriptor with the sorted
        distinct ``(logical block key, element row)`` set of its halo
        tables; each owner turns what it receives into index vectors
        into its own read image.  No per-site Python on either side.
        """
        world = self.world
        directory = world.directory
        # -- consumer side: halo rows -> per-owner (block key, elements) --
        pushed = env.plan_halo_rows()
        wanted: Dict[int, list] = {}  # owner -> [(image, rows, [(key, elements), …]), …]
        for image, rows in pushed:
            blocks, which, elements = env.halo_row_blocks(image, rows)
            # Only the Blocks a row is read from need an owner.
            owners = np.zeros(len(blocks), dtype=np.intp)
            for b in sorted_unique(which).tolist():
                owners[b] = directory.owner_of(self._logical_key(rank, blocks[b]))
            row_owner = owners[which]
            for owner in sorted_unique(row_owner).tolist():
                sel = np.flatnonzero(row_owner == owner)
                cuts = np.flatnonzero(np.diff(which[sel])) + 1
                firsts = which[sel][np.concatenate(([0], cuts))]
                pieces = [
                    (blocks[b].logical_key, part)
                    for b, part in zip(firsts.tolist(), np.split(elements[sel], cuts))
                ]
                wanted.setdefault(owner, []).append((image, rows[sel], pieces))
        plan = PushPlan(
            generation=env.plan_generation,
            pages=frozenset(plan_pages),
            page_bytes=_page_bytes(env, plan_pages),
        )
        previous = self._push_plans.get(rank)
        plan.closed_once = previous is not None and previous.closed_once
        links = self._inbound_links.setdefault(rank, {})
        offer: Dict[int, tuple] = {}
        for owner, entries in sorted(wanted.items()):
            tables, classes, offset = [], [], 0
            for image, rows, pieces in entries:
                nbytes = rows.size * image.components * image.dtype.itemsize
                tables.append((image, rows, offset, offset + nbytes))
                plan.inbound_sites += rows.size
                classes.append(((image.components, image.dtype.str), pieces))
                offset += nbytes + (-nbytes) % 8
            link = links.get(owner)
            if link is None or link.slot.nbytes < offset:
                link = links[owner] = world.open_halo_link(owner, rank, nbytes=offset)
            plan.inbound.append((link, tables))
            offer[owner] = (link.descriptor, classes)
        # -- the one collective ---------------------------------------------
        offers = world.allreduce(offer, list)  # every world: in rank order
        # -- owner side: (block key, elements) -> rows of my read image -----
        for consumer, offered in enumerate(offers):
            if rank not in offered:
                continue
            descriptor, classes = offered[rank]
            link = world.open_halo_link(rank, consumer, descriptor=descriptor)
            tables, offset = [], 0
            for class_key, pieces in classes:
                idx, image = [], None
                for logical_key, elements in pieces:
                    block = env.block(directory.block_id_on(logical_key, rank))
                    image, lo, hi, halo = env.image_slot(block)
                    if (
                        halo
                        or (image.components, image.dtype.str) != class_key
                        or (elements.size and int(elements.max()) >= hi - lo)
                    ):
                        raise PageFetchError(
                            f"rank {consumer} asked rank {rank} to publish rows of "
                            f"block {logical_key!r} that it does not own in that shape"
                        )
                    idx.append(lo + elements)
                idx = np.concatenate(idx).astype(np.intp, copy=False)
                nbytes = idx.size * image.components * image.dtype.itemsize
                tables.append((image, idx, offset, offset + nbytes))
                offset += nbytes + (-nbytes) % 8
            plan.outbound.append((link, tables))
        env.set_pushed_rows(
            (image, rows) for _, tables in plan.inbound for image, rows, _, _ in tables
        )
        self._push_plans[rank] = plan

    @staticmethod
    def _logical_key(rank: int, block, what: str = "the halo") -> Any:
        logical_key = getattr(block, "logical_key", None)
        if logical_key is None:
            raise PageFetchError(
                f"rank {rank} cannot fetch {what} of block {block.name!r}: it has no "
                "logical key, so its owning rank is unresolvable"
            )
        return logical_key

    # ------------------------------------------------------------------
    def _repair(self, env, rank: int, keys: Set[PageKey], trace) -> None:
        """Fetch the pages ``keys`` a failed step missed into the Dry-run
        record and the Env: one bulk exchange per owner."""
        with self._lock:
            self._dry_run.setdefault(rank, set()).update(keys)
        self._fetch_pages(env, rank, keys, trace)

    def _fetch_pages(self, env, rank: int, keys: Set[PageKey], trace) -> None:
        """Move the pages ``keys`` here: one bulk request/reply pair per
        owning rank (:meth:`ExecutionWorld.fetch_pages_bulk_async`), issued
        to every owner, then waited for and installed.  Owner-resolution
        failures surface at issue time.
        """
        if not keys:
            return
        manifest = {
            (self._logical_key(rank, env.block(key.block_id), repr(key)), key.page_index): key
            for key in sorted(keys)
        }
        try:
            handle = self.world.fetch_pages_bulk_async(rank, list(manifest))
        except PageFetchError:
            raise
        except NetworkError as exc:
            raise PageFetchError(
                f"rank {rank} failed to issue the halo exchange of {_named(keys)}: {exc}"
            ) from exc
        _install_pages(env, manifest, handle, trace)

    # ------------------------------------------------------------------
    def on_detach(self, platform) -> None:
        """Drop the world and every cached plan when unwoven from a platform."""
        super().on_detach(platform)
        self.bind_world(None)

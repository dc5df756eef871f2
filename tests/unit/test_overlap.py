"""Unit tests for the halo exchange the refresh advice issues and awaits.

Covers the pieces below the integration/property suites: the idempotent
:class:`CommHandle` wait (issued fetches counted exactly once, even
through ``NetworkStats.merge``), the halo tables of an access plan, the
page install's accounting/error wrapping and the aspect's issue-time
diagnostics.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid
from repro.aspects import DistributedMemoryAspect
from repro.aspects.mpi_aspect import _install_pages
from repro.memory import DataBlock, Env, MemoryPool, PoolGroup
from repro.memory.block import BufferOnlyBlock
from repro.memory.mmat import compile_offsets_plan
from repro.memory.page import PageKey
from repro.resilience import FaultPlan
from repro.runtime import (
    BulkFetchResult,
    CommHandle,
    CompletedCommHandle,
    NetworkError,
    NetworkStats,
    PageFetchError,
    create_world,
)
from repro.runtime.tracing import TaskCounters

from page_protocol import kept_open


# ----------------------------------------------------------------------
# CommHandle.wait() idempotence
# ----------------------------------------------------------------------


class _CountingHandle(CommHandle):
    """Handle whose _wait() counts invocations (must be exactly one)."""

    __slots__ = ("calls", "fail")

    def __init__(self, *, fail: bool = False) -> None:
        super().__init__()
        self.calls = 0
        self.fail = fail

    def _wait(self) -> BulkFetchResult:
        self.calls += 1
        if self.fail:
            raise NetworkError("transfer died")
        return BulkFetchResult(pages=[("blk", 0, np.zeros(4))], exchanges=1, nbytes=32)


class TestCommHandleIdempotence:
    def test_double_wait_returns_same_object_and_waits_once(self):
        handle = _CountingHandle()
        first = handle.wait()
        second = handle.wait()
        assert first is second
        assert handle.calls == 1
        assert handle.done

    def test_failed_wait_memoizes_the_error(self):
        handle = _CountingHandle(fail=True)
        with pytest.raises(NetworkError, match="transfer died"):
            handle.wait()
        with pytest.raises(NetworkError, match="transfer died"):
            handle.wait()
        assert handle.calls == 1  # the transfer is not retried
        assert handle.done

    def test_completed_handle_is_born_done(self):
        result = BulkFetchResult(exchanges=0)
        handle = CompletedCommHandle(result)
        assert handle.done
        assert handle.wait() is result


class TestAsyncStatsCountOnce:
    """Issued bulk fetches hit NetworkStats exactly once."""

    def _threads_world_with_fetch(self):
        world = create_world("threads", 2, timeout=10.0)

        class Endpoint:
            def page_snapshot(self, key):
                return np.arange(4, dtype=np.float64) + key.page_index

        def body(ctx):
            rank = ctx.mpi_rank
            world.register_env(rank, Endpoint())
            world.register_block(("blk", rank), rank, 100 + rank, owner=True)
            world.commit_registration()
            handle = world.fetch_pages_bulk_async(rank, [(("blk", 1 - rank), 0)])
            handle.wait()
            handle.wait()  # double wait must not re-count
            world.barrier()
            return None

        world.run_spmd(body)
        return world

    def test_threads_async_counts_each_batch_once(self):
        world = self._threads_world_with_fetch()
        stats = world.network.stats
        assert stats.bulk_fetches == 2  # one batch per rank
        assert stats.bulk_pages == 2
        # Per-neighbor attribution: each direction carries exactly one
        # request and one reply message, not two of either.
        for entry in stats.per_neighbor.values():
            assert entry["messages"] == 2

    def test_merge_preserves_single_counting(self):
        world = self._threads_world_with_fetch()
        merged = NetworkStats()
        merged.merge(world.network.stats)
        merged.merge(NetworkStats())  # merging empties must change nothing
        assert merged.bulk_fetches == world.network.stats.bulk_fetches
        assert merged.bulk_pages == world.network.stats.bulk_pages
        assert merged.per_neighbor == world.network.stats.per_neighbor


# ----------------------------------------------------------------------
# access-plan halo tables
# ----------------------------------------------------------------------


def _two_block_env() -> tuple:
    """An Env with one local Data Block and one halo (Buffer-only) block."""
    env = Env(
        allocator=PoolGroup([MemoryPool(1 << 20, name="p")]),
        name="split-env",
        mmat_enabled=True,
    )
    local = DataBlock(
        (0, 0), (4, 4), components=1, page_elements=4, allocator=env.allocator, name="local"
    )
    halo = BufferOnlyBlock(
        (4, 0),
        (4, 4),
        components=1,
        page_elements=4,
        allocator=env.allocator,
        owner_tid=1,
        name="halo",
    )
    env.add_data_block(local)
    env.add_data_block(halo)
    return env, local, halo


class TestAccessPlanHaloTables:
    def test_one_table_per_image_class_covers_every_site_once(self):
        env, local, _halo = _two_block_env()
        plan = compile_offsets_plan(env, local, [(0, 0), (1, 0)])
        # the (1, 0) offset crosses into the halo: owned and ghost rows of
        # the one image class are one table
        (table,) = plan.segments
        assert plan.halo_segments == [table] and plan.pages and plan.has_halo
        # The table and the slice part together cover every site exactly
        # once; the ghost sites read rows of the tail, behind the owned rows.
        writes = np.zeros(plan.n_sites, dtype=int)
        np.add.at(writes, table.dst_idx, 1)
        grid = writes.reshape((len(plan.slices),) + plan.shape)
        for oi, pair in enumerate(plan.slices):
            if pair is not None:
                grid[oi][pair[0]] += 1
        assert np.all(writes == 1)
        rows = table.rows()[0]
        assert table.ghost_sites.size
        assert np.all(rows[table.ghost_sites] >= table.image.ghost_base)

    def test_local_only_plan_has_no_halo_table(self):
        env, local, _halo = _two_block_env()
        plan = compile_offsets_plan(env, local, [(0, 0)])
        assert plan.halo_segments == []
        assert not plan.has_halo


# ----------------------------------------------------------------------
# page install accounting
# ----------------------------------------------------------------------


def _exchange(*, pages=None, fail=False, key=PageKey(7, 0)) -> tuple:
    """``(manifest, handle)`` of one issued bulk exchange."""
    manifest = {(("blk", 1), 0): key}
    if fail:
        handle: CommHandle = _CountingHandle(fail=True)
    else:
        result = BulkFetchResult(
            pages=pages if pages is not None else [(("blk", 1), 0, np.zeros(4))],
            exchanges=1,
            nbytes=32,
        )
        handle = CompletedCommHandle(result)
    return manifest, handle


class _InstallEnv:
    """Env stand-in recording page installs."""

    def __init__(self):
        self.installed = []

    def page_install_many(self, items):
        self.installed.extend(items)


class TestInstallPages:
    def test_install_accounts_and_times_the_wait(self):
        trace = TaskCounters()
        env = _InstallEnv()
        _install_pages(env, *_exchange(), trace)
        assert [key for key, _ in env.installed] == [PageKey(7, 0)]
        assert trace.pages_fetched == 1
        assert trace.messages == 2
        assert trace.halo_wait_ns >= 0

    def test_network_error_becomes_page_fetch_error(self):
        trace = TaskCounters()
        with pytest.raises(PageFetchError, match=r"halo exchange of pages PageKey\(block=7"):
            _install_pages(_InstallEnv(), *_exchange(fail=True), trace)
        assert trace.messages == trace.pages_fetched == 0  # nothing accounted on failure


# ----------------------------------------------------------------------
# the refresh returns with its exchange complete
# ----------------------------------------------------------------------


class PrefetchProbe(kept_open(JacobiSGrid)):
    """Open steps only; records, after every successful refresh, whether
    every page the compiled plans read is valid already."""

    installed: tuple = ()

    def refresh(self, warmup: bool = False) -> bool:
        done = super().refresh(warmup)
        if done:
            env = self.env
            pages = env.plan_page_requirements()
            self.installed += (bool(pages) and all(
                env.block(key.block_id).buffer.read_buffer.pages[key.page_index].valid
                for key in pages
            ),)
        return done


class TestRefreshCompletesItsExchange:
    @pytest.mark.parametrize("backend", ["threads", "process"])
    def test_an_open_refresh_returns_with_its_prefetch_installed(self, backend):
        config = dict(region=16, block_size=4, page_elements=8, loops=3,
                      init=lambda x, y: 0.5 * x - 0.25 * y)
        run = Platform.preset("mpi", ranks=2, backend=backend, mmat=True).run(
            PrefetchProbe, config=config
        )
        assert run.app.installed == (True,) * (config["loops"] + 1)  # warm-up too
        assert run.counters[(0, 0)].pages_fetched > 0


# ----------------------------------------------------------------------
# aspect issue-time diagnostics
# ----------------------------------------------------------------------


class TestAsyncIssueErrors:
    def test_unresolvable_owner_raises_page_fetch_error(self):
        """The issue wraps transport errors as PageFetchError."""
        aspect = DistributedMemoryAspect(processes=1)
        aspect.world = create_world("serial", 1)

        class _Keyed:
            name = "ghost-block"
            logical_key = ("ghost", 9)

        class _StubEnv:
            def block(self, block_id):
                return _Keyed()

        with pytest.raises(PageFetchError, match="ghost"):
            aspect._fetch_pages(_StubEnv(), 0, {PageKey(3, 0)}, TaskCounters())

    @pytest.mark.parametrize("fault", ["drop_reply", "corrupt_reply"])
    def test_threads_reply_fault_raises_at_issue(self, fault):
        """The threads world serves a batch when it is issued, so a faulty
        reply fails the issue itself, not a later wait."""
        world = create_world("threads", 2, timeout=10.0)
        world.install_fault_plan(getattr(FaultPlan(), fault)(1, peer=0))

        class Endpoint:
            def page_snapshot(self, key):
                return np.zeros(4)

        def body(ctx):
            rank = ctx.mpi_rank
            world.register_env(rank, Endpoint())
            world.register_block(("blk", rank), rank, 100 + rank, owner=True)
            world.commit_registration()
            try:
                if rank == 0:
                    world.fetch_pages_bulk_async(0, [(("blk", 1), 0)])
                return None
            except NetworkError as exc:
                return str(exc)
            finally:
                world.barrier()

        results = world.run_spmd(body)
        assert "reply 1->0" in results[0].value and results[1].value is None

    def test_overlap_is_not_a_knob(self):
        assert not hasattr(DistributedMemoryAspect(), "overlap")
        assert "overlap" not in inspect.signature(DistributedMemoryAspect).parameters

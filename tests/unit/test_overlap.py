"""Unit tests for the overlapped halo exchange.

Covers the pieces below the integration/property suites: the idempotent
:class:`CommHandle` wait (in-flight fetches counted exactly once, even
through ``NetworkStats.merge``), interior/boundary access-plan
splitting, the Env's pending-halo slot, :class:`PendingHalo`'s
accounting/error wrapping and the aspect's issue-time diagnostics.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.aspects import DistributedMemoryAspect, PendingHalo
from repro.memory import DataBlock, Env, MemoryPool, PoolGroup
from repro.memory.block import BufferOnlyBlock
from repro.memory.errors import EnvError
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
    get_backend,
)
from repro.runtime.shm import set_protocol_checks
from repro.runtime.tracing import TaskCounters


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
    """In-flight async fetches hit NetworkStats exactly once."""

    def _threads_world_with_fetch(self):
        world = get_backend("threads").create_world(2, timeout=10.0)

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
        assert stats.page_fetches == 2
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
# access-plan splitting
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


class TestAccessPlanSplit:
    def test_partition_is_disjoint_and_complete(self):
        env, local, _halo = _two_block_env()
        plan = compile_offsets_plan(env, local, [(0, 0), (1, 0)])
        interior, boundary = plan.split()
        assert boundary  # the (1, 0) offset crosses into the halo
        assert set(interior) | set(boundary) == set(plan.segments)
        assert not (set(interior) & set(boundary))
        assert not any(seg.halo for seg in interior)
        assert all(seg.halo for seg in boundary) and plan.pages
        assert plan.has_halo
        # The owned tables, the ghost tables and the slice part together
        # cover every site exactly once; the ghost tables read rows of the
        # tail, behind the owned rows.
        writes = np.zeros(plan.n_sites, dtype=int)
        for seg in interior + boundary:
            np.add.at(writes, seg.dst_idx, 1)
        grid = writes.reshape((len(plan.slices),) + plan.shape)
        for oi, pair in enumerate(plan.slices):
            if pair is not None:
                grid[oi][pair[0]] += 1
        assert np.all(writes == 1)
        for seg in boundary:
            assert np.all(seg.rows()[0] >= seg.image.ghost_base)

    def test_halo_sites_are_the_boundary_destinations(self):
        env, local, _halo = _two_block_env()
        plan = compile_offsets_plan(env, local, [(0, 0), (1, 0)])
        _interior, boundary = plan.split()
        expected = np.unique(np.concatenate([seg.dst_idx for seg in boundary]))
        np.testing.assert_array_equal(plan.halo_sites(), expected)

    def test_local_only_plan_has_no_boundary(self):
        env, local, _halo = _two_block_env()
        plan = compile_offsets_plan(env, local, [(0, 0)])
        interior, boundary = plan.split()
        assert boundary == []
        assert not plan.has_halo
        assert plan.halo_sites().size == 0


# ----------------------------------------------------------------------
# Env pending-halo slot + PendingHalo accounting
# ----------------------------------------------------------------------


def _pending(trace, *, pages=None, fail=False, key=PageKey(7, 0)) -> PendingHalo:
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
    return PendingHalo(manifest, handle, trace)


class _InstallEnv:
    """Env stand-in recording page installs."""

    def __init__(self):
        self.installed = []

    def page_install_many(self, items):
        self.installed.extend(items)


class TestPendingHalo:
    def test_complete_installs_and_accounts(self):
        trace = TaskCounters()
        env = _InstallEnv()
        _pending(trace).complete(env)
        assert [key for key, _ in env.installed] == [PageKey(7, 0)]
        assert trace.pages_fetched == trace.comm_plan_pages == 1
        assert trace.comm_plan_exchanges == 1
        assert trace.messages == 2
        assert trace.overlap_flight_ns >= trace.overlap_wait_ns >= 0
        assert trace.overlap_drained == 0

    def test_drained_completion_is_counted_but_not_timed(self):
        trace = TaskCounters()
        _pending(trace).complete(_InstallEnv(), drained=True)
        assert trace.overlap_drained == 1
        assert trace.comm_plan_exchanges == 1  # the traffic still counts …
        # … but deferred latency must not inflate overlap efficiency.
        assert trace.overlap_wait_ns == 0
        assert trace.overlap_flight_ns == 0

    def test_network_error_becomes_page_fetch_error(self):
        trace = TaskCounters()
        with pytest.raises(PageFetchError, match=r"halo exchange of pages PageKey\(block=7"):
            _pending(trace, fail=True).complete(_InstallEnv())
        assert trace.comm_plan_exchanges == 0  # nothing accounted on failure

    def test_env_slot_completes_once_and_clears(self):
        env, _local, halo = _two_block_env()
        trace = TaskCounters()
        data = np.full(4, 3.25)
        pending = _pending(
            trace, pages=[(("blk", 1), 0, data)], key=PageKey(halo.block_id, 0)
        )
        env.set_pending_halo(pending)
        assert env.has_pending_halo()
        assert env.complete_pending_halo() is True
        assert not env.has_pending_halo()
        assert env.complete_pending_halo() is False  # idempotent
        np.testing.assert_array_equal(np.asarray(halo.page_snapshot(0)).reshape(-1), data)

    def test_set_pending_halo_drains_the_previous_exchange(self):
        env, _local, halo = _two_block_env()
        trace = TaskCounters()
        first = _pending(trace, key=PageKey(halo.block_id, 0))
        env.set_pending_halo(first)
        env.set_pending_halo(_pending(trace))
        # The first exchange was drained (completed) before the second
        # was installed: its pages are in, and it counted as drained.
        assert trace.overlap_drained == 1
        assert trace.comm_plan_exchanges == 1

    def test_failed_completion_clears_the_slot(self):
        env, _local, _halo = _two_block_env()
        env.set_pending_halo(_pending(TaskCounters(), fail=True))
        with pytest.raises(PageFetchError):
            env.complete_pending_halo()
        assert not env.has_pending_halo()  # no repeated error on later syncs

    def test_refresh_refuses_to_swap_past_a_parked_exchange(self):
        env, _local, halo = _two_block_env()
        pending = _pending(TaskCounters(), key=PageKey(halo.block_id, 0))
        env.set_pending_halo(pending)
        previous = set_protocol_checks(True)
        try:
            with pytest.raises(EnvError, match="parked"):
                env.refresh()
            assert env.step == 0  # nothing swapped
            env.complete_pending_halo()
            assert env.refresh() and env.step == 1
        finally:
            set_protocol_checks(previous)


# ----------------------------------------------------------------------
# aspect issue-time diagnostics
# ----------------------------------------------------------------------


class TestAsyncIssueErrors:
    def test_unresolvable_owner_raises_page_fetch_error(self):
        """The issue wraps transport errors as PageFetchError."""
        aspect = DistributedMemoryAspect(processes=1)
        aspect.world = get_backend("serial").create_world(1)

        class _Keyed:
            name = "ghost-block"
            logical_key = ("ghost", 9)

        class _StubEnv:
            def block(self, block_id):
                return _Keyed()

        with pytest.raises(PageFetchError, match="ghost"):
            aspect._issue_halo(_StubEnv(), 0, {PageKey(3, 0)}, TaskCounters())

    @pytest.mark.parametrize("fault", ["drop_reply", "corrupt_reply"])
    def test_threads_reply_fault_raises_at_issue(self, fault):
        """The threads world serves a batch when it is issued, so a faulty
        reply fails the issue itself, not a later wait."""
        world = get_backend("threads").create_world(2, timeout=10.0)
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

    def test_overlap_is_the_only_behaviour_not_a_knob(self):
        assert not hasattr(DistributedMemoryAspect(), "overlap")
        assert "overlap" not in inspect.signature(DistributedMemoryAspect).parameters

"""Unit tests for the page exchange below the integration/property suites.

Covers the ``PageFetchError`` diagnostics of the Dry-run repair,
per-neighbor ``NetworkStats`` accounting, the owner-grouping helper and
the bulk page install on the Env.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aspects import DistributedMemoryAspect
from repro.memory import DataBlock, Env, MemoryPool, PoolGroup
from repro.memory.page import PageKey
from repro.runtime import NetworkStats, PageFetchError, create_world
from repro.runtime.backends.base import ExecutionWorld, group_requests_by_owner
from repro.runtime.simmpi import BlockDirectory
from repro.runtime.tracing import TaskCounters


class _KeylessBlock:
    """Block stand-in without a logical key (owner unresolvable)."""

    name = "orphan"
    logical_key = None


class _StubEnv:
    def __init__(self, block):
        self._block = block
        self.installed = []

    def block(self, block_id):
        return self._block

    def page_install_many(self, items):
        self.installed.extend(items)


def _aspect_with_world(size=1):
    aspect = DistributedMemoryAspect(processes=size)
    aspect.world = create_world("serial", 1)
    return aspect


class TestPageFetchError:
    def test_repair_raises_on_missing_logical_key(self):
        """A page whose owner cannot be resolved must fail loudly, not skip."""
        aspect = _aspect_with_world()
        env = _StubEnv(_KeylessBlock())
        with pytest.raises(PageFetchError) as excinfo:
            aspect._repair(env, 0, {PageKey(7, 3)}, TaskCounters())
        message = str(excinfo.value)
        assert "rank 0" in message
        assert "PageKey(block=7, page=3)" in message
        assert "orphan" in message
        assert env.installed == []  # nothing was partially installed

    def test_repair_wraps_unregistered_owner(self):
        """An owner missing from the directory surfaces as PageFetchError
        naming the page and the block."""

        class _Keyed(_KeylessBlock):
            logical_key = ("ghost", 1)

        aspect = _aspect_with_world()
        with pytest.raises(PageFetchError, match=r"PageKey\(block=7, page=0\).*ghost"):
            aspect._repair(_StubEnv(_Keyed()), 0, {PageKey(7, 0)}, TaskCounters())

    def test_page_fetch_error_is_a_network_error(self):
        from repro.runtime import NetworkError

        assert issubclass(PageFetchError, NetworkError)

    def test_the_bulk_op_is_the_one_page_op_every_world_implements(self):
        assert ExecutionWorld.fetch_pages_bulk_async.__isabstractmethod__
        assert [name for name in dir(ExecutionWorld) if "fetch" in name] == [
            "fetch_pages_bulk_async"
        ]


class TestNetworkStatsNeighbors:
    def test_record_and_count_links(self):
        stats = NetworkStats()
        stats.record_neighbor(0, 1, 1, 100)
        stats.record_neighbor(0, 1, 2, 50)
        stats.record_neighbor(1, 0, 1, 8)
        assert stats.per_neighbor["0->1"] == {"messages": 3, "bytes": 150}
        assert len(stats.per_neighbor) == 2

    def test_merge_adds_counters_and_neighbor_maps(self):
        a = NetworkStats(messages=2, bulk_fetches=1, bulk_pages=4)
        a.record_neighbor(0, 1, 1, 10)
        b = NetworkStats(messages=3, bulk_fetches=2, bulk_pages=6)
        b.record_neighbor(0, 1, 2, 20)
        b.record_neighbor(2, 0, 1, 5)
        a.merge(b)
        assert a.messages == 5
        assert a.bulk_fetches == 3
        assert a.bulk_pages == 10
        assert a.per_neighbor["0->1"] == {"messages": 3, "bytes": 30}
        assert a.per_neighbor["2->0"] == {"messages": 1, "bytes": 5}

    def test_as_dict_deep_copies_neighbor_map(self):
        stats = NetworkStats()
        stats.record_neighbor(0, 1, 1, 10)
        snapshot = stats.as_dict()
        stats.record_neighbor(0, 1, 1, 10)
        assert snapshot["per_neighbor"]["0->1"]["messages"] == 1


class TestGroupRequestsByOwner:
    def _directory(self):
        directory = BlockDirectory()
        directory.register(("blk", 0), 0, 10, owner=True)
        directory.register(("blk", 1), 1, 11, owner=True)
        return directory

    def test_groups_and_resolves_block_ids(self):
        grouped = group_requests_by_owner(
            self._directory(),
            [(("blk", 0), 0), (("blk", 1), 2), (("blk", 0), 1)],
        )
        assert grouped == {
            0: [(("blk", 0), 0, 10), (("blk", 0), 1, 10)],
            1: [(("blk", 1), 2, 11)],
        }

    def test_unknown_owner_raises(self):
        from repro.runtime import NetworkError

        with pytest.raises(NetworkError, match="no owner registered"):
            group_requests_by_owner(self._directory(), [(("nope",), 0)])


class TestPageInstallMany:
    def _env_with_block(self):
        pool = PoolGroup([MemoryPool(1 << 20, name="pim-pool")])
        env = Env(allocator=pool, name="pim-env")
        block = env.add_data_block(
            DataBlock((0,), (8,), components=1, page_elements=4, allocator=pool)
        )
        return env, block

    def test_installs_every_page(self):
        env, block = self._env_with_block()
        env.page_install_many(
            [
                (PageKey(block.block_id, 0), np.full((4, 1), 1.5)),
                (PageKey(block.block_id, 1), np.full((4, 1), 2.5)),
            ]
        )
        np.testing.assert_allclose(
            env.dense_read(block).ravel(), [1.5] * 4 + [2.5] * 4
        )

    def test_matches_repeated_page_install(self):
        env_a, block_a = self._env_with_block()
        env_b, block_b = self._env_with_block()
        pages = [
            (PageKey(block_a.block_id, 0), np.arange(4.0).reshape(4, 1)),
            (PageKey(block_a.block_id, 1), np.arange(4.0, 8.0).reshape(4, 1)),
        ]
        env_a.page_install_many(pages)
        for key, data in pages:
            env_b.page_install(PageKey(block_b.block_id, key.page_index), data)
        np.testing.assert_array_equal(
            env_a.dense_read(block_a), env_b.dense_read(block_b)
        )

    def test_invalidates_dense_cache(self):
        env, block = self._env_with_block()
        before = env.dense_read(block).copy()
        env.page_install_many([(PageKey(block.block_id, 0), np.full((4, 1), 9.0))])
        after = env.dense_read(block)
        assert not np.array_equal(before, after)
        np.testing.assert_allclose(after.ravel()[:4], 9.0)

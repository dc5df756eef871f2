"""Unit tests for memory pools, pages and multi-buffers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory import (
    BlockBuffer,
    DataBlock,
    Env,
    MemoryPool,
    MultiBuffer,
    Page,
    PageKey,
    PoolCorruptionError,
    PoolExhaustedError,
    PoolGroup,
)
from repro.memory.errors import BlockError


class TestMemoryPool:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryPool(0)

    def test_allocate_and_free_accounting(self, pool):
        chunk = pool.allocate(1000)
        assert pool.used_bytes == chunk.size >= 1000
        chunk.free()
        assert pool.used_bytes == 0
        assert pool.free_bytes == pool.capacity_bytes

    def test_alignment(self, pool):
        chunk = pool.allocate(3)
        assert chunk.size % 8 == 0

    def test_exhaustion(self):
        pool = MemoryPool(1024)
        pool.allocate(512)
        with pytest.raises(PoolExhaustedError):
            pool.allocate(1024)

    def test_double_free_detected(self, pool):
        chunk = pool.allocate(64)
        chunk.free()
        with pytest.raises(PoolCorruptionError):
            chunk.free()

    def test_foreign_chunk_rejected(self, pool):
        other = MemoryPool(1024)
        chunk = other.allocate(64)
        with pytest.raises(PoolCorruptionError):
            pool.free(chunk)

    def test_coalescing_allows_reuse(self):
        pool = MemoryPool(4096)
        chunks = [pool.allocate(1024) for _ in range(4)]
        for chunk in chunks:
            chunk.free()
        # After freeing everything a full-size allocation must succeed again.
        big = pool.allocate(4096)
        assert big.size == 4096
        pool.check_invariants()

    def test_peak_tracking(self, pool):
        a = pool.allocate(1024)
        b = pool.allocate(1024)
        a.free()
        stats = pool.stats()
        assert stats.peak_bytes >= 2048
        assert stats.allocations == 2
        assert stats.frees == 1
        assert 0 < stats.utilisation < 1
        b.free()

    def test_chunk_view_dtype(self, pool):
        chunk = pool.allocate(8 * 10)
        view = chunk.as_array(np.float64)
        assert view.shape == (10,)
        view[:] = 1.5
        assert chunk.as_array(np.float64)[3] == 1.5

    def test_view_after_free_rejected(self, pool):
        chunk = pool.allocate(64)
        chunk.free()
        with pytest.raises(PoolCorruptionError):
            chunk.as_array()

    def test_oversized_view_rejected(self, pool):
        chunk = pool.allocate(16)
        with pytest.raises(PoolCorruptionError):
            chunk.as_array(np.float64, count=100)

    def test_invariants_hold_under_mixed_usage(self):
        pool = MemoryPool(1 << 16)
        live = []
        for i in range(50):
            live.append(pool.allocate(64 + 8 * (i % 5)))
            if i % 3 == 0:
                live.pop(0).free()
            pool.check_invariants()
        assert pool.live_chunk_count() == len(live)


class TestPoolGroup:
    def test_requires_pool(self):
        with pytest.raises(ValueError):
            PoolGroup([])

    def test_spills_to_second_pool(self):
        first = MemoryPool(256, name="small")
        second = MemoryPool(4096, name="big")
        group = PoolGroup([first, second])
        a = group.allocate(200)
        b = group.allocate(200)
        assert a.pool is first
        assert b.pool is second
        assert group.used_bytes == a.size + b.size

    def test_group_exhaustion(self):
        group = PoolGroup([MemoryPool(128), MemoryPool(128)])
        with pytest.raises(PoolExhaustedError):
            group.allocate(1024)

    def test_stats_by_name(self):
        group = PoolGroup([MemoryPool(256, name="a"), MemoryPool(256, name="b")])
        group.allocate(100)
        stats = group.stats()
        assert set(stats) == {"a", "b"}
        assert stats["a"].used_bytes > 0


class TestPage:
    def test_read_write(self, pool):
        page = Page(0, elements=8, components=2, dtype=np.float64, allocator=PoolGroup([pool]))
        page.write(3, (1.0, 2.0))
        assert tuple(page.read(3)) == (1.0, 2.0)

    def test_fill_from_and_snapshot(self, pool):
        page = Page(0, elements=4, components=1, dtype=np.float64, allocator=PoolGroup([pool]))
        data = np.arange(4.0).reshape(4, 1)
        page.fill_from(data)
        assert page.valid
        np.testing.assert_array_equal(page.snapshot(), data)

    def test_positive_sizes_required(self, pool):
        with pytest.raises(BlockError):
            Page(0, elements=0, components=1, dtype=np.float64, allocator=PoolGroup([pool]))

    def test_page_key(self):
        key = PageKey(7, 3)
        assert key.block_id == 7
        assert key.page_index == 3
        assert key == PageKey(7, 3)
        assert len({PageKey(1, 1), PageKey(1, 1), PageKey(1, 2)}) == 2


class TestBlockBuffer:
    def test_page_partitioning(self, pool):
        buf = BlockBuffer(10, page_elements=4, components=1, dtype=np.float64,
                          allocator=PoolGroup([pool]))
        assert buf.page_count == 3
        assert buf.page_of(0) == 0
        assert buf.page_of(9) == 2

    def test_out_of_range(self, pool):
        buf = BlockBuffer(10, 4, 1, np.float64, PoolGroup([pool]))
        with pytest.raises(BlockError):
            buf.read(10)
        with pytest.raises(BlockError):
            buf.page_of(-1)

    def test_dense_roundtrip(self, pool):
        buf = BlockBuffer(10, 4, 2, np.float64, PoolGroup([pool]))
        data = np.arange(20.0).reshape(10, 2)
        buf.load_dense(data)
        np.testing.assert_array_equal(buf.dense(), data)

    def test_write_read(self, pool):
        buf = BlockBuffer(6, 2, 1, np.float64, PoolGroup([pool]))
        buf.write(5, 3.25)
        assert buf.read(5)[0] == 3.25


def per_page_dense(buf: BlockBuffer) -> np.ndarray:
    """The page-by-page assembly ``BlockBuffer.runs`` replaces."""
    out = np.empty((buf.element_count, buf.components), dtype=buf.dtype)
    for page in buf.pages:
        start = page.index * buf.page_elements
        stop = min(start + buf.page_elements, buf.element_count)
        out[start:stop] = page.array[: stop - start]
    return out


def assert_runs_roundtrip(buf: BlockBuffer, n_runs: int) -> None:
    runs = buf.runs()
    assert len(runs) == n_runs and buf.runs() is runs  # cached
    assert sum(run.shape[0] for run in runs) == buf.element_count
    assert all(run.shape[1] == buf.components and run.dtype == buf.dtype for run in runs)
    data = np.arange(buf.element_count * buf.components).reshape(-1, buf.components)
    buf.load_dense(data)
    np.testing.assert_array_equal(per_page_dense(buf), data)
    np.testing.assert_array_equal(buf.dense(), data)
    # The runs alias the pages: a scalar page write shows up in them.
    buf.write(buf.element_count - 1, -1)
    assert buf.dense()[-1, 0] == -1 and per_page_dense(buf)[-1, 0] == -1


class TestBlockBufferRuns:
    def test_back_to_back_pages_are_one_run(self, pool):
        # 10 elements in pages of 4: the last page is trimmed to 2.
        assert_runs_roundtrip(BlockBuffer(10, 4, 2, np.float64, PoolGroup([pool])), 1)

    def test_spill_to_a_second_pool_ends_the_run(self):
        # Pages of 4 float64 = 32 B: three fit the first pool, two spill.
        group = PoolGroup([MemoryPool(96, name="small"), MemoryPool(1024, name="spill")])
        buf = BlockBuffer(18, 4, 1, np.float64, group)
        assert [page.chunk.pool.name for page in buf.pages] == ["small"] * 3 + ["spill"] * 2
        assert_runs_roundtrip(buf, 2)
        assert [run.shape[0] for run in buf.runs()] == [12, 6]

    def test_alignment_padding_ends_every_run(self, pool):
        # 3 float32 = 12 B per page, padded to 16 B chunks: no two pages'
        # data are byte-adjacent.
        buf = BlockBuffer(8, 3, 1, np.float32, PoolGroup([pool]))
        assert buf.pages[0].chunk.size == 16
        assert_runs_roundtrip(buf, 3)

    def test_fragmented_pool_gives_several_runs(self, pool):
        # Free every other 32 B chunk: the buffer's pages fill the holes.
        held = [pool.allocate(32) for _ in range(8)]
        for chunk in held[::2]:
            chunk.free()
        buf = BlockBuffer(24, 4, 1, np.float64, PoolGroup([pool]))
        offsets = [page.chunk.offset for page in buf.pages]
        assert offsets[:4] == [0, 64, 128, 192]
        # Four isolated holes, then two adjacent pages past the held chunks.
        assert_runs_roundtrip(buf, 5)

    @pytest.mark.parametrize("dtype,components", [(np.float64, 2), (np.float32, 1)])
    def test_a_homed_buffer_is_the_one_run_it_was_given(self, pool, dtype, components):
        buf = BlockBuffer(10, 4, components, dtype, PoolGroup([pool]))
        buf.load_dense(np.arange(10 * components).reshape(10, components))
        kept = buf.dense()
        slab = np.zeros((16, components), dtype=dtype)
        buf.rehome(slab[3:13])
        assert pool.live_chunk_count() == 0  # its own chunks went back
        slab[3:13] = kept                    # the contents are the caller's to move
        assert all(page.chunk is None for page in buf.pages)
        assert buf.runs()[0].base is slab and np.shares_memory(buf.pages[2].array, slab[11:13])
        assert_runs_roundtrip(buf, 1)
        assert np.all(slab[:3] == 0) and np.all(slab[13:] == 0)

    def test_a_buffer_made_without_an_allocator_has_no_memory_until_homed(self):
        buf = BlockBuffer(6, 4, 1, np.float64)
        assert [page.elements for page in buf.pages] == [4, 2] and buf.pages[0].array is None
        assert buf.nbytes == 6 * 8 and buf.runs() == []
        buf.rehome(np.zeros((6, 1)))
        assert_runs_roundtrip(buf, 1)

    def test_release_drops_the_cached_views(self, pool):
        buf = BlockBuffer(8, 4, 1, np.float64, PoolGroup([pool]))
        assert len(buf.runs()) == 1
        buf.release()
        assert buf.runs() == [] and pool.live_chunk_count() == 0


def homed(pool, elements: int, depth: int):
    """The multi-buffer of a Block an Env owns, and that Env: its image swaps it."""
    env = Env(allocator=PoolGroup([pool]))
    block = DataBlock((0,), (elements,), components=1, page_elements=2, depth=depth)
    env.add_data_block(block)
    return env, block.buffer


class TestMultiBuffer:
    def test_swap_exchanges_read_and_write(self, pool):
        env, mb = homed(pool, 4, depth=2)
        mb.write_buffer.write(0, 42.0)
        assert mb.read_buffer.read(0)[0] != 42.0
        assert env.refresh()
        assert mb.read_buffer.read(0)[0] == 42.0
        assert mb.content_generation == 1

    def test_depth_one_reads_own_writes(self, pool):
        mb = MultiBuffer(4, 2, 1, np.float64, PoolGroup([pool]), depth=1)
        mb.write_buffer.write(1, 7.0)
        assert mb.read_buffer.read(1)[0] == 7.0

    def test_depth_three_rotation(self, pool):
        env, mb = homed(pool, 2, depth=3)
        for step in range(3):
            mb.write_buffer.write(0, float(step))
            assert env.refresh()
            assert mb.read_buffer.read(0)[0] == float(step)

    def test_invalid_depth(self, pool):
        with pytest.raises(BlockError):
            MultiBuffer(4, 2, 1, np.float64, PoolGroup([pool]), depth=0)

    def test_release_returns_chunks(self):
        pool = MemoryPool(1 << 16)
        mb = MultiBuffer(16, 4, 1, np.float64, PoolGroup([pool]), depth=2)
        assert pool.used_bytes > 0
        mb.release()
        assert pool.used_bytes == 0

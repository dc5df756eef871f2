"""Unit tests for the Env tree, its search, refresh and MMAT behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory import (
    AddressError,
    ArithmeticBlock,
    BufferOnlyBlock,
    DataBlock,
    Env,
    EnvError,
    MMAT,
    MemoryPool,
    PageKey,
    PoolExhaustedError,
    PoolGroup,
    StaticDataBlock,
)


def add_block(env, origin, shape=(4, 4), *, buffer_only=False, owner=None):
    cls = BufferOnlyBlock if buffer_only else DataBlock
    kwargs = dict(components=1, page_elements=4, allocator=env.allocator)
    if buffer_only:
        kwargs["owner_tid"] = owner
    block = cls(origin, shape, **kwargs)
    env.add_data_block(block)
    return block


class TestEnvConstruction:
    def test_default_tree_shape(self, env):
        # Root has the data joint; boundary blocks attach under the root.
        assert env.data_joint.parent is env.root
        assert env.data_blocks() == []

    def test_add_data_block_and_lookup(self, env):
        block = add_block(env, (0, 0))
        assert env.block(block.block_id) is block
        assert env.data_blocks() == [block]

    def test_unknown_block_id(self, env):
        with pytest.raises(EnvError):
            env.block(999999)

    def test_boundary_must_be_virtual(self, env):
        block = DataBlock((0, 0), (2, 2), components=1, page_elements=4,
                          allocator=env.allocator)
        with pytest.raises(EnvError):
            env.add_boundary_block(block)

    def test_add_data_block_type_check(self, env):
        with pytest.raises(EnvError):
            env.add_data_block(ArithmeticBlock((0, 0), (2, 2), lambda a: 0.0))

    def test_extra_joint(self, env):
        joint = env.add_joint(name="locality-joint")
        block = DataBlock((0, 0), (2, 2), components=1, page_elements=4,
                          allocator=env.allocator)
        env.add_data_block(block, parent=joint)
        assert block.parent is joint
        assert block in env.data_blocks()

    def test_buffer_only_excluded_by_default(self, env):
        add_block(env, (0, 0))
        add_block(env, (4, 0), buffer_only=True)
        assert len(env.data_blocks()) == 1
        assert len(env.data_blocks(include_buffer_only=True)) == 2


class TestEnvSearch:
    def test_finds_sibling_block(self, env):
        a = add_block(env, (0, 0))
        b = add_block(env, (4, 0))
        found = env.find_block((5, 1), start=a)
        assert found is b

    def test_boundary_found_last(self, env):
        a = add_block(env, (0, 0))
        boundary = ArithmeticBlock((-1, -1), (8, 8), lambda addr: 1.0)
        env.add_boundary_block(boundary)
        assert env.find_block((-1, -1), start=a) is boundary

    def test_search_miss_returns_none(self, env):
        a = add_block(env, (0, 0))
        assert env.find_block((100, 100), start=a) is None

    def test_search_counts_steps(self, env):
        a = add_block(env, (0, 0))
        add_block(env, (4, 0))
        env.find_block((5, 0), start=a)
        assert env.stats.searches == 1
        assert env.stats.search_steps >= 2


class TestEnvReadWrite:
    def test_read_inside_block(self, env):
        a = add_block(env, (0, 0))
        a.write((1, 1), 3.0)
        env.refresh()
        assert env.read_from(a, (1, 1)) == 3.0
        assert env.stats.searches == 0  # the start Block holds it: no search

    def test_read_with_inside_hint_skips_search(self, env):
        a = add_block(env, (0, 0))
        a.write((0, 0), 1.0)
        env.refresh()
        env.read_from(a, (0, 0), assume_inside=True)
        assert env.stats.searches == 0

    def test_read_across_blocks(self, env):
        a = add_block(env, (0, 0))
        b = add_block(env, (4, 0))
        b.write((4, 0), 8.0)
        env.refresh()
        assert env.read_from(a, (4, 0)) == 8.0
        assert env.stats.searches == 1  # another Block holds it: one search

    def test_read_boundary_value(self, env):
        a = add_block(env, (0, 0))
        env.add_boundary_block(ArithmeticBlock((-1, -1), (8, 8), lambda addr: -2.5))
        assert env.read_from(a, (-1, 0)) == -2.5

    def test_read_unmapped_address_raises(self, env):
        a = add_block(env, (0, 0))
        with pytest.raises(AddressError):
            env.read_from(a, (50, 50))

    def test_root_read(self, env):
        a = add_block(env, (0, 0))
        a.write((2, 2), 4.0)
        env.refresh()
        assert env.read((2, 2)) == 4.0


class TestMissingPagesAndRefresh:
    def test_reading_invalid_buffer_only_records_missing(self, env):
        a = add_block(env, (0, 0))
        remote = add_block(env, (4, 0), buffer_only=True, owner=1)
        remote.invalidate()
        value = env.read_from(a, (5, 0))
        assert value == 0.0
        assert len(env.missing_pages) == 1

    def test_refresh_fails_and_records_failed_pages(self, env):
        a = add_block(env, (0, 0))
        remote = add_block(env, (4, 0), buffer_only=True, owner=1)
        remote.invalidate()
        env.read_from(a, (5, 0))
        assert env.refresh() is False
        assert env.missing_pages == set()
        assert len(env.last_failed_pages) == 1

    def test_refresh_success_swaps_buffers(self, env):
        a = add_block(env, (0, 0))
        a.write((0, 0), 9.0)
        assert env.refresh() is True
        assert a.read((0, 0)) == 9.0
        assert env.step == 1

    def test_warmup_refresh_does_not_swap(self, env):
        a = add_block(env, (0, 0))
        a.write((0, 0), 9.0)
        assert env.refresh(warmup=True) is True
        assert a.read((0, 0)) != 9.0
        assert env.step == 0

    def test_page_snapshot_and_install(self, env):
        a = add_block(env, (0, 0))
        a.write((0, 0), 1.5)
        env.refresh()
        key = PageKey(a.block_id, 0)
        data = env.page_snapshot(key)
        data = data + 1
        env.page_install(key, data)
        assert a.read((0, 0)) == 2.5

    def test_page_ops_reject_virtual_blocks(self, env):
        boundary = ArithmeticBlock((-1, -1), (4, 4), lambda a: 0.0)
        env.add_boundary_block(boundary)
        with pytest.raises(EnvError):
            env.page_snapshot(PageKey(boundary.block_id, 0))

    def test_invalidate_buffer_only(self, env):
        remote = add_block(env, (4, 0), buffer_only=True, owner=1)
        remote.page_fill(0, np.ones((4, 1)))
        env.invalidate_buffer_only()
        a = add_block(env, (0, 0))
        env.read_from(a, (4, 0))
        assert env.missing_pages


class TestEnvMMAT:
    def test_mmat_disabled_by_default(self, env):
        assert not env.mmat.enabled

    def test_mmat_caches_out_of_block_resolution(self, mmat_env):
        env = mmat_env
        a = add_block(env, (0, 0))
        b = add_block(env, (4, 0))
        b.write((4, 0), 1.0)
        env.refresh()
        env.read_from(a, (4, 0))
        searches_after_first = env.stats.searches
        env.read_from(a, (4, 0))
        assert env.stats.searches == searches_after_first  # no new search
        assert env.stats.mmat_hits == 1

    def test_mmat_reset_forces_search_again(self, mmat_env):
        env = mmat_env
        a = add_block(env, (0, 0))
        add_block(env, (4, 0))
        env.read_from(a, (4, 0))
        env.mmat.reset()
        env.read_from(a, (4, 0))
        assert env.stats.searches == 2

    def test_mmat_stats(self):
        memo = MMAT(enabled=True)
        memo.remember(1, (0, 1), "block")
        assert memo.lookup(1, (0, 1)) == "block"
        assert memo.lookup(1, (9, 9)) is None
        stats = memo.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["entries"] == 1
        assert memo.memory_bytes() > 0

    def test_mmat_disabled_lookup_is_noop(self):
        memo = MMAT(enabled=False)
        memo.remember(1, (0, 0), "x")
        assert memo.lookup(1, (0, 0)) is None
        assert len(memo) == 0


class TestEnvAccounting:
    def test_memory_report_shape(self, env):
        add_block(env, (0, 0))
        report = env.memory_report()
        assert report["pool_used"] > 0
        assert report["pool_unused"] > 0
        assert report["pool_capacity"] == report["pool_used"] + report["pool_unused"]
        assert report["env_structure"] > 0

    def test_structure_counts_each_buffers_page_list_and_pages(self, env):
        import sys

        blocks = [add_block(env, (0, 0)), add_block(env, (4, 0), buffer_only=True, owner=1)]
        buffers = [buf for block in blocks for buf in block.buffer.buffers]
        # Two buffer generations of 16 elements in pages of 4, per Block.
        assert len(buffers) == 4 and all(len(buf.pages) == 4 for buf in buffers)
        pages = sum(
            sys.getsizeof(buf.pages) + sum(sys.getsizeof(page) for page in buf.pages)
            for buf in buffers
        )
        tree = sum(
            sys.getsizeof(block) + sys.getsizeof(block.children)
            for block in env.blocks_by_id.values()
        )
        assert pages > 16 * sys.getsizeof(buffers[0].pages[0])  # 16 Pages and 4 lists
        assert len(env.mmat) == 0 and not env.mmat.plans
        assert env.structure_bytes() == tree + pages


# ----------------------------------------------------------------------
# the owned dense image is pool memory
# ----------------------------------------------------------------------
def pooled_env(*sizes, name="slab-env"):
    pools = [MemoryPool(nbytes, name=f"{name}.pool{k}") for k, nbytes in enumerate(sizes)]
    return Env(allocator=PoolGroup(pools), name=name, mmat_enabled=True), pools


def born(env, origin, shape, **sizes):
    """A Data Block made for ``env``: no allocator, its pages are image rows."""
    return env.add_data_block(DataBlock(origin, shape, **sizes))


class TestImageIsThePool:
    @pytest.mark.parametrize("dtype,components", [(np.float64, 1), (np.float32, 3)])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("page_elements", [4, 5])  # 10 cells: pages of 4+4+2 / 5+5
    def test_blocks_are_born_in_generation_major_slabs(self, dtype, components, depth, page_elements):
        env, (pool,) = pooled_env(1 << 14)
        sizes = dict(components=components, page_elements=page_elements, dtype=dtype, depth=depth)
        env.reserve_image(components, dtype, rows=30, depth=depth)
        blocks = [born(env, (10 * k,), (10,), **sizes) for k in range(3)]
        image = env.image_slot(blocks[0])[0]
        assert env.stats.image_rehomes == 0 and pool.live_chunk_count() == depth
        assert pool.used_bytes == depth * 30 * components * np.dtype(dtype).itemsize
        assert [env.image_slot(b)[1:3] for b in blocks] == [(0, 10), (10, 20), (20, 30)]
        last_page = blocks[1].buffer.read_buffer.pages[-1]
        assert last_page.elements == (10 % page_elements or page_elements)  # trimmed, not padded
        # Generation g of every Block is one run of rows of slab g.
        for g, slab in enumerate(image.slabs):
            for k, block in enumerate(blocks):
                (run,) = block.buffer.buffers[g].runs()
                assert run.shape == (10, components)
                assert np.shares_memory(run, slab[10 * k : 10 * k + 10])
        env.check_dense_image()
        # A store is what the next refresh makes readable, the slabs
        # rotating under read / next.
        for step in range(1, 2 * depth + 1):
            env.store_rows(blocks, np.full((30, components), float(step)))
            assert env.refresh()
            env.check_dense_image()
            assert image.read is image.slabs[step % depth]
            assert np.all(env.dense_read(blocks[1]) == float(step))
            assert all(b.buffer.read_index == step % depth for b in blocks)
            assert all(b.content_generation == step for b in blocks)
        assert env.stats.dense_assemblies == 0
        pool.check_invariants()

    def test_a_late_block_moves_in_and_gives_its_own_chunks_back(self):
        env, (pool,) = pooled_env(1 << 12)
        first = DataBlock((0,), (6,), components=1, page_elements=4, allocator=env.allocator)
        assert pool.live_chunk_count() == 4  # 2 generations x 2 pages of its own
        first.load_dense(np.arange(6.0))
        env.add_data_block(first)
        assert pool.live_chunk_count() == 2 and pool.used_bytes == 2 * 6 * 8
        assert np.array_equal(env.dense_read(first)[:, 0], np.arange(6.0))
        second = DataBlock((6,), (6,), components=1, page_elements=4, allocator=env.allocator)
        second.load_dense(np.arange(6.0) + 10)
        env.add_data_block(second)  # the class grows: the first Block moves with it
        assert pool.live_chunk_count() == 2 and pool.used_bytes == 2 * 12 * 8
        assert env.stats.rehomes_late_block == 2 and env.stats.rehomes_class_grew == 0
        assert np.array_equal(env.dense_read(first)[:, 0], np.arange(6.0))
        assert np.array_equal(env.dense_read(second)[:, 0], np.arange(6.0) + 10)
        env.check_dense_image()
        pool.check_invariants()
        # A homed Block's release frees nothing: the chunks are the image's.
        first.buffer.release()
        first.buffer.release()
        assert pool.live_chunk_count() == 2
        pool.check_invariants()

    def test_reserving_again_counts_as_the_class_growing(self):
        env, _ = pooled_env(1 << 12)
        env.reserve_image(1, np.float64, rows=4)
        a = born(env, (0,), (4,), components=1, page_elements=4)
        a.load_dense(np.arange(4.0))
        assert env.stats.image_rehomes == 0
        b = born(env, (4,), (4,), components=1, page_elements=4)  # not reserved for
        assert env.stats.rehomes_class_grew == 1 and env.stats.as_dict()["image_rehomes"] == 1
        assert np.array_equal(env.dense_read(a)[:, 0], np.arange(4.0))
        assert env.image_slot(b)[1:3] == (4, 8)
        env.check_dense_image()

    def test_a_full_pool_is_enough_for_a_late_block(self):
        """Snapshot, free, allocate, restore: the old and the new layout are
        never in the pool together."""
        env, (pool,) = pooled_env(2 * 12 * 8)  # exactly two Blocks of 6 cells, twice
        env.reserve_image(1, np.float64, rows=6)
        a = born(env, (0,), (6,), components=1, page_elements=6)
        a.load_dense(np.arange(6.0))
        late = DataBlock((6,), (6,), components=1, page_elements=6, allocator=env.allocator)
        late.load_dense(np.arange(6.0) + 10)
        assert pool.free_bytes == 0
        env.add_data_block(late)
        assert pool.free_bytes == 0 and pool.live_chunk_count() == 2
        assert np.array_equal(env.image_slot(a)[0].read[:, 0], [0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15])
        env.check_dense_image()

    def test_a_slab_spills_to_the_next_pool_or_raises_by_name(self):
        env, (small, large) = pooled_env(100, 1 << 12)
        env.reserve_image(1, np.float64, rows=20)  # 160 bytes a slab: not in pool0
        block = born(env, (0,), (20,), components=1, page_elements=8)
        assert small.used_bytes == 0 and large.live_chunk_count() == 2
        env.check_dense_image()
        # One slab fits nowhere: an error that names it, the layout as it was.
        block.load_dense(np.arange(20.0))
        with pytest.raises(PoolExhaustedError, match=r"slab 0 of 2 of its dense image \(600 rows"):
            env.reserve_image(1, np.float64, rows=580)
        assert large.live_chunk_count() == 2 and large.used_bytes == 2 * 160
        assert np.array_equal(env.dense_read(block)[:, 0], np.arange(20.0))
        env.check_dense_image()
        for pool in (small, large):
            pool.check_invariants()

    def test_memory_report_counts_the_image_in_the_pool_and_scratch_beside_it(self):
        env, (pool,) = pooled_env(1 << 12)
        env.reserve_image(1, np.float64, rows=8)
        born(env, (0,), (8,), components=1, page_elements=4)
        remote = add_block(env, (8, 0), buffer_only=True)
        report = env.memory_report()
        assert report["image_error"] is None and report["image_scratch"] == 0
        # Two slabs of 8 owned rows and a ghost tail of the remote's 16: its
        # pages are rows of the tails, its own chunks went back to the pool.
        assert report["pool_used"] == 2 * (8 + 16) * 8
        assert np.shares_memory(remote.buffer.read_buffer.pages[0].array, env.image_slot(remote)[0].next)
        assert len(remote.buffer.read_buffer.runs()) == 1  # 4 pages, one copy to assemble
        env.dense_read(remote)                      # into the ghost tail, in the pool
        env.mmat.scratch(0, (8, 1), np.float64)     # a batched read's output
        assert env.memory_report()["image_scratch"] == 8 * 8
        assert env.mmat.stats()["scratch_bytes"] == 8 * 8
        assert env.mmat.memory_bytes() >= 8 * 8  # the scratch is part of the MMAT's footprint

"""Unit tests for tiles: the batched kernel API over a run of Blocks.

A :class:`~repro.dsl.base.BlockKernel` built over several Blocks treats
them as one Block of ``sum(element_count)`` elements — one access plan
per table, one result array per read, one store — and a one-Block kernel
is the tile of one.  These tests pin what makes that sound on hand-built
Envs (results, dtype and page flags equal to the per-Block ones; no two
reads of a body sharing scratch; Block geometry refused) and what makes
it pay on the stock app (plans, compiles and gathers per *tile*).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiUSGrid
from repro.dsl import base
from repro.dsl.base import BlockKernel, _split_tiles
from repro.memory import (
    AddressError,
    ArithmeticBlock,
    BlockError,
    BufferOnlyBlock,
    DataBlock,
    Env,
    MemoryPool,
    PoolGroup,
    compile_address_plan,
)


def make_env(*, mmat=True, dtype=np.float64, blocks=3, cells=8, seed=7, depth=2):
    """``blocks`` 1-D Data Blocks of ``cells`` cells, a Buffer-only one
    after them and an arithmetic boundary around; returns ``(env, owned)``."""
    pool = PoolGroup([MemoryPool(1 << 20, name="tile-pool")])
    env = Env(allocator=pool, name="tile-env", mmat_enabled=mmat)
    rng = np.random.default_rng(seed)
    owned = []
    for k in range(blocks + 1):
        cls = DataBlock if k < blocks else BufferOnlyBlock
        block = cls((k * cells,), (cells,), components=1, page_elements=4,
                    allocator=pool, dtype=dtype, depth=depth)
        env.add_data_block(block)
        data = rng.uniform(-10, 10, size=(cells, 1))
        for buf in block.buffer.buffers:
            buf.load_dense(data)
        if k < blocks:
            owned.append(block)
    env.add_boundary_block(
        ArithmeticBlock((-64,), (256,), lambda addr: 0.5 * addr[0], name="outside")
    )
    return env, owned


def table(n, width=4, span=40, seed=3):
    return np.random.default_rng(seed).integers(-4, span, size=(n, width))


class TestScratchPerRead:
    def test_two_reads_with_the_same_site_count_do_not_share_a_result(self):
        """Regression: scratch keyed by shape alone made the second read of
        a body overwrite the first in place."""
        env, (block, *_) = make_env()
        k = BlockKernel(env, block)
        first = k.gather([(0,), (1,)])
        expected = first.copy()
        second = k.gather_global(table(8, width=2), key="pairs")
        assert first.size == second.size
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, expected)

    def test_congruent_blocks_share_the_scratch_of_each_read(self):
        """The count restarts with each kernel body: a Block more does not
        cost an array more."""
        env, owned = make_env()
        for block in owned:
            k = BlockKernel(env, block)
            k.gather([(0,), (1,)])
            k.gather_global(table(8, width=2), key="pairs")
        outputs = [key for key in env.mmat._scratch if key[1] != "rows"]  # not what tables took
        assert len(outputs) == 2


class TestOwnElementsAreAView:
    """``gather([(0,)])`` on a tile is its rows of ``image.read``: nothing is
    copied, so the result is read-only — the batched reads' other results
    are private scratch a body may update in place, this one is not."""

    def test_the_result_is_the_read_rows_and_refuses_writes(self):
        env, owned = make_env()
        tile = BlockKernel(env, owned)
        image, lo, _, _ = env.image_slot(owned[0])
        e = tile.gather([(0,)])[0]
        assert np.shares_memory(e, image.read) and not e.flags.writeable
        assert np.array_equal(e, image.read[lo : lo + 24, 0])
        assert env.mmat._scratch == {}  # no output array was made for it
        with pytest.raises(ValueError, match="read-only"):
            e *= 2.0
        mine = e.copy()  # what a body that wants to update in place does
        mine *= 2.0
        # Stores land in ``next``: the result does not change under its caller.
        tile.scatter(mine)
        assert np.array_equal(2.0 * e, mine) and np.array_equal(image.next[lo : lo + 24, 0], mine)
        assert image.read.flags.writeable  # only the view handed out is locked

    def test_a_single_buffered_class_gets_a_copy(self):
        """Depth 1: ``read`` is ``next``, a view would change at ``scatter``."""
        env, owned = make_env(depth=1)
        tile = BlockKernel(env, owned)
        image = env.image_slot(owned[0])[0]
        assert image.read is image.next
        e = tile.gather([(0,)])[0]
        before = e.copy()
        assert not np.shares_memory(e, image.read) and e.flags.writeable
        tile.scatter(-before)
        assert np.array_equal(e, before)


class TestTileEqualsBlocks:
    @pytest.mark.parametrize("mmat", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_reads_and_store_equal_the_per_block_ones(self, mmat, dtype):
        env, owned = make_env(mmat=mmat, dtype=dtype)
        twin, twin_owned = make_env(mmat=mmat, dtype=dtype)
        offsets = [(0,), (-1,), (3,), (9,)]
        neighbours = table(24)
        tile = BlockKernel(env, owned)
        assert tile.shape == (24,) and tile.elements == 24
        got_offsets = tile.gather(offsets)
        got_table = tile.gather_global(neighbours, key="n")
        tile.scatter(got_offsets[1] + got_table[:, 2])

        per_offsets, per_table = [], []
        for k, block in enumerate(twin_owned):
            one = BlockKernel(twin, block)
            # Copies: the next congruent Block's reads reuse these arrays.
            per_offsets.append(one.gather(offsets).copy())
            per_table.append(one.gather_global(neighbours[8 * k : 8 * k + 8], key="n").copy())
            one.scatter(per_offsets[-1][1] + per_table[-1][:, 2])
        assert got_offsets.dtype == got_table.dtype == dtype
        assert np.array_equal(got_offsets, np.concatenate(per_offsets, axis=1))
        assert np.array_equal(got_table, np.concatenate(per_table))

        # Pages, valid flags and the image see what 3 scatters left.
        for block, other in zip(owned, twin_owned):
            for buf, twin_buf in zip(block.buffer.buffers, other.buffer.buffers):
                assert np.array_equal(buf.dense(), twin_buf.dense())
                assert [p.valid for p in buf.pages] == [p.valid for p in twin_buf.pages]
        image, twin_image = env.image_slot(owned[0])[0], twin.image_slot(twin_owned[0])[0]
        assert np.array_equal(image.next, twin_image.next)
        assert np.shares_memory(image.next, owned[2].buffer.write_buffer.pages[1].array)
        env.check_dense_image()
        assert env.refresh() and twin.refresh()
        env.check_dense_image()
        assert np.array_equal(env.dense_read(owned[1]), twin.dense_read(twin_owned[1]))

    @pytest.mark.parametrize("sites", [(4,), (1,), (2, 2)], ids=["columns", "one", "3-d"])
    @pytest.mark.parametrize("blocks", [1, 3], ids=["block", "tile"])
    def test_table_columns_are_contiguous_and_equal_mmat_off(self, blocks, sites):
        """A 2-D table's result is the transpose of its plan's column-major
        output: every column contiguous, whatever table — owned rows, halo
        rows, constants — serves its sites.  A table of one column or of
        more than two axes keeps the row-major layout."""
        on, on_owned = make_env()
        off, off_owned = make_env(mmat=False)
        cells = 8 * blocks
        shape = (cells,) + sites
        neighbours = table(cells, width=int(np.prod(sites))).reshape(shape)
        got = BlockKernel(on, on_owned[:blocks]).gather_global(neighbours, key="n")
        want = BlockKernel(off, off_owned[:blocks]).gather_global(neighbours, key="n")
        assert got.shape == want.shape == shape and np.array_equal(got, want)
        if len(shape) == 2:
            assert all(got[:, j].flags.c_contiguous for j in range(sites[0]))
        assert got.flags.c_contiguous == (sites != (4,))
        (plan,) = on.mmat.plans.values()
        assert plan.has_halo and plan.const_dst is not None

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_mmat_off_reads_in_the_blocks_dtype(self, dtype):
        """Regression: the scalar fallback allocated float64 whatever the
        Block holds, so a float32 run differed with ``.mmat()`` on and off."""
        on, on_owned = make_env(mmat=True, dtype=dtype)
        off, off_owned = make_env(mmat=False, dtype=dtype)
        for blocks_on, blocks_off in ((on_owned[0], off_owned[0]), (on_owned, off_owned)):
            k_on, k_off = BlockKernel(on, blocks_on), BlockKernel(off, blocks_off)
            for read in (
                lambda k: k.gather([(0,), (5,), (-30,)]),
                lambda k: k.gather_global(table(k.elements), key="n"),
            ):
                a, b = read(k_on), read(k_off)
                assert a.dtype == b.dtype == dtype
                assert np.array_equal(a, b)
        assert off.mmat.fallback_sites > 0 and not off.mmat.plans

    def test_nd_blocks_and_components(self):
        pool = PoolGroup([MemoryPool(1 << 20, name="nd-pool")])
        env = Env(allocator=pool, name="nd-env", mmat_enabled=True)
        blocks = []
        for k in range(2):
            block = DataBlock((4 * k, 0), (4, 4), components=2, page_elements=4, allocator=pool)
            env.add_data_block(block)
            block.load_dense(np.arange(32.0).reshape(16, 2) + 100 * k)
            blocks.append(block)
        env.add_boundary_block(ArithmeticBlock((-4, -4), (16, 12), lambda a: -1.0, name="ring"))
        tile = BlockKernel(env, blocks)
        got = tile.gather([(0, 0), (1, 0), (0, -1)])
        each = [BlockKernel(env, b).gather([(0, 0), (1, 0), (0, -1)]).copy() for b in blocks]
        assert got.shape == (3, 32, 2)
        assert np.array_equal(got, np.concatenate(each, axis=1))

    def test_a_table_must_list_the_tiles_elements_evenly(self):
        env, owned = make_env()
        with pytest.raises(AddressError, match="evenly"):
            compile_address_plan(env, owned, np.arange(25))
        assert compile_address_plan(env, owned[0], np.arange(5)).n_sites == 5


class TestBlockGeometryIsRefused:
    def test_scalar_accessors_and_sweep_raise_on_a_wider_tile(self):
        env, owned = make_env()
        tile = BlockKernel(env, owned[:2])
        for use in (
            lambda: tile.get((0,)),
            lambda: tile.get_direct((0,)),
            lambda: tile.get_global((3,)),
            lambda: tile.set((0,), 1.0),
            lambda: tile.set_global((3,), 1.0),
            lambda: tile.sweep(lambda a: a, [(0,)]),
            lambda: tile.block,
        ):
            with pytest.raises(BlockError, match="tile of 2 Blocks"):
                use()
        one = BlockKernel(env, owned[:1])
        assert one.block is owned[0] and one.get_direct((0,)) == owned[0].read((0,))


class TestSplitting:
    def test_a_tile_ends_at_a_class_change_a_row_gap_and_the_budget(self):
        env, owned = make_env(blocks=6)
        other = DataBlock((1000,), (8,), components=1, page_elements=4,
                          allocator=env.allocator, dtype=np.float32)
        env.add_data_block(other)
        run = owned[:2] + owned[3:] + [other]  # owned[2] is another task's
        tiles, splits = _split_tiles(env, run, 1, 1 << 20)
        assert [len(t) for t in tiles] == [2, 3, 1]
        assert splits == {"ownership": 1, "image class": 1}
        tiles, splits = _split_tiles(env, owned, 4, 2 * 8 * 4 * 8)
        assert [len(t) for t in tiles] == [2, 2, 2] and splits == {"budget": 2}
        tiles, _ = _split_tiles(env, owned, 1, 0)
        assert [len(t) for t in tiles] == [1] * 6


CONFIG = dict(region=16, block_cells=32, page_elements=8, case="R", loops=4,
              init=lambda x, y: 0.03 * x - 0.05 * y + 2.0)


class TestTheStockApp:
    def test_a_keyed_tile_plan_is_compiled_once_per_warm_up(self):
        run = Platform.builder().mmat().tracing().run(JacobiUSGrid, config=CONFIG)
        compiles = [e for e in run.timeline() if e["ph"] == "X" and e["name"] == "plan.compile"]
        assert run.mmat_stats["tiles"] == 1 and run.mmat_stats["tile_blocks"] == 8
        assert len(compiles) == run.mmat_stats["plan_compiles"] == run.mmat_stats["plans"] == 2

    def test_counters_keep_the_per_block_sums_and_count_executions(self):
        tiled = Platform.builder().mmat().run(JacobiUSGrid, config=CONFIG)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(base, "TILE_BYTES", 1)  # every Block its own tile
            per_block = Platform.builder().mmat().run(JacobiUSGrid, config=CONFIG)
        assert np.array_equal(tiled.result, per_block.result)
        (a,), (b,) = tiled.counters.values(), per_block.counters.values()
        assert (a.updates, a.plan_sites, a.steps) == (b.updates, b.plan_sites, b.steps)
        executions = per_block.mmat_stats["plan_executions"]
        assert executions == 8 * tiled.mmat_stats["plan_executions"] > 0
        assert per_block.mmat_stats["tiles"] == 8 and per_block.mmat_stats["plans"] == 16

    def test_a_team_resets_the_mmat_once_and_recomputes_nothing(self):
        """Regression: every member of an ``.omp`` team reset the MMAT in
        ``warm_up``; a late one dropped the plans an early one compiled."""
        for _ in range(3):
            run = Platform.builder().mpi(2, backend="threads").omp(2).mmat().run(
                JacobiUSGrid, config=CONFIG
            )
            counters = run.counters.values()
            assert run.mmat_stats["resets"] == 1
            assert sum(c.recomputed_steps for c in counters) == 0
            # Four tasks, one tile each, two tables: one compile per plan.
            assert sorted(c.plan_compiles for c in counters) == [2, 2, 2, 2]
            assert run.mmat_stats["tiles"] == 2 and run.mmat_stats["plans"] == 4

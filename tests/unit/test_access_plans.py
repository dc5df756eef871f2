"""Unit tests for MMAT access-plan compilation and execution.

The access-plan compiler turns the warm-up's per-site resolutions into
bulk NumPy gather plans (the vectorized extension of the paper's MMAT,
§III-B6 under Assumption II).  These tests exercise the compiler and
executor directly on hand-built Envs: merged gather tables, constant
folding of Arithmetic/Static boundaries, Reference (mirror) chasing,
Buffer-only (halo) validity handling, plan caching and the
reset-invalidates-plans semantics the warm-up macro relies on.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid
from repro.memory import (
    AddressError,
    ArithmeticBlock,
    Block,
    BlockError,
    BufferOnlyBlock,
    DataBlock,
    Env,
    EnvError,
    GlobalAddress,
    MMAT,
    MemoryPool,
    PageKey,
    PoolGroup,
    ReferenceBlock,
    StaticDataBlock,
    compile_address_plan,
    compile_offsets_plan,
)
from repro.memory.mmat import PlanSegment


@pytest.fixture
def plan_env() -> Env:
    pool = PoolGroup([MemoryPool(4 * 1024 * 1024, name="plan-pool")])
    return Env(allocator=pool, name="plan-env", mmat_enabled=True)


def add_block(env, origin, shape=(4, 4), *, buffer_only=False, fill=None):
    cls = BufferOnlyBlock if buffer_only else DataBlock
    block = cls(origin, shape, components=1, page_elements=4, allocator=env.allocator)
    env.add_data_block(block)
    if fill is not None:
        count = block.element_count
        data = np.asarray(fill, dtype=np.float64).reshape(count, 1)
        for buf in block.buffer.buffers:
            buf.load_dense(data)
    return block


def covered_sites(plan):
    """Flat plan sites each part of ``plan`` fills: ``(slice part, segments, constants)``."""
    n_off = len(plan.slices)
    grid = np.arange(plan.n_sites).reshape((n_off,) + plan.shape) if n_off else None
    sliced = [grid[oi][pair[0]].reshape(-1) for oi, pair in enumerate(plan.slices) if pair]
    return (
        np.concatenate(sliced) if sliced else np.empty(0, dtype=np.intp),
        [seg.dst_idx for seg in plan.segments],
        plan.const_dst if plan.const_dst is not None else np.empty(0, dtype=np.intp),
    )


def sequential(block):
    """Fill a block with 0..n-1 by linear element index; returns the array."""
    values = np.arange(block.element_count, dtype=np.float64)
    for buf in block.buffer.buffers:
        buf.load_dense(values.reshape(-1, 1))
    return values


class TestOffsetsPlanCompilation:
    def test_pure_interior_offset_is_one_segment(self, plan_env):
        block = add_block(plan_env, (0, 0))
        sequential(block)
        plan = compile_offsets_plan(plan_env, block, [(0, 0)])
        # Every site stays in the block: one slice copy, nothing enumerated.
        sliced, segments, consts = covered_sites(plan)
        assert np.array_equal(np.sort(sliced), np.arange(block.element_count))
        assert segments == [] and consts.size == 0
        assert np.array_equal(plan.execute(plan_env)[:, 0], np.arange(16.0))
        assert plan.n_sites == block.element_count
        assert plan.in_block_sites == block.element_count
        assert plan.resolved_sites == 0  # all sites statically inside

    def test_execution_matches_scalar_reads(self, plan_env):
        a = add_block(plan_env, (0, 0))
        b = add_block(plan_env, (4, 0))
        sequential(a)
        sequential(b)
        plan = compile_offsets_plan(plan_env, a, [(1, 0)])
        out = plan.execute(plan_env).reshape(a.shape)
        for i in range(4):
            for j in range(4):
                expected = plan_env.read_from(a, (i + 1, j))
                assert out[i, j] == expected

    def test_arithmetic_boundary_folds_to_constants(self, plan_env):
        block = add_block(plan_env, (0, 0))
        plan_env.add_boundary_block(
            ArithmeticBlock((-1, -1), (6, 6), lambda addr: 7.5, name="ring")
        )
        plan = compile_offsets_plan(plan_env, block, [(0, -1)])
        assert plan.const_dst is not None
        assert np.all(plan.const_vals == 7.5)
        out = plan.execute(plan_env).reshape(block.shape)
        assert np.all(out[:, 0] == 7.5)  # j-1 of the first column is the ring

    def test_static_boundary_folds_to_constants(self, plan_env):
        block = add_block(plan_env, (0,), shape=(4,))
        plan_env.add_boundary_block(StaticDataBlock((4,), (4,), 3.25, name="static"))
        plan = compile_address_plan(plan_env, block, np.array([0, 4, 5]))
        out = plan.execute(plan_env)
        assert out[1] == 3.25 and out[2] == 3.25

    def test_reference_mirror_compiles_to_data_gather(self, plan_env):
        block = add_block(plan_env, (0, 0))
        values = sequential(block)

        def mirror(addr):
            x, y = addr
            return GlobalAddress((min(max(x, 0), 3), min(max(y, 0), 3)))

        ref = ReferenceBlock((-1, -1), (6, 6), mirror, name="mirror")
        plan_env.add_boundary_block(ref)
        plan = compile_offsets_plan(plan_env, block, [(-1, 0)])
        # Mirror sites resolve through the reference onto the block itself:
        # a single owned table (the ring row), no constants.
        assert plan.const_dst is None
        (table,) = plan.segments
        assert table.sources == [block] and not table.halo
        out = plan.execute(plan_env).reshape(block.shape)
        assert np.array_equal(out[0], values.reshape(4, 4)[0])  # clamped row

    def test_multi_source_sites_merge_into_one_table(self, plan_env):
        a = add_block(plan_env, (0, 0))
        b = add_block(plan_env, (4, 0))
        c = add_block(plan_env, (0, 4))
        plan_env.add_boundary_block(
            ArithmeticBlock((-4, -4), (16, 16), lambda addr: 0.0, name="ring")
        )
        plan = compile_offsets_plan(plan_env, a, [(0, 0), (4, 0), (0, 4)])
        # Both neighbours are owned: one table serves them, each offset's
        # sites reading its neighbour's image rows; the block's own offset
        # is the slice part.
        (table,) = plan.segments
        assert {s.block_id for s in table.sources} == {b.block_id, c.block_id}
        order = np.argsort(table.dst_idx)
        assert np.array_equal(table.dst_idx[order], np.arange(16, 48))
        rows = table.src_idx[order]
        for block, sites in ((b, rows[:16]), (c, rows[16:])):
            _, lo, hi, halo = plan_env.image_slot(block)
            assert not halo and np.array_equal(sites, np.arange(lo, hi))
        sliced, segments, consts = covered_sites(plan)
        covered = np.concatenate([sliced, *segments, consts])
        assert np.array_equal(np.sort(covered), np.arange(plan.n_sites))


class TestConstantsReadInBulk:
    def test_one_expression_call_per_distinct_constant_and_no_scalar_access(
        self, monkeypatch
    ):
        env = initialized_env(
            JacobiSGrid, dict(region=16, block_size=8, page_elements=16, boundary_value=0.25)
        )
        ring = next(b for b in env.root.iter_subtree() if isinstance(b, ArithmeticBlock))
        calls = []
        expression = ring.expression
        ring.expression = lambda addr: calls.append(tuple(addr)) or expression(addr)
        scalar = []

        def counted(name, method):
            def call(self, *args, **kwargs):
                scalar.append(name)
                return method(self, *args, **kwargs)
            return call

        for cls in {Block, *Block.__subclasses__(), *DataBlock.__subclasses__()}:
            for name in ("read", "contains"):
                if name in vars(cls):
                    monkeypatch.setattr(cls, name, counted(name, vars(cls)[name]))
        block = env.data_blocks()[0]
        offsets = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1)]
        plan = compile_offsets_plan(env, block, offsets)
        outside = {
            (x + dx, y + dy)
            for dx, dy in offsets
            for x in range(block.origin[0], block.origin[0] + block.shape[0])
            for y in range(block.origin[1], block.origin[1] + block.shape[1])
            if not (0 <= x + dx < 16 and 0 <= y + dy < 16)
        }
        assert sorted(calls) == sorted(outside) and scalar == []
        assert plan.const_dst.size > len(outside)  # some are read by two offsets
        assert np.all(plan.const_vals == 0.25)


class TestCompileErrors:
    def test_first_unresolvable_address_in_site_order_is_named(self, plan_env):
        block = add_block(plan_env, (0, 0))
        # Offset (0, 1) leaves the block first (sites 16..31), at (0, 4);
        # (-1, 0) would leave it at the smaller address (-1, 0).
        with pytest.raises(AddressError, match=r"contains address \(0, 4\)"):
            compile_offsets_plan(plan_env, block, [(0, 0), (0, 1), (-1, 0)])
        with pytest.raises(AddressError, match=r"contains address \(9,\)"):
            compile_address_plan(
                plan_env, add_block(plan_env, (20,), shape=(4,)), np.array([21, 9, 3])
            )

    def test_reference_chain_depth_limit(self, plan_env):
        block = add_block(plan_env, (0,), shape=(4,))
        hops = {"n": 0}

        def advance(addr):
            hops["n"] += 1
            return GlobalAddress((addr[0] + 1,))

        # Each hop lands one address further along the same reference
        # block; the block's own data starts 5 hops from address -5.
        plan_env.add_boundary_block(ReferenceBlock((-8,), (8,), advance, name="chain"))
        plan = compile_address_plan(plan_env, block, np.array([-4]))
        assert plan.segments[0].sources == [block] and hops["n"] == 4
        with pytest.raises(AddressError, match="too deep"):
            compile_address_plan(plan_env, block, np.array([-5]))

    def test_reference_to_nowhere_is_reported(self, plan_env):
        block = add_block(plan_env, (0,), shape=(4,))
        plan_env.add_boundary_block(
            ReferenceBlock((4,), (4,), lambda addr: GlobalAddress((99,)), name="lost")
        )
        with pytest.raises(AddressError, match=r"'lost' cannot resolve mapped address \(99,\)"):
            compile_offsets_plan(plan_env, block, [(1,)])

    def test_unattached_start_block_is_refused(self, plan_env):
        add_block(plan_env, (0, 0))
        stray = DataBlock((4, 0), (4, 4), components=1, page_elements=4, allocator=plan_env.allocator)
        with pytest.raises(EnvError, match="is not a"):
            compile_offsets_plan(plan_env, stray, [(0, 0), (-1, 0)])

    def test_constant_of_the_wrong_width_names_its_block(self, plan_env):
        block = DataBlock((0,), (4,), components=3, page_elements=4, allocator=plan_env.allocator)
        plan_env.add_data_block(block)
        plan_env.add_boundary_block(
            ArithmeticBlock((-2,), (8,), lambda addr: (1.0, 2.0), components=3, name="wide")
        )
        match = r"'wide' gave 2 values at \(4,\), expected 1 or 3"
        with pytest.raises(BlockError, match=match):
            compile_offsets_plan(plan_env, block, [(0,), (1,)])
        with pytest.raises(BlockError, match=match):
            plan_env.read_from(block, (4,))


class TestHaloPlanExecution:
    def test_invalid_halo_pages_are_recorded_and_zeroed(self, plan_env):
        local = add_block(plan_env, (0, 0))
        remote = add_block(plan_env, (4, 0), buffer_only=True)
        sequential(local)
        plan = compile_offsets_plan(plan_env, local, [(1, 0)])
        remote.invalidate()
        out = plan.execute(plan_env).reshape(local.shape)
        # Sites landing in the invalid Buffer-only block read placeholder 0,
        # and the pages are recorded so the next refresh fails.
        assert np.all(out[3] == 0.0)
        assert plan_env.missing_pages
        assert all(key.block_id == remote.block_id for key in plan_env.missing_pages)

    def test_valid_halo_pages_gather_normally(self, plan_env):
        local = add_block(plan_env, (0, 0))
        remote = add_block(plan_env, (4, 0), buffer_only=True)
        sequential(local)
        plan = compile_offsets_plan(plan_env, local, [(1, 0)])
        remote.invalidate()
        for page in range(remote.page_count()):
            plan_env.page_install(
                PageKey(remote.block_id, page), np.full((4, 1), 9.0)
            )
        out = plan.execute(plan_env).reshape(local.shape)
        assert np.all(out[3] == 9.0)
        assert not plan_env.missing_pages

    def test_remote_pages_lists_halo_set(self, plan_env):
        local = add_block(plan_env, (0, 0))
        remote = add_block(plan_env, (4, 0), buffer_only=True)
        plan = compile_offsets_plan(plan_env, local, [(1, 0)])
        keys = plan.remote_pages()
        assert keys and all(key.block_id == remote.block_id for key in keys)
        plan_env.mmat.plan_store((local.block_id, "offsets", ((1, 0),)), plan)
        assert plan_env.plan_page_requirements() == set(keys)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("components", [1, 3])
class TestOneGatherForm:
    """Every indexed table — owned rows, ghost rows filled from pages,
    ghost rows filled from the owners' slots — runs as one ``np.take``
    over the class's ``owned ∥ ghost`` array into scratch and one row
    store: it must equal ``out[dst] = rows[src]``, and leave every other
    site be."""

    @staticmethod
    def build(components, dtype):
        env = Env(allocator=PoolGroup([MemoryPool(1 << 20)]), mmat_enabled=True, name="gather")
        kw = dict(components=components, page_elements=4, allocator=env.allocator, dtype=dtype)
        owned = [env.add_data_block(DataBlock((8 * k,), (8,), **kw)) for k in range(2)]
        remote = env.add_data_block(BufferOnlyBlock((16,), (8,), **kw))
        rng = np.random.default_rng(components)
        for block in owned + [remote]:
            block.load_dense(rng.random((8, components)))
        src = rng.integers(0, 8, size=20)  # duplicates: several sites read a row
        dst = rng.permutation(40)[:20]
        out = rng.random((40, components)).astype(dtype)
        return env, owned, remote, src, dst, out

    @staticmethod
    def assert_gathers(segment, env, out, dst, rows):
        expected = out.copy()
        expected[dst] = rows
        segment.gather(env, out)
        assert out.dtype == expected.dtype and np.array_equal(out, expected)

    def test_owned_indexed_table(self, components, dtype):
        env, owned, _remote, src, dst, out = self.build(components, dtype)
        image = env.image_slot(owned[0])[0]
        rows = 8 + src  # owned[1]'s rows
        segment = PlanSegment(image, owned[1:], rows, dst)
        rows_read, covered = segment.rows()
        assert not segment.halo and covered and np.array_equal(rows_read, rows)
        self.assert_gathers(segment, env, out, dst, image.read[rows])

    def test_halo_table_on_pages_reads_the_filled_tail(self, components, dtype):
        env, _owned, remote, src, dst, out = self.build(components, dtype)
        image, lo, _, _ = env.image_slot(remote)
        segment = PlanSegment(image, [remote], -1 - (lo + src), dst)
        assert segment.halo and np.array_equal(segment.ghost_halo, lo + src)
        values = env.dense_read(remote)  # an open read copies the pages into the tail
        assert remote.block_id in image.fresh and image.ghost_base == image.local_rows == 16
        rows, covered = segment.rows()
        assert np.array_equal(rows, 16 + lo + src) and not covered  # nothing is pushed
        self.assert_gathers(segment, env, out, dst, values[src])

    def test_halo_table_on_the_owners_slots(self, components, dtype):
        env, _owned, remote, src, dst, out = self.build(components, dtype)
        image, lo, _, _ = env.image_slot(remote)
        rng = np.random.default_rng(7)
        # Two owners whose rows interleave: owner-major is not row order.
        by_slot = [np.array([0, 2, 4, 6]) + lo, np.array([1, 3, 5, 7]) + lo]
        slots = [rng.random((4, components)).astype(dtype) for _ in by_slot]
        env.set_pushed_rows([(image, rows) for rows in by_slot])
        assert image.pushed == 8 and image.ghost_base == 16
        assert image.ghost_index(by_slot[0]).tolist() == [16, 17, 18, 19]
        assert image.ghost_index(by_slot[1]).tolist() == [20, 21, 22, 23]
        env.copy_pushes(slots, check=True)  # one contiguous copy per slot
        assert np.array_equal(image.read[16:24], np.concatenate(slots))
        pushed = np.empty((8, components), dtype=dtype)
        for rows, slot in zip(by_slot, slots):
            pushed[rows - lo] = slot
        segment = PlanSegment(image, [remote], -1 - (lo + src), dst)
        assert segment.rows()[1]  # covered: every row it reads is pushed
        self.assert_gathers(segment, env, out, dst, pushed[src])
        assert not image.fresh and not env.missing_pages  # no page was read


class TestAddressPlans:
    def test_duplicate_addresses_resolve_once(self, plan_env):
        block = add_block(plan_env, (0,), shape=(8,))
        sequential(block)
        other = add_block(plan_env, (8,), shape=(8,))
        sequential(other)
        searches_before = plan_env.stats.searches
        addrs = np.array([[9, 9], [9, 9], [0, 9]])
        plan = compile_address_plan(plan_env, block, addrs)
        # One resolution for address 9 despite four sites using it.
        assert plan_env.stats.searches == searches_before + 1
        out = plan.execute(plan_env).reshape(addrs.T.shape).T  # column-major
        assert np.all(out == np.array([[1, 1], [1, 1], [0, 1]]))

    def test_a_2d_table_is_output_column_major_any_other_row_major(self, plan_env):
        """Site ``(e, j)`` of a 2-D table, of 1-D or 2-D addresses, is output
        row ``j * elements + e``; a 1-D or 3-D table is output in order."""
        block = add_block(plan_env, (0,), shape=(8,))
        sequential(block)
        grid = add_block(plan_env, (0, 8), shape=(4, 4), fill=np.arange(16))
        for start, addrs, order in (
            (block, np.array([[3, 1, 2], [7, 5, 6]]), "F"),
            (block, np.array([3, 1, 7, 5]), "C"),
            (block, np.arange(8).reshape(2, 2, 2)[:, ::-1], "C"),
            (grid, np.array([[[0, 9], [1, 8], [3, 11]], [[2, 10], [0, 8], [1, 9]]]), "F"),
        ):
            plan = compile_address_plan(plan_env, start, addrs)
            values = addrs.astype(np.float64) if start is block else (
                4.0 * addrs[..., 0] + addrs[..., 1] - 8.0  # grid's element values
            )
            assert np.array_equal(plan.execute(plan_env)[:, 0], values.reshape(-1, order=order))

    def test_blocks_too_far_apart_for_one_flat_index(self, plan_env):
        near = add_block(plan_env, (0, 0), fill=np.arange(16))
        far = 2**40  # the two Blocks' bounding box has more than 2**63 elements
        add_block(plan_env, (far, far), fill=100 + np.arange(16))
        addrs = np.array([[1, 1], [far + 2, far + 3], [1, 1], [far, far]])
        plan = compile_address_plan(plan_env, near, addrs)
        assert plan.execute(plan_env).reshape(-1).tolist() == [5.0, 111.0, 5.0, 100.0]


class TestMMATPlanCache:
    def test_reset_invalidates_plans_and_memo(self, plan_env):
        block = add_block(plan_env, (0, 0))
        mmat = plan_env.mmat
        plan = compile_offsets_plan(plan_env, block, [(0, 0)])
        mmat.plan_store(("k",), plan)
        mmat.remember(block.block_id, (9, 9), block)
        assert mmat.plan_lookup(("k",)) is plan
        assert len(mmat) == 1
        mmat.reset()
        assert mmat.plan_lookup(("k",)) is None
        assert len(mmat) == 0
        assert mmat.resets == 1

    def test_disabled_mmat_stores_no_plans(self, plan_env):
        block = add_block(plan_env, (0, 0))
        plan = compile_offsets_plan(plan_env, block, [(0, 0)])
        memo = MMAT(enabled=False)
        memo.plan_store(("k",), plan)
        assert memo.plan_lookup(("k",)) is None
        assert memo.plan_compiles == 0

    def test_memory_bytes_accounts_plan_arrays(self, plan_env):
        block = add_block(plan_env, (0, 0))
        plan_env.add_boundary_block(
            ArithmeticBlock((-1, -1), (6, 6), lambda addr: 0.0, name="ring")
        )
        mmat = plan_env.mmat
        before = mmat.memory_bytes()
        plan = compile_offsets_plan(plan_env, block, [(0, 0), (1, 0)])
        mmat.plan_store(("k",), plan)
        assert mmat.memory_bytes() >= before + plan.nbytes
        # nbytes counts what the plan holds: index arrays for the four
        # ring sites of offset (1, 0) and their constants, nothing for
        # the 28 sites of the slice part.
        held = [plan.const_dst, plan.const_vals]
        for seg in plan.segments:
            held += [seg.src_idx, seg.dst_idx]
        assert plan.nbytes == sum(arr.nbytes for arr in held) > 0
        assert plan.const_dst.size == 4

    def test_plans_of_one_shape_share_one_scratch_array(self, plan_env):
        a = add_block(plan_env, (0, 0))
        b = add_block(plan_env, (4, 0))
        sequential(a)
        sequential(b)
        mmat = plan_env.mmat
        plan_a = compile_offsets_plan(plan_env, a, [(0, 0)])
        plan_b = compile_offsets_plan(plan_env, b, [(0, 0)])
        out_a = plan_a.execute(plan_env)
        assert plan_b.execute(plan_env) is out_a  # same thread, same shape
        assert compile_offsets_plan(plan_env, a, [(0, 0), (1, 0)]).execute(plan_env) is not out_a
        # Two outputs, and the rows the wider plan's ring table took.
        assert {key[1:3] for key in mmat._scratch} == {(0, (16, 1)), (0, (32, 1)), ("rows", (4, 1))}

        mmat.reset()
        assert not mmat._scratch
        assert plan_a.execute(plan_env) is not out_a

    def test_threads_sweeping_one_env_never_share_scratch(self, plan_env):
        """Hybrid threads execute same-shaped plans of one Env concurrently;
        a result must stay intact until its own thread executes again."""
        blocks = [add_block(plan_env, (4 * k, 0), fill=np.full(16, float(k))) for k in range(8)]
        plans = [compile_offsets_plan(plan_env, b, [(0, 0)]) for b in blocks]
        stop = time.monotonic() + 0.5
        clobbered = []

        def sweep(k):
            while time.monotonic() < stop and not clobbered:
                out = plans[k].execute(plan_env)
                time.sleep(0)  # let another thread execute its plan
                if not np.all(out == float(k)):
                    clobbered.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=sweep, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not clobbered

    def test_stats_report_hit_rate_and_plan_coverage(self, plan_env):
        block = add_block(plan_env, (0, 0))
        mmat = plan_env.mmat
        mmat.remember(block.block_id, (5, 5), block)
        assert mmat.lookup(block.block_id, (5, 5)) is block   # hit
        assert mmat.lookup(block.block_id, (6, 6)) is None    # miss
        plan = compile_offsets_plan(plan_env, block, [(0, 0)])
        mmat.plan_store(("k",), plan)
        mmat.note_execution(plan)
        mmat.note_fallback(4)
        stats = mmat.stats()
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["plans"] == 1
        assert stats["plan_sites"] == plan.n_sites
        assert stats["plan_exec_sites"] == plan.n_sites
        assert stats["fallback_sites"] == 4
        assert stats["vectorized_fraction"] == pytest.approx(
            plan.n_sites / (plan.n_sites + 4)
        )


def initialized_env(app_cls, config) -> Env:
    app = app_cls(config)
    app.bind_platform(Platform(mmat=True))
    app.initialize()
    return app.env


class TestScalarReadsAfterACompile:
    """A compile leaves the scalar memo empty: scalar reads of the plan's
    sites fill it themselves, one miss per distinct site, then hit."""

    def assert_reads_fill_the_memo(self, env, block, plan, sites, addresses):
        mmat = env.mmat
        expected = plan.execute(env).copy()
        assert len(mmat) == mmat.hits == mmat.misses == 0
        distinct = len(set(addresses))
        for passes in (1, 2):
            for site, addr in zip(sites, addresses):
                value = np.asarray(env.read_from(block, addr), dtype=np.float64)
                assert np.array_equal(value.reshape(-1), expected[site])
            assert mmat.misses == len(mmat) == distinct
            assert mmat.hits == passes * len(addresses) - distinct

    def test_sgrid_offsets_plan_ring(self):
        env = initialized_env(
            JacobiSGrid, dict(region=16, block_size=8, page_elements=16, boundary="dirichlet")
        )
        block = env.data_blocks()[0]
        offsets = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
        plan = compile_offsets_plan(env, block, offsets)
        sites, addresses = [], []
        for oi, off in enumerate(offsets):
            for elem, local in enumerate(np.ndindex(*block.shape)):
                shifted = [c + o for c, o in zip(local, off)]
                if not all(0 <= c < n for c, n in zip(shifted, block.shape)):
                    sites.append(oi * block.element_count + elem)
                    addresses.append(tuple(o + c for o, c in zip(block.origin, shifted)))
        assert plan.resolved_sites == len(sites) > len(set(addresses))  # shared corners
        self.assert_reads_fill_the_memo(env, block, plan, sites, addresses)

    def test_usgrid_case_r_address_plan(self):
        env = initialized_env(
            JacobiUSGrid, dict(region=12, block_cells=16, page_elements=8, case="R",
                               init=lambda x, y: 0.03 * x - 0.05 * y + 2.0)
        )
        block = env.data_blocks()[0]
        table = block.static_fields["neighbors"]
        plan = compile_address_plan(env, block, table)
        addresses = [(int(a),) for a in table.T.reshape(-1)]  # the plan's column-major sites
        assert plan.resolved_sites == len(addresses) > len(set(addresses))
        self.assert_reads_fill_the_memo(env, block, plan, range(len(addresses)), addresses)


class TestDenseReadImage:
    def test_owned_rows_are_the_pages_never_a_copy(self, plan_env):
        block = add_block(plan_env, (0, 0))
        values = sequential(block)
        stats = plan_env.stats
        rows = plan_env.dense_read(block)
        assert np.array_equal(rows[:, 0], values)
        assert np.shares_memory(rows, block.buffer.read_buffer.pages[0].array)
        # The scalar path writes page memory, which is the ``next`` rows:
        # the refresh has nothing to promote and nothing to assemble.
        block.write_local((0, 0), -1.0)
        assert plan_env.image_slot(block)[0].next[0, 0] == -1.0
        plan_env.refresh()
        assert plan_env.dense_read(block)[0, 0] == -1.0
        assert stats.dense_assemblies == 0
        plan_env.check_dense_image()

    def test_a_store_is_read_after_the_refresh(self, plan_env):
        block = add_block(plan_env, (0, 0))
        sequential(block)
        plan_env.store_rows((block,), np.full((16, 1), 3.0))
        assert np.array_equal(block.buffer.write_buffer.dense(), np.full((16, 1), 3.0))
        assert plan_env.dense_read(block)[5, 0] == 5.0  # not before the swap
        plan_env.refresh()
        assert np.all(plan_env.dense_read(block) == 3.0)
        assert plan_env.stats.dense_assemblies == 0
        plan_env.check_dense_image()

    def test_page_install_invalidates_cache_entry(self, plan_env):
        block = add_block(plan_env, (0, 0), buffer_only=True)
        plan_env.dense_read(block)
        plan_env.page_install(PageKey(block.block_id, 0), np.full((4, 1), 2.0))
        assert plan_env.stats.dense_assemblies == 1
        assert np.all(plan_env.dense_read(block)[:4] == 2.0)
        assert plan_env.stats.dense_assemblies == 2

    def test_check_reports_rows_written_behind_the_halo_mirror(self, plan_env):
        block = add_block(plan_env, (0, 0), buffer_only=True)
        sequential(block)
        plan_env.dense_read(block)
        block.buffer.read_buffer.write(3, -5.0)  # bypasses Env: no invalidation
        with pytest.raises(EnvError, match="marked fresh but differ"):
            plan_env.check_dense_image()
        plan_env.invalidate_dense([block.block_id])
        plan_env.check_dense_image()
        assert plan_env.dense_read(block)[3, 0] == -5.0

    def test_check_reports_lost_aliasing(self, plan_env):
        a = add_block(plan_env, (0, 0))
        b = add_block(plan_env, (4, 0))
        plan_env.check_dense_image()
        assert plan_env.memory_report()["image_error"] is None
        image = b.buffer.home
        b.buffer.home = None  # behind the Env's back: b would read generation 0 for good
        with pytest.raises(EnvError, match="of block .* are not bound to its image"):
            plan_env.check_dense_image()
        b.buffer.home = image
        page = a.buffer.read_buffer.pages[1]
        page.rehome(np.zeros_like(page.array))  # a private copy
        with pytest.raises(EnvError, match="page 1 of block .* is not rows 4"):
            plan_env.check_dense_image()
        assert "is not rows 4" in plan_env.memory_report()["image_error"]

    def test_owned_generations_rise_at_every_refresh(self, plan_env):
        """The shm arena serves a page again from its slot while its owner's
        content generation stands still, so every owned Block's must rise at
        every refresh: across its class moving into larger slabs, and for a
        Block added after steps ran, too."""
        history = {}

        def refresh(times):
            for _ in range(times):
                assert plan_env.refresh()
                for block in plan_env.data_blocks():
                    history.setdefault(block.block_id, []).append(block.content_generation)

        first = add_block(plan_env, (0,), shape=(8,))
        image = plan_env.image_slot(first)[0]
        refresh(2)
        before = first.content_generation
        # No pages of its own: the class outgrows its slabs, every row moves.
        plan_env.add_data_block(DataBlock((8,), (8,), components=1, page_elements=4))
        assert plan_env.stats.rehomes_class_grew == 1 and len(image.read) == 16
        late = add_block(plan_env, (16,), shape=(8,))  # pages of its own, copied in
        assert plan_env.stats.rehomes_late_block == 2  # the first Block's too
        assert first.content_generation == late.content_generation == before == 2
        refresh(3)
        assert len(history) == 3 and len(history[first.block_id]) == 5
        for generations in history.values():
            assert all(a < b for a, b in zip(generations, generations[1:]))
        assert history[late.block_id][0] > before
        key = PageKey(late.block_id, 1)
        assert plan_env.page_export(key)[1] == late.content_generation == 5
        plan_env.check_dense_image()

    def test_check_reports_kernel_scratch_inside_a_slab(self, plan_env):
        """A fused store must not land in the padded field it was computed in."""
        block = add_block(plan_env, (0, 0))
        padded = plan_env.mmat.scratch("padded", (6, 6), np.float64)
        plan_env.check_dense_image()
        key = next(iter(plan_env.mmat._scratch))
        plan_env.mmat._scratch[key] = plan_env.image_slot(block)[0].next[:4]
        with pytest.raises(EnvError, match="overlap each other or kernel scratch"):
            plan_env.check_dense_image()
        plan_env.mmat._scratch[key] = padded
        plan_env.check_dense_image()

    def test_rows_survive_a_block_added_after_compile(self, plan_env):
        a = add_block(plan_env, (0,), shape=(8,))
        b = add_block(plan_env, (8,), shape=(8,))
        sequential(a)
        sequential(b)
        plan = compile_address_plan(plan_env, a, np.array([9, 1, 15]))
        assert np.array_equal(plan.execute(plan_env)[:, 0], [1.0, 1.0, 7.0])
        late = add_block(plan_env, (16,), shape=(8,), fill=np.full(8, 4.0))
        # Row bases are append-only: the compiled table still reads a and b.
        assert np.array_equal(plan.execute(plan_env)[:, 0], [1.0, 1.0, 7.0])
        assert np.all(plan_env.dense_read(late) == 4.0)
        plan_env.check_dense_image()

    def test_image_classes_keep_dtypes_apart(self, plan_env):
        wide = add_block(plan_env, (0,), shape=(4,))
        sequential(wide)
        narrow = DataBlock(
            (4,), (4,), components=1, page_elements=4, allocator=plan_env.allocator,
            dtype=np.float32,
        )
        plan_env.add_data_block(narrow)
        narrow.load_dense(np.array([0.5, 1.5, 2.5, 3.5], dtype=np.float32))
        plan = compile_address_plan(plan_env, wide, np.array([5, 2, 7, 0]))
        assert len(plan.segments) == 2  # one owned table per image class
        assert np.array_equal(plan.execute(plan_env)[:, 0], [1.5, 2.0, 3.5, 0.0])
        assert plan_env.dense_read(narrow).dtype == np.float32

    def test_threads_first_reading_one_env_share_one_image(self):
        """Hybrid threads sweep one rank's Env concurrently: a Block any
        of them copied into the ghost tail must be in the array all of
        them use afterwards."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stop = time.monotonic() + 0.5
            while time.monotonic() < stop:
                pool = PoolGroup([MemoryPool(1 << 16, name="race-pool")])
                env = Env(allocator=pool, name="race-env", mmat_enabled=True)
                blocks = [
                    add_block(env, (4 * k, 0), fill=np.full(16, float(k)), buffer_only=True)
                    for k in range(8)
                ]
                gate = threading.Barrier(len(blocks))

                def read(block):
                    gate.wait(timeout=10)
                    env.dense_read(block)

                threads = [threading.Thread(target=read, args=(b,)) for b in blocks]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                env.check_dense_image()
                assert env.stats.dense_assemblies == len(blocks)
                for k, block in enumerate(blocks):
                    assert np.all(env.dense_read(block) == float(k))
        finally:
            sys.setswitchinterval(interval)

    def test_unattached_block_is_refused(self, plan_env):
        stray = DataBlock((0,), (4,), components=1, page_elements=4, allocator=plan_env.allocator)
        with pytest.raises(EnvError, match="not a Data Block of Env"):
            plan_env.dense_read(stray)

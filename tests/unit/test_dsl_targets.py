"""Unit tests for the three sample DSL processing systems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.dsl import (
    BlockKernel,
    BlockSpec,
    BucketView,
    ParticleTarget,
    SGrid2DTarget,
    USGrid2DTarget,
)
from repro.memory import ArithmeticBlock, BufferOnlyBlock, DataBlock
from repro.runtime import TaskContext, task_scope


class TestBlockSpecAndAssignment:
    def test_zorder_of_spec(self):
        near = BlockSpec((0, 0), (8, 8), "a", (0, 0))
        far = BlockSpec((64, 64), (8, 8), "b", (8, 8))
        assert near.zorder() < far.zorder()

    def test_assign_tasks_balances_blocks(self):
        app = SGrid2DTarget({"region": 32, "block_size": 8})
        specs = app.block_specs()
        assignment = app.assign_tasks(specs)
        assert len(assignment) == 16
        # Serial run: everything goes to task 0.
        assert {tid for _spec, tid in assignment} == {0}

    def test_assign_tasks_with_parallel_platform(self):
        platform = Platform(aspects=[])
        app = SGrid2DTarget({"region": 32, "block_size": 8})
        app.bind_platform(platform)
        # Fake a 4-task platform by monkeypatching total_tasks via aspects.
        platform_total = 4
        app_total = lambda: platform_total  # noqa: E731
        assignment = app.assign_tasks(app.block_specs())
        # With total_tasks == 1 everything is task 0; re-run with 4 tasks by
        # constructing the platform with a shared-memory aspect instead.
        platform4 = Platform.preset("omp", threads=4)
        app4 = SGrid2DTarget({"region": 32, "block_size": 8})
        app4.bind_platform(platform4)
        assignment4 = app4.assign_tasks(app4.block_specs())
        counts = {}
        for _spec, tid in assignment4:
            counts[tid] = counts.get(tid, 0) + 1
        assert set(counts) == {0, 1, 2, 3}
        assert all(count == 4 for count in counts.values())

    def test_contiguous_zorder_runs_share_tasks(self):
        platform = Platform.preset("omp", threads=4)
        app = SGrid2DTarget({"region": 32, "block_size": 8})
        app.bind_platform(platform)
        assignment = app.assign_tasks(app.block_specs())
        # Blocks are dealt out in contiguous Z-order runs.
        task_sequence = [tid for _spec, tid in assignment]
        assert task_sequence == sorted(task_sequence)

    def test_zorder_is_cached_per_spec(self):
        spec = BlockSpec((0, 0), (8, 8), "a", (3, 5))
        first = spec.zorder()
        assert spec._zorder == first
        assert spec.zorder() == first

    def test_presorted_specs_keep_their_order(self):
        # 1-D specs (USGrid) are generated in Z-order already: the
        # assignment must not re-sort them (and must keep identity).
        app = USGrid2DTarget({"region": 16, "block_cells": 32})
        specs = app.block_specs()
        assignment = app.assign_tasks(specs)
        assert [spec for spec, _tid in assignment] == specs

    def test_unsorted_specs_still_sorted_by_zorder(self):
        app = SGrid2DTarget({"region": 32, "block_size": 8})
        specs = list(reversed(app.block_specs()))
        assignment = app.assign_tasks(specs)
        keys = [spec.zorder() for spec, _tid in assignment]
        assert keys == sorted(keys)


_A, _B, _C = np.random.default_rng(7).uniform(0.5, 1.5, 3)

#: Initial fields under the ``init`` contract: the first four take the
#: per-Block array path, the last two raise on arrays and run per site.
CONTRACT_INITS = {
    "affine-mod17": lambda x, y: _A * x + _B * y + _C * ((x * y) % 17),
    "sin": lambda x, y: np.sin(0.3 * x) + 0.1 * y,
    "bool": lambda x, y: x < y,
    "scalar": lambda x, y: 1.0,
    "float-cast": lambda x, y: float(x + y),
    "hot-corner": lambda x, y: 100.0 if (x < 8 and y < 8) else 0.0,
}

#: What an ``init`` returns on the coordinate arrays that the DSL must not keep.
UNFIT_ARRAY_RESULTS = {
    "misshapen": lambda x, y: np.ravel(x + y)[:-1],
    "object": lambda x, y: (x + y).astype(object),
}


def per_site_field(init, region):
    """``init`` evaluated site by site on Python ints, as a dense field."""
    return np.array(
        [[float(init(x, y)) for y in range(region)] for x in range(region)]
    )


def counting_init(on_arrays):
    """An init returning ``on_arrays(x, y)`` for arrays and ``float(x + y)``
    per site, with a tally of both kinds of call."""
    calls = {"array": 0, "site": 0}

    def init(x, y):
        if isinstance(x, np.ndarray):
            calls["array"] += 1
            return on_arrays(x, y)
        calls["site"] += 1
        return float(x + y)

    return init, calls


class TestSGridTarget:
    def make_app(self, **overrides):
        config = dict(region=16, block_size=8, page_elements=16, loops=1,
                      init=lambda x, y: float(x + y))
        config.update(overrides)
        app = JacobiSGrid(config)
        app.bind_platform(Platform())
        return app

    def test_region_must_divide_into_blocks(self):
        with pytest.raises(ValueError):
            SGrid2DTarget({"region": 10, "block_size": 8})

    def test_build_env_creates_blocks_and_boundary(self):
        app = self.make_app()
        app.initialize()
        assert len(app.env.data_blocks()) == 4
        assert len(app.env.boundary_blocks) == 1
        assert isinstance(app.env.boundary_blocks[0], ArithmeticBlock)

    def test_initial_field_loaded_into_both_buffers(self):
        app = self.make_app()
        app.initialize()
        block = app.env.data_blocks()[0]
        assert block.read((1, 2)) == 3.0
        assert app.env.refresh()
        assert block.content_generation == 1
        assert block.read((1, 2)) == 3.0

    def test_init_sees_python_ints_in_y_outer_order(self):
        # An init that branches on its arguments cannot take the per-Block
        # arrays, so it runs per point: Python ints, y-outer in each Block.
        calls = []

        def init(x, y):
            value = 0.5 * x if x < 5 else -0.25 * y  # raises on arrays
            calls.append((x, y))
            return value

        app = self.make_app(region=8, block_size=4, init=init)
        app.initialize()
        assert all(type(x) is int and type(y) is int for x, y in calls)
        expected = []
        for block in app.env.data_blocks():
            (x0, y0), (sx, sy) = block.origin, block.shape
            expected += [(x0 + i, y0 + j) for j in range(sy) for i in range(sx)]
        assert calls == expected
        field = app.local_field()
        assert all(field[x, y] == (0.5 * x if x < 5 else -0.25 * y) for x, y in calls)

    def test_elementwise_init_called_once_per_block_on_int64_arrays(self):
        calls = []

        def init(x, y):
            calls.append((x.copy(), y.copy()))
            return 0.5 * x - 0.25 * y

        app = self.make_app(init=init)
        app.initialize()
        blocks = app.env.data_blocks()
        assert len(calls) == len(blocks)
        for (xs, ys), block in zip(calls, blocks):
            (x0, y0), (sx, sy) = block.origin, block.shape
            assert xs.dtype == ys.dtype == np.int64
            ys_ref, xs_ref = np.indices((sy, sx))
            assert np.array_equal(xs, xs_ref + x0) and np.array_equal(ys, ys_ref + y0)

    @pytest.mark.parametrize("name", list(CONTRACT_INITS))
    def test_loaded_field_is_bit_identical_to_per_site_init(self, name):
        init = CONTRACT_INITS[name]
        app = self.make_app(init=init)
        app.initialize()
        assert np.array_equal(app.local_field(), per_site_field(init, app.region))

    @pytest.mark.parametrize("name", list(UNFIT_ARRAY_RESULTS))
    def test_unfit_array_result_falls_back_to_per_site_calls(self, name):
        init, calls = counting_init(UNFIT_ARRAY_RESULTS[name])
        app = self.make_app(init=init)
        app.initialize()
        blocks = len(app.env.data_blocks())
        assert calls == {"array": blocks, "site": app.region * app.region}
        assert np.array_equal(app.local_field(), per_site_field(init, app.region))

    def test_division_by_zero_still_raises(self):
        app = self.make_app(init=lambda x, y: 1.0 / (x - 3))
        with pytest.raises(ZeroDivisionError):
            app.initialize()

    def test_no_init_loads_zeros(self):
        app = self.make_app(init=None)
        app.initialize()
        assert np.array_equal(app.local_field(), np.zeros((16, 16)))

    def test_neumann_boundary_option(self):
        app = self.make_app(boundary="neumann")
        app.initialize()
        from repro.memory import ReferenceBlock

        assert isinstance(app.env.boundary_blocks[0], ReferenceBlock)
        # Mirrored boundary returns the edge value.
        block = app.env.data_blocks()[0]
        assert app.env.read_from(block, (-1, 0)) == app.env.read_from(block, (0, 0))

    def test_unknown_boundary_rejected(self):
        app = self.make_app(boundary="periodic")
        with pytest.raises(ValueError):
            app.initialize()

    def test_local_field_assembles_dense_grid(self):
        app = self.make_app()
        app.initialize()
        field = app.local_field()
        assert field.shape == (16, 16)
        assert field[3, 4] == 7.0

    def test_logical_keys_and_task_ids_assigned(self):
        app = self.make_app()
        app.initialize()
        for block in app.env.data_blocks():
            assert block.logical_key[0] == "sgrid"
            assert block.ch_tid == 0 and block.dm_tid == 0

    def test_block_kernel_get_set(self):
        app = self.make_app()
        app.initialize()
        block, kernel = next(iter(app.block_kernels()))
        assert isinstance(kernel, BlockKernel)
        assert kernel.get((0, 0), True) == 0.0
        kernel.set((0, 0), 42.0)
        app.env.refresh()
        assert kernel.get((0, 0), True) == 42.0

    def test_materialize_remote_blocks_as_buffer_only(self):
        app = self.make_app()
        platform = Platform()
        app.bind_platform(platform)
        with task_scope(TaskContext(mpi_rank=0, mpi_size=2)):
            # Pretend a 2-rank world: half the blocks become Buffer-only.
            app2 = JacobiSGrid(dict(region=16, block_size=8, page_elements=16, loops=1))
            app2.bind_platform(Platform.preset("mpi", ranks=2))
            app2.initialize()
            kinds = [type(b).__name__ for b in app2.env.data_blocks(include_buffer_only=True)]
            assert "BufferOnlyBlock" in kinds and "DataBlock" in kinds


class TestUSGridTarget:
    def make_app(self, case="C", **overrides):
        config = dict(region=8, case=case, block_cells=16, page_elements=8, loops=1,
                      init=lambda x, y: float(x))
        config.update(overrides)
        app = JacobiUSGrid(config)
        app.bind_platform(Platform())
        return app

    def test_case_validation(self):
        with pytest.raises(ValueError):
            USGrid2DTarget({"region": 8, "case": "X"})

    def test_cell_count_divisibility(self):
        with pytest.raises(ValueError):
            USGrid2DTarget({"region": 10, "block_cells": 64})

    def test_case_c_layout_is_rowmajor(self):
        app = self.make_app("C")
        index_map = app.cell_index_map()
        assert index_map[0, 0] == 0
        assert index_map[0, 1] == 1
        assert index_map[1, 0] == app.region

    def test_case_r_layout_is_permutation(self):
        app = self.make_app("R")
        index_map = app.cell_index_map()
        assert sorted(index_map.reshape(-1)) == list(range(app.cell_count))
        assert not np.array_equal(index_map, self.make_app("C").cell_index_map())
        assert app.ACCESS_PATTERN == "random"

    def test_case_r_layout_is_deterministic(self):
        a = self.make_app("R").cell_index_map()
        b = self.make_app("R").cell_index_map()
        np.testing.assert_array_equal(a, b)

    def test_boundary_addresses_unique_and_outside_interior(self):
        app = self.make_app()
        ring = []
        n = app.region
        for x in range(-1, n + 1):
            ring.append(app.boundary_address(x, -1))
            ring.append(app.boundary_address(x, n))
        for y in range(n):
            ring.append(app.boundary_address(-1, y))
            ring.append(app.boundary_address(n, y))
        assert len(set(ring)) == len(ring)
        assert min(ring) >= app.cell_count
        assert max(ring) < app.cell_count + app.boundary_cells

    def test_build_env_static_boundary_and_neighbours(self):
        app = self.make_app()
        app.initialize()
        from repro.memory import StaticDataBlock

        assert isinstance(app.env.boundary_blocks[0], StaticDataBlock)
        block = app.env.data_blocks()[0]
        assert block.static_fields["neighbors"].shape == (16, 4)

    @pytest.mark.parametrize("case", ["C", "R"])
    def test_neighbour_table_follows_the_layout(self, case):
        app = self.make_app(case)
        app.initialize()
        index_map, n = app.cell_index_map(), app.region

        def address(x, y):
            inside = 0 <= x < n and 0 <= y < n
            return index_map[x, y] if inside else app.boundary_address(x, y)

        table = np.concatenate(
            [b.static_fields["neighbors"] for b in app.env.data_blocks()]
        )
        for x in range(n):
            for y in range(n):
                assert list(table[index_map[x, y]]) == [
                    address(x - 1, y), address(x + 1, y), address(x, y - 1), address(x, y + 1)
                ]

    def test_local_field_matches_init(self):
        app = self.make_app()
        app.initialize()
        field = app.local_field()
        assert field.shape == (8, 8)
        np.testing.assert_allclose(field[3, :], 3.0)

    def test_elementwise_init_called_once_per_block_on_int64_arrays(self):
        calls = []

        def init(x, y):
            calls.append((x.copy(), y.copy()))
            return 0.5 * x - 0.25 * y

        app = self.make_app("R", init=init)
        app.initialize()
        index_map = app.cell_index_map()
        blocks = app.env.data_blocks()
        assert len(calls) == len(blocks)
        for (xs, ys), block in zip(calls, blocks):
            assert xs.dtype == ys.dtype == np.int64
            cells = np.arange(block.origin[0], block.origin[0] + block.shape[0])
            assert np.array_equal(index_map[xs, ys], cells)

    @pytest.mark.parametrize("name", list(CONTRACT_INITS))
    def test_loaded_field_is_bit_identical_to_per_site_init(self, name):
        init = CONTRACT_INITS[name]
        app = self.make_app("R", region=16, block_cells=32, init=init)
        app.initialize()
        assert np.array_equal(app.local_field(), per_site_field(init, app.region))

    @pytest.mark.parametrize("name", list(UNFIT_ARRAY_RESULTS))
    def test_unfit_array_result_falls_back_to_per_site_calls(self, name):
        init, calls = counting_init(UNFIT_ARRAY_RESULTS[name])
        app = self.make_app("R", init=init)
        app.initialize()
        blocks = len(app.env.data_blocks())
        assert calls == {"array": blocks, "site": app.cell_count}
        assert np.array_equal(app.local_field(), per_site_field(init, app.region))

    def test_division_by_zero_still_raises(self):
        app = self.make_app("R", init=lambda x, y: 1.0 / (x - 3))
        with pytest.raises(ZeroDivisionError):
            app.initialize()

    def test_no_init_loads_zeros(self):
        app = self.make_app("R", init=None)
        app.initialize()
        assert np.array_equal(app.local_field(), np.zeros((8, 8)))


class TestParticleTarget:
    def make_app(self, **overrides):
        config = dict(particles=64, bucket_capacity=16, block_buckets=4, page_elements=4,
                      loops=1)
        config.update(overrides)
        app = ParticleSimulation(config)
        app.bind_platform(Platform())
        return app

    def test_bucket_grid_power_of_two_and_divisible(self):
        app = self.make_app()
        assert app.bucket_grid % app.block_buckets == 0
        assert app.bucket_grid * app.bucket_grid * (app.bucket_capacity // 2) >= 64

    def test_too_many_particles_rejected(self):
        app = self.make_app(particles=64, bucket_capacity=2, block_buckets=4)
        app.particles = 10 ** 6
        with pytest.raises(ValueError):
            app.initialize()

    def test_build_env_places_all_particles(self):
        app = self.make_app()
        app.initialize()
        total = 0
        for block in app.env.data_blocks():
            dense = block.dense().reshape(block.element_count, app.components)
            for element in dense:
                total += BucketView(element, app.bucket_capacity).count
        assert total == 64

    def test_wall_block_returns_dummy_particles(self):
        app = self.make_app()
        app.initialize()
        block = app.env.data_blocks()[0]
        raw = app.env.read_from(block, (-1, 0, 0))
        view = BucketView(np.array(raw), app.bucket_capacity)
        assert view.count > 0
        assert all(view.particle(i)[0] == -1.0 for i in range(view.count))

    def test_particle_ids_unique(self):
        app = self.make_app()
        app.initialize()
        ids = []
        for block in app.env.data_blocks():
            dense = block.dense().reshape(block.element_count, app.components)
            for element in dense:
                view = BucketView(element, app.bucket_capacity)
                ids.extend(view.particle(i)[0] for i in range(view.count))
        assert len(ids) == len(set(ids)) == 64

    def test_bucket_view_pack_overflow(self):
        with pytest.raises(ValueError):
            BucketView.pack([np.zeros(10)] * 3, capacity=2)

    def test_bucket_view_roundtrip(self):
        records = [np.arange(10.0), np.arange(10.0) + 100]
        raw = BucketView.pack(records, capacity=4)
        view = BucketView(raw, 4)
        assert view.count == 2
        np.testing.assert_array_equal(view.particle(1), records[1])
        assert view.positions().shape == (2, 3)

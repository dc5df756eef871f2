"""Property-based tests for Env addressing, buffers and address conversions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import (
    DataBlock,
    Env,
    MultiBuffer,
    PoolGroup,
    MemoryPool,
    offset_in_box,
    to_local,
)


origins = st.tuples(st.integers(-64, 64), st.integers(-64, 64))
locals_2d = st.tuples(st.integers(0, 7), st.integers(0, 7))


class TestAddressProperties:
    @given(origins, locals_2d)
    def test_local_global_roundtrip(self, origin, local):
        assert to_local(origin, tuple(o + c for o, c in zip(origin, local))) == local

    @given(locals_2d)
    def test_offset_is_unique_within_box(self, local):
        shape = (8, 8)
        offsets = {offset_in_box(shape, (i, j)) for i in range(8) for j in range(8)}
        assert len(offsets) == 64
        assert offset_in_box(shape, local) in offsets

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    def test_offset_covers_exact_range(self, shape):
        total = int(np.prod(shape))
        seen = set()

        def walk(prefix):
            if len(prefix) == len(shape):
                seen.add(offset_in_box(shape, prefix))
                return
            for coord in range(shape[len(prefix)]):
                walk(prefix + [coord])

        walk([])
        assert seen == set(range(total))


class TestBufferProperties:
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_dense_load_roundtrip(self, elements, page_elements, components):
        pool = PoolGroup([MemoryPool(1 << 20)])
        buffer = MultiBuffer(elements, page_elements, components, np.float64, pool)
        data = np.random.default_rng(0).random((elements, components))
        buffer.write_buffer.load_dense(data)
        np.testing.assert_allclose(buffer.buffers[1].dense(), data)
        env = Env(allocator=pool)
        block = DataBlock((0,), (elements,), components=components,
                          page_elements=page_elements)
        env.add_data_block(block)
        block.buffer.write_buffer.load_dense(data)
        assert env.refresh()
        np.testing.assert_allclose(block.buffer.read_buffer.dense(), data)

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_swap_cycles_through_depth(self, depth, swaps):
        env = Env(allocator=PoolGroup([MemoryPool(1 << 18)]))
        block = DataBlock((0,), (4,), components=1, page_elements=2, depth=depth)
        env.add_data_block(block)
        buffer = block.buffer
        start = buffer.read_buffer
        for _ in range(swaps):
            assert env.refresh()
        if swaps % depth == 0:
            assert buffer.read_buffer is start
        assert buffer.content_generation == block.content_generation == swaps


@st.composite
def block_layouts(draw):
    """A random 1-row layout of adjacent 4x4 blocks plus probe addresses."""
    count = draw(st.integers(min_value=1, max_value=4))
    probes = draw(
        st.lists(
            st.tuples(st.integers(0, count * 4 - 1), st.integers(0, 3)),
            min_size=1,
            max_size=8,
        )
    )
    return count, probes


class TestEnvProperties:
    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_search_always_finds_covering_block(self, layout):
        count, probes = layout
        env = Env(pool_bytes=1 << 20)
        blocks = []
        for index in range(count):
            block = DataBlock((index * 4, 0), (4, 4), components=1, page_elements=4,
                              allocator=env.allocator)
            env.add_data_block(block)
            blocks.append(block)
        for probe in probes:
            found = env.find_block(probe, start=blocks[0])
            assert found is not None
            assert found.contains(probe)

    @given(block_layouts(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_read_equals_written_value_regardless_of_mmat(self, layout, mmat):
        count, probes = layout
        env = Env(pool_bytes=1 << 20, mmat_enabled=mmat)
        blocks = []
        for index in range(count):
            block = DataBlock((index * 4, 0), (4, 4), components=1, page_elements=4,
                              allocator=env.allocator)
            env.add_data_block(block)
            blocks.append(block)
        expected = {}
        for i, probe in enumerate(probes):
            value = float(i + 1)
            blocks[probe[0] // 4].write(probe, value)
            expected[probe] = value
        env.refresh()
        for probe, value in expected.items():
            # Reading twice exercises both the search path and the MMAT path.
            assert env.read_from(blocks[0], probe) == value
            assert env.read_from(blocks[0], probe) == value

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_refresh_step_counter_matches_successful_refreshes(self, steps):
        env = Env(pool_bytes=1 << 18)
        block = DataBlock((0, 0), (4, 4), components=1, page_elements=4,
                          allocator=env.allocator)
        env.add_data_block(block)
        for _ in range(steps):
            assert env.refresh() is True
        assert env.step == steps

"""Property-based tests for the Morton indexing and the memory pool."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import MemoryPool, PoolExhaustedError, morton_encode, pdep

coords_2d = st.tuples(
    st.integers(min_value=0, max_value=2 ** 16 - 1),
    st.integers(min_value=0, max_value=2 ** 16 - 1),
)
coords_nd = st.lists(
    st.integers(min_value=0, max_value=2 ** 10 - 1), min_size=1, max_size=4
)


def interleave(coords, nbits=21):
    """Morton code by definition: bit ``b`` of coordinate ``d`` lands at bit ``b * ndim + d``."""
    ndim = len(coords)
    return sum(((c >> b) & 1) << (b * ndim + d) for d, c in enumerate(coords) for b in range(nbits))


class TestMortonProperties:
    @given(coords_2d)
    def test_interleaves_2d(self, coords):
        assert morton_encode(coords) == interleave(coords)

    @given(coords_nd)
    def test_interleaves_nd(self, coords):
        assert morton_encode(coords) == interleave(coords)

    @given(coords_2d, coords_2d)
    def test_injective(self, a, b):
        if a != b:
            assert morton_encode(a) != morton_encode(b)

    @given(st.integers(min_value=0, max_value=2 ** 20 - 1))
    def test_doubling_a_coordinate_shifts_its_bits(self, x):
        # Doubling x moves each of its bits up one position, which lands two
        # positions higher in the 2-D interleaved code.
        assert morton_encode((2 * x, 0), nbits=22) == morton_encode((x, 0), nbits=22) << 2

    @given(
        st.integers(min_value=0, max_value=2 ** 16 - 1),
        st.integers(min_value=0, max_value=2 ** 20 - 1),
    )
    def test_pdep_matches_its_definition(self, value, mask):
        positions = [p for p in range(mask.bit_length()) if mask >> p & 1]
        assert pdep(value, mask) == sum(((value >> i) & 1) << p for i, p in enumerate(positions))

    @given(st.integers(min_value=0, max_value=2 ** 20 - 1), st.integers(min_value=0, max_value=2 ** 20 - 1))
    def test_pdep_only_sets_mask_bits(self, value, mask):
        assert pdep(value, mask) & ~mask == 0


@st.composite
def allocation_programs(draw):
    """A random sequence of allocate/free operations."""
    ops = []
    live = 0
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        if live == 0 or draw(st.booleans()):
            ops.append(("alloc", draw(st.integers(min_value=1, max_value=4096))))
            live += 1
        else:
            ops.append(("free", draw(st.integers(min_value=0, max_value=live - 1))))
            live -= 1
    return ops


class TestPoolProperties:
    @given(allocation_programs())
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_for_any_program(self, program):
        pool = MemoryPool(64 * 1024)
        live = []
        for op, arg in program:
            if op == "alloc":
                try:
                    live.append(pool.allocate(arg))
                except PoolExhaustedError:
                    pass
            else:
                if live:
                    live.pop(arg % len(live)).free()
            pool.check_invariants()
            assert 0 <= pool.used_bytes <= pool.capacity_bytes
            assert pool.used_bytes == sum(c.size for c in live)
        for chunk in live:
            chunk.free()
        pool.check_invariants()
        assert pool.used_bytes == 0

    @given(st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_chunks_never_overlap(self, sizes):
        pool = MemoryPool(64 * 1024)
        chunks = []
        for size in sizes:
            try:
                chunks.append(pool.allocate(size))
            except PoolExhaustedError:
                break
        ranges = sorted((c.offset, c.offset + c.size) for c in chunks)
        for (a_start, a_end), (b_start, b_end) in zip(ranges, ranges[1:]):
            assert a_end <= b_start

    @given(st.lists(st.integers(min_value=1, max_value=2048), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_free_then_full_reallocation_succeeds(self, sizes):
        pool = MemoryPool(32 * 1024)
        chunks = []
        for size in sizes:
            try:
                chunks.append(pool.allocate(size))
            except PoolExhaustedError:
                break
        for chunk in chunks:
            chunk.free()
        assert pool.allocate(pool.capacity_bytes).size == pool.capacity_bytes

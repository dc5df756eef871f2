"""Unit tests for the Block hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory import (
    AddressError,
    ArithmeticBlock,
    BlockError,
    BufferOnlyBlock,
    DataBlock,
    EmptyBlock,
    Env,
    GlobalAddress,
    PoolGroup,
    ReferenceBlock,
    StaticDataBlock,
)


@pytest.fixture
def allocator(pool):
    return PoolGroup([pool])


def make_data_block(allocator, origin=(0, 0), shape=(4, 4), components=1):
    return DataBlock(
        origin, shape, components=components, page_elements=4, allocator=allocator
    )


def swap(block, allocator):
    """Swap ``block``'s buffers the one way there is: it joins an Env,
    whose refresh swaps its image class."""
    env = Env(allocator=allocator)
    env.add_data_block(block)
    assert env.refresh()


class TestBlockTree:
    def test_add_child_and_subtree(self, allocator):
        root = EmptyBlock()
        joint = EmptyBlock()
        leaf = make_data_block(allocator)
        root.add_child(joint)
        joint.add_child(leaf)
        assert [b for b in root.iter_subtree()] == [root, joint, leaf]
        assert leaf.parent is joint
        assert joint.siblings() == []

    def test_reparenting_rejected(self, allocator):
        a, b = EmptyBlock(), EmptyBlock()
        child = EmptyBlock()
        a.add_child(child)
        with pytest.raises(BlockError):
            b.add_child(child)

    def test_block_ids_unique(self, allocator):
        blocks = [make_data_block(allocator) for _ in range(5)]
        assert len({b.block_id for b in blocks}) == 5

    def test_origin_shape_dim_mismatch(self):
        with pytest.raises(BlockError):
            EmptyBlock((0, 0), (1,))

    def test_empty_block_covers_descendants(self, allocator):
        joint = EmptyBlock()
        joint.add_child(make_data_block(allocator, origin=(0, 0)))
        joint.add_child(make_data_block(allocator, origin=(4, 0)))
        assert joint.covers((5, 1))
        assert not joint.covers((100, 100))
        assert not joint.contains((1, 1))


class TestDataBlock:
    def test_read_write_roundtrip_via_swap(self, allocator):
        block = make_data_block(allocator)
        block.write((1, 2), 5.5)
        swap(block, allocator)
        assert block.read((1, 2)) == 5.5

    def test_local_access(self, allocator):
        block = make_data_block(allocator, origin=(8, 8))
        block.write_local((0, 1), 2.0)
        swap(block, allocator)
        assert block.read_local((0, 1)) == 2.0
        assert block.read((8, 9)) == 2.0

    def test_contains(self, allocator):
        block = make_data_block(allocator, origin=(4, 4), shape=(4, 4))
        assert block.contains((4, 4))
        assert block.contains((7, 7))
        assert not block.contains((8, 4))
        assert not block.contains((3, 4))

    def test_out_of_block_address_raises(self, allocator):
        block = make_data_block(allocator)
        with pytest.raises(AddressError):
            block.read((10, 10))

    def test_components(self, allocator):
        block = make_data_block(allocator, components=3)
        block.write((0, 0), (1.0, 2.0, 3.0))
        swap(block, allocator)
        np.testing.assert_array_equal(block.read((0, 0)), [1.0, 2.0, 3.0])

    def test_page_interface(self, allocator):
        block = make_data_block(allocator)
        key = block.page_key_of((0, 0))
        assert key.block_id == block.block_id
        snapshot = block.page_snapshot(key.page_index)
        assert snapshot.shape == (4, 1)
        block.page_fill(key.page_index, np.ones((4, 1)))
        assert block.read((0, 0)) == 1.0

    def test_dense_roundtrip(self, allocator):
        block = make_data_block(allocator, shape=(2, 3))
        data = np.arange(6.0).reshape(2, 3, 1)
        block.load_dense(data)
        np.testing.assert_array_equal(block.dense(), data)

    def test_zorder_index_monotone_in_block_grid(self, allocator):
        b00 = make_data_block(allocator, origin=(0, 0))
        b11 = make_data_block(allocator, origin=(4, 4))
        assert b00.zorder_index() < b11.zorder_index()

    def test_nbytes_includes_static_fields(self, allocator):
        block = make_data_block(allocator)
        base = block.nbytes
        block.static_fields["aux"] = np.zeros(100)
        assert block.nbytes == base + 800


class TestBufferOnlyBlock:
    def test_starts_invalid(self, allocator):
        block = BufferOnlyBlock(
            (0, 0), (4, 4), components=1, page_elements=4, allocator=allocator, owner_tid=3
        )
        assert not block.is_valid
        assert block.dm_tid is None
        assert block.owner_tid == 3

    def test_read_before_fill_raises(self, allocator):
        block = BufferOnlyBlock(
            (0, 0), (4, 4), components=1, page_elements=4, allocator=allocator
        )
        block.invalidate()
        with pytest.raises(BlockError):
            block.read((0, 0))

    def test_write_rejected(self, allocator):
        block = BufferOnlyBlock(
            (0, 0), (4, 4), components=1, page_elements=4, allocator=allocator
        )
        with pytest.raises(BlockError):
            block.write((0, 0), 1.0)

    def test_page_fill_makes_readable(self, allocator):
        block = BufferOnlyBlock(
            (0, 0), (4, 4), components=1, page_elements=4, allocator=allocator
        )
        block.invalidate()
        block.page_fill(0, np.full((4, 1), 9.0))
        assert block.read((0, 0)) == 9.0


class TestVirtualBlocks:
    def test_static_block(self):
        block = StaticDataBlock((10,), (5,), 3.5)
        assert block.read((12,)) == 3.5
        with pytest.raises(AddressError):
            block.read((20,))

    def test_static_block_components(self):
        block = StaticDataBlock((0,), (5,), 2.0, components=3)
        np.testing.assert_array_equal(block.read((1,)), [2.0, 2.0, 2.0])

    def test_static_block_bad_value_shape(self):
        with pytest.raises(BlockError):
            StaticDataBlock((0,), (5,), (1.0, 2.0), components=3)

    def test_arithmetic_block(self):
        block = ArithmeticBlock((-1, -1), (4, 4), lambda a: float(a[0] + a[1]))
        assert block.read((1, 2)) == 3.0
        with pytest.raises(AddressError):
            block.read((10, 10))

    def test_arithmetic_requires_callable(self):
        with pytest.raises(BlockError):
            ArithmeticBlock((0,), (1,), expression="nope")

    def test_reference_block_with_target(self, allocator):
        data = make_data_block(allocator)
        data.write((0, 0), 7.0)
        swap(data, allocator)
        mirror = ReferenceBlock(
            (-1, -1),
            (6, 6),
            lambda addr: GlobalAddress((max(addr[0], 0), max(addr[1], 0))),
            target=data,
        )
        assert mirror.read((-1, -1)) == 7.0

    def test_reference_block_without_resolution_raises(self):
        ref = ReferenceBlock((0,), (2,), lambda a: GlobalAddress((5,)))
        with pytest.raises(BlockError):
            ref.read((0,))

    def test_empty_block_holds_no_data(self):
        block = EmptyBlock()
        assert not block.holds_data
        with pytest.raises(BlockError):
            block.read((0,))
        with pytest.raises(BlockError):
            block.write((0,), 1.0)


def wall_buckets():
    """The Particle DSL's wall-bucket ArithmeticBlock."""
    from repro.annotation import Platform
    from repro.apps import ParticleSimulation

    app = ParticleSimulation(dict(particles=64, block_buckets=2, page_elements=4))
    app.bind_platform(Platform(mmat=True))
    app.initialize()
    return next(b for b in app.env.root.iter_subtree() if isinstance(b, ArithmeticBlock))


def three_components(a):
    return np.array([0.5 * a[0], -a[0], 2.0 + a[0]])


class TestReadMany:
    """``read_many`` is ``read`` of every address, stacked and broadcast
    to the Block's components."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ArithmeticBlock((-1, -1), (6, 6), lambda a: 0.25),
            lambda: ArithmeticBlock((-1, -1), (6, 6), lambda a: float(a[0] - a[1])),
            lambda: ArithmeticBlock((-16,), (48,), three_components, components=3),
            lambda: ArithmeticBlock((-2,), (8,), lambda a: 1.5, components=3),
            wall_buckets,
            lambda: StaticDataBlock((3, 0), (4, 5), 3.5),
            lambda: StaticDataBlock((3, 0), (4, 5), 2.0, components=3),
            lambda: StaticDataBlock((3, 0), (4, 5), (1.0, -2.0, 0.5), components=3),
        ],
    )
    def test_equals_stacked_reads(self, make):
        block = make()
        addrs = np.stack(np.unravel_index(np.arange(block.element_count), block.shape), axis=1)
        addrs = (addrs + block.origin)[::3]
        expected = np.stack([
            np.broadcast_to(np.asarray(block.read(tuple(a)), dtype=np.float64).reshape(-1),
                            (block.components,))
            for a in addrs.tolist()
        ])
        got = block.read_many(addrs)
        assert got.dtype == np.float64 and got.shape == (len(addrs), block.components)
        assert np.array_equal(got, expected)
        assert block.read_many(addrs[:0]).shape == (0, block.components)

    @pytest.mark.parametrize(
        "block",
        [
            ArithmeticBlock((-1, -1), (4, 4), lambda a: 1.0, name="ring"),
            StaticDataBlock((-1, -1), (4, 4), 1.0, name="ring"),
        ],
    )
    def test_address_outside_is_named(self, block):
        with pytest.raises(AddressError, match=r"\(3, 0\) outside .* 'ring'"):
            block.read_many(np.array([[0, 0], [3, 0], [9, 9]]))

    def test_mixed_result_sizes_broadcast_per_address(self):
        block = ArithmeticBlock(
            (0,), (4,), lambda a: 7.0 if a[0] % 2 else np.array([1.0, 2.0]), components=2
        )
        got = block.read_many(np.arange(4).reshape(-1, 1))
        assert np.array_equal(got, [[1.0, 2.0], [7.0, 7.0], [1.0, 2.0], [7.0, 7.0]])


class TestValueCount:
    """An ArithmeticBlock's expression gives 1 or ``components`` values,
    the rule a StaticDataBlock's value obeys."""

    def bad(self):
        return ArithmeticBlock(
            (-1,), (4,), lambda a: (1.0, 2.0) if a[0] == 1 else 0.5, components=3, name="wide"
        )

    def test_read_names_block_address_and_count(self):
        block = self.bad()
        assert block.read((0,)) == 0.5
        with pytest.raises(BlockError, match=r"'wide' gave 2 values at \(1,\), expected 1 or 3"):
            block.read((1,))

    def test_read_many_names_block_address_and_count(self):
        with pytest.raises(BlockError, match=r"'wide' gave 2 values at \(1,\), expected 1 or 3"):
            self.bad().read_many(np.array([[0], [1], [2]]))

    def test_uniform_wrong_width_is_reported(self):
        block = ArithmeticBlock((0,), (4,), lambda a: (1.0, 2.0), components=3, name="wide")
        with pytest.raises(BlockError, match=r"'wide' gave 2 values at \(0,\)"):
            block.read_many(np.array([[0], [1]]))

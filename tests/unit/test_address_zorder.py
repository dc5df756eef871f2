"""Unit tests for addresses and the Z-order (Morton) indexing."""

from __future__ import annotations

import pytest

from repro.memory import (
    AddressError,
    GlobalAddress,
    LocalAddress,
    morton_encode,
    offset_in_box,
    pdep,
    to_local,
)
from repro.memory.address import box_contains


class TestAddresses:
    def test_global_address_is_tuple(self):
        addr = GlobalAddress((1, 2))
        assert addr == (1, 2)
        assert addr.ndim == 2

    def test_global_address_requires_coords(self):
        with pytest.raises(AddressError):
            GlobalAddress(())

    def test_local_address(self):
        assert LocalAddress((0, 3)).ndim == 2

    def test_local_address_requires_coords(self):
        with pytest.raises(AddressError):
            LocalAddress(())

    def test_address_types_print_their_kind(self):
        assert repr(GlobalAddress((1, 2))) == "GA(1, 2)"
        assert repr(LocalAddress([3])) == "LA(3,)"

    def test_to_local(self):
        assert to_local((10, 20), (13, 24)) == (3, 4)

    @pytest.mark.parametrize(
        "origin,addr,expected",
        [((5,), (2,), (-3,)), ((0, 0, 0), (1, 2, 3), (1, 2, 3)), ((-4, 8), (-4, 8), (0, 0))],
    )
    def test_to_local_in_any_dimension(self, origin, addr, expected):
        local = to_local(origin, addr)
        assert isinstance(local, LocalAddress) and local == expected

    def test_conversion_dim_mismatch(self):
        with pytest.raises(AddressError):
            to_local((1,), (3, 4))

    @pytest.mark.parametrize(
        "shape,local,expected",
        [((4, 4), (0, 0), 0), ((4, 4), (0, 3), 3), ((4, 4), (1, 0), 4), ((4, 4), (3, 3), 15),
         ((2, 3, 4), (1, 2, 3), 23)],
    )
    def test_offset_in_box(self, shape, local, expected):
        assert offset_in_box(shape, local) == expected

    @pytest.mark.parametrize("local", [(-1, 0), (4, 0), (0, 4)])
    def test_offset_outside_box(self, local):
        with pytest.raises(AddressError):
            offset_in_box((4, 4), local)

    def test_box_contains(self):
        assert box_contains((0, 0), (4, 4), (3, 3))
        assert not box_contains((0, 0), (4, 4), (4, 0))
        assert not box_contains((0, 0), (4, 4), (0, -1))
        assert not box_contains((0, 0), (4, 4), (0, 0, 0))


def deposit(value, mask):
    """``pdep`` by definition: the i-th lowest set bit of ``mask`` takes bit i of ``value``."""
    positions = [p for p in range(mask.bit_length()) if mask >> p & 1]
    return sum(((value >> i) & 1) << p for i, p in enumerate(positions))


def interleave(coords, nbits=21):
    """Morton code by definition: bit ``b`` of coordinate ``d`` lands at bit ``b * ndim + d``."""
    ndim = len(coords)
    return sum(((c >> b) & 1) << (b * ndim + d) for d, c in enumerate(coords) for b in range(nbits))


class TestBitTwiddling:
    def test_pdep_basic(self):
        # Deposit 0b11 into alternating mask 0b0101 -> 0b0101
        assert pdep(0b11, 0b0101) == 0b0101
        assert pdep(0b10, 0b0101) == 0b0100
        assert pdep(0b1, 0b1000) == 0b1000

    def test_pdep_matches_its_definition(self):
        for mask in (0, 0b1, 0b10110100, 0b1111, 1 << 40 | 0b101):
            for value in range(40):
                assert pdep(value, mask) == deposit(value, mask), (value, mask)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pdep(-1, 3)
        with pytest.raises(ValueError):
            pdep(1, -3)


class TestMorton:
    def test_known_2d_values(self):
        # Interleaved bits of (x=1, y=1) -> 0b11 = 3; x takes the low bit.
        assert morton_encode((1, 1)) == 3
        assert morton_encode((2, 0)) == 4
        assert morton_encode((0, 2)) == 8
        assert morton_encode((3, 5)) == 0b100111

    def test_known_3d_values(self):
        assert [morton_encode(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))] == [1, 2, 4, 7]
        assert morton_encode((2, 0, 0)) == 8
        # x = 7 lands on bits 0, 3, 6; z = 31 on bits 2, 5, 8, 11, 14.
        assert morton_encode((7, 0, 31)) == 0b100100101101101

    @pytest.mark.parametrize(
        "coords", [(0, 0), (1, 0), (0, 1), (3, 5), (255, 1), (1000, 2000), (0, 0, 0), (1, 2, 3),
                   (7, 0, 31), (3, 1, 4, 1), (7,), ((1 << 21) - 1, 0)],
    )
    def test_matches_the_interleave_reference(self, coords):
        assert morton_encode(coords) == interleave(coords)

    def test_injective_over_a_grid(self):
        # A 2^k x 2^k grid maps one to one onto the codes [0, 4^k).
        codes = [morton_encode((x, y)) for x in range(16) for y in range(16)]
        assert sorted(codes) == list(range(256))
        codes = [morton_encode((x, y, z)) for x in range(8) for y in range(8) for z in range(8)]
        assert sorted(codes) == list(range(512))

    def test_locality_of_consecutive_codes(self):
        # Cells adjacent on the Z curve are close in space on average.
        coords = sorted(((x, y) for x in range(4) for y in range(4)), key=morton_encode)
        jumps = [
            abs(a[0] - b[0]) + abs(a[1] - b[1]) for a, b in zip(coords, coords[1:])
        ]
        # The worst single jump on a 4x4 Z curve is the mid-curve hop;
        # the average jump stays small, which is the locality that matters.
        assert max(jumps) <= 4
        assert sum(jumps) / len(jumps) < 2.0

    def test_encode_rejects_negative(self):
        with pytest.raises(ValueError):
            morton_encode((-1, 0))

    def test_encode_rejects_too_large(self):
        with pytest.raises(ValueError):
            morton_encode((1 << 22,), nbits=21)
        with pytest.raises(ValueError):
            morton_encode((0, 1 << 4), nbits=4)
        assert morton_encode((0, (1 << 4) - 1), nbits=4) == interleave((0, 15), nbits=4)

    def test_encode_rejects_no_coordinates(self):
        with pytest.raises(ValueError):
            morton_encode(())


class TestMortonMaskMemoization:
    def test_dimension_masks_are_cached(self):
        from repro.memory.zorder import _dimension_mask, _dimension_masks

        assert _dimension_mask(0, 2, 8) is _dimension_mask(0, 2, 8)
        masks = _dimension_masks(3, 21)
        assert _dimension_masks(3, 21) is masks
        assert len(masks) == 3
        # The cached masks must be the masks encode actually uses.
        for dim, mask in enumerate(masks):
            assert mask == _dimension_mask(dim, 3, 21)

    def test_memoized_encode_matches_the_reference(self):
        for _ in range(2):  # the second pass reads the cached masks
            for coords in ((0, 0), (5, 9), (1, 2, 3), (7,), (10, 20, 30, 40)):
                assert morton_encode(coords) == interleave(coords)

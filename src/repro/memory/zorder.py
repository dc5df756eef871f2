"""Z-order (Morton) curve indexing.

The prototype in the paper gives every Data Block a Z-order index
("by using the PDEP instruction (x86)", §IV-C) and assigns Blocks to
tasks according to that index, which preserves spatial locality across
the task partition.  This module provides a portable, pure-Python
equivalent:

* :func:`pdep` — software emulation of the x86 BMI2 parallel bit
  deposit instruction;
* :func:`morton_encode` — dimension-generic bit interleaving built on
  it, the key ``BlockSpec.zorder`` and the recovery rebalance sort by.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

__all__ = ["pdep", "morton_encode"]


def pdep(value: int, mask: int) -> int:
    """Parallel bit deposit: scatter the low bits of ``value`` into ``mask``.

    Equivalent to the x86 BMI2 ``PDEP`` instruction used by the paper's
    prototype to build Morton indices.
    """
    if value < 0 or mask < 0:
        raise ValueError("pdep operands must be non-negative")
    result = 0
    bit = 0
    m = mask
    while m:
        lowest = m & -m
        if (value >> bit) & 1:
            result |= lowest
        m &= m - 1
        bit += 1
    return result


@lru_cache(maxsize=None)
def _dimension_mask(dim: int, ndim: int, nbits: int) -> int:
    """Mask selecting every ``ndim``-th bit starting at ``dim`` over ``nbits`` groups.

    Memoized: masks depend only on ``(dim, ndim, nbits)`` and encode
    runs once per Block spec per warm-up, where mask construction used
    to dominate the profile.
    """
    mask = 0
    for i in range(nbits):
        mask |= 1 << (i * ndim + dim)
    return mask


@lru_cache(maxsize=None)
def _dimension_masks(ndim: int, nbits: int) -> Tuple[int, ...]:
    """All per-dimension masks for one ``(ndim, nbits)`` pair, cached."""
    return tuple(_dimension_mask(dim, ndim, nbits) for dim in range(ndim))


def morton_encode(coords: Sequence[int], nbits: int = 21) -> int:
    """Interleave ``coords`` into a single Morton index.

    ``nbits`` bounds the number of bits taken from each coordinate;
    coordinates must fit in that many bits.
    """
    ndim = len(coords)
    if ndim == 0:
        raise ValueError("morton_encode requires at least one coordinate")
    masks = _dimension_masks(ndim, nbits)
    code = 0
    for dim, coord in enumerate(coords):
        coord = int(coord)
        if coord < 0:
            raise ValueError(f"morton_encode requires non-negative coordinates, got {coord}")
        if coord >= (1 << nbits):
            raise ValueError(f"coordinate {coord} does not fit in {nbits} bits")
        code |= pdep(coord, masks[dim])
    return code

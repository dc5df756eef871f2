"""Global and local addresses.

The paper's Memory Library lets kernels address data either with a
*Global Address* ("represents the entire data area") or with a *Local
Address* ("relative coordinates from the origin of each Block",
§III-B6).  Both are small fixed-dimension integer tuples.

Addresses are deliberately lightweight (plain tuples wrapped in thin
``NamedTuple``-like classes) because kernel inner loops construct one
per data access, exactly as the C++ ``GlobalAddress_t`` / ``LocalAddress_t``
structs do in the paper's Listing 1.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from .errors import AddressError

__all__ = ["GlobalAddress", "LocalAddress", "to_local", "offset_in_box"]


class GlobalAddress(tuple):
    """Integer coordinates in the whole computation domain.

    Subclasses ``tuple`` so it hashes/compares like the raw coordinates
    while still being a distinct type for interface clarity.
    """

    __slots__ = ()

    def __new__(cls, coords: Iterable[int]) -> "GlobalAddress":
        coords = tuple(int(c) for c in coords)
        if not coords:
            raise AddressError("GlobalAddress requires at least one coordinate")
        return super().__new__(cls, coords)

    @property
    def ndim(self) -> int:
        return len(self)

    def __repr__(self) -> str:
        return f"GA{tuple(self)!r}"


class LocalAddress(tuple):
    """Integer coordinates relative to a Block origin."""

    __slots__ = ()

    def __new__(cls, coords: Iterable[int]) -> "LocalAddress":
        coords = tuple(int(c) for c in coords)
        if not coords:
            raise AddressError("LocalAddress requires at least one coordinate")
        return super().__new__(cls, coords)

    @property
    def ndim(self) -> int:
        return len(self)

    def __repr__(self) -> str:
        return f"LA{tuple(self)!r}"


def to_local(origin: Sequence[int], global_addr: Sequence[int]) -> LocalAddress:
    """Convert a global address to coordinates relative to ``origin``."""
    if len(origin) != len(global_addr):
        raise AddressError(
            f"origin/global dimensionality mismatch: {len(origin)} vs {len(global_addr)}"
        )
    return LocalAddress(g - o for o, g in zip(origin, global_addr))


def offset_in_box(shape: Sequence[int], local: Sequence[int]) -> int:
    """Row-major linear offset of ``local`` inside a box of extent ``shape``.

    Raises :class:`AddressError` when the coordinate lies outside the box;
    callers rely on this to detect out-of-block accesses.
    """
    if len(shape) != len(local):
        raise AddressError(
            f"shape/local dimensionality mismatch: {len(shape)} vs {len(local)}"
        )
    offset = 0
    for extent, coord in zip(shape, local):
        if coord < 0 or coord >= extent:
            raise AddressError(f"local coordinate {tuple(local)} outside box {tuple(shape)}")
        offset = offset * extent + coord
    return offset


def box_contains(origin: Sequence[int], shape: Sequence[int], addr: Sequence[int]) -> bool:
    """Return True when ``addr`` lies inside the half-open box ``[origin, origin+shape)``."""
    if len(origin) != len(addr):
        return False
    return all(o <= a < o + s for o, s, a in zip(origin, shape, addr))

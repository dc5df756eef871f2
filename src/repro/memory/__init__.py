"""Memory Library: pools, pages, multi-buffers, Blocks and the Env tree.

This package is the Python counterpart of the paper's Memory Library
(Platform Part B.2): a fixed-size Memory Pool from which Block buffers
draw page-sized chunks, a Block-based interface used by end-user
kernels (Global/Local address access, ``get_blocks``, ``refresh``) and
a Page-based interface used by the aspect modules for validity
management and inter-task communication.
"""

from .address import GlobalAddress, LocalAddress, offset_in_box, to_local
from .block import (
    ArithmeticBlock,
    Block,
    BufferOnlyBlock,
    DataBlock,
    EmptyBlock,
    ReferenceBlock,
    StaticDataBlock,
)
from .buffer import BlockBuffer, MultiBuffer
from .env import Env, EnvStats
from .errors import (
    AddressError,
    BlockError,
    EnvError,
    MemoryError_,
    PoolCorruptionError,
    PoolExhaustedError,
)
from .mmat import MMAT, AccessPlan, PlanSegment, compile_address_plan, compile_offsets_plan
from .page import Page, PageKey
from .pool import Chunk, MemoryPool, PoolGroup, PoolStats
from .zorder import morton_encode, pdep

__all__ = [
    "GlobalAddress",
    "LocalAddress",
    "to_local",
    "offset_in_box",
    "Block",
    "DataBlock",
    "BufferOnlyBlock",
    "EmptyBlock",
    "StaticDataBlock",
    "ArithmeticBlock",
    "ReferenceBlock",
    "BlockBuffer",
    "MultiBuffer",
    "Env",
    "EnvStats",
    "MMAT",
    "AccessPlan",
    "PlanSegment",
    "compile_offsets_plan",
    "compile_address_plan",
    "Page",
    "PageKey",
    "Chunk",
    "MemoryPool",
    "PoolGroup",
    "PoolStats",
    "MemoryError_",
    "PoolExhaustedError",
    "PoolCorruptionError",
    "AddressError",
    "BlockError",
    "EnvError",
    "pdep",
    "morton_encode",
]

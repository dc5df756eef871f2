"""Memory-usage accounting (paper Fig. 12).

The paper measures, with Valgrind, the total memory of each benchmark
configuration split into *unused memory pool*, *used memory pool* and
*working memory*.  The equivalents here:

* **used / unused pool** come straight from the
  :class:`~repro.memory.pool.MemoryPool` accounting of the Env's
  allocator (the pools are fixed-size, exactly as in the paper);
* **working memory** is everything that is not the pool: the Env tree
  structure (Blocks, each buffer's page list and Page descriptors), the
  MMAT memo and plans, block static fields, plus (for the handwritten
  baselines) the arrays the baseline allocates;
* **image / scratch** is what the dense image and the kernels hold
  outside the pool — MMAT scratch, padded fields, ring tables (the
  dense image, ghost tail included, is in the pool: *used pool*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..memory.env import Env

__all__ = ["MemoryBreakdown", "measure_env", "measure_handwritten"]


@dataclass
class MemoryBreakdown:
    """Bytes of each memory category (one bar of Fig. 12)."""

    label: str
    unused_pool: int = 0
    used_pool: int = 0
    working: int = 0
    image_scratch: int = 0

    @property
    def total(self) -> int:
        return self.unused_pool + self.used_pool + self.working + self.image_scratch

    def as_row(self) -> dict:
        return {
            "label": self.label,
            "unused_pool_MB": self.unused_pool / 1e6,
            "used_pool_MB": self.used_pool / 1e6,
            "working_MB": self.working / 1e6,
            "image_scratch_MB": self.image_scratch / 1e6,
            "total_MB": self.total / 1e6,
        }


def measure_env(env: Env, *, label: str) -> MemoryBreakdown:
    """Memory breakdown of a platform run, read from its Env."""
    import sys

    working = env.structure_bytes()
    # Static per-block side arrays (neighbour tables, etc.) are working
    # memory: the handwritten versions need them too, but the platform keeps
    # them per Block which is what the paper attributes the blow-up to.
    for block in env.data_blocks(include_buffer_only=True):
        for array in getattr(block, "static_fields", {}).values():
            working += int(array.nbytes)
        working += sys.getsizeof(block)
    return MemoryBreakdown(
        label=label,
        unused_pool=env.allocator.free_bytes,
        used_pool=env.allocator.used_bytes,
        working=working,
        image_scratch=env.image_scratch_bytes(),
    )


def measure_handwritten(nbytes_working: int, *, label: str) -> MemoryBreakdown:
    """Memory breakdown of a handwritten baseline (no pool at all)."""
    return MemoryBreakdown(label=label, unused_pool=0, used_pool=0, working=int(nbytes_working))

"""Test helpers: runs that stay on the page protocol, a world without
halo slots, and a full ``/dev/shm``.

Where ranks share memory the refresh protocol *publishes* the halo once
the compiled plans are negotiated, and from then on moves no page.  The
suites that pin the page protocol itself — page exchange ≡ scalar
serial, with page counts and the Buffer-only pages left behind —
therefore run an app that is observably open: one
scalar read of a remote element per step is remote data the pushed rows
do not cover, so every rank agrees to take that step through the page
exchange (``open: scalar halo read`` in ``PlatformRun.summary()``).  The
element is one the plans prefetch anyway, so the read adds no traffic
and never fails.
"""

from __future__ import annotations

import errno

import numpy as np

from repro.apps import JacobiSGrid
from repro.runtime import MPIWorld, register_backend, shm


def read_remote_scalar(env) -> None:
    """Read, through the scalar path, the first element of the first halo
    page the compiled plans read too (nothing when there is none)."""
    keys = env.plan_page_requirements()
    if keys:
        key = min(keys)
        block = env.block(key.block_id)
        first = np.unravel_index(key.page_index * block.page_elements, block.shape)
        env.read(tuple(int(o + c) for o, c in zip(block.origin, first)))


def kept_open(app_cls):
    """``app_cls`` reading one prefetched halo element by scalar ``get`` per step."""

    class KeptOpen(app_cls):
        def kernel(self, warmup: bool) -> bool:
            if not warmup:
                read_remote_scalar(self.env)
            return super().kernel(warmup)

    KeptOpen.__name__ = f"KeptOpen{app_cls.__name__}"
    return KeptOpen


class MidRunResetJacobi(JacobiSGrid):
    """Vectorized Jacobi that drops every compiled plan halfway through.

    The reset forces a recompile and a renegotiation; MMAT is then
    disabled entirely, so the next step's scalar reads find the halo
    pages invalid (a repair and a recomputed step) and every later step
    prefetches the Dry-run record the repair left.
    """

    def processing(self) -> None:
        self.warm_up(self.kernel)
        half = max(self.loops // 2, 1)
        for _ in range(half):
            self.run(self.kernel)
        self.env.mmat.reset()           # drop plans: recompiled next sweep
        self.run(self.kernel)
        self.env.mmat.enabled = False   # stop compiling plans …
        self.env.mmat.reset()           # … and drop the cached ones:
        for _ in range(self.loops - half - 1):
            self.run(self.kernel)       # repaired, then pages from here on


class SlotlessWorld(MPIWorld):
    """A threaded world whose ranks agree and exchange pages over messages
    only, as a custom backend without shared words would."""

    backend_name = "slotless"

    def __init__(self, size: int, *, timeout: float = 60.0) -> None:
        super().__init__(size, timeout=timeout)
        self.control = None


def slotless() -> str:
    """Register :class:`SlotlessWorld`; returns its backend name."""
    return register_backend(SlotlessWorld, replace=True).backend_name


def no_space(*args, _shared_memory=shm.SharedMemory, **kwargs):
    """``SharedMemory`` on a full ``/dev/shm``: attaching works, creating fails."""
    if kwargs.get("create"):
        raise OSError(errno.ENOSPC, "No space left on device")
    return _shared_memory(*args, **kwargs)

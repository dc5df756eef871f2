"""Test helper: a multi-rank run that stays on the page protocol.

Where ranks share memory the refresh protocol *publishes* the halo once
the compiled plans are negotiated, and from then on moves no page.  The
suites that pin the page protocol itself — aggregated ≡ per-page,
overlapped ≡ blocking, shm ≡ pipe, with page counts and the Buffer-only
pages left behind — therefore run an app that is observably open: one
scalar read of a remote element per step is remote data the pushed rows
do not cover, so every rank agrees to take that step through the page
exchange (``open: scalar halo read`` in ``PlatformRun.summary()``).  The
element is one the plans prefetch anyway, so the read adds no traffic
and never fails.
"""

from __future__ import annotations

import numpy as np


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

"""Test helpers: a multi-rank run that stays on the page protocol, and
the process world's pipe plane.

Where ranks share memory the refresh protocol *publishes* the halo once
the compiled plans are negotiated, and from then on moves no page.  The
suites that pin the page protocol itself — page exchange ≡ scalar
serial, shm ≡ pipe, with page counts and the Buffer-only pages left
behind — therefore run an app that is observably open: one
scalar read of a remote element per step is remote data the pushed rows
do not cover, so every rank agrees to take that step through the page
exchange (``open: scalar halo read`` in ``PlatformRun.summary()``).  The
element is one the plans prefetch anyway, so the read adds no traffic
and never fails.

A process world picks its data plane from what it observes
(:meth:`~repro.runtime.backends.process.ProcessWorld.uses_shm`);
:func:`pipe_plane` reaches the packed-pipe plane the way a host without
named shared memory does.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from repro.runtime.backends import process


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


@contextlib.contextmanager
def pipe_plane():
    """Process worlds launched inside see no named shared memory: packed
    replies, no control words, the page protocol at every step."""
    with mock.patch.object(process, "shm_available", lambda: False):
        yield


@contextlib.contextmanager
def plane(name: str):
    """Run on the ``"shm"`` plane (what the rule picks here) or the ``"pipe"`` one."""
    if name == "pipe":
        with pipe_plane():
            yield
    else:
        yield

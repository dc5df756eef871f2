"""The ``threads`` backend: one OS thread per rank (the original runtime).

This is the behaviour-preserving wrapper around
:class:`~repro.runtime.simmpi.MPIWorld` /
:class:`~repro.runtime.network.SimNetwork`: blocking collectives work
because every rank has its own thread, page transport reads snapshots
straight out of the owner's Env, and every message is counted for the
cost model.  The GIL prevents real speed-up — use the ``process``
backend for measured scaling.
"""

from __future__ import annotations

from ..simmpi import MPIWorld
from .base import ExecutionBackend

__all__ = ["ThreadsBackend"]


class ThreadsBackend(ExecutionBackend):
    """Backend producing the threaded :class:`MPIWorld` (simulated network)."""

    name = "threads"

    def create_world(self, size: int, *, timeout: float = 60.0) -> MPIWorld:
        return MPIWorld(size, timeout=timeout)

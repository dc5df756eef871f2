"""Execution-backend registry.

A backend is its world class: the registry maps a name to an
:class:`ExecutionWorld` subclass (keyed by its ``backend_name``),
resolved lazily, so importing the registry never drags in heavyweight
runtime machinery (and custom worlds can be registered without touching
platform code)::

    from repro.runtime.backends import create_world, register_backend

    world = create_world("process", 4)

    class AsyncioWorld(ExecutionWorld):
        backend_name = "asyncio"
        def __init__(self, size, *, timeout=60.0): ...
    register_backend(AsyncioWorld)

A world of one rank is the serial world: :func:`create_world` returns a
:class:`~repro.runtime.backends.serial.SerialWorld` whenever ``size ==
1``, whatever the name, so every other world has at least two ranks.

The three built-in backends:

==========  ==========================================================
``serial``  world of one rank, runs inline (no threading machinery)
``threads`` one OS thread per rank — the original simulated runtime
            (GIL-bound; scaling numbers come from the cost model)
``process`` one forked ``multiprocessing`` process per rank with a
            pipe-mesh transport — real measured parallelism
==========  ==========================================================
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Type

from .base import (
    BackendError,
    BulkFetchResult,
    CommHandle,
    CompletedCommHandle,
    ExecutionWorld,
    RankResult,
    SpmdFailure,
    raise_spmd_failures,
)

__all__ = [
    "BackendError",
    "BulkFetchResult",
    "CommHandle",
    "CompletedCommHandle",
    "DEFAULT_BACKEND",
    "DEFAULT_TIMEOUT",
    "ExecutionWorld",
    "RankResult",
    "SpmdFailure",
    "available_backends",
    "create_world",
    "get_backend",
    "raise_spmd_failures",
    "register_backend",
]

#: Backend used when the Platform names none — the behaviour-preserving
#: threaded simulation.
DEFAULT_BACKEND = "threads"

#: Default bound (seconds) on every wait of a run: ``Platform``'s
#: ``comm_timeout`` default, and what a layer aspect used without a
#: Platform waits.
DEFAULT_TIMEOUT = 60.0

#: Built-in backends, resolved lazily: name -> (module, world class).
_BUILTIN = {
    "serial": ("repro.runtime.backends.serial", "SerialWorld"),
    "threads": ("repro.runtime.simmpi", "MPIWorld"),
    "process": ("repro.runtime.backends.process", "ProcessWorld"),
}

_REGISTRY: Dict[str, Type[ExecutionWorld]] = {}


def register_backend(world_cls: Type[ExecutionWorld], *, replace: bool = False):
    """Register a world class under its ``backend_name``; returns it.

    The class is built as ``world_cls(size, timeout=...)`` for every
    world of two or more ranks.  Re-registering a name raises unless
    ``replace=True`` (shadowing a built-in is allowed that way, e.g. to
    instrument it in tests).
    """
    name = getattr(world_cls, "backend_name", None)
    if not name or not isinstance(name, str) or name == ExecutionWorld.backend_name:
        raise BackendError(f"world class {world_cls!r} has no usable 'backend_name'")
    if not replace and (name in _REGISTRY or name in _BUILTIN):
        raise BackendError(f"backend {name!r} is already registered")
    _REGISTRY[name] = world_cls
    return world_cls


def get_backend(name: str) -> Type[ExecutionWorld]:
    """Resolve a backend's world class by name (importing built-ins on first use)."""
    world_cls = _REGISTRY.get(name)
    if world_cls is not None:
        return world_cls
    builtin = _BUILTIN.get(name)
    if builtin is None:
        raise BackendError(
            f"unknown execution backend {name!r} "
            f"(available: {', '.join(available_backends())})"
        )
    module_name, attr = builtin
    world_cls = _REGISTRY[name] = getattr(importlib.import_module(module_name), attr)
    return world_cls


def create_world(name: str, size: int, *, timeout: float = DEFAULT_TIMEOUT) -> ExecutionWorld:
    """A world of ``size`` ranks of backend ``name``: the serial world when
    ``size == 1``, whatever the name."""
    world_cls = get_backend(name)
    if size == 1:
        from .serial import SerialWorld

        return SerialWorld(timeout=timeout)
    return world_cls(size, timeout=timeout)


def available_backends() -> List[str]:
    """Sorted names of every registered (or registerable built-in) backend."""
    return sorted(set(_BUILTIN) | set(_REGISTRY))

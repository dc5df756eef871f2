"""Execution-backend registry.

Backends are registered by name and resolved lazily, so importing the
registry never drags in heavyweight runtime machinery (and custom
backends can be registered without touching platform code)::

    from repro.runtime.backends import get_backend, register_backend

    world = get_backend("process").create_world(4)

    class MyBackend(ExecutionBackend):
        name = "asyncio"
        def create_world(self, size, *, timeout=60.0): ...
    register_backend(MyBackend())

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
from typing import Dict, List

from .base import (
    BackendError,
    BulkFetchResult,
    CommHandle,
    CompletedCommHandle,
    ExecutionBackend,
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
    "ExecutionBackend",
    "ExecutionWorld",
    "RankResult",
    "SpmdFailure",
    "available_backends",
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

#: Built-in backends, resolved lazily: name -> (module, factory attribute).
_BUILTIN = {
    "serial": ("repro.runtime.backends.serial", "SerialBackend"),
    "threads": ("repro.runtime.backends.threads", "ThreadsBackend"),
    "process": ("repro.runtime.backends.process", "ProcessBackend"),
}

_REGISTRY: Dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend, *, replace: bool = False) -> ExecutionBackend:
    """Register a backend instance under its ``name``.

    Re-registering a name raises unless ``replace=True`` (shadowing a
    built-in is allowed that way, e.g. to instrument it in tests).
    """
    name = getattr(backend, "name", None)
    if not name or not isinstance(name, str):
        raise BackendError(f"backend {backend!r} has no usable 'name'")
    if not replace and (name in _REGISTRY or name in _BUILTIN):
        raise BackendError(f"backend {name!r} is already registered")
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> ExecutionBackend:
    """Resolve a backend by name (loading built-ins on first use)."""
    backend = _REGISTRY.get(name)
    if backend is not None:
        return backend
    builtin = _BUILTIN.get(name)
    if builtin is None:
        raise BackendError(
            f"unknown execution backend {name!r} "
            f"(available: {', '.join(available_backends())})"
        )
    module_name, attr = builtin
    backend_cls = getattr(importlib.import_module(module_name), attr)
    backend = backend_cls()
    _REGISTRY[name] = backend
    return backend


def available_backends() -> List[str]:
    """Sorted names of every registered (or registerable built-in) backend."""
    return sorted(set(_BUILTIN) | set(_REGISTRY))

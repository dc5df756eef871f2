"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.memory import Env, MemoryPool, PoolGroup
from repro.runtime.tracing import global_trace

#: The same examples on every run (CI: ``--hypothesis-profile=derandomized``).
settings.register_profile("derandomized", derandomize=True)


@pytest.fixture(autouse=True)
def _reset_trace():
    """Isolate the process-wide trace recorder between tests."""
    global_trace().reset()
    yield
    global_trace().reset()


@pytest.fixture
def pool() -> MemoryPool:
    return MemoryPool(4 * 1024 * 1024, name="test-pool")


@pytest.fixture
def env(pool) -> Env:
    return Env(allocator=PoolGroup([pool]), name="test-env")


@pytest.fixture
def mmat_env(pool) -> Env:
    return Env(allocator=PoolGroup([pool]), name="test-env-mmat", mmat_enabled=True)


def small_grid_config(**overrides) -> dict:
    """A tiny structured-grid configuration usable by many tests."""
    config = dict(
        region=16,
        block_size=8,
        page_elements=16,
        loops=2,
        init=lambda x, y: 0.1 * x + 0.2 * y,
    )
    config.update(overrides)
    return config

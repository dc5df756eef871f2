"""Property tests: the shm page transport is an invisible substitution.

The zero-copy data plane promises bit-identical results and identical
*logical* traffic accounting: for every DSL app, a process-backend run
whose halo pages travel as shared-memory descriptors must end exactly
like a ``threads`` run, where pages never leave one address space.  The
physical route is visible only in the ``shm_*`` counters.

The data plane carries *pages*, so the apps run *kept open*
(``tests/page_protocol.py``): a world that shares memory would
otherwise publish its halo and serve no page after warm-up.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.memory.block import BufferOnlyBlock
from repro.runtime import get_backend
from repro.runtime.shm import shm_available

from page_protocol import MidRunResetJacobi, kept_open

pytestmark = pytest.mark.skipif(
    not get_backend("process").available() or not shm_available(),
    reason="process backend with shared memory unavailable",
)


def _init(x, y):
    return 0.04 * x - 0.03 * y + 1.5


SGRID_CONFIG = dict(region=16, block_size=4, page_elements=8, loops=3, init=_init)
USGRID_CONFIG = dict(region=16, block_cells=32, page_elements=8, loops=3, init=_init)
PARTICLE_CONFIG = dict(particles=256, block_buckets=4, page_elements=4, loops=2)

APPS = [
    ("sgrid", JacobiSGrid, SGRID_CONFIG),
    ("usgrid", JacobiUSGrid, USGRID_CONFIG),
    ("particle", ParticleSimulation, PARTICLE_CONFIG),
]


def run_app(app_cls, config, *, backend, ranks=2):
    platform = Platform.builder().mpi(ranks, backend=backend).mmat().build()
    return platform.run(kept_open(app_cls), config=dict(config))


def env_contents(run) -> dict:
    """Master rank's Env contents: every Data Block's dense read buffer."""
    contents = {}
    env = run.app.env
    for block in env.data_blocks(include_buffer_only=True):
        key = getattr(block, "logical_key", block.name)
        kind = "halo" if isinstance(block, BufferOnlyBlock) else "data"
        contents[(kind, key)] = block.buffer.read_buffer.dense().copy()
    return contents


def assert_same_result(a, b) -> None:
    np.testing.assert_array_equal(
        np.asarray(a.result, dtype=np.float64), np.asarray(b.result, dtype=np.float64)
    )
    contents_a, contents_b = env_contents(a), env_contents(b)
    assert contents_a.keys() == contents_b.keys()
    for key in contents_a:
        np.testing.assert_array_equal(contents_a[key], contents_b[key], err_msg=str(key))


def logical_traffic(run) -> dict:
    return {
        "messages": sum(c.messages for c in run.counters.values()),
        "pages": sum(c.pages_fetched for c in run.counters.values()),
        "bytes": sum(c.bytes_fetched for c in run.counters.values()),
    }


class TestTransportEquivalence:
    @pytest.mark.parametrize("name,app_cls,config", APPS)
    def test_shm_matches_threads(self, name, app_cls, config):
        threads = run_app(app_cls, config, backend="threads")
        shm = run_app(app_cls, config, backend="process")
        assert_same_result(threads, shm)
        # Logically the same exchange — the pages just crossed segments.
        assert logical_traffic(threads) == logical_traffic(shm)
        assert sum(c.shm_fetches for c in threads.counters.values()) == 0
        assert sum(c.shm_fetches for c in shm.counters.values()) > 0

    def test_summary_reports_the_shm_section(self):
        shm = run_app(JacobiSGrid, SGRID_CONFIG, backend="process")
        threads = run_app(JacobiSGrid, SGRID_CONFIG, backend="threads")
        assert " shm=" in shm.summary() and "fallback=" not in shm.summary()
        assert " shm=" not in threads.summary()


class TestMidRunInvalidation:
    def test_mmat_reset_mid_run_stays_equivalent(self):
        config = dict(SGRID_CONFIG, loops=5)
        threads = run_app(MidRunResetJacobi, config, backend="threads")
        shm = run_app(MidRunResetJacobi, config, backend="process")
        assert_same_result(threads, shm)
        assert logical_traffic(threads) == logical_traffic(shm)
        assert sum(c.shm_fetches for c in shm.counters.values()) > 0

"""Property tests: vectorized (access-plan) kernels ≡ scalar kernels.

The platform promise of the access-plan compilation layer is strict
numerical equivalence: for every DSL app, every execution backend and
every plan state (compiled, invalidated mid-run, disabled fallback) the
batched kernels must produce the same fields as the per-element
reference kernels.  Gather-level equivalence is additionally checked
property-style with randomly drawn stencils and address tables.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.memory import ArithmeticBlock, DataBlock, Env, MemoryPool, PoolGroup


def _init(x, y):
    return 0.03 * x - 0.05 * y + 2.0


SGRID_CONFIG = dict(region=16, block_size=4, page_elements=8, loops=3, init=_init)
USGRID_CONFIG = dict(region=16, block_cells=32, page_elements=8, loops=3, init=_init)
PARTICLE_CONFIG = dict(particles=128, block_buckets=4, page_elements=4, loops=2)

APPS = [
    ("sgrid", JacobiSGrid, SGRID_CONFIG),
    ("sgrid-neumann", JacobiSGrid, dict(SGRID_CONFIG, boundary="neumann")),
    ("usgrid-c", JacobiUSGrid, USGRID_CONFIG),
    ("usgrid-r", JacobiUSGrid, dict(USGRID_CONFIG, case="R")),
    ("particle", ParticleSimulation, PARTICLE_CONFIG),
]

BACKENDS = [("serial", 1), ("threads", 2), ("process", 2)]


def run_pair(app_cls, config, *, backend=None, ranks=1, mmat=True):
    """Run the app with scalar and vectorized kernels; return both results."""
    def one(kernel):
        if backend is None:
            platform = Platform(mmat=mmat)
        else:
            platform = Platform.preset("mpi", ranks=ranks, backend=backend, mmat=mmat)
        return platform.run(app_cls, config=dict(config, kernel=kernel))

    return one("scalar"), one("vectorized")


def assert_equivalent(scalar_run, vector_run, *, atol=1e-12):
    a = np.asarray(scalar_run.result, dtype=np.float64)
    b = np.asarray(vector_run.result, dtype=np.float64)
    assert a.shape == b.shape
    np.testing.assert_allclose(
        np.nan_to_num(a, nan=-1.0), np.nan_to_num(b, nan=-1.0), atol=atol
    )


class TestVectorizedEquivalenceAcrossBackends:
    @pytest.mark.parametrize("backend,ranks", BACKENDS)
    @pytest.mark.parametrize("name,app_cls,config", APPS)
    def test_vectorized_matches_scalar(self, name, app_cls, config, backend, ranks):
        scalar_run, vector_run = run_pair(app_cls, config, backend=backend, ranks=ranks)
        assert_equivalent(scalar_run, vector_run, atol=1e-10)
        # The vectorized run must actually have used compiled plans.
        assert sum(c.plan_sites for c in vector_run.counters.values()) > 0

    @pytest.mark.parametrize("name,app_cls,config", APPS)
    def test_fallback_without_mmat_matches_scalar(self, name, app_cls, config):
        scalar_run, vector_run = run_pair(app_cls, config, mmat=False)
        assert_equivalent(scalar_run, vector_run, atol=1e-10)
        # No MMAT → no plans; every batched access fell back to scalar.
        assert sum(c.plan_sites for c in vector_run.counters.values()) == 0
        assert sum(c.plan_fallback_sites for c in vector_run.counters.values()) > 0


class MidRunResetJacobi(JacobiSGrid):
    """Vectorized Jacobi that invalidates all plans halfway through the run.

    After the reset the next batched gather transparently recompiles
    (plans are a pure cache), and — for the second half — MMAT is
    disabled entirely so the remaining sweeps take the scalar fallback.
    """

    def processing(self) -> None:
        self.warm_up(self.kernel)
        half = max(self.loops // 2, 1)
        for _ in range(half):
            self.run(self.kernel)
        self.env.mmat.reset()           # drop every compiled plan mid-run
        self.run(self.kernel)           # forces recompilation
        self.env.mmat.enabled = False   # scalar fallback from here on
        for _ in range(self.loops - half - 1):
            self.run(self.kernel)


class TestMidRunInvalidation:
    @pytest.mark.parametrize("backend,ranks", BACKENDS)
    def test_reset_then_fallback_still_matches_scalar(self, backend, ranks):
        config = dict(SGRID_CONFIG, loops=4)
        platform = Platform.preset("mpi", ranks=ranks, backend=backend, mmat=True)
        scalar_run = platform.run(JacobiSGrid, config=dict(config, kernel="scalar"))
        vector_run = platform.run(
            MidRunResetJacobi, config=dict(config, kernel="vectorized")
        )
        assert_equivalent(scalar_run, vector_run)
        counters = vector_run.counters.values()
        assert sum(c.plan_sites for c in counters) > 0          # plan phase ran
        assert sum(c.plan_fallback_sites for c in counters) > 0  # fallback phase ran
        # Reset → the run compiled the same plans (at least) twice.
        assert vector_run.mmat_stats["resets"] >= 2  # warm-up reset + mid-run


class TestGatherProperties:
    """Hypothesis: random stencils/tables gather exactly what scalar reads."""

    @staticmethod
    def _make_env(fill_seed: int) -> Env:
        pool = PoolGroup([MemoryPool(1 << 22, name="prop-pool")])
        env = Env(allocator=pool, name="prop-env", mmat_enabled=True)
        rng = np.random.default_rng(fill_seed)
        for origin in ((0, 0), (4, 0), (0, 4), (4, 4)):
            block = DataBlock(origin, (4, 4), components=1, page_elements=4,
                              allocator=pool)
            env.add_data_block(block)
            data = rng.uniform(-10, 10, size=(16, 1))
            for buf in block.buffer.buffers:
                buf.load_dense(data)
        env.add_boundary_block(
            ArithmeticBlock((-4, -4), (16, 16),
                            lambda addr: float(addr[0] - addr[1]), name="ring")
        )
        return env

    @settings(max_examples=30, deadline=None)
    @given(
        offsets=st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=1, max_size=6, unique=True,
        ),
        seed=st.integers(0, 2 ** 16),
    )
    def test_offsets_gather_matches_elementwise_reads(self, offsets, seed):
        from repro.dsl.base import BlockKernel

        env = self._make_env(seed)
        block = env.data_blocks()[0]
        kernel = BlockKernel(env, block)
        gathered = kernel.gather(offsets)
        for oi, (dx, dy) in enumerate(offsets):
            for i in range(4):
                for j in range(4):
                    expected = env.read_from(block, (i + dx, j + dy))
                    assert gathered[oi, i, j] == expected

    @settings(max_examples=30, deadline=None)
    @given(
        addrs=st.lists(st.integers(0, 15), min_size=1, max_size=12),
        seed=st.integers(0, 2 ** 16),
    )
    def test_address_gather_matches_elementwise_reads(self, addrs, seed):
        from repro.dsl.base import BlockKernel

        pool = PoolGroup([MemoryPool(1 << 22, name="prop-pool-1d")])
        env = Env(allocator=pool, name="prop-env-1d", mmat_enabled=True)
        rng = np.random.default_rng(seed)
        for origin in ((0,), (8,)):
            block = DataBlock(origin, (8,), components=1, page_elements=4,
                              allocator=pool)
            env.add_data_block(block)
            data = rng.uniform(-10, 10, size=(8, 1))
            for buf in block.buffer.buffers:
                buf.load_dense(data)
        block = env.data_blocks()[0]
        kernel = BlockKernel(env, block)
        gathered = kernel.gather_global(np.asarray(addrs))
        for site, addr in enumerate(addrs):
            assert gathered[site] == env.read_from(block, (addr,))

"""Unit tests for the kernels subsystem and the overlap-sweep bugfixes.

Covers the satellite fixes that ride with the plan-fusion tentpole:

* broadcastable / constant ``fn`` returns no longer crash the
  overlapped fused sweep (or ``scatter``) on any rank count;
* ``element_partition`` refuses address plans with a clear error
  instead of silently producing a meaningless partition;
* key-less ``gather_global`` compiles are counted separately
  (``plan_compiles_uncached``) so coverage numbers stay honest;
* ``AccessPlan.execute`` reuses a scratch array (pooled on the MMAT)
  instead of allocating a fresh output every call;
* fused kernels are cached on the MMAT, invalidated by ``reset()``,
  and surfaced through stats, counters and the run summary;
* ``sweep`` has two routes — the fused kernel (MMAT on, one component)
  and ``scatter(fn(*gather(offsets)))`` (everything else).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid
from repro.apps.jacobi_sgrid import STENCIL
from repro.dsl.base import BlockKernel
from repro.memory import (
    ArithmeticBlock,
    DataBlock,
    Env,
    MemoryPool,
    PoolGroup,
    compile_address_plan,
    compile_offsets_plan,
)
from repro.memory.errors import AddressError


def _init(x, y):
    return 0.03 * x - 0.05 * y + 2.0


CONFIG = dict(region=16, block_size=4, page_elements=8, loops=3, init=_init)


def _plan_env():
    pool = PoolGroup([MemoryPool(4 * 1024 * 1024, name="fused-pool")])
    env = Env(allocator=pool, name="fused-env", mmat_enabled=True)
    block = DataBlock((0, 0), (4, 4), components=1, page_elements=4,
                      allocator=pool)
    env.add_data_block(block)
    values = np.arange(block.element_count, dtype=np.float64)
    for buf in block.buffer.buffers:
        buf.load_dense(values.reshape(-1, 1))
        buf.clear_dirty()
    return env, block


# ----------------------------------------------------------------------
# satellite 1: broadcastable / constant fn returns
# ----------------------------------------------------------------------
class ConstantSweepJacobi(JacobiSGrid):
    """Sweep whose fn returns a scalar — legal, must broadcast everywhere."""

    def kernel_vectorized(self, warmup: bool) -> bool:
        for _block, k in self.block_kernels(warmup):
            k.sweep(lambda e, e_n, e_w, e_e, e_s: np.float64(0.5), STENCIL)
        return self.refresh(warmup)


class TestBroadcastableSweepReturns:
    @pytest.mark.parametrize("ranks", [1, 4])
    @pytest.mark.parametrize("mmat", [True, False])
    def test_constant_fn_sweeps_on_all_ranks(self, ranks, mmat):
        """Regression: the overlapped apply() reshaped scalar returns and
        crashed; it must broadcast, on the fused and the gather route."""
        run = Platform.preset("mpi", ranks=ranks, backend="threads", mmat=mmat).run(
            ConstantSweepJacobi,
            config=dict(CONFIG, kernel="vectorized"),
        )
        field = np.asarray(run.result)
        assert np.array_equal(field[~np.isnan(field)],
                              np.full(np.count_nonzero(~np.isnan(field)), 0.5))

    def test_scatter_broadcasts_constants(self):
        run = Platform(mmat=True).run(
            JacobiSGrid, config=dict(CONFIG, kernel="vectorized")
        )
        k = next(iter(run.app.block_kernels()))[1]
        k.scatter(1.25)  # scalar: must broadcast, not reshape-crash
        k.scatter(np.full(16, 2.5))  # flat block-sized array


# ----------------------------------------------------------------------
# satellite 2: element_partition on address plans
# ----------------------------------------------------------------------
class TestElementPartitionKinds:
    def test_offsets_plan_partitions(self):
        env, block = _plan_env()
        plan = compile_offsets_plan(env, block, ((0, 0),))
        interior, boundary = plan.element_partition()
        assert interior.size + boundary.size == block.element_count
        assert plan.kind == "offsets"

    def test_address_plan_refuses_partition(self):
        env, block = _plan_env()
        addresses = np.arange(block.element_count, dtype=np.int64).reshape(-1, 1)
        addresses = np.concatenate([addresses % 4, addresses // 4], axis=1)
        plan = compile_address_plan(env, block, addresses)
        assert plan.kind == "addresses"
        with pytest.raises(AddressError, match="offsets plans"):
            plan.element_partition()


# ----------------------------------------------------------------------
# satellite 3: key-less gather_global accounting
# ----------------------------------------------------------------------
class UncachedGatherUSGrid(JacobiUSGrid):
    """Indirect gather without a plan key: per-call compiles by design."""

    def kernel_vectorized(self, warmup: bool) -> bool:
        alpha, beta = self.alpha, self.beta
        for _block, k in self.block_kernels(warmup):
            e = k.gather([(0,)])[0]
            neigh = k.gather_global(k.static_field("neighbors"))  # no key=
            ans = alpha * e + beta * (neigh[:, 1] + neigh[:, 0]
                                      + neigh[:, 3] + neigh[:, 2])
            k.scatter(ans)
        return self.refresh(warmup)


class TestUncachedCompileAccounting:
    def test_keyless_compiles_counted_separately(self):
        cfg = dict(region=16, block_cells=32, page_elements=8, loops=3,
                   init=_init, kernel="vectorized")
        keyed = Platform(mmat=True).run(JacobiUSGrid, config=dict(cfg))
        keyless = Platform(mmat=True).run(UncachedGatherUSGrid, config=dict(cfg))
        assert np.allclose(np.asarray(keyed.result), np.asarray(keyless.result))

        k_counters = list(keyed.counters.values())
        u_counters = list(keyless.counters.values())
        # Keyed tables compile once per block and hit the cache after.
        assert sum(c.plan_compiles_uncached for c in k_counters) == 0
        # Key-less tables recompile every call — but as *uncached*
        # compiles, not plan_compiles (the cache-coverage numerator).
        uncached = sum(c.plan_compiles_uncached for c in u_counters)
        assert uncached > sum(c.plan_compiles for c in u_counters)
        assert keyless.mmat_stats["plan_compiles_uncached"] == uncached
        assert "dyn=" in keyless.summary()
        assert "dyn=" not in keyed.summary()


# ----------------------------------------------------------------------
# satellite 4: execute() scratch reuse
# ----------------------------------------------------------------------
class TestExecuteScratchReuse:
    def test_same_output_array_is_reused(self):
        env, block = _plan_env()
        plan = compile_offsets_plan(env, block, ((0, 0),))
        out1 = plan.execute(env)
        first = out1.copy()
        out2 = plan.execute(env)
        assert out1 is out2  # pooled scratch, not a fresh alloc
        assert np.array_equal(first, out2)


# ----------------------------------------------------------------------
# fused-kernel cache and counters; the two sweep routes
# ----------------------------------------------------------------------
class TestFusedCacheAndCounters:
    def test_fused_kernels_cached_and_reset_invalidates(self):
        run = Platform(mmat=True).run(
            JacobiSGrid, config=dict(CONFIG, kernel="vectorized")
        )
        mmat = run.app.env.mmat
        assert run.mmat_stats["fused_kernels"] == 16  # one per block
        counters = list(run.counters.values())
        assert sum(c.kernel_fuse for c in counters) == 16
        # 16 blocks x (1 warm-up pass + 3 loops): warm-up fuses too.
        assert sum(c.kernel_fused_calls for c in counters) == 64
        assert "fused=64calls/16kern" in run.summary()
        mmat.reset()
        assert mmat.stats()["fused_kernels"] == 0

    def test_no_fusion_without_mmat(self):
        run = Platform(mmat=False).run(
            JacobiSGrid, config=dict(CONFIG, kernel="vectorized")
        )
        assert sum(c.kernel_fused_calls for c in run.counters.values()) == 0


def _component_env(components=2, mmat=True):
    """Two 1-D Data Blocks of ``components`` components and a boundary around them."""
    pool = PoolGroup([MemoryPool(1 << 20, name="pair-pool")])
    env = Env(allocator=pool, name="pair-env", mmat_enabled=mmat)
    rng = np.random.default_rng(11)
    blocks = []
    for k in range(2):
        block = DataBlock((8 * k,), (8,), components=components, page_elements=4,
                          allocator=pool)
        env.add_data_block(block)
        data = rng.uniform(-5, 5, size=(8, components))
        for buf in block.buffer.buffers:
            buf.load_dense(data)
            buf.clear_dirty()
        blocks.append(block)
    env.add_boundary_block(ArithmeticBlock(
        (-16,), (48,),
        lambda addr: np.array([0.5 * addr[0], -addr[0], 2.0 + addr[0]][:components]),
        components=components, name="outside",
    ))
    return env, blocks


class TestSweepRoutes:
    def test_two_component_sweep_with_mmat_is_gather_fn_scatter(self):
        """The route no stock app takes: MMAT on, more than one component."""
        offsets = [(0,), (-1,), (1,)]

        def fn(e, e_w, e_e):
            return 0.5 * e - 0.25 * (e_w + e_e)

        stored = []
        for use_sweep in (True, False):
            env, blocks = _component_env()
            for block in blocks:
                k = BlockKernel(env, block)
                if use_sweep:
                    k.sweep(fn, offsets)
                else:
                    k.scatter(fn(*k.gather(offsets)))
            image, lo, _, _ = env.image_slot(blocks[0])
            stored.append(image.next[lo : lo + 16].copy())
            assert env.mmat.stats()["fused_kernels"] == 0
            assert env.mmat.stats()["plan_executions"] == 2
        assert np.array_equal(*stored)
        assert not np.array_equal(stored[0], image.read[lo : lo + 16])

    @pytest.mark.parametrize(
        "components,mmat",
        [(1, True), (1, False), (2, False), (3, True)],
        ids=["1c-mmat", "1c-nommat", "2c-nommat", "3c-mmat"],
    )
    def test_sweep_equals_gather_fn_scatter_on_every_route(self, components, mmat):
        """Only a one-component Block with MMAT on takes the fused route;
        whichever route a sweep takes, it stores what the gather route does."""
        offsets = [(0,), (-1,), (1,)]
        fused = mmat and components == 1

        def fn(e, e_w, e_e):
            return 0.5 * e - 0.25 * (e_w + e_e)

        stored = []
        for use_sweep in (True, False):
            env, blocks = _component_env(components, mmat)
            for block in blocks:
                k = BlockKernel(env, block)
                if use_sweep:
                    k.sweep(fn, offsets)
                else:
                    k.scatter(fn(*k.gather(offsets)))
            image, lo, _, _ = env.image_slot(blocks[0])
            stored.append(image.next[lo : lo + 16].copy())
            expected = len(blocks) if use_sweep and fused else 0
            assert env.mmat.stats()["fused_kernels"] == expected
        assert np.array_equal(*stored)
        assert not np.array_equal(stored[0], image.read[lo : lo + 16])

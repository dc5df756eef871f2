"""Property tests: aggregated comm-plan refresh ≡ per-page refresh.

The communication-plan layer promises bit-identical results: for every
DSL app and every execution backend, a run whose halo moves through
compiled CommPlans (one aggregated message pair per neighbor) must
produce exactly the same Env contents as a run using the original
one-message-pair-per-page protocol — including when MMAT is disabled
(no plans exist, per-page fallback everywhere) and when every plan is
invalidated mid-run (transparent recompilation).

Both protocols are page protocols, so the apps run *kept open*
(``tests/page_protocol.py``): worlds that share memory would otherwise
publish the halo and fetch no page after warm-up.  That the published
halo computes the same results is ``test_property_push_halo.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.aspects import mpi_aspects
from repro.memory.block import BufferOnlyBlock, DataBlock

from page_protocol import kept_open


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

BACKENDS = [("serial", 1), ("threads", 2), ("threads", 4), ("process", 2)]


def run_app(app_cls, config, *, backend, ranks, comm_plans, mmat=True):
    platform = Platform(
        aspects=mpi_aspects(ranks, backend=backend, comm_plans=comm_plans), mmat=mmat
    )
    return platform.run(kept_open(app_cls), config=dict(config))


def env_contents(run) -> dict:
    """Master rank's Env contents: every Data Block's dense read buffer.

    Buffer-only (halo) replicas are included too: both protocols must
    leave the same page data behind after the final prefetch.
    """
    contents = {}
    env = run.app.env
    for block in env.data_blocks(include_buffer_only=True):
        key = getattr(block, "logical_key", block.name)
        kind = "halo" if isinstance(block, BufferOnlyBlock) else "data"
        contents[(kind, key)] = block.buffer.read_buffer.dense().copy()
    return contents


def assert_same_env(plan_run, perpage_run) -> None:
    a = env_contents(plan_run)
    b = env_contents(perpage_run)
    assert a.keys() == b.keys()
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=str(key))


class TestCommPlanEquivalence:
    @pytest.mark.parametrize("backend,ranks", BACKENDS)
    @pytest.mark.parametrize("name,app_cls,config", APPS)
    def test_batched_refresh_matches_per_page(self, name, app_cls, config, backend, ranks):
        perpage = run_app(app_cls, config, backend=backend, ranks=ranks, comm_plans=False)
        planned = run_app(app_cls, config, backend=backend, ranks=ranks, comm_plans=True)
        np.testing.assert_array_equal(
            np.asarray(perpage.result, dtype=np.float64),
            np.asarray(planned.result, dtype=np.float64),
        )
        assert_same_env(planned, perpage)
        # Identical page traffic volume, fewer (or equal) messages.
        perpage_msgs = sum(c.messages for c in perpage.counters.values())
        plan_msgs = sum(c.messages for c in planned.counters.values())
        assert plan_msgs <= perpage_msgs
        assert sum(c.pages_fetched for c in planned.counters.values()) == sum(
            c.pages_fetched for c in perpage.counters.values()
        )
        if ranks > 1:
            # The halo actually moved through aggregated exchanges.
            assert sum(c.comm_plan_pages for c in planned.counters.values()) > 0

    @pytest.mark.parametrize("name,app_cls,config", APPS)
    def test_fallback_without_mmat_is_per_page(self, name, app_cls, config):
        """MMAT off -> no access plans -> the per-page protocol runs as-is."""
        perpage = run_app(app_cls, config, backend="threads", ranks=2,
                          comm_plans=False, mmat=False)
        planned = run_app(app_cls, config, backend="threads", ranks=2,
                          comm_plans=True, mmat=False)
        np.testing.assert_array_equal(
            np.asarray(perpage.result, dtype=np.float64),
            np.asarray(planned.result, dtype=np.float64),
        )
        assert_same_env(planned, perpage)
        counters = planned.counters.values()
        assert sum(c.comm_plan_exchanges for c in counters) == 0
        assert sum(c.comm_plan_compiles for c in counters) == 0


class MidRunResetJacobi(JacobiSGrid):
    """Vectorized Jacobi that drops every compiled plan halfway through.

    The reset invalidates the aspect's CommPlans (their page set is
    derived from the access plans); the next sweep transparently
    recompiles and re-aggregates.  MMAT is then disabled entirely, so
    the remaining steps have no plans at all and the refresh protocol
    must fall back to the per-page path.
    """

    def processing(self) -> None:
        self.warm_up(self.kernel)
        half = max(self.loops // 2, 1)
        for _ in range(half):
            self.run(self.kernel)
        self.env.mmat.reset()           # drop plans -> CommPlan invalidated
        self.run(self.kernel)           # recompiles + re-aggregates
        self.env.mmat.enabled = False   # stop compiling plans …
        self.env.mmat.reset()           # … and drop the cached ones:
        for _ in range(self.loops - half - 1):
            self.run(self.kernel)       # per-page fallback from here on


class TestMidRunInvalidation:
    @pytest.mark.parametrize("backend,ranks", [("threads", 2), ("process", 2)])
    def test_reset_falls_back_then_reaggregates(self, backend, ranks):
        # loops=5 leaves two steps after MMAT is fully disabled: the first
        # still reads the halo the last aggregated prefetch installed, the
        # second finds it invalidated and exercises the per-page repair.
        config = dict(SGRID_CONFIG, loops=5)
        perpage = Platform(
            aspects=mpi_aspects(ranks, backend=backend, comm_plans=False), mmat=True
        ).run(JacobiSGrid, config=dict(config))
        planned = Platform(
            aspects=mpi_aspects(ranks, backend=backend, comm_plans=True), mmat=True
        ).run(MidRunResetJacobi, config=dict(config))
        a = np.asarray(perpage.result, dtype=np.float64)
        b = np.asarray(planned.result, dtype=np.float64)
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        mask = ~np.isnan(a)
        np.testing.assert_array_equal(a[mask], b[mask])
        counters = planned.counters.values()
        # Both regimes ran: aggregated exchanges before/after the reset,
        # per-page fetches right after it (no plans -> no comm plan).
        assert sum(c.comm_plan_exchanges for c in counters) > 0
        assert sum(c.comm_plan_fallback_pages for c in counters) > 0

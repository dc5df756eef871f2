"""Property tests: overlapped halo refresh ≡ per-page.

The overlapped exchange promises bit-identical results: for every DSL
app and every execution backend, a run whose halo moves through
nonblocking per-neighbor exchanges completed mid-sweep must produce
exactly the same Env contents as the original per-page protocol
(``comm_plans=False``) — including when MMAT is disabled (no plans, no
overlap at all), when every plan is invalidated mid-run (transparent
fallback and re-aggregation), and across world sizes 1, 2 and 4.

Both are page protocols, so the apps run *kept open*
(``tests/page_protocol.py``): worlds that share memory would otherwise
publish the halo and fetch no page after warm-up.  The published halo
is ``test_property_push_halo.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.aspects import mpi_aspects
from repro.memory.block import BufferOnlyBlock

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

#: ranks ∈ {1, 2, 4} across the three backends (serial is rank-1 only).
BACKENDS = [("serial", 1), ("threads", 2), ("threads", 4), ("process", 2)]


def run_app(app_cls, config, *, backend, ranks, comm_plans=True, mmat=True):
    platform = Platform(
        aspects=mpi_aspects(ranks, backend=backend, comm_plans=comm_plans), mmat=mmat
    )
    return platform.run(kept_open(app_cls), config=dict(config))


def env_contents(run) -> dict:
    """Master rank's Env contents, halo replicas included: both refresh
    protocols must leave the same page data behind after the final drain."""
    contents = {}
    env = run.app.env
    for block in env.data_blocks(include_buffer_only=True):
        key = getattr(block, "logical_key", block.name)
        kind = "halo" if isinstance(block, BufferOnlyBlock) else "data"
        contents[(kind, key)] = block.buffer.read_buffer.dense().copy()
    return contents


def assert_same_env(a_run, b_run) -> None:
    a = env_contents(a_run)
    b = env_contents(b_run)
    assert a.keys() == b.keys()
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=str(key))


def assert_same_result(a_run, b_run) -> None:
    a = np.asarray(a_run.result, dtype=np.float64)
    b = np.asarray(b_run.result, dtype=np.float64)
    np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
    mask = ~np.isnan(a)
    np.testing.assert_array_equal(a[mask], b[mask])


class TestOverlapEquivalence:
    @pytest.mark.parametrize("backend,ranks", BACKENDS)
    @pytest.mark.parametrize("name,app_cls,config", APPS)
    def test_overlap_matches_per_page(self, name, app_cls, config, backend, ranks):
        overlapped = run_app(app_cls, config, backend=backend, ranks=ranks)
        perpage = run_app(app_cls, config, backend=backend, ranks=ranks, comm_plans=False)
        assert_same_result(overlapped, perpage)
        assert_same_env(overlapped, perpage)
        counters = overlapped.counters.values()
        perpage_counters = perpage.counters.values()
        # The same pages moved, in at most as many messages.
        assert sum(c.pages_fetched for c in counters) == sum(
            c.pages_fetched for c in perpage_counters
        )
        assert sum(c.messages for c in counters) <= sum(
            c.messages for c in perpage_counters
        )
        assert sum(c.overlap_exchanges for c in perpage_counters) == 0
        if ranks > 1:
            # The halo genuinely moved through overlapped exchanges.
            assert sum(c.overlap_exchanges for c in counters) > 0
            assert sum(c.overlap_pages for c in counters) > 0

    @pytest.mark.parametrize("name,app_cls,config", APPS)
    def test_process_backend_four_ranks(self, name, app_cls, config):
        """ranks=4 on real forked processes: the acceptance configuration."""
        overlapped = run_app(app_cls, config, backend="process", ranks=4)
        perpage = run_app(app_cls, config, backend="process", ranks=4, comm_plans=False)
        assert_same_result(overlapped, perpage)
        assert_same_env(overlapped, perpage)
        counters = overlapped.counters.values()
        assert sum(c.overlap_exchanges for c in counters) > 0
        assert sum(c.pages_fetched for c in counters) == sum(
            c.pages_fetched for c in perpage.counters.values()
        )

    @pytest.mark.parametrize("name,app_cls,config", APPS)
    def test_mmat_off_falls_back_to_per_page(self, name, app_cls, config):
        """MMAT off -> no plans -> no overlap; the per-page protocol runs as-is."""
        overlapped = run_app(app_cls, config, backend="threads", ranks=2, mmat=False)
        perpage = run_app(
            app_cls, config, backend="threads", ranks=2, comm_plans=False, mmat=False
        )
        assert_same_result(overlapped, perpage)
        assert_same_env(overlapped, perpage)
        counters = overlapped.counters.values()
        assert sum(c.overlap_issues for c in counters) == 0
        assert sum(c.overlap_exchanges for c in counters) == 0


class MidRunResetJacobi(JacobiSGrid):
    """Vectorized Jacobi that drops every compiled plan halfway through.

    The reset invalidates the access plans (and with them the CommPlans
    and any reason to overlap); the next sweep transparently recompiles,
    re-aggregates and resumes overlapping.  MMAT is then disabled
    entirely, so the remaining steps fall back to the per-page protocol
    with no overlap at all.
    """

    def processing(self) -> None:
        self.warm_up(self.kernel)
        half = max(self.loops // 2, 1)
        for _ in range(half):
            self.run(self.kernel)
        self.env.mmat.reset()           # drop plans -> CommPlan + overlap reset
        self.run(self.kernel)           # recompiles + overlaps again
        self.env.mmat.enabled = False   # stop compiling plans …
        self.env.mmat.reset()           # … and drop the cached ones:
        for _ in range(self.loops - half - 1):
            self.run(self.kernel)       # per-page fallback from here on


class TestMidRunInvalidation:
    @pytest.mark.parametrize("backend,ranks", [("threads", 2), ("process", 2)])
    def test_reset_falls_back_then_overlaps_again(self, backend, ranks):
        config = dict(SGRID_CONFIG, loops=5)
        perpage = Platform(
            aspects=mpi_aspects(ranks, backend=backend, comm_plans=False),
            mmat=True,
        ).run(JacobiSGrid, config=dict(config))
        overlapped = Platform(
            aspects=mpi_aspects(ranks, backend=backend), mmat=True
        ).run(MidRunResetJacobi, config=dict(config))
        assert_same_result(overlapped, perpage)
        counters = overlapped.counters.values()
        # Both regimes ran: overlapped exchanges before/after the reset,
        # per-page fetches right after it (no plans -> nothing to overlap).
        assert sum(c.overlap_exchanges for c in counters) > 0
        assert sum(c.comm_plan_fallback_pages for c in counters) > 0

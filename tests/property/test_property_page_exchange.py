"""Property tests: every page exchange computes what scalar serial does.

Pages move one way: one bulk request/reply pair per owning rank
(``ExecutionWorld.fetch_pages_bulk_async``).  An open step's prefetch —
the Dry-run record united with the halo pages of every compiled plan —
is issued after the step barrier and completed behind the next sweep; a
repair is issued and completed before the barrier of a failed step.
For every DSL app and world the result must equal, bit for bit, the
scalar serial reference: on the shm plane and the pipe plane, at 2 and 4
ranks, with MMAT off (no plans: the Dry-run record is prefetched in
bulk) and through a mid-run ``MMAT.reset()`` followed by MMAT switched
off (a repair, then pages only).

Every step of these runs must exchange pages, so the apps run *kept
open* (``tests/page_protocol.py``): worlds that share memory would
otherwise publish the halo and fetch no page after warm-up.  That the
published halo computes the same results is
``test_property_push_halo.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.aspects import mpi_aspects

from page_protocol import kept_open, plane


def _init(x, y):
    return 0.04 * x - 0.03 * y + 1.5


APPS = {
    "sgrid": (JacobiSGrid, dict(region=16, block_size=4, page_elements=8, loops=3, init=_init)),
    "usgrid": (JacobiUSGrid, dict(region=16, block_cells=32, page_elements=8, loops=3, init=_init)),
    "particle": (ParticleSimulation, dict(particles=256, block_buckets=4, page_elements=4, loops=2)),
}

#: (backend, ranks, data plane): ranks 1, 2 and 4, both planes of a process world.
WORLDS = [
    ("serial", 1, "shm"),
    ("threads", 2, "shm"),
    ("threads", 4, "shm"),
    ("process", 2, "shm"),
    ("process", 4, "shm"),
    ("process", 2, "pipe"),
    ("process", 4, "pipe"),
]

_references: dict = {}


def reference(name: str, loops=None) -> np.ndarray:
    """The serial result: the scalar kernel's for the grids; the particle
    app's scalar kernel sums pair forces in another order than its
    vectorized one, so there the vectorized serial run."""
    app_cls, config = APPS[name]
    config = dict(config, loops=loops or config["loops"])
    if (name, config["loops"]) not in _references:
        scalar = app_cls is not ParticleSimulation
        run = Platform(mmat=not scalar).run(
            app_cls, config=dict(config, kernel="scalar" if scalar else "vectorized")
        )
        _references[name, config["loops"]] = np.asarray(run.result, dtype=np.float64)
    return _references[name, config["loops"]]


def assert_matches_reference(name: str, run, loops=None) -> None:
    result = np.asarray(run.result, dtype=np.float64)
    expected = reference(name, loops)
    if APPS[name][0] is ParticleSimulation:  # rows of (id, position, velocity)
        expected = expected[np.isin(expected[:, 0], result[:, 0])]
    else:
        mine = ~np.isnan(result)  # other ranks' cells are NaN holes
        result, expected = result[mine], expected[mine]
    assert result.size and result.shape == expected.shape
    assert np.array_equal(result, expected)


def run_app(app_cls, config, *, backend, ranks, data_plane="shm", mmat=True):
    platform = Platform(aspects=mpi_aspects(ranks, backend=backend), mmat=mmat)
    with plane(data_plane):
        return platform.run(app_cls, config=dict(config))


def assert_pages_moved_in_bulk(run) -> None:
    """Every page moved through a bulk exchange, one message pair each."""
    counters = run.counters.values()
    exchanges = sum(c.comm_plan_exchanges for c in counters)
    assert exchanges > 0
    assert sum(c.pages_fetched for c in counters) == sum(c.comm_plan_pages for c in counters)
    assert sum(c.messages for c in counters) == 2 * exchanges


@pytest.mark.parametrize("backend,ranks,data_plane", WORLDS)
@pytest.mark.parametrize("name", sorted(APPS))
def test_page_exchange_matches_scalar_serial(name, backend, ranks, data_plane):
    app_cls, config = APPS[name]
    run = run_app(kept_open(app_cls), config, backend=backend, ranks=ranks, data_plane=data_plane)
    assert_matches_reference(name, run)
    if ranks > 1:
        assert_pages_moved_in_bulk(run)
        assert run.network["halo_pushes"] == 0  # every step ran on pages


@pytest.mark.parametrize("backend,data_plane", [("threads", "shm"), ("process", "pipe")])
@pytest.mark.parametrize("name", sorted(APPS))
def test_mmat_off_prefetches_the_dry_run_record_in_bulk(name, backend, data_plane):
    """No plans: warm-up repairs record the halo pages, and every later
    refresh prefetches that Dry-run record in one exchange per owner."""
    app_cls, config = APPS[name]
    run = run_app(
        kept_open(app_cls), config, backend=backend, ranks=2, data_plane=data_plane, mmat=False
    )
    assert_matches_reference(name, run)
    assert_pages_moved_in_bulk(run)
    assert sum(c.plan_compiles for c in run.counters.values()) == 0


class MidRunResetJacobi(JacobiSGrid):
    """Vectorized Jacobi that drops every compiled plan halfway through.

    The reset forces a recompile and a renegotiation; MMAT is then
    disabled entirely, so the next step's scalar reads find the halo
    pages invalid (a repair and a recomputed step) and every later step
    prefetches the Dry-run record the repair left.
    """

    def processing(self) -> None:
        self.warm_up(self.kernel)
        half = max(self.loops // 2, 1)
        for _ in range(half):
            self.run(self.kernel)
        self.env.mmat.reset()           # drop plans: recompiled next sweep
        self.run(self.kernel)
        self.env.mmat.enabled = False   # stop compiling plans …
        self.env.mmat.reset()           # … and drop the cached ones:
        for _ in range(self.loops - half - 1):
            self.run(self.kernel)       # repaired, then pages from here on


@pytest.mark.parametrize(
    "backend,data_plane", [("threads", "shm"), ("process", "shm"), ("process", "pipe")]
)
def test_mid_run_reset_then_mmat_off(backend, data_plane):
    config = dict(APPS["sgrid"][1], loops=5)
    run = run_app(MidRunResetJacobi, config, backend=backend, ranks=2, data_plane=data_plane)
    assert_matches_reference("sgrid", run, loops=5)
    counters = run.counters.values()
    assert sum(c.recomputed_steps for c in counters) > 0  # the repair ran
    assert sum(c.comm_plan_pages for c in counters) == sum(c.pages_fetched for c in counters)

"""Property tests: every page exchange computes what scalar serial does.

Pages move one way: one bulk request/reply pair per owning rank
(``ExecutionWorld.fetch_pages_bulk_async``).  An open step's prefetch —
the Dry-run record united with the halo pages of every compiled plan —
is issued after the step barrier and completed behind the next sweep; a
repair is issued and completed before the barrier of a failed step.
For every DSL app and world the result must equal, bit for bit, the
scalar serial reference: on threads and process worlds, at 2 and 4
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

from page_protocol import MidRunResetJacobi, kept_open


def _init(x, y):
    return 0.04 * x - 0.03 * y + 1.5


APPS = {
    "sgrid": (JacobiSGrid, dict(region=16, block_size=4, page_elements=8, loops=3, init=_init)),
    "usgrid": (JacobiUSGrid, dict(region=16, block_cells=32, page_elements=8, loops=3, init=_init)),
    "particle": (ParticleSimulation, dict(particles=256, block_buckets=4, page_elements=4, loops=2)),
}

#: (backend, ranks): ranks 1, 2 and 4.
WORLDS = [("serial", 1), ("threads", 2), ("threads", 4), ("process", 2), ("process", 4)]

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


def run_app(app_cls, config, *, backend, ranks, mmat=True):
    platform = Platform.preset("mpi", ranks=ranks, backend=backend, mmat=mmat)
    return platform.run(app_cls, config=dict(config))


def assert_pages_moved_in_bulk(run) -> None:
    """Every page moved through a bulk exchange, one message pair each."""
    counters = run.counters.values()
    exchanges = sum(c.comm_plan_exchanges for c in counters)
    assert exchanges > 0
    assert sum(c.pages_fetched for c in counters) == sum(c.comm_plan_pages for c in counters)
    assert sum(c.messages for c in counters) == 2 * exchanges


@pytest.mark.parametrize("backend,ranks", WORLDS)
@pytest.mark.parametrize("name", sorted(APPS))
def test_page_exchange_matches_scalar_serial(name, backend, ranks):
    app_cls, config = APPS[name]
    run = run_app(kept_open(app_cls), config, backend=backend, ranks=ranks)
    assert_matches_reference(name, run)
    if ranks > 1:
        assert_pages_moved_in_bulk(run)
        assert run.network["halo_pushes"] == 0  # every step ran on pages


@pytest.mark.parametrize("backend", ["threads", "process"])
@pytest.mark.parametrize("name", sorted(APPS))
def test_mmat_off_prefetches_the_dry_run_record_in_bulk(name, backend):
    """No plans: warm-up repairs record the halo pages, and every later
    refresh prefetches that Dry-run record in one exchange per owner."""
    app_cls, config = APPS[name]
    run = run_app(
        kept_open(app_cls), config, backend=backend, ranks=2, mmat=False
    )
    assert_matches_reference(name, run)
    assert_pages_moved_in_bulk(run)
    assert sum(c.plan_compiles for c in run.counters.values()) == 0


@pytest.mark.parametrize("backend", ["threads", "process"])
def test_mid_run_reset_then_mmat_off(backend):
    config = dict(APPS["sgrid"][1], loops=5)
    run = run_app(MidRunResetJacobi, config, backend=backend, ranks=2)
    assert_matches_reference("sgrid", run, loops=5)
    counters = run.counters.values()
    assert sum(c.recomputed_steps for c in counters) > 0  # the repair ran
    assert sum(c.comm_plan_pages for c in counters) == sum(c.pages_fetched for c in counters)

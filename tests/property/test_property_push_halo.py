"""Property tests: a published halo computes what a requested one did.

Where ranks share memory the refresh protocol *closes* once the compiled
plans are negotiated: the per-step agreement is an AND over shared
words, every owner publishes the element rows its consumers' halo
tables read into a stamped slot, and no page, request, reply or barrier
moves.  Anything the pushed rows do not provably cover — recompiled
plans, a scalar read of remote data, a key-less ``gather_global``, MMAT
switched off — takes *every* rank through the page protocol for exactly
the steps that need it.

Every case runs with ``REPRO_CHECK`` on (stamps and agreement words
monotone, slot contents checksummed against the owner's image, no slot
rewritten before its consumer acknowledged, pushed rows ⊇ plan rows,
``Env.check_dense_image``), must end bit-identical to the scalar serial
reference, and pins from rank 0's own counters which steps ran open:
a closed step is one collective (the agreement), no barrier, no page.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.memory import BufferOnlyBlock
from repro.resilience import FaultPlan, ResiliencePolicy
from repro.runtime import get_backend
from repro.runtime.shm import set_protocol_checks
from repro.runtime.tracing import global_trace

from page_protocol import read_remote_scalar

LOOPS = 6


def _init(x, y):
    return 0.03 * x - 0.05 * y + 2.0


APPS = {
    "sgrid": (JacobiSGrid, dict(region=16, block_size=4, page_elements=8, init=_init)),
    "usgrid-c": (JacobiUSGrid, dict(region=16, block_cells=32, page_elements=8, init=_init)),
    "usgrid-r": (
        JacobiUSGrid,
        dict(region=16, block_cells=32, page_elements=8, init=_init, case="R"),
    ),
    "particle": (ParticleSimulation, dict(particles=128, block_buckets=2, page_elements=2)),
}
BACKENDS = [
    "threads",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not get_backend("process").available(), reason="process backend unavailable"
        ),
    ),
]


@pytest.fixture(autouse=True)
def protocol_checks_on():
    previous = set_protocol_checks(True)
    yield
    set_protocol_checks(previous)


_references: dict = {}


def reference(name: str, loops: int = LOOPS) -> np.ndarray:
    """The serial result: the scalar kernel's for the grids; the particle
    app's scalar kernel sums pair forces in another order than its
    vectorized one, so there the vectorized serial run."""
    if (name, loops) not in _references:
        app_cls, config = APPS[name]
        scalar = app_cls is not ParticleSimulation
        run = Platform(mmat=not scalar).run(
            app_cls, config=dict(config, loops=loops, kernel="scalar" if scalar else "vectorized")
        )
        _references[name, loops] = np.asarray(run.result, dtype=np.float64)
    return _references[name, loops]


def assert_matches_reference(name: str, run, loops: int = LOOPS) -> None:
    result, expected = np.asarray(run.result, dtype=np.float64), reference(name, loops)
    if APPS[name][0] is ParticleSimulation:  # rows of (id, position, velocity)
        expected = expected[np.isin(expected[:, 0], result[:, 0])]
    else:
        mine = ~np.isnan(result)  # other ranks' cells are NaN holes
        result, expected = result[mine], expected[mine]
    assert result.size and result.shape == expected.shape
    assert np.array_equal(result, expected)


def scripted(app_cls, script=None):
    """``app_cls`` running ``script[step](app)`` before step ``step`` on
    every rank, and logging what each step cost rank 0's master thread
    as ``(collectives, pages fetched, recomputations)``."""
    script = script or {}

    class Scripted(app_cls):
        read_remote_scalar = False

        def processing(self) -> None:
            self.warm_up(self.kernel)
            trace = global_trace().for_task()
            if self.task.omp_thread == 0:
                self.log = []
            for step in range(self.loops):
                if step in script:
                    script[step](self)
                before = (trace.collectives, trace.pages_fetched, trace.recomputed_steps)
                self.run(self.kernel)
                self.read_remote_scalar = False
                after = (trace.collectives, trace.pages_fetched, trace.recomputed_steps)
                if self.task.omp_thread == 0:
                    self.log.append(tuple(b - a for a, b in zip(before, after)))

        def kernel(self, warmup: bool) -> bool:
            if self.read_remote_scalar:
                read_remote_scalar(self.env)
            return super().kernel(warmup)

    Scripted.__name__ = f"Scripted{app_cls.__name__}"
    return Scripted


def run_scripted(name, backend, ranks, script=None, *, omp=1, loops=LOOPS):
    app_cls, config = APPS[name]
    builder = Platform.builder().mpi(ranks, backend=backend).mmat()
    if omp > 1:
        builder.omp(omp)
    return builder.comm_timeout(30.0).run(
        scripted(app_cls, script), config=dict(config, loops=loops)
    )


def open_steps(run) -> list:
    """Steps that were not closed on rank 0: a closed step is the
    agreement alone — no barrier, no recomputation — and installs no page
    (an open refresh waits for the pages it prefetches)."""
    log = run.app.log
    agreement = 2 if run.layers.get("omp", 1) > 1 else 1  # + the shared-memory layer's barrier
    closed = [collectives == agreement and not redone for collectives, _, redone in log]
    for step, (_, pages, _) in enumerate(log):
        assert not (pages and closed[step]), (step, log)
    return [step for step, was_closed in enumerate(closed) if not was_closed]


def assert_pushes_add_up(run, closed_refreshes: int) -> None:
    """One push per directed link and closed refresh, each consumed once."""
    counters = run.counters
    published = run.network["halo_pushes"]
    assert published == sum(c.halo_pushes for c in counters.values())
    assert run.network["halo_sites"] == sum(c.halo_sites for c in counters.values())
    for counter in counters.values():
        assert counter.halo_pushes % closed_refreshes == 0
    # Rank 0's inbound links: the owners of the Buffer-only rows its plans read.
    env = run.app.env
    owners = set()
    for image, rows in env.plan_halo_rows():
        blocks, which, _ = env.halo_row_blocks(image, rows)
        owners |= {blocks[b].owner_tid for b in np.unique(which).tolist()}
    master = min(key for key in counters if key[0] == 0)
    assert counters[master].halo_pushes == closed_refreshes * len(owners)


# ----------------------------------------------------------------------
# the lattice: every app closes from its first step and stays closed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ranks", [2, 3, 4])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(APPS))
def test_closed_from_the_first_step(name, backend, ranks):
    run = run_scripted(name, backend, ranks)
    assert_matches_reference(name, run)
    assert open_steps(run) == []
    assert_pushes_add_up(run, LOOPS)
    assert run.network["open_steps"] == {}
    assert " push=" in run.summary() and " open: " not in run.summary()


@pytest.mark.parametrize("omp", [1, 2, 3])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(APPS))
def test_hybrid_runs_publish_and_wait_too(name, backend, omp):
    run = run_scripted(name, backend, 2, omp=omp)
    assert_matches_reference(name, run)
    # A hybrid team resets the MMAT once per warm-up (a ``single``), so no
    # member drops the plans another compiled and step 0 is closed too.
    assert open_steps(run) == []
    assert_pushes_add_up(run, LOOPS)
    # Every closed step waits for its owners' stamps and times the wait.
    waited = sum(c.halo_wait_ns for c in run.counters.values())
    assert waited > 0


# ----------------------------------------------------------------------
# what re-opens a run, for how long
# ----------------------------------------------------------------------
def reset_mmat(app) -> None:
    app.env.mmat.reset()


def disable_mmat(app) -> None:
    app.env.mmat.enabled = False


def scalar_read_on_rank_one(app) -> None:
    app.read_remote_scalar = app.task.mpi_rank == 1


def grow_the_env(app) -> None:
    env = app.env
    like = env.get_blocks(False)[0]
    late = BufferOnlyBlock(
        tuple(10**6 for _ in like.shape),
        like.shape,
        components=like.components,
        page_elements=like.page_elements,
        allocator=env.allocator,
        name="late-arrival",
    )
    late.load_dense(np.full((late.element_count, late.components), 9.0))
    env.add_data_block(late)
    assert np.all(env.dense_read(late) == 9.0)


@pytest.mark.parametrize("ranks", [2, 3])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(APPS))
def test_mmat_reset_opens_one_step(name, backend, ranks):
    run = run_scripted(name, backend, ranks, {2: reset_mmat})
    assert_matches_reference(name, run)
    # The recompiled tables read rows that are still pushed, so step 2
    # itself needs no page; its refresh carries the changed plan
    # generation, runs the page exchange and renegotiates.
    assert open_steps(run) == [2]
    assert run.app.log[2][2] == 0
    assert_pushes_add_up(run, LOOPS - 1)
    assert run.network["open_steps"] == {"plan generation changed": ranks}
    assert " open: plan generation changed" in run.summary()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["sgrid", "usgrid-r"])
def test_mmat_disabled_falls_to_pages_for_good(name, backend):
    run = run_scripted(name, backend, 2, {3: disable_mmat})
    assert_matches_reference(name, run)
    # Step 3's scalar reads find the pushed halo's pages invalid: a repair,
    # one recomputation, and the page protocol from then on — every step
    # installs pages (the repair's, then the Dry-run record's prefetch).
    assert open_steps(run) == [3, 4, 5]
    assert [cost[2] for cost in run.app.log] == [0, 0, 0, 1, 0, 0]
    assert all(pages for _, pages, _ in run.app.log[3:])
    assert_pushes_add_up(run, 3)
    assert run.network["open_steps"] == {"MMAT disabled": 3 * 2}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(APPS))
def test_scalar_halo_read_on_one_rank_opens_that_step(name, backend):
    run = run_scripted(name, backend, 2, {2: scalar_read_on_rank_one})
    assert_matches_reference(name, run)
    # Rank 1 alone read an unpushed page; every rank repaired, recomputed
    # and took that step's refresh through the page exchange.
    assert open_steps(run) == [2]
    assert run.app.log[2][2] == 1
    assert_pushes_add_up(run, LOOPS - 1)
    assert run.network["open_steps"] == {"scalar halo read": 1}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["sgrid", "particle"])
def test_block_added_after_compile_keeps_the_pushed_rows(name, backend):
    run = run_scripted(name, backend, 2, {3: grow_the_env})
    assert_matches_reference(name, run)
    # No plan reads the late Block: nothing to renegotiate, and growing
    # the halo array must not lose the rows pushed for step 3.
    assert open_steps(run) == []
    assert_pushes_add_up(run, LOOPS)


class KeylessGatherSGrid(JacobiSGrid):
    """Jacobi whose rank 0, in one step, also reads two cells through a
    ``gather_global`` without a ``key`` — a plan compiled per call, which
    no negotiation can have covered.  The two ranks split the region
    along x or y at 8: one of the cells is rank 0's own, the other lies
    one cell behind the line it reads, in a page its plans prefetch but
    a row nobody pushes."""

    far_cells = None
    keyless_step = 3

    def kernel_vectorized(self, warmup: bool) -> bool:
        if not warmup and self.env.step == self.keyless_step and self.task.mpi_rank == 0:
            block, k = next(iter(self.block_kernels(warmup)))
            self.far_cells = k.gather_global(np.array([[0, 9], [9, 0]])).copy()
        return super().kernel_vectorized(warmup)


@pytest.mark.parametrize("backend", BACKENDS)
def test_keyless_gather_global_opens_its_step(backend):
    APPS["sgrid-keyless"] = (KeylessGatherSGrid, APPS["sgrid"][1])
    _references["sgrid-keyless", LOOPS] = reference("sgrid")
    run = run_scripted("sgrid-keyless", backend, 2)
    assert_matches_reference("sgrid-keyless", run)
    # Its rows were not pushed and its pages are invalid: repair,
    # recompute (every rank), one open refresh, closed again.
    assert open_steps(run) == [3]
    assert run.app.log[3][2] == 1
    assert run.network["open_steps"] == {"key-less gather_global": 1}
    serial = Platform(mmat=True).run(KeylessGatherSGrid, config=dict(APPS["sgrid"][1], loops=LOOPS))
    assert np.array_equal(run.app.far_cells, serial.app.far_cells)


class FarReaderSGrid(JacobiSGrid):
    """Jacobi on four quadrant ranks where rank 0 also reads, through a
    keyed (cached, hence negotiated) ``gather_global``, cells of the
    diagonal quadrant — whose owner reads nothing of rank 0."""

    def kernel_vectorized(self, warmup: bool) -> bool:
        if self.task.mpi_rank == 0:
            block, k = next(iter(self.block_kernels(warmup)))
            far = k.gather_global(np.array([[15, 15], [12, 14], [9, 13]]), key="far")
            if not warmup:
                self.far_log = getattr(self, "far_log", []) + [far.copy()]
        return super().kernel_vectorized(warmup)


@pytest.mark.parametrize("backend", BACKENDS)
def test_asymmetric_neighbour_graph(backend):
    config = dict(APPS["sgrid"][1], loops=LOOPS)
    run = Platform.builder().mpi(4, backend=backend).mmat().comm_timeout(30.0).run(
        scripted(FarReaderSGrid), config=config
    )
    assert_matches_reference("sgrid", run)
    assert open_steps(run) == []
    # Rank 3 pushes to rank 0 every step; rank 0 only ever sent rank 3
    # the warm-up's page request.
    links = run.network["per_neighbor"]
    assert links["3->0"]["messages"] >= LOOPS > links["0->3"]["messages"]
    serial = Platform(mmat=True).run(FarReaderSGrid, config=config)
    assert np.array_equal(np.array(run.app.far_log), np.array(serial.app.far_log))


# ----------------------------------------------------------------------
# a rank dies while the run is closed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("phase", ["refresh", "epoch"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_kill_in_the_closed_phase_recovers_once(backend, phase):
    app_cls, config = APPS["sgrid"]
    plan = FaultPlan().kill(1, phase=phase, epoch=3)
    run = (
        Platform.builder()
        .mpi(3, backend=backend)
        .mmat()
        .resilience(ResiliencePolicy(fault_plan=plan))
        .comm_timeout(20.0)
        .run(app_cls, config=dict(config, loops=LOOPS))
    )
    assert run.restarts == 1 and run.recovery_events[0].dead_ranks == (1,)
    # Detected by the poll inside the shared-word wait, not by the timeout.
    assert run.recovery_events[0].elapsed < 10.0
    assert_matches_reference("sgrid", run)
    # The restarted world reopened (restored pages, new plans) and closed again.
    assert run.network["halo_pushes"] > 0

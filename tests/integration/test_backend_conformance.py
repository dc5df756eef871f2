"""Backend-conformance suite: every registered backend honours one contract.

Parametrised over the registered execution backends, each section
exercises one capability of the :class:`ExecutionWorld` interface —
SPMD launch, allreduce/barrier semantics, the page fetch protocol and
error propagation from a failing rank — and the final section is the
platform-level property: on all three DSL applications, every backend
produces numerically identical results to the ``serial`` reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.runtime import NetworkError, create_world

#: (backend name, world sizes it supports in this suite).
BACKEND_SIZES = [
    ("serial", (1,)),
    ("threads", (1, 2, 3)),
    ("process", (1, 2, 3)),
]

CASES = [
    pytest.param(name, size, id=f"{name}-{size}")
    for name, sizes in BACKEND_SIZES
    for size in sizes
]

TIMEOUT = 15.0


def make_world(backend: str, size: int):
    return create_world(backend, size, timeout=TIMEOUT)


def refuses_self(backend: str, size: int) -> bool:
    """Whether a rank of this world may not ask itself for pages: a
    process rank of a world of two or more reads its own in place."""
    return backend == "process" and size > 1


def asked_owners(backend: str, size: int, rank: int) -> list:
    """Every owner ``rank`` may ask for pages in one batch."""
    return [o for o in range(size) if o != rank or not refuses_self(backend, size)]


# ----------------------------------------------------------------------
# SPMD launch
# ----------------------------------------------------------------------


class TestSpmdLaunch:
    @pytest.mark.parametrize("backend,size", CASES)
    def test_every_rank_runs_with_its_context(self, backend, size):
        world = make_world(backend, size)
        results = world.run_spmd(lambda ctx: (ctx.mpi_rank, ctx.mpi_size, ctx.omp_thread))
        assert [r.rank for r in results] == list(range(size))
        assert [r.value for r in results] == [(r, size, 0) for r in range(size)]

    @pytest.mark.parametrize("backend,size", CASES)
    def test_omp_threads_reach_the_task_context(self, backend, size):
        world = make_world(backend, size)
        results = world.run_spmd(lambda ctx: ctx.omp_threads, omp_threads=4)
        assert [r.value for r in results] == [4] * size


# ----------------------------------------------------------------------
# collectives
# ----------------------------------------------------------------------


class TestCollectives:
    @pytest.mark.parametrize("backend,size", CASES)
    def test_allreduce_sum_of_ranks(self, backend, size):
        world = make_world(backend, size)
        results = world.run_spmd(lambda ctx: world.allreduce_sum(float(ctx.mpi_rank)))
        expected = float(sum(range(size)))
        assert [r.value for r in results] == [expected] * size

    @pytest.mark.parametrize("backend,size", CASES)
    def test_allreduce_and_is_false_if_any_rank_fails(self, backend, size):
        world = make_world(backend, size)
        results = world.run_spmd(
            lambda ctx: world.allreduce_and(ctx.mpi_rank != size - 1)
        )
        # the last rank contributes False, so everyone must see False
        assert [r.value for r in results] == [False] * size
        results = world.run_spmd(lambda ctx: world.allreduce_and(True))
        assert [r.value for r in results] == [True] * size

    @pytest.mark.parametrize("backend,size", [p for p in CASES if "1" not in p.id])
    def test_large_collective_payload_does_not_deadlock(self, backend, size):
        # Regression: a contribution far larger than the OS pipe buffer
        # must not deadlock the process backend's fan-out (every rank
        # used to block in Connection.send with nobody receiving).
        world = make_world(backend, size)

        def body(ctx):
            big = list(range(60_000))  # ~0.5 MiB pickled per peer message
            return world.allreduce(big, lambda values: sum(len(v) for v in values))

        results = world.run_spmd(body)
        assert [r.value for r in results] == [60_000 * size] * size

    @pytest.mark.parametrize("backend,size", CASES)
    def test_barrier_separates_phases(self, backend, size):
        world = make_world(backend, size)

        def body(ctx):
            before = world.allreduce_sum(1.0)
            world.barrier()
            after = world.allreduce_sum(2.0)
            return (before, after)

        results = world.run_spmd(body)
        assert [r.value for r in results] == [(float(size), 2.0 * size)] * size
        assert world.traffic_summary()["barriers"] >= 1


# ----------------------------------------------------------------------
# page fetch
# ----------------------------------------------------------------------


class PageEndpoint:
    """Minimal Env stand-in serving deterministic page snapshots."""

    def __init__(self, rank: int) -> None:
        self.rank = rank

    def page_snapshot(self, key):
        base = 1000.0 * self.rank + 10.0 * key.block_id + key.page_index
        return np.arange(4, dtype=np.float64) + base


class TestPageFetch:
    @pytest.mark.parametrize("backend,size", CASES)
    def test_fetch_from_owning_rank(self, backend, size):
        world = make_world(backend, size)

        def body(ctx):
            rank = ctx.mpi_rank
            world.register_env(rank, PageEndpoint(rank))
            world.register_block(("blk", rank), rank, 7 + rank, owner=True)
            world.commit_registration()
            owner = (rank + 1) % size
            fetched = world.fetch_pages_bulk_async(rank, [(("blk", owner), 3)]).wait()
            world.barrier()  # keep every rank serving until all fetched
            ((key, page, data),) = fetched.pages
            return key, page, fetched.exchanges, list(data)

        results = world.run_spmd(body)
        for rank, result in enumerate(results):
            owner = (rank + 1) % size
            expected = np.arange(4) + 1000.0 * owner + 10.0 * (7 + owner) + 3
            assert result.value[:3] == (("blk", owner), 3, 1)
            np.testing.assert_allclose(result.value[3], expected)
        summary = world.traffic_summary()
        assert summary["bulk_pages"] == summary["bulk_fetches"] == size

    @pytest.mark.parametrize("backend,size", CASES)
    def test_directory_is_globally_consistent_after_commit(self, backend, size):
        world = make_world(backend, size)

        def body(ctx):
            rank = ctx.mpi_rank
            world.register_env(rank, PageEndpoint(rank))
            world.register_block(("blk", rank), rank, 100 + rank, owner=True)
            world.commit_registration()
            return sorted(
                (key, world.directory.owner_of(key)) for key in world.directory.known_blocks()
            )

        results = world.run_spmd(body)
        expected = sorted((("blk", r), r) for r in range(size))
        for result in results:
            assert result.value == expected


# ----------------------------------------------------------------------
# batched transport: issue to every owner, then wait
# ----------------------------------------------------------------------


class TestAsyncBulkFetch:
    """Every backend honours the batched transport op's contract.

    ``fetch_pages_bulk_async`` must return a :class:`CommHandle` whose
    (idempotent) ``wait()`` yields the requested pages in request order
    per owner, one aggregated exchange per owning rank, accounted once —
    regardless of when the handle is waited relative to the transfers.
    """

    @staticmethod
    def _register(world, ctx):
        rank = ctx.mpi_rank
        world.register_env(rank, PageEndpoint(rank))
        world.register_block(("blk", rank), rank, 7 + rank, owner=True)
        world.commit_registration()
        return rank

    @pytest.mark.parametrize("backend,size", CASES)
    def test_empty_request_set(self, backend, size):
        world = make_world(backend, size)

        def body(ctx):
            rank = self._register(world, ctx)
            handle = world.fetch_pages_bulk_async(rank, [])
            result = handle.wait()
            world.barrier()
            return (len(result.pages), result.exchanges, result.nbytes)

        results = world.run_spmd(body)
        assert [r.value for r in results] == [(0, 0, 0)] * size
        assert world.traffic_summary()["bulk_fetches"] == 0

    @pytest.mark.parametrize("backend,size", CASES)
    def test_self_rank_request(self, backend, size):
        """Worlds whose ranks share an address space serve a rank's own
        pages; a process rank reads them in place and may not ask itself."""
        world = make_world(backend, size)
        refused = refuses_self(backend, size)

        def body(ctx):
            rank = self._register(world, ctx)
            requests = [(("blk", rank), 0), (("blk", rank), 2)]
            try:
                if refused:
                    with pytest.raises(NetworkError, match="asks only its peers"):
                        world.fetch_pages_bulk_async(rank, requests)
                    return None
                result = world.fetch_pages_bulk_async(rank, requests).wait()
                return (result.exchanges, [list(data) for _, _, data in result.pages])
            finally:
                world.barrier()

        results = world.run_spmd(body)
        for rank, result in enumerate(results):
            if refused:
                assert result.value is None
                continue
            exchanges, pages = result.value
            assert exchanges == 1  # one owner (the rank itself) -> one exchange
            base = 1000.0 * rank + 10.0 * (7 + rank)
            np.testing.assert_allclose(pages[0], np.arange(4) + base + 0)
            np.testing.assert_allclose(pages[1], np.arange(4) + base + 2)

    @pytest.mark.parametrize("backend,size", CASES)
    def test_mixed_owner_batch(self, backend, size):
        """One batch over every owner; a process rank (which may not ask
        itself, see above) leaves its own pages out."""
        world = make_world(backend, size)
        owners = size - 1 if refuses_self(backend, size) else size

        def body(ctx):
            rank = self._register(world, ctx)
            requests = [(("blk", owner), 1) for owner in asked_owners(backend, size, rank)]
            result = world.fetch_pages_bulk_async(rank, requests).wait()
            world.barrier()  # keep every rank serving until all fetched
            return (
                result.exchanges,
                result.nbytes,
                [(key, page, list(data)) for key, page, data in result.pages],
            )

        results = world.run_spmd(body)
        for rank, result in enumerate(results):
            exchanges, nbytes, pages = result.value
            assert exchanges == owners  # one aggregated exchange per owner
            assert nbytes == owners * 4 * 8
            assert [(key, page) for key, page, _ in pages] == [
                (("blk", o), 1) for o in asked_owners(backend, size, rank)
            ]
            for (_, owner), _, values in pages:
                expected = np.arange(4) + 1000.0 * owner + 10.0 * (7 + owner) + 1
                np.testing.assert_allclose(values, expected)
        stats = world.traffic_summary()
        assert stats["bulk_fetches"] == size * owners  # one exchange per owner per rank
        assert stats["bulk_pages"] == size * owners

    @pytest.mark.parametrize("backend,size", CASES)
    def test_wait_before_send_completes(self, backend, size):
        """Waiting immediately after issue (no compute in between) is legal."""
        world = make_world(backend, size)

        def body(ctx):
            rank = self._register(world, ctx)
            owner = (rank + 1) % size
            handle = world.fetch_pages_bulk_async(rank, [(("blk", owner), 3)])
            result = handle.wait()  # the reply may not even have left yet
            world.barrier()
            return [list(data) for _, _, data in result.pages]

        results = world.run_spmd(body)
        for rank, result in enumerate(results):
            owner = (rank + 1) % size
            expected = np.arange(4) + 1000.0 * owner + 10.0 * (7 + owner) + 3
            np.testing.assert_allclose(result.value[0], expected)

    @pytest.mark.parametrize("backend,size", CASES)
    def test_only_another_process_replies_later(self, backend, size):
        """A reply from another process travels while the rank computes;
        every other world serves the batch when it is issued."""
        world = make_world(backend, size)

        def body(ctx):
            rank = self._register(world, ctx)
            handle = world.fetch_pages_bulk_async(rank, [(("blk", (rank + 1) % size), 0)])
            served_at_issue = handle.done
            handle.wait()
            world.barrier()
            return served_at_issue

        results = world.run_spmd(body)
        remote = backend == "process" and size > 1
        assert [r.value for r in results] == [not remote] * size

    @pytest.mark.parametrize("backend,size", CASES)
    def test_double_wait_is_idempotent(self, backend, size):
        """A second wait() returns the same result and recounts nothing."""
        world = make_world(backend, size)

        def body(ctx):
            rank = self._register(world, ctx)
            requests = [(("blk", owner), 2) for owner in asked_owners(backend, size, rank)]
            handle = world.fetch_pages_bulk_async(rank, requests)
            first = handle.wait()
            second = handle.wait()
            world.barrier()
            return (first is second, handle.done)

        results = world.run_spmd(body)
        assert [r.value for r in results] == [(True, True)] * size
        stats = world.traffic_summary()
        # Counted once per rank's batch despite the double wait.
        owners = size - 1 if refuses_self(backend, size) else size
        assert stats["bulk_pages"] == size * owners

    @pytest.mark.parametrize("backend,size", CASES)
    def test_unresolvable_owner_raises_at_issue(self, backend, size):
        world = make_world(backend, size)

        def body(ctx):
            rank = self._register(world, ctx)
            try:
                with pytest.raises(NetworkError, match="no owner registered"):
                    world.fetch_pages_bulk_async(rank, [(("ghost", 99), 0)])
            finally:
                world.barrier()
            return "ok"

        results = world.run_spmd(body)
        assert [r.value for r in results] == ["ok"] * size


# ----------------------------------------------------------------------
# error propagation
# ----------------------------------------------------------------------


class TestErrorPropagation:
    @pytest.mark.parametrize("backend,size", CASES)
    def test_failing_rank_fails_the_world(self, backend, size):
        world = make_world(backend, size)

        def body(ctx):
            if ctx.mpi_rank == size - 1:
                raise ValueError(f"boom on rank {ctx.mpi_rank}")
            return "ok"

        with pytest.raises(RuntimeError, match=r"rank\(s\) failed") as excinfo:
            world.run_spmd(body)
        cause = excinfo.value.__cause__
        assert isinstance(cause, ValueError)
        assert f"boom on rank {size - 1}" in str(cause)

    @pytest.mark.parametrize("backend,size", CASES)
    def test_world_survives_a_failed_run(self, backend, size):
        world = make_world(backend, size)

        def failing(ctx):
            raise RuntimeError("every rank fails")

        with pytest.raises(RuntimeError):
            world.run_spmd(failing)
        results = world.run_spmd(lambda ctx: ctx.mpi_rank)
        assert [r.value for r in results] == list(range(size))


# ----------------------------------------------------------------------
# platform-level property: identical numerics on the three DSL apps
# ----------------------------------------------------------------------


def _init(x, y):
    return 0.05 * x - 0.02 * y + 1.0


SGRID_CONFIG = dict(region=16, block_size=4, page_elements=8, loops=3, init=_init)
USGRID_CONFIG = dict(region=16, block_cells=32, page_elements=8, loops=3, init=_init)
PARTICLE_CONFIG = dict(particles=128, block_buckets=4, page_elements=4, loops=2)

APPS = {
    "sgrid": (JacobiSGrid, SGRID_CONFIG),
    "usgrid": (JacobiUSGrid, USGRID_CONFIG),
    "particle": (ParticleSimulation, PARTICLE_CONFIG),
}


@pytest.fixture(scope="module")
def serial_references():
    refs = {}
    for name, (app_cls, config) in APPS.items():
        run = Platform.preset("serial").run(app_cls, config=dict(config))
        refs[name] = np.asarray(run.result)
    return refs


class TestNumericalEquivalence:
    @pytest.mark.parametrize("app_name", list(APPS))
    @pytest.mark.parametrize("backend", ["serial", "threads", "process"])
    def test_backend_matches_serial_reference(self, serial_references, backend, app_name):
        app_cls, config = APPS[app_name]
        ranks = 1 if backend == "serial" else 2
        run = Platform.preset("mpi", ranks=ranks, backend=backend, mmat=True).run(
            app_cls, config=dict(config)
        )
        assert run.backend == backend
        result = np.asarray(run.result)
        reference = serial_references[app_name]
        if app_name == "particle":
            # Particle runs report locally-owned particles; match by id.
            ref_by_id = {row[0]: row for row in reference}
            assert len(result) > 0
            for row in result:
                np.testing.assert_allclose(row, ref_by_id[row[0]], atol=1e-10)
        else:
            # Grid results may be NaN-padded to the rank-local domain.
            mask = ~np.isnan(result)
            assert mask.any()
            np.testing.assert_allclose(result[mask], reference[mask], atol=1e-10)

    @pytest.mark.parametrize("app_name", ["sgrid", "usgrid"])
    def test_process_and_threads_agree_exactly(self, app_name):
        app_cls, config = APPS[app_name]
        runs = {
            backend: Platform.preset("mpi", ranks=2, backend=backend, mmat=True).run(
                app_cls, config=dict(config)
            )
            for backend in ("threads", "process")
        }
        a = np.asarray(runs["threads"].result)
        b = np.asarray(runs["process"].result)
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        mask = ~np.isnan(a)
        np.testing.assert_allclose(a[mask], b[mask], atol=0.0)

    def test_hybrid_process_matches_serial(self, serial_references):
        run = Platform.preset("hybrid", ranks=2, threads=2, backend="process").run(
            JacobiSGrid, config=dict(SGRID_CONFIG)
        )
        result = np.asarray(run.result)
        mask = ~np.isnan(result)
        assert mask.any()
        np.testing.assert_allclose(
            result[mask], serial_references["sgrid"][mask], atol=1e-10
        )

    @pytest.mark.parametrize("backend", ["serial", "threads", "process"])
    def test_traffic_counters_are_uniform_across_backends(self, backend):
        ranks = 1 if backend == "serial" else 2
        run = Platform.preset("mpi", ranks=ranks, backend=backend).run(
            JacobiSGrid, config=dict(SGRID_CONFIG)
        )
        assert set(run.network) == {
            "messages", "bytes_moved", "barriers", "allreduces",
            "bulk_fetches", "bulk_pages", "per_neighbor", "peer_dead",
            "shm_fetches", "shm_bytes", "shm_fallbacks",
            "halo_pushes", "halo_sites", "open_steps",
        }
        assert run.network["peer_dead"] == 0  # healthy run: no dead peers
        if ranks > 1:
            assert run.network["bulk_pages"] > 0
            assert run.network["bytes_moved"] > 0
        # Per-task trace counters agree with the transport counters.
        assert sum(c.pages_fetched for c in run.counters.values()) == (
            run.network["bulk_pages"]
        )

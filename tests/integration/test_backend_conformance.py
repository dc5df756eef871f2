"""Backend-conformance suite: every registered backend honours one contract.

Parametrised over the registered execution backends, each section
exercises one capability of the :class:`ExecutionWorld` interface —
SPMD launch, allreduce/barrier semantics, the page fetch protocol and
error propagation from a failing rank — and the final section is the
platform-level property: on all three DSL applications, every backend
produces numerically identical results to the ``serial`` reference.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.runtime import NetworkError, create_world

from page_protocol import kept_open

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


def owners_asked(size: int, rank: int) -> list:
    """The owners ``rank`` asks for pages: every peer — in a world of one,
    the rank itself, whose request every world refuses."""
    return [o for o in range(size) if o != rank] or [rank]


def issue(world, rank: int, requests):
    """``rank``'s bulk fetch handle, or ``None`` where the requests name the
    rank's own Block (a world of one): every world refuses that at issue."""
    if world.size > 1:
        return world.fetch_pages_bulk_async(rank, requests)
    with pytest.raises(NetworkError, match="asks only its peers"):
        world.fetch_pages_bulk_async(rank, requests)
    return None


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
        results = world.run_spmd(lambda ctx: world.allreduce(float(ctx.mpi_rank), sum))
        expected = float(sum(range(size)))
        assert [r.value for r in results] == [expected] * size

    @pytest.mark.parametrize("backend,size", CASES)
    def test_allreduce_bits_is_clear_if_any_rank_clears_it(self, backend, size):
        world = make_world(backend, size)
        results = world.run_spmd(
            lambda ctx: world.allreduce_bits(1 if ctx.mpi_rank == size - 1 else 3)
        )
        # the last rank clears bit 2, so everyone must see it clear
        assert [r.value for r in results] == [1] * size
        results = world.run_spmd(lambda ctx: world.allreduce_bits(3))
        assert [r.value for r in results] == [3] * size

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
            before = world.allreduce(1.0, sum)
            world.barrier()
            after = world.allreduce(2.0, sum)
            return (before, after)

        results = world.run_spmd(body)
        assert [r.value for r in results] == [(float(size), 2.0 * size)] * size
        assert world.traffic_summary()["barriers"] >= 1

    @pytest.mark.parametrize("backend,size", CASES)
    def test_allreduce_gives_values_in_rank_order(self, backend, size):
        """Whatever order the ranks contribute in (here the last one first)."""
        world = make_world(backend, size)

        def body(ctx):
            time.sleep(0.05 * (size - 1 - ctx.mpi_rank))
            return world.allreduce(ctx.mpi_rank, list)

        results = world.run_spmd(body)
        assert [r.value for r in results] == [list(range(size))] * size


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
            handle = issue(world, rank, [(("blk", (rank + 1) % size), 3)])
            fetched = handle and handle.wait()
            world.barrier()  # keep every rank serving until all fetched
            if fetched is None:
                return None
            ((key, page, data),) = fetched.pages
            return key, page, fetched.exchanges, list(data)

        results = world.run_spmd(body)
        summary = world.traffic_summary()
        if size == 1:
            assert results[0].value is None and summary["bulk_fetches"] == 0
            return
        for rank, result in enumerate(results):
            owner = (rank + 1) % size
            expected = np.arange(4) + 1000.0 * owner + 10.0 * (7 + owner) + 3
            assert result.value[:3] == (("blk", owner), 3, 1)
            np.testing.assert_allclose(result.value[3], expected)
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
        """A rank reads its own pages in place: every world refuses a rank
        asking itself, at issue, and accounts nothing."""
        world = make_world(backend, size)

        def body(ctx):
            rank = self._register(world, ctx)
            try:
                with pytest.raises(NetworkError, match=f"rank {rank} asked rank {rank} for"):
                    world.fetch_pages_bulk_async(rank, [(("blk", rank), 0), (("blk", rank), 2)])
            finally:
                world.barrier()
            return "refused"

        results = world.run_spmd(body)
        assert [r.value for r in results] == ["refused"] * size
        assert world.traffic_summary()["bulk_fetches"] == 0

    @pytest.mark.parametrize("backend,size", CASES)
    def test_mixed_owner_batch(self, backend, size):
        """One batch over every peer: one exchange per owner, pages in
        request order.  A world of one has no peer and refuses the batch."""
        world = make_world(backend, size)
        owners = size - 1

        def body(ctx):
            rank = self._register(world, ctx)
            handle = issue(world, rank, [(("blk", o), 1) for o in owners_asked(size, rank)])
            result = handle and handle.wait()
            world.barrier()  # keep every rank serving until all fetched
            if result is None:
                return None
            return (
                result.exchanges,
                result.nbytes,
                [(key, page, list(data)) for key, page, data in result.pages],
            )

        results = world.run_spmd(body)
        for rank, result in enumerate(results):
            if size == 1:
                assert result.value is None
                continue
            exchanges, nbytes, pages = result.value
            assert exchanges == owners  # one aggregated exchange per owner
            assert nbytes == owners * 4 * 8
            assert [(key, page) for key, page, _ in pages] == [
                (("blk", o), 1) for o in owners_asked(size, rank)
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
            handle = issue(world, rank, [(("blk", (rank + 1) % size), 3)])
            result = handle and handle.wait()  # the reply may not even have left yet
            world.barrier()
            return result and [list(data) for _, _, data in result.pages]

        results = world.run_spmd(body)
        for rank, result in enumerate(results):
            if size == 1:
                assert result.value is None
                continue
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
            handle = issue(world, rank, [(("blk", (rank + 1) % size), 0)])
            if handle is None:
                world.barrier()
                return None
            served_at_issue = handle.done
            handle.wait()
            world.barrier()
            return served_at_issue

        results = world.run_spmd(body)
        expected = None if size == 1 else backend != "process"
        assert [r.value for r in results] == [expected] * size

    @pytest.mark.parametrize("backend,size", CASES)
    def test_double_wait_is_idempotent(self, backend, size):
        """A second wait() returns the same result and recounts nothing.
        A world of one has no peer and refuses the batch."""
        world = make_world(backend, size)

        def body(ctx):
            rank = self._register(world, ctx)
            handle = issue(world, rank, [(("blk", o), 2) for o in owners_asked(size, rank)])
            if handle is None:
                world.barrier()
                return None
            first = handle.wait()
            second = handle.wait()
            world.barrier()
            return (first is second, handle.done)

        results = world.run_spmd(body)
        expected = None if size == 1 else (True, True)
        assert [r.value for r in results] == [expected] * size
        # Counted once per rank's batch despite the double wait.
        assert world.traffic_summary()["bulk_pages"] == size * (size - 1)

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
PARTICLE_CONFIG = dict(particles=256, block_buckets=4, page_elements=4, loops=2)

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
            # Every rank's particles, matched by id.
            ref_by_id = {row[0]: row for row in reference}
            assert sorted(ref_by_id) == sorted(result[:, 0])
            for row in result:
                np.testing.assert_allclose(row, ref_by_id[row[0]], atol=1e-10)
        else:
            # The whole field, every rank's sites assembled.
            np.testing.assert_allclose(result, reference, atol=1e-10)

    @pytest.mark.parametrize("kept", [False, True], ids=["published", "kept-open"])
    @pytest.mark.parametrize("app_name", list(APPS))
    def test_process_and_threads_agree_exactly(self, app_name, kept):
        """Also kept on the page protocol, where pages cross shared segments
        on a process world: rank 0's Blocks, Buffer-only pages included,
        end alike too."""
        app_cls, config = APPS[app_name]
        runs = {
            backend: Platform.preset("mpi", ranks=2, backend=backend, mmat=True).run(
                kept_open(app_cls) if kept else app_cls, config=dict(config)
            )
            for backend in ("threads", "process")
        }
        np.testing.assert_array_equal(runs["threads"].result, runs["process"].result)
        # Logically the same exchanges: the pages just crossed segments.
        logical = {
            backend: [run.network[name] for name in (
                "bulk_fetches", "bulk_pages", "halo_pushes", "halo_sites", "per_neighbor")]
            + [sum(c.pages_fetched for c in run.counters.values())]
            for backend, run in runs.items()
        }
        assert logical["threads"] == logical["process"]
        if kept:
            assert runs["process"].network["bulk_pages"] > 0
            contents = {
                backend: {b.logical_key: b.buffer.read_buffer.dense()
                          for b in run.app.env.data_blocks(include_buffer_only=True)}
                for backend, run in runs.items()
            }
            assert contents["threads"].keys() == contents["process"].keys()
            for key, dense in contents["threads"].items():
                np.testing.assert_array_equal(dense, contents["process"][key], err_msg=str(key))

    def test_hybrid_process_matches_serial(self, serial_references):
        run = Platform.preset("hybrid", ranks=2, threads=2, backend="process").run(
            JacobiSGrid, config=dict(SGRID_CONFIG)
        )
        np.testing.assert_allclose(run.result, serial_references["sgrid"], atol=1e-10)

    @pytest.mark.parametrize("backend", ["serial", "threads", "process"])
    def test_traffic_counters_are_uniform_across_backends(self, backend):
        ranks = 1 if backend == "serial" else 2
        run = Platform.preset("mpi", ranks=ranks, backend=backend).run(
            JacobiSGrid, config=dict(SGRID_CONFIG)
        )
        # The keys benchmarks/e2e/workloads.py reads are among them.
        assert set(run.network) == {
            "messages", "bytes_moved", "barriers", "allreduces",
            "bulk_fetches", "bulk_pages", "per_neighbor", "shm_fallbacks",
            "halo_pushes", "halo_sites", "open_steps",
        }
        if ranks > 1:
            assert run.network["bulk_pages"] > 0
            assert run.network["bytes_moved"] > 0
        # Per-task trace counters agree with the transport counters.
        assert sum(c.pages_fetched for c in run.counters.values()) == (
            run.network["bulk_pages"]
        )

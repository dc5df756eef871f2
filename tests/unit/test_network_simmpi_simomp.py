"""Unit tests for the simulated interconnect, MPI world and thread team."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.memory import DataBlock, Env, PageKey
from repro.runtime import (
    BlockDirectory,
    MPIWorld,
    SimNetwork,
    TaskContext,
    ThreadTeam,
    create_world,
    current_task,
    task_scope,
)
from repro.runtime.backends.serial import SerialWorld
from repro.runtime.errors import CollectiveError, DeadRankError, NetworkError, TaskError
from repro.runtime.network import _payload_nbytes


class TestSimNetwork:
    def test_numpy_payload_counts_bytes(self):
        payload = np.zeros(100, dtype=np.float64)
        assert _payload_nbytes(payload) == payload.nbytes
        assert _payload_nbytes(("page", payload)) >= payload.nbytes

    def test_bad_rank_rejected(self):
        net = SimNetwork(2)
        with pytest.raises(NetworkError):
            net.register_endpoint(5, object())
        with pytest.raises(NetworkError):
            net.mark_dead(-1)

    @pytest.mark.parametrize("size", [0, 1])
    def test_size_must_be_at_least_two(self, size):
        with pytest.raises(NetworkError, match="at least two ranks"):
            SimNetwork(size)

    @pytest.mark.parametrize(
        "payload,nbytes",
        [(b"abcd", 4), (bytearray(3), 3), (memoryview(b"xy"), 2), (7, 8), (2.5, 8), (None, 8),
         ([1, 2.0], 16 + 8 + 8), ({"k": None}, 16 + 64 + 8), (object(), 64)],
    )
    def test_payload_size_by_kind(self, payload, nbytes):
        assert _payload_nbytes(payload) == nbytes

    def test_endpoint_registry_and_release(self):
        net = SimNetwork(2)
        env = object()
        net.register_endpoint(1, env)
        assert net.endpoint(1) is env
        with pytest.raises(NetworkError, match="rank 0 has no registered endpoint"):
            net.endpoint(0)
        net.release_endpoints()
        with pytest.raises(NetworkError):
            net.endpoint(1)


class TestSimNetworkDeadRanks:
    def test_mark_dead_records_the_reason(self):
        net = SimNetwork(3)
        assert net.dead_ranks() == {}
        net.mark_dead(2, "exit 9")
        net.mark_dead(1)
        assert net.dead_ranks() == {1: "marked dead", 2: "exit 9"}

    def test_collectives_fail_fast_naming_the_lowest_dead_rank(self):
        net = SimNetwork(3, timeout=30.0)
        net.mark_dead(2)
        net.mark_dead(1)
        with pytest.raises(DeadRankError) as barrier_err:
            net.barrier()
        assert barrier_err.value.rank == 1
        with pytest.raises(DeadRankError):
            net.allreduce(1.0, sum)

    def test_mark_dead_wakes_a_blocked_barrier_waiter(self):
        net = SimNetwork(2, timeout=30.0)
        caught = []

        def waiter():
            try:
                net.barrier()
            except DeadRankError as exc:
                caught.append(exc.rank)

        thread = threading.Thread(target=waiter)
        thread.start()
        net.mark_dead(1, "killed")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert caught == [1]

    def test_a_dead_owner_serves_no_pages(self):
        net = SimNetwork(2)
        net.register_endpoint(1, object())
        net.mark_dead(1)
        with pytest.raises(DeadRankError, match="rank 1 is dead"):
            net.fetch_pages(0, 1, [(1, 0)])
        assert net.stats.bulk_pages == 0 and net.stats.messages == 0


class TestSimNetworkCollectives:
    def test_single_rank_collectives_are_trivial(self):
        world = SerialWorld()
        world.barrier()
        assert world.allreduce_and(True) is True
        assert world.allreduce_sum(2.5) == 2.5

    def test_allreduce_and_across_threads(self):
        net = SimNetwork(3)
        results = [None] * 3

        def worker(rank, flag):
            results[rank] = net.allreduce(flag, all)

        threads = [
            threading.Thread(target=worker, args=(r, r != 1)) for r in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [False, False, False]

    def test_allreduce_sum_across_threads(self):
        net = SimNetwork(4)
        results = [None] * 4

        def worker(rank):
            results[rank] = net.allreduce(float(rank), sum)

        threads = [threading.Thread(target=worker, args=(r,)) for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [6.0] * 4

    def test_barrier_counts(self):
        net = SimNetwork(2)

        def worker():
            net.barrier()
            net.barrier()

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert net.stats.barriers == 4  # every rank counts its own call


class TestPageFetch:
    def make_env_with_block(self, value: float):
        env = Env(pool_bytes=1 << 18)
        block = DataBlock((0, 0), (4, 4), components=1, page_elements=4,
                          allocator=env.allocator)
        env.add_data_block(block)
        block.write((0, 0), value)
        env.refresh()
        return env, block

    def test_fetch_page_reads_remote_env(self):
        net = SimNetwork(2)
        env, block = self.make_env_with_block(3.0)
        net.register_endpoint(1, env)
        first, second = net.fetch_pages(0, 1, [(block.block_id, 0), (block.block_id, 1)])
        assert first[0, 0] == 3.0 and second.shape == first.shape
        assert net.stats.bulk_pages == 2
        assert net.stats.messages == 2  # one request/reply pair for the batch

    def test_fetch_without_endpoint_raises(self):
        net = SimNetwork(2)
        with pytest.raises(NetworkError):
            net.fetch_pages(0, 1, [(1, 0)])


class TestBlockDirectory:
    def test_register_and_lookup(self):
        directory = BlockDirectory()
        directory.register(("blk", 0), rank=0, block_id=11, owner=True)
        directory.register(("blk", 0), rank=1, block_id=22, owner=False)
        assert directory.owner_of(("blk", 0)) == 0
        assert directory.block_id_on(("blk", 0), 1) == 22
        assert ("blk", 0) in directory.known_blocks()

    def test_conflicting_owner_rejected(self):
        directory = BlockDirectory()
        directory.register("k", rank=0, block_id=1, owner=True)
        with pytest.raises(NetworkError):
            directory.register("k", rank=1, block_id=2, owner=True)

    def test_unknown_lookups(self):
        directory = BlockDirectory()
        with pytest.raises(NetworkError):
            directory.owner_of("missing")
        with pytest.raises(NetworkError):
            directory.block_id_on("missing", 0)


class TestMPIWorld:
    @pytest.mark.parametrize("size", [0, 1])
    def test_size_validation(self, size):
        with pytest.raises(TaskError, match="at least two ranks"):
            MPIWorld(size)

    def test_a_threads_world_of_one_is_the_serial_world_inline(self):
        world = create_world("threads", 1)
        assert isinstance(world, SerialWorld)
        results = world.run_spmd(lambda ctx: (ctx.mpi_rank, threading.current_thread()))
        assert [r.value for r in results] == [(0, threading.current_thread())]

    def test_run_spmd_sets_task_context(self):
        world = MPIWorld(3)
        results = world.run_spmd(lambda ctx: (current_task().mpi_rank, ctx.mpi_size))
        assert sorted(r.value for r in results) == [(0, 3), (1, 3), (2, 3)]

    def test_run_spmd_propagates_errors(self):
        world = MPIWorld(2)

        def body(ctx):
            if ctx.mpi_rank == 1:
                raise ValueError("rank 1 exploded")
            # rank 0 must not hang on a barrier that rank 1 never reaches,
            # so this body does not use collectives.
            return "ok"

        with pytest.raises(RuntimeError):
            world.run_spmd(body)

    def test_register_env_and_fetch_by_logical(self):
        world = MPIWorld(2)
        env = Env(pool_bytes=1 << 18)
        block = DataBlock((0, 0), (4, 4), components=1, page_elements=4,
                          allocator=env.allocator)
        block.logical_key = ("b", 0)
        env.add_data_block(block)
        block.write((0, 0), 4.5)
        env.refresh()
        world.register_env(1, env)
        world.directory.register(("b", 0), rank=1, block_id=block.block_id, owner=True)
        handle = world.fetch_pages_bulk_async(0, [(("b", 0), 0)])
        assert handle.done  # rank threads share the GIL: served at issue
        ((key, page, data),) = handle.wait().pages
        assert (key, page) == (("b", 0), 0) and data[0, 0] == 4.5

    def test_env_of_unknown_rank(self):
        with pytest.raises(NetworkError):
            MPIWorld(2).env_of(0)

    def test_finalize_and_traffic_summary(self):
        world = MPIWorld(2)
        world.finalize()
        assert world.finalized
        assert "messages" in world.traffic_summary()


class TestThreadTeam:
    def test_size_validation(self):
        with pytest.raises(TaskError):
            ThreadTeam(0)

    def test_parallel_runs_every_member(self):
        team = ThreadTeam(4)
        with task_scope(TaskContext(omp_thread=0, omp_threads=4)):
            results = team.parallel(lambda ctx: current_task().omp_thread)
        assert sorted(results) == [0, 1, 2, 3]

    def test_single_runs_once_and_shares_result(self):
        team = ThreadTeam(3)
        calls = []

        def body(ctx):
            return team.single(lambda: calls.append(ctx.omp_thread) or "shared")

        with task_scope(TaskContext(omp_thread=0, omp_threads=3)):
            results = team.parallel(body)
        assert results == ["shared"] * 3
        assert len(calls) == 1

    def test_single_propagates_exceptions_to_all(self):
        team = ThreadTeam(2)

        def body(ctx):
            try:
                team.single(lambda: (_ for _ in ()).throw(ValueError("boom")))
            except ValueError:
                return "caught"
            return "missed"

        with task_scope(TaskContext(omp_thread=0, omp_threads=2)):
            results = team.parallel(body)
        assert results == ["caught", "caught"]

    def test_barrier_counts(self):
        team = ThreadTeam(1)
        team.barrier()
        team.barrier()
        assert team.barrier_count == 2

    def test_member_failure_raises(self):
        team = ThreadTeam(2)

        def body(ctx):
            if ctx.omp_thread == 1:
                raise RuntimeError("member down")
            return "fine"

        with task_scope(TaskContext(omp_thread=0, omp_threads=2)):
            with pytest.raises(RuntimeError):
                team.parallel(body)

"""Unit tests for the threads world (MPIWorld), traffic sizes and thread team."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.memory import DataBlock, Env, PageKey
from repro.runtime import (
    BlockDirectory,
    MPIWorld,
    TaskContext,
    ThreadTeam,
    create_world,
    current_task,
    task_scope,
)
from repro.runtime.backends.serial import SerialWorld
from repro.runtime.errors import CollectiveError, DeadRankError, NetworkError, TaskError
from repro.runtime.network import _payload_nbytes


def spmd_values(world, body) -> list:
    return [r.value for r in world.run_spmd(body)]


class TestPayloadSize:
    def test_numpy_payload_counts_bytes(self):
        payload = np.zeros(100, dtype=np.float64)
        assert _payload_nbytes(payload) == payload.nbytes
        assert _payload_nbytes(("page", payload)) >= payload.nbytes

    @pytest.mark.parametrize(
        "payload,nbytes",
        [(b"abcd", 4), (bytearray(3), 3), (memoryview(b"xy"), 2), (7, 8), (2.5, 8), (None, 8),
         ([1, 2.0], 16 + 8 + 8), ({"k": None}, 16 + 64 + 8), (object(), 64)],
    )
    def test_payload_size_by_kind(self, payload, nbytes):
        assert _payload_nbytes(payload) == nbytes


class TestMPIWorldRanks:
    def test_bad_rank_rejected(self):
        world = MPIWorld(2)
        with pytest.raises(NetworkError, match="rank 5 outside world of size 2"):
            world.register_env(5, object())
        with pytest.raises(NetworkError):
            world.mark_dead(-1)

    def test_env_registry_and_release(self):
        world = MPIWorld(2)
        env = object()
        world.register_env(1, env)
        assert world.env_of(1) is env
        with pytest.raises(NetworkError, match="rank 0 has not registered an Env"):
            world.env_of(0)
        world.finalize()
        with pytest.raises(NetworkError):
            world.env_of(1)


class TestMPIWorldDeadRanks:
    def test_mark_dead_records_the_reason(self):
        world = MPIWorld(3)
        world.mark_dead(2, "exit 9")
        with pytest.raises(DeadRankError, match="rank 2 is dead: exit 9"):
            world.barrier()
        world.mark_dead(1)
        with pytest.raises(DeadRankError, match="rank 1 is dead: marked dead"):
            world.barrier()

    def test_collectives_fail_fast_naming_the_lowest_dead_rank(self):
        world = MPIWorld(3, timeout=30.0)
        world.mark_dead(2)
        world.mark_dead(1)
        with pytest.raises(DeadRankError) as barrier_err:
            world.barrier()
        assert barrier_err.value.rank == 1
        with pytest.raises(DeadRankError, match="allreduce will never complete"):
            world.allreduce(1.0, sum)

    def test_mark_dead_wakes_a_blocked_barrier_waiter(self):
        world = MPIWorld(2, timeout=30.0)
        caught = []

        def waiter():
            try:
                world.barrier()
            except DeadRankError as exc:
                caught.append(exc.rank)

        thread = threading.Thread(target=waiter)
        thread.start()
        world.mark_dead(1, "killed")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert caught == [1]

    def test_mark_dead_wakes_a_blocked_allreduce_waiter(self):
        world = MPIWorld(2, timeout=30.0)
        caught = []

        def waiter():
            with task_scope(TaskContext(mpi_rank=0, mpi_size=2)):
                try:
                    world.allreduce(1.0, sum)
                except DeadRankError as exc:
                    caught.append(exc.rank)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        world.mark_dead(1, "killed")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert caught == [1]

    def test_a_dead_owner_serves_no_pages(self):
        world = MPIWorld(2)
        world.register_env(1, object())
        world.register_block(("b", 1), 1, 1, owner=True)
        world.mark_dead(1)
        with pytest.raises(DeadRankError, match="rank 1 is dead"):
            world.fetch_pages_bulk_async(0, [(("b", 1), 0)])
        assert world.stats.bulk_pages == 0 and world.stats.messages == 0

    def test_a_wait_fails_only_for_the_ranks_it_misses(self):
        """A rank that died fails the waits still missing its word, not a
        wait for somebody else (the rule the process world keeps too)."""
        world = MPIWorld(3, timeout=5.0)
        world.mark_dead(2, "killed at epoch 3")
        polls = []

        def ready():
            polls.append(None)
            return True if len(polls) > 3 else None

        def late():
            return CollectiveError("timed out")

        assert world._halo_wait(ready, late, lambda: {1: 1}) is True
        assert len(polls) == 4
        with pytest.raises(DeadRankError, match="killed at epoch 3") as err:
            world._halo_wait(lambda: None, late, lambda: {1: 1, 2: 1})
        assert err.value.rank == 2


class TestMPIWorldCollectives:
    def test_single_rank_collectives_are_trivial(self):
        world = SerialWorld()
        world.barrier()
        assert world.allreduce_bits(3) == 3
        assert world.allreduce(2.5, sum) == 2.5

    def test_allreduce_and_across_threads(self):
        world = MPIWorld(3)
        values = spmd_values(world, lambda ctx: world.allreduce(ctx.mpi_rank != 1, all))
        assert values == [False, False, False]

    def test_allreduce_sum_across_threads(self):
        world = MPIWorld(4)
        values = spmd_values(world, lambda ctx: world.allreduce(float(ctx.mpi_rank), sum))
        assert values == [6.0] * 4
        assert world.stats.allreduces == 4  # every rank counts its own call
        assert world.stats.messages == 4 * 3 * 2

    def test_barrier_counts(self):
        world = MPIWorld(2)
        spmd_values(world, lambda ctx: (world.barrier(), world.barrier()))
        assert world.stats.barriers == 4  # every rank counts its own call

    def test_reductions_and_barriers_under_frequent_thread_switches(self):
        """Stress, more ranks than cores: every reduction sees each rank's
        value of its own round, in rank order, and no count is lost."""
        size, rounds = 4, 200
        world = MPIWorld(size, timeout=30.0)

        def body(ctx):
            seen = []
            for round_no in range(rounds):
                seen.append(world.allreduce((round_no, ctx.mpi_rank), list))
                world.barrier()
            return seen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            values = spmd_values(world, body)
        finally:
            sys.setswitchinterval(interval)
        expected = [[(round_no, r) for r in range(size)] for round_no in range(rounds)]
        assert values == [expected] * size
        assert world.stats.allreduces == world.stats.barriers == size * rounds

    def test_a_lone_rank_times_out(self):
        world = MPIWorld(2, timeout=0.1)
        with pytest.raises(CollectiveError, match="allreduce timed out"):
            world.allreduce(1.0, sum)
        with pytest.raises(CollectiveError, match="barrier broken"):
            world.barrier()


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
        world = MPIWorld(2)
        env, block = self.make_env_with_block(3.0)
        world.register_env(1, env)
        world.register_block(("b", 0), 1, block.block_id, owner=True)
        result = world.fetch_pages_bulk_async(0, [(("b", 0), 0), (("b", 0), 1)]).wait()
        (_, _, first), (_, _, second) = result.pages
        assert first[0, 0] == 3.0 and second.shape == first.shape
        assert world.stats.bulk_pages == 2
        assert world.stats.messages == 2  # one request/reply pair for the batch

    def test_fetch_without_env_raises(self):
        world = MPIWorld(2)
        world.register_block(("b", 0), 1, 1, owner=True)
        with pytest.raises(NetworkError, match="rank 1 has not registered an Env"):
            world.fetch_pages_bulk_async(0, [(("b", 0), 0)])


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

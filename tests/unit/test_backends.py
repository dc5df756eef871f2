"""Unit tests for the execution-backend subsystem.

Covers the registry (lazy built-ins, custom world classes, unknown-name
errors, a world of one rank is the serial world whatever the name), the
serial world's inline semantics, the threads world's interface
conformance (plus the finalize() resource-release fix) and the process
world's transport plumbing.  Cross-backend behavioural
equivalence lives in tests/integration/test_backend_conformance.py.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from repro import Platform
from repro.apps import JacobiSGrid
from repro.runtime import (
    DEFAULT_BACKEND,
    BackendError,
    MPIWorld,
    NetworkError,
    TaskError,
    available_backends,
    create_world,
    get_backend,
    register_backend,
)
from repro.runtime.backends import _REGISTRY, process
from repro.runtime.backends.base import ExecutionWorld
from repro.runtime.backends.process import ProcessWorld
from repro.runtime.backends.serial import SerialWorld

CONFIG = dict(
    region=16,
    block_size=8,
    page_elements=16,
    loops=2,
    init=lambda x, y: float(x + y),
)


class TestRegistry:
    def test_builtins_are_available(self):
        names = available_backends()
        assert {"serial", "threads", "process"} <= set(names)
        assert names == sorted(names)

    def test_default_backend_is_threads(self):
        assert DEFAULT_BACKEND == "threads"

    def test_a_backend_is_its_world_class(self):
        assert get_backend("threads") is MPIWorld
        assert get_backend("process") is ProcessWorld
        assert get_backend("serial") is SerialWorld

    def test_unknown_backend_error_lists_available(self):
        with pytest.raises(BackendError, match="serial"):
            get_backend("quantum")

    def test_threads_backend_creates_mpiworld(self):
        world = create_world("threads", 3, timeout=1.0)
        assert isinstance(world, MPIWorld)
        assert world.size == 3
        assert world.backend_name == "threads"

    def test_register_custom_world_class(self):
        class EchoWorld(MPIWorld):
            backend_name = "echo"

        try:
            assert register_backend(EchoWorld) is EchoWorld
            assert "echo" in available_backends()
            world = create_world("echo", 2, timeout=1.0)
            assert isinstance(world, EchoWorld) and world.size == 2
            assert isinstance(create_world("echo", 1), SerialWorld)
            with pytest.raises(BackendError, match="already registered"):
                register_backend(EchoWorld)
        finally:
            _REGISTRY.pop("echo", None)

    def test_a_custom_world_reports_its_own_traffic_keys(self):
        """run.network is the world's traffic summary as it stands, so a
        custom world may report keys NetworkStats does not know."""

        class WiredWorld(MPIWorld):
            backend_name = "wired"

            def traffic_summary(self):
                return {**super().traffic_summary(), "wire_seconds": 0.5}

        try:
            register_backend(WiredWorld)
            run = Platform.builder().mpi(2, backend="wired").run(JacobiSGrid, config=dict(CONFIG))
        finally:
            _REGISTRY.pop("wired", None)
        assert run.backend == "wired"
        assert run.network["wire_seconds"] == 0.5
        assert run.network["bulk_pages"] > 0

    @pytest.mark.parametrize("name", ["", "?"])
    def test_register_rejects_nameless_world_class(self, name):
        class Anonymous(SerialWorld):
            backend_name = name

        with pytest.raises(BackendError, match="backend_name"):
            register_backend(Anonymous)


class TestWorldOfOne:
    """A world of one rank is the serial world, whatever the backend's name."""

    CONFIG64 = dict(region=64, block_size=16, page_elements=16, loops=5,
                    init=lambda x, y: 0.01 * x * x - 0.02 * y + 1.0)

    @pytest.mark.parametrize("name", ["serial", "threads", "process"])
    def test_one_rank_is_the_serial_world(self, name):
        world = create_world(name, 1, timeout=5.0)
        assert type(world) is SerialWorld and world.timeout == 5.0
        serial = Platform.builder().mpi(1, backend="serial").mmat().run(
            JacobiSGrid, config=dict(self.CONFIG64)
        )
        run = Platform.builder().mpi(1, backend=name).mmat().run(
            JacobiSGrid, config=dict(self.CONFIG64)
        )
        assert run.backend == name
        assert np.array_equal(run.result, serial.result)
        assert run.network == serial.network
        assert run.network["barriers"] == 6

    @pytest.mark.parametrize("world_cls", [MPIWorld, ProcessWorld])
    def test_other_worlds_take_two_ranks_or_more(self, world_cls):
        with pytest.raises(TaskError, match="at least two ranks"):
            world_cls(1)


class TestSerialWorld:
    def test_requires_size_one(self):
        with pytest.raises(TaskError, match="exactly one rank"):
            create_world("serial", 2)

    def test_run_spmd_inline(self):
        world = create_world("serial", 1)
        results = world.run_spmd(lambda ctx: (ctx.mpi_rank, ctx.mpi_size))
        assert [r.value for r in results] == [(0, 1)]

    def test_collectives_are_trivial_and_counted(self):
        world = SerialWorld()
        assert world.allreduce_and(True) is True
        assert world.allreduce_and(False) is False
        assert world.allreduce_sum(2.5) == 2.5
        world.barrier()
        stats = world.traffic_summary()
        assert stats["allreduces"] == 3
        assert stats["barriers"] == 1

    def test_error_propagation(self):
        world = SerialWorld()

        def body(ctx):
            raise ValueError("boom")

        with pytest.raises(RuntimeError, match="rank 0") as excinfo:
            world.run_spmd(body)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_finalize_releases_envs(self):
        world = SerialWorld()
        world.register_env(0, object())
        world.finalize()
        assert world.finalized
        with pytest.raises(NetworkError):
            world.env_of(0)


class TestThreadsWorldInterface:
    def test_mpiworld_implements_execution_world(self):
        assert issubclass(MPIWorld, ExecutionWorld)

    def test_world_level_collectives_delegate_to_network(self):
        world = MPIWorld(2)
        results = world.run_spmd(
            lambda ctx: (
                world.allreduce_and(ctx.mpi_rank == 0),
                world.allreduce_sum(1.5 * ctx.mpi_rank),
                world.barrier(),
            )
        )
        assert [r.value for r in results] == [(False, 1.5, None)] * 2
        stats = world.traffic_summary()
        assert stats == world.network.stats.as_dict()
        assert (stats["allreduces"], stats["barriers"]) == (4, 2)

    def test_register_block_and_commit(self):
        world = MPIWorld(2)

        def body(ctx):
            rank = ctx.mpi_rank
            world.register_block("key", rank, 42 + rank, owner=rank == 1)
            world.commit_registration()
            return world.directory.owner_of("key"), world.directory.block_id_on("key", 0)

        assert [r.value for r in world.run_spmd(body)] == [(1, 42)] * 2

    def test_finalize_releases_envs_and_endpoints(self):
        # Satellite fix: finalize() used to only flip a flag, leaking one
        # full Env replica per rank per finished run.
        world = MPIWorld(2)
        world.register_env(0, object())
        world.register_env(1, object())
        world.finalize()
        assert world.finalized
        assert world.rank_envs == {}
        with pytest.raises(NetworkError):
            world.network.endpoint(0)
        # Stats survive finalisation for post-run reporting.
        assert "messages" in world.traffic_summary()

    def test_platform_run_leaves_finalized_world_without_envs(self):
        platform = Platform.preset("mpi", ranks=2)
        platform.run(JacobiSGrid, config=dict(CONFIG))
        world = platform.context["mpi_world"]
        assert world.finalized
        assert world.rank_envs == {}

    def test_failed_platform_run_still_finalizes_world(self):
        from repro.annotation import TargetApplication

        class Exploding(TargetApplication):
            def initialize(self):
                self.make_env()

            def processing(self):
                raise ValueError("kernel blew up")

        platform = Platform.preset("mpi", ranks=2)
        with pytest.raises(RuntimeError):
            platform.run(Exploding)
        world = platform.context["mpi_world"]
        assert world.finalized
        assert world.rank_envs == {}


class TestProcessWorld:
    def test_size_one_runs_inline_in_the_serial_world(self):
        world = create_world("process", 1)
        results = world.run_spmd(lambda ctx: ctx.mpi_rank * 10)
        assert results[0].value == 0
        assert world.allreduce_sum(1.5) == 1.5
        assert isinstance(world, SerialWorld)

    def test_spmd_returns_picklable_rank_values(self):
        world = create_world("process", 2, timeout=15.0)
        results = world.run_spmd(lambda ctx: ctx.mpi_rank * 10)
        assert [r.value for r in results] == [0, 10]

    def test_unpicklable_rank_values_degrade_to_none(self):
        world = create_world("process", 2, timeout=15.0)
        results = world.run_spmd(lambda ctx: lambda: ctx.mpi_rank)  # lambdas don't pickle
        assert callable(results[0].value)  # rank 0 lives in the parent
        assert results[1].value is None

    def test_teardown_wakes_the_receivers_without_a_poll(self, monkeypatch):
        # Every receiver wait blocks for good: only the wake pipe that
        # close() writes to can end it (the forked rank inherits the patch).
        real_wait = process.connection_wait

        def blocking(object_list, timeout=None):
            return real_wait(object_list, timeout=None)

        monkeypatch.setattr(process, "connection_wait", blocking)
        world = create_world("process", 2, timeout=15.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.monotonic()
            results = world.run_spmd(lambda ctx: world.allreduce_sum(float(ctx.mpi_rank)))
            elapsed = time.monotonic() - start
        assert [r.value for r in results] == [1.0, 1.0]
        assert elapsed < 2.0
        assert not [w for w in caught if "leaked thread" in str(w.message)]

    def test_collective_outside_run_spmd_is_an_error(self):
        world = ProcessWorld(2)
        with pytest.raises(NetworkError, match="run_spmd"):
            world.allreduce_sum(1.0)
        world.register_block("key", 0, 1, owner=True)
        with pytest.raises(NetworkError, match="run_spmd"):
            world.commit_registration()

    def test_traffic_summary_aggregates_all_ranks(self):
        world = create_world("process", 2, timeout=15.0)
        world.run_spmd(lambda ctx: world.allreduce_sum(float(ctx.mpi_rank)))
        stats = world.traffic_summary()
        # Both ranks count their own allreduce call, like the threads
        # backend's shared-network accounting.
        assert stats["allreduces"] == 2
        assert stats["messages"] > 0
        assert stats["bytes_moved"] > 0

    def test_backend_name_on_platform_run(self):
        run = Platform.preset("mpi", ranks=2, backend="process").run(
            JacobiSGrid, config=dict(CONFIG)
        )
        assert run.backend == "process"
        assert "backend=process" in run.summary()


class TestPlatformBackendSelection:
    def test_platform_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            Platform(backend="quantum")

    def test_builder_backend_round_trip(self):
        platform = Platform.builder().mpi(1, backend="serial").build()
        assert platform.backend == "serial"

    def test_aspect_falls_back_to_platform_then_default(self):
        from repro.aspects import DistributedMemoryAspect

        for backend, ran in ((None, DEFAULT_BACKEND), ("serial", "serial")):
            platform = Platform(aspects=[DistributedMemoryAspect(processes=1)], backend=backend)
            assert platform.run(JacobiSGrid, config=dict(CONFIG)).backend == ran

    def test_run_without_mpi_layer_has_no_backend(self):
        run = Platform.preset("omp", threads=2).run(JacobiSGrid, config=dict(CONFIG))
        assert run.backend is None
        assert "backend=" not in run.summary()

"""Unit tests for task contexts, tracing and the machine/cost models."""

from __future__ import annotations

import pytest

from repro.runtime import (
    CostModel,
    MachineSpec,
    OAKBRIDGE_CX_LIKE,
    SERIAL_TASK,
    TaskContext,
    TaskCounters,
    TraceRecorder,
    current_task,
    task_scope,
)
from repro.runtime.errors import MachineModelError, TaskError


class TestTaskContext:
    def test_defaults_are_serial(self):
        task = TaskContext()
        assert task.global_task_id == 0
        assert task.total_tasks == 1

    def test_global_task_id_flattens_layers(self):
        task = TaskContext(mpi_rank=2, mpi_size=4, omp_thread=1, omp_threads=3)
        assert task.global_task_id == 7
        assert task.total_tasks == 12

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mpi_rank=1, mpi_size=1),
            dict(omp_thread=4, omp_threads=2),
            dict(mpi_size=0),
            dict(omp_threads=0),
        ],
    )
    def test_invalid_contexts_rejected(self, kwargs):
        with pytest.raises(TaskError):
            TaskContext(**kwargs)

    def test_with_omp(self):
        base = TaskContext(mpi_rank=1, mpi_size=2)
        derived = base.with_omp(3, 4)
        assert derived.mpi_rank == 1 and derived.omp_thread == 3 and derived.omp_threads == 4

    def test_current_task_defaults_to_serial(self):
        assert current_task() is SERIAL_TASK

    def test_task_scope_nesting(self):
        outer = TaskContext(mpi_rank=0, mpi_size=2)
        inner = outer.with_omp(1, 2)
        with task_scope(outer):
            assert current_task() is outer
            with task_scope(inner):
                assert current_task() is inner
            assert current_task() is outer
        assert current_task() is SERIAL_TASK

    def test_task_scope_type_check(self):
        with pytest.raises(TaskError):
            with task_scope("not a task"):
                pass

    def test_str(self):
        assert "rank 1/2" in str(TaskContext(mpi_rank=1, mpi_size=2))


class TestTraceRecorder:
    def test_per_task_counters_are_separate(self):
        recorder = TraceRecorder()
        a = TaskContext(mpi_rank=0, mpi_size=2)
        b = TaskContext(mpi_rank=1, mpi_size=2)
        recorder.for_task(a).updates += 5
        recorder.for_task(b).updates += 7
        counters = recorder.all_counters()
        assert {key: c.updates for key, c in counters.items()} == {(0, 0): 5, (1, 0): 7}

    def test_for_task_uses_current_context(self):
        recorder = TraceRecorder()
        with task_scope(TaskContext(mpi_rank=0, mpi_size=1, omp_thread=0, omp_threads=1)):
            recorder.for_task().updates += 1
        assert recorder.all_counters()[(0, 0)].updates == 1

    def test_reset(self):
        recorder = TraceRecorder()
        recorder.for_task().updates += 1
        recorder.reset()
        assert recorder.all_counters() == {}

    def test_counters_as_dict_roundtrip(self):
        counters = TaskCounters(updates=3, pages_fetched=1)
        clone = TaskCounters(**counters.as_dict())
        assert clone.updates == 3 and clone.pages_fetched == 1


class TestMachineSpec:
    def test_default_machine_is_valid(self):
        assert OAKBRIDGE_CX_LIKE.cores_per_node >= 1

    def test_invalid_rates_rejected(self):
        with pytest.raises(MachineModelError):
            MachineSpec(seconds_per_update=0)
        with pytest.raises(MachineModelError):
            MachineSpec(cores_per_node=0)

    def test_random_access_penalty(self):
        machine = MachineSpec()
        assert machine.update_cost("random") > machine.update_cost("contiguous")

    def test_thrash_factor_by_pattern(self):
        machine = MachineSpec()
        assert machine.thrash_factor("contiguous") > machine.thrash_factor("random")


class TestCostModel:
    def make_counters(self, **kwargs) -> TaskCounters:
        defaults = dict(updates=1_000_000)
        defaults.update(kwargs)
        return TaskCounters(**defaults)

    def test_compute_term_scales_with_updates(self):
        model = CostModel()
        small = model.task_time(self.make_counters(updates=1000), mpi_size=1, omp_threads=1)
        big = model.task_time(self.make_counters(updates=2000), mpi_size=1, omp_threads=1)
        assert big.compute == pytest.approx(2 * small.compute)

    def test_communication_term(self):
        model = CostModel()
        counters = self.make_counters(paper_pages=100, paper_bytes=10 ** 6)
        breakdown = model.task_time(counters, mpi_size=2, omp_threads=1)
        assert breakdown.communication > 0
        assert breakdown.total >= breakdown.communication

    def test_contention_only_with_multiple_threads(self):
        model = CostModel()
        counters = self.make_counters()
        single = model.task_time(counters, mpi_size=1, omp_threads=1)
        multi = model.task_time(counters, mpi_size=1, omp_threads=8)
        assert single.contention == 0
        assert multi.contention > 0

    def test_contiguous_thrashes_more_than_random(self):
        model = CostModel()
        contiguous = model.task_time(
            self.make_counters(), mpi_size=1, omp_threads=16, access_pattern="contiguous"
        )
        random = model.task_time(
            self.make_counters(), mpi_size=1, omp_threads=16, access_pattern="random"
        )
        assert contiguous.contention / contiguous.compute > random.contention / random.compute

    def test_contention_streams_the_apps_bytes_per_update(self):
        """Only the bandwidth share depends on the bytes an update streams:
        more of them, more contention; the thrash term stays."""
        model = CostModel()
        light, heavy = (
            model.task_time(self.make_counters(), mpi_size=1, omp_threads=8, bytes_per_update=b)
            for b in (40, 80)
        )
        assert heavy.compute == light.compute
        assert heavy.contention > light.contention

    def test_paper_pages_are_one_request_reply_pair_each(self):
        """The pages the paper's prototype would move are the traffic the
        model charges, whatever protocol the run moved its halo by."""
        machine = OAKBRIDGE_CX_LIKE
        counters = self.make_counters(paper_pages=40, paper_bytes=40 * 512)
        breakdown = CostModel(machine).task_time(counters, mpi_size=4, omp_threads=1)
        assert breakdown.communication == pytest.approx(
            2 * 40 * machine.network_latency + 40 * 512 / machine.network_bandwidth
        )

    def test_without_paper_pages_no_communication_is_charged(self):
        machine = OAKBRIDGE_CX_LIKE
        counters = self.make_counters(pages_fetched=30, halo_pushes=6, collectives=9)
        breakdown = CostModel(machine).task_time(counters, mpi_size=2, omp_threads=2)
        assert breakdown.communication == 0.0
        assert breakdown.synchronisation == pytest.approx(9 * machine.barrier_cost * 2.0)

    def test_productive_counters_preferred(self):
        model = CostModel()
        counters = self.make_counters(updates=10_000, productive_updates=1_000)
        breakdown = model.task_time(counters, mpi_size=1, omp_threads=1)
        expected = 1_000 * OAKBRIDGE_CX_LIKE.seconds_per_update
        assert breakdown.compute == pytest.approx(expected)

    def test_run_time_takes_slowest_task(self):
        model = CostModel()
        counters = {
            (0, 0): self.make_counters(updates=100),
            (1, 0): self.make_counters(updates=10_000),
        }
        breakdown = model.run_time(counters, mpi_size=2, omp_threads=1, include_init=False)
        assert breakdown.compute == pytest.approx(
            10_000 * OAKBRIDGE_CX_LIKE.seconds_per_update
        )

    def test_run_time_adds_init_costs(self):
        model = CostModel()
        counters = {(0, 0): self.make_counters()}
        with_init = model.run_time(counters, mpi_size=2, omp_threads=2)
        without = model.run_time(counters, mpi_size=2, omp_threads=2, include_init=False)
        assert with_init.total > without.total

    def test_run_time_requires_counters(self):
        with pytest.raises(MachineModelError):
            CostModel().run_time({}, mpi_size=1, omp_threads=1)

    def test_invalid_layer_sizes(self):
        with pytest.raises(MachineModelError):
            CostModel().task_time(self.make_counters(), mpi_size=0, omp_threads=1)

    def test_breakdown_as_dict(self):
        breakdown = CostModel().task_time(self.make_counters(), mpi_size=1, omp_threads=1)
        data = breakdown.as_dict()
        assert data["total"] == pytest.approx(breakdown.total)

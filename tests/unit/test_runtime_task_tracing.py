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
        assert task.is_rank_master

    def test_global_task_id_flattens_layers(self):
        task = TaskContext(mpi_rank=2, mpi_size=4, omp_thread=1, omp_threads=3)
        assert task.global_task_id == 7
        assert task.total_tasks == 12
        assert not task.is_rank_master

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

    def test_with_omp_and_with_mpi(self):
        base = TaskContext(mpi_rank=1, mpi_size=2)
        derived = base.with_omp(3, 4)
        assert derived.mpi_rank == 1 and derived.omp_thread == 3 and derived.omp_threads == 4
        again = derived.with_mpi(0, 2)
        assert again.mpi_rank == 0 and again.omp_thread == 3

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
        assert recorder.total("updates") == 12
        assert recorder.max_task("updates") == 7
        assert len(recorder.all_counters()) == 2

    def test_for_task_uses_current_context(self):
        recorder = TraceRecorder()
        with task_scope(TaskContext(mpi_rank=0, mpi_size=1, omp_thread=0, omp_threads=1)):
            recorder.for_task().updates += 1
        assert recorder.total("updates") == 1

    def test_reset(self):
        recorder = TraceRecorder()
        recorder.for_task().updates += 1
        recorder.reset()
        assert recorder.total("updates") == 0

    def test_summary_keys(self):
        recorder = TraceRecorder()
        recorder.for_task().updates += 2
        summary = recorder.summary()
        assert summary["tasks"] == 1
        assert summary["total_updates"] == 2
        assert "total_bytes_fetched" in summary

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
        defaults = dict(updates=1_000_000, bytes_per_update=40, access_pattern="contiguous")
        defaults.update(kwargs)
        return TaskCounters(**defaults)

    def test_compute_term_scales_with_updates(self):
        model = CostModel()
        small = model.task_time(self.make_counters(updates=1000), mpi_size=1, omp_threads=1)
        big = model.task_time(self.make_counters(updates=2000), mpi_size=1, omp_threads=1)
        assert big.compute == pytest.approx(2 * small.compute)

    def test_communication_term(self):
        model = CostModel()
        counters = self.make_counters(messages=100, bytes_fetched=10 ** 6)
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
            self.make_counters(access_pattern="contiguous"), mpi_size=1, omp_threads=16
        )
        random = model.task_time(
            self.make_counters(access_pattern="random"), mpi_size=1, omp_threads=16
        )
        assert contiguous.contention / contiguous.compute > random.contention / random.compute

    def test_paper_pages_are_one_request_reply_pair_each(self):
        """The pages the paper's prototype would move replace whatever
        traffic the run's own protocol counted."""
        machine = OAKBRIDGE_CX_LIKE
        counters = self.make_counters(
            messages=3, bytes_fetched=70, productive_messages=5, productive_bytes=110,
            paper_pages=40, paper_bytes=40 * 512,
        )
        breakdown = CostModel(machine).task_time(counters, mpi_size=4, omp_threads=1)
        assert breakdown.communication == pytest.approx(
            2 * 40 * machine.network_latency + 40 * 512 / machine.network_bandwidth
        )

    @pytest.mark.parametrize("productive", [True, False])
    def test_without_paper_pages_the_run_models_its_own_traffic(self, productive):
        machine = OAKBRIDGE_CX_LIKE
        counters = self.make_counters(messages=30, bytes_fetched=7000, collectives=9)
        if productive:
            counters.productive_messages, counters.productive_bytes = 6, 1400
        messages = counters.productive_messages or counters.messages
        nbytes = counters.productive_bytes or counters.bytes_fetched
        breakdown = CostModel(machine).task_time(counters, mpi_size=2, omp_threads=2)
        assert breakdown.communication == pytest.approx(
            messages * machine.network_latency + nbytes / machine.network_bandwidth
        )
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

    def test_relative_to_baseline(self):
        model = CostModel()
        runs = {
            "1": model.task_time(self.make_counters(updates=1000), mpi_size=1, omp_threads=1),
            "2": model.task_time(self.make_counters(updates=500), mpi_size=1, omp_threads=1),
        }
        relative = model.relative_to_baseline(runs, "1")
        assert relative["1"] == pytest.approx(1.0)
        assert relative["2"] == pytest.approx(0.5)

    def test_relative_missing_baseline(self):
        with pytest.raises(MachineModelError):
            CostModel().relative_to_baseline({}, "nope")

    def test_breakdown_as_dict(self):
        breakdown = CostModel().task_time(self.make_counters(), mpi_size=1, omp_threads=1)
        data = breakdown.as_dict()
        assert data["total"] == pytest.approx(breakdown.total)

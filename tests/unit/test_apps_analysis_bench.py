"""Unit tests for the handwritten baselines, analysis utilities and bench harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    class_code_bytes,
    configuration_size,
    count_loc,
    count_loc_in_source,
    measure_env,
    measure_handwritten,
    module_code_bytes,
)
from repro.apps import (
    DoubleBufferedGrid,
    HandwrittenParticle,
    HandwrittenSGrid,
    HandwrittenUSGrid,
)
from repro.bench import (
    WORKLOADS,
    format_table,
    modelled_time,
    run_handwritten,
    run_platform,
    scale_counters,
    sgrid_workload,
    usgrid_workload,
    particle_workload,
    workload,
)
from repro.bench.harness import amplify_steps
from repro.runtime.tracing import TaskCounters


class TestHandwrittenSGrid:
    def test_double_buffer_boundary(self):
        grid = DoubleBufferedGrid(4, boundary_value=-1.0)
        assert grid.get(-1, 0) == -1.0
        assert grid.get(0, 4) == -1.0
        grid.set(1, 1, 5.0)
        assert grid.get(1, 1) == 0.0
        grid.refresh()
        assert grid.get(1, 1) == 5.0

    def test_zero_init_stays_zero_with_zero_boundary(self):
        result = HandwrittenSGrid(8, loops=3).run()
        np.testing.assert_allclose(result, 0.0)

    def test_constant_field_is_fixed_point(self):
        # alpha + 4*beta = 1 and boundary equal to the constant -> unchanged.
        result = HandwrittenSGrid(
            8, loops=2, boundary_value=1.0, init=lambda x, y: 1.0
        ).run()
        np.testing.assert_allclose(result, 1.0)

    def test_memory_bytes(self):
        app = HandwrittenSGrid(8)
        assert app.memory_bytes() == 2 * 8 * 8 * 8


class TestHandwrittenUSGrid:
    def test_case_validation(self):
        with pytest.raises(ValueError):
            HandwrittenUSGrid(8, case="Z")

    def test_case_c_matches_sgrid(self):
        init = lambda x, y: 0.25 * x + 0.5 * y  # noqa: E731
        sg = HandwrittenSGrid(8, loops=3, init=init).run()
        us = HandwrittenUSGrid(8, case="C", loops=3, init=init).run()
        np.testing.assert_allclose(us, sg, atol=1e-12)

    def test_case_r_matches_case_c_numerically(self):
        # The layout changes memory order, not the arithmetic.
        init = lambda x, y: float(x * y)  # noqa: E731
        c = HandwrittenUSGrid(8, case="C", loops=2, init=init).run()
        r = HandwrittenUSGrid(8, case="R", loops=2, init=init).run()
        np.testing.assert_allclose(r, c, atol=1e-12)

    def test_memory_bytes_positive(self):
        assert HandwrittenUSGrid(8).memory_bytes() > 0


class TestHandwrittenParticle:
    def test_particle_count_preserved(self):
        app = HandwrittenParticle(100, loops=1)
        result = app.run()
        assert result.shape == (100, 7)
        assert sorted(result[:, 0]) == list(result[:, 0])

    def test_particles_repel(self):
        app = HandwrittenParticle(256, loops=1, dt=1e-3)
        before = {}
        for records in app.buckets.values():
            for rec in records:
                before[rec[0]] = rec[1:4].copy()
        result = app.run()
        moved = sum(
            1 for row in result if not np.allclose(row[1:4], before[row[0]])
        )
        assert moved > 0

    def test_zero_loops_returns_initial_state(self):
        app = HandwrittenParticle(32, loops=0)
        result = app.run()
        assert np.allclose(result[:, 4:7], 0.0)


class TestAnalysis:
    def test_count_loc_excludes_blanks_and_comments(self):
        source = "\n".join(
            ["# a comment", "", "x = 1", "  # indented comment", "def f():", "    return x", ""]
        )
        assert count_loc_in_source(source) == 3

    def test_count_loc_on_package(self):
        import os
        import repro

        path = os.path.join(os.path.dirname(repro.__file__), "aop")
        assert count_loc([path]) > 100

    def test_module_code_bytes(self):
        assert module_code_bytes("repro.memory.zorder") > 100

    def test_class_code_bytes_grows_with_weaving(self):
        from repro.annotation import Platform
        from repro.apps import JacobiSGrid

        plain = class_code_bytes(JacobiSGrid)
        woven = class_code_bytes(Platform(aspects=[]).build(JacobiSGrid))
        assert woven > plain

    def test_configuration_size_combines_modules_and_classes(self):
        from repro.apps import JacobiSGrid

        size = configuration_size(["repro.memory.zorder"], [JacobiSGrid])
        assert size > module_code_bytes("repro.memory.zorder")

    def test_measure_env_and_handwritten(self, env):
        from repro.memory import DataBlock

        block = DataBlock((0, 0), (4, 4), components=1, page_elements=4,
                          allocator=env.allocator)
        env.add_data_block(block)
        breakdown = measure_env(env, label="test")
        assert breakdown.used_pool > 0
        assert breakdown.total == breakdown.unused_pool + breakdown.used_pool + breakdown.working
        hw = measure_handwritten(1024, label="hw")
        assert hw.total == 1024
        assert "working_MB" in hw.as_row()


class TestBenchHarness:
    def test_workload_factories(self):
        assert workload("sgrid").kind == "sgrid"
        assert workload("usgrid", case="R").config["case"] == "R"
        assert workload("particle").kind == "particle"
        with pytest.raises(ValueError):
            workload("unknown")

    def test_default_workloads_registry(self):
        assert set(WORKLOADS) == {"sgrid", "usgrid_c", "usgrid_r", "particle"}

    def test_with_config_override(self):
        base = sgrid_workload(16)
        modified = base.with_config(loops=9)
        assert modified.config["loops"] == 9
        assert base.config["loops"] != 9

    def test_run_handwritten_and_platform_agree(self):
        work = sgrid_workload(16, loops=2)
        _elapsed, hw_result, _bytes = run_handwritten(work)
        run = run_platform(work)
        np.testing.assert_allclose(run.app.result, hw_result, atol=1e-12)

    def test_scale_counters_scaling_laws(self):
        counters = TaskCounters(
            updates=100, pages_fetched=10, bytes_fetched=1000, messages=20,
            productive_updates=50, productive_bytes=500,
            productive_messages=10,
        )
        scaled = scale_counters(counters, 4.0)
        assert scaled.updates == 1600          # area
        assert scaled.pages_fetched == 40      # perimeter
        assert scaled.productive_updates == 800
        assert scaled.productive_bytes == 2000

    def test_paper_pages_scale_like_productive_bytes(self):
        counters = TaskCounters(productive_bytes=500, paper_pages=6, paper_bytes=600)
        scaled = scale_counters(counters, 4.0)  # perimeter
        assert (scaled.paper_pages, scaled.paper_bytes) == (24, 2400)
        amplified = amplify_steps(scaled, 50.0)  # step count
        assert (amplified.paper_pages, amplified.paper_bytes) == (1200, 120000)
        assert amplified.productive_bytes == 2000 * 50

    @pytest.mark.parametrize("label", ["serial", "omp"])
    def test_runs_without_a_distributed_layer_count_no_paper_pages(self, label):
        """Serial, OpenMP and Fig. 6 rows model exactly their own counters."""
        work = sgrid_workload(16, loops=2)
        run = run_platform(work, label, threads=2 if label == "omp" else 1, mmat=True)
        assert sum(c.paper_pages + c.paper_bytes for c in run.counters.values()) == 0
        assert modelled_time(run, work).communication == 0

    def test_mpi_runs_count_the_paper_pages_of_every_step(self):
        work = sgrid_workload(16, block_size=4, loops=2)
        run = run_platform(work, "mpi", ranks=2, mmat=True)
        env = run.app.env
        pages = env.plan_page_requirements()
        page_bytes = sum(
            env.block(key.block_id).buffer.read_buffer.pages[key.page_index].nbytes
            for key in pages
        )
        master = run.counters[(0, 0)]
        assert master.paper_pages == 2 * len(pages) and pages  # one count per step
        assert master.paper_bytes == 2 * page_bytes
        assert run.network["halo_pushes"] > 0  # counted, not run: the steps were closed

    def test_modelled_time_positive_and_monotone_in_scale(self):
        work = sgrid_workload(16, loops=2)
        run = run_platform(work)
        small = modelled_time(run, work, scale_to_paper=False)
        big = modelled_time(run, work, scale_to_paper=True)
        assert 0 < small.total < big.total

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 0.5}, {"a": 2, "b": 1e-9}], title="T")
        assert "T" in text and "a" in text and "1" in text

    def test_format_table_empty(self):
        assert "(no data)" in format_table([], title="x")

"""Integration tests for the measurable platform properties the paper reports.

These are not performance assertions in absolute terms (CI machines vary);
they check the *relationships* the paper's evaluation section claims:
weaving without aspects is cheap, MMAT reduces Env searches, the platform
uses more memory than handwritten code, woven programs are bigger, and the
App-part LoC is comparable to handwritten code.
"""

from __future__ import annotations

import pytest

from repro.analysis import class_code_bytes, measure_env, measure_handwritten
from repro.annotation import Platform
from repro.apps import HandwrittenSGrid, JacobiSGrid
from repro.bench import (
    fig12_memory_usage,
    sgrid_workload,
    run_handwritten,
    run_platform,
    table1_binary_size,
    table2_loc,
)


CONFIG = dict(region=16, block_size=8, page_elements=16, loops=2,
              init=lambda x, y: float(x + y))


class TestWeavingOverheadStructure:
    def test_nop_weave_only_adds_wrappers(self):
        woven = Platform(aspects=[]).build(JacobiSGrid)
        info = woven.__aop_woven__
        assert info.wrapped_sites > 0
        assert info.advised_sites == 0

    def test_aspect_weave_advises_platform_joinpoints(self):
        woven = Platform.preset("mpi", ranks=2).build(JacobiSGrid)
        info = woven.__aop_woven__
        assert info.advised_sites > 0

    def test_env_class_is_woven_once_per_platform(self):
        platform = Platform.preset("omp", threads=2)
        assert platform.env_class is not None
        assert platform.env_class.__aop_woven__.wrapped_sites >= 2  # get_blocks, refresh


class TestMemoryUsageRelationships:
    def test_platform_uses_more_working_memory_than_handwritten(self):
        work = sgrid_workload(16, loops=1)
        _e, _r, hw_bytes = run_handwritten(work)
        run = run_platform(work, mmat=True, pool_bytes=4 * 1024 * 1024)
        platform_breakdown = measure_env(run.app.env, label="platform")
        handwritten_breakdown = measure_handwritten(hw_bytes, label="handwritten")
        assert platform_breakdown.working > handwritten_breakdown.working
        assert platform_breakdown.used_pool > 0
        assert platform_breakdown.unused_pool > 0

    def test_image_and_kernel_scratch_are_counted_beside_the_pool(self):
        """Regression: the dense image and the kernels' scratch were in no
        row at all (8.9 MB reported with 101 MB outside the pool at 2048^2)."""
        work = sgrid_workload(32, block_size=8, loops=2)
        run = run_platform(work, mmat=True, pool_bytes=1 << 20)
        env = run.app.env
        breakdown = measure_env(env, label="platform")
        # The owned image is the page memory: used pool, exactly the field twice.
        assert breakdown.used_pool == 2 * 32 * 32 * 8
        env.check_dense_image()
        # Outside the pool: one padded field for all 16 Blocks, the ring tables.
        padded = (8 + 2) * (8 + 2) * 8
        tables = sum(kern.nbytes for kern in env.mmat._fused.values())
        assert breakdown.image_scratch == env.image_scratch_bytes() >= padded + tables > padded
        assert breakdown.image_scratch < 16 * padded + tables  # not a field per kernel
        assert breakdown.total == (
            breakdown.unused_pool + breakdown.used_pool + breakdown.working + breakdown.image_scratch
        )
        assert breakdown.as_row()["image_scratch_MB"] == breakdown.image_scratch / 1e6
        assert run.memory["image_scratch"] == breakdown.image_scratch

    def test_fig12_rows_cover_all_configurations(self):
        rows = fig12_memory_usage(region=16, particles=64,
                                  configurations=("serial", "omp"))
        labels = {row["label"] for row in rows}
        assert any("/ H" in label for label in labels)
        assert any("Platform OMP" in label for label in labels)
        assert all(row["total_MB"] > 0 for row in rows)
        assert all(
            (row["image_scratch_MB"] > 0) == ("/ H" not in row["label"]) for row in rows
        )


class TestProgramSizeRelationships:
    def test_woven_configurations_are_monotonically_larger(self):
        sizes = {}
        for label, ranks, threads in (
            ("serial", 1, 1),
            ("nop", 1, 1),
            ("omp", 1, 2),
            ("mpi", 2, 1),
            ("hybrid", 2, 2),
        ):
            platform = Platform.preset(label, ranks=ranks, threads=threads)
            sizes[label] = class_code_bytes(platform.build(JacobiSGrid))
        assert sizes["serial"] < sizes["nop"] <= sizes["omp"]

    def test_table1_ordering(self):
        rows = table1_binary_size()
        for row in rows:
            assert row["H_KiB"] < row["P_KiB"] < row["P_NOP_KiB"]
            assert row["P_NOP_KiB"] < row["P_OMP_KiB"] < row["P_MPI+OMP_KiB"]
            assert row["P_MPI_KiB"] < row["P_MPI+OMP_KiB"]

    def test_table2_app_part_comparable_to_handwritten(self):
        rows = table2_loc()
        assert {row["benchmark"] for row in rows} == {"SGrid", "USGrid", "Particle"}
        for row in rows:
            assert row["platform_part"] > row["dsl_part"] > 0
            # The paper's point: end-user code is about the size of handwritten code.
            assert row["app_part"] < 3 * row["handwritten"]
            assert row["handwritten"] < 5 * row["app_part"]


class TestEnvSearchRelationships:
    def test_mmat_reduces_search_steps(self):
        run_plain = Platform(mmat=False).run(JacobiSGrid, config=dict(CONFIG))
        run_mmat = Platform(mmat=True).run(JacobiSGrid, config=dict(CONFIG))
        assert run_mmat.env_stats.search_steps < run_plain.env_stats.search_steps

    def test_inside_hint_avoids_searches_entirely_for_interior_points(self):
        run = Platform().run(JacobiSGrid, config=dict(CONFIG))
        reads = sum(c.plan_sites + c.plan_fallback_sites for c in run.counters.values())
        # Most stencil reads carry the "inside" hint (i>0, j>0, ...) and
        # skip the Env search, so searched reads are the minority.
        assert 0 < run.env_stats.searches < reads / 2

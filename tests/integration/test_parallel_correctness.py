"""Integration tests: the woven parallel configurations must reproduce the
serial / handwritten numerical results for all three sample DSLs.

This is the platform's core promise (paper §VI): "we built several test
DSL processing systems and confirmed that they could be parallelized
using a combination of the aspect module provided by the platform."
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import (
    HandwrittenParticle,
    HandwrittenSGrid,
    HandwrittenUSGrid,
    JacobiSGrid,
    JacobiUSGrid,
    ParticleSimulation,
)


def _init(x, y):
    return 0.05 * x - 0.02 * y + 1.0


def _init_per_point(x, y):
    return float(_init(x, y))  # float() of an array raises: runs per site


SGRID_CONFIG = dict(region=16, block_size=4, page_elements=8, loops=3, init=_init)
USGRID_CONFIG = dict(region=16, block_cells=32, page_elements=8, loops=3, init=_init)
PARTICLE_CONFIG = dict(particles=128, block_buckets=4, page_elements=4, loops=2)


@pytest.fixture(scope="module")
def references():
    return {
        "sgrid": HandwrittenSGrid(16, loops=3, init=_init).run(),
        "usgrid_c": HandwrittenUSGrid(16, case="C", loops=3, init=_init).run(),
        "usgrid_r": HandwrittenUSGrid(16, case="R", loops=3, init=_init).run(),
        "particle": HandwrittenParticle(128, loops=2, block_buckets=4).run(),
    }


def assert_matches_reference(result, reference):
    """Compare a (possibly rank-local, NaN-padded) result with the reference."""
    result = np.asarray(result)
    mask = ~np.isnan(result)
    assert mask.any(), "run produced no locally-owned data"
    np.testing.assert_allclose(result[mask], np.asarray(reference)[mask], atol=1e-10)


#: The Fig. 3 configurations under test: id -> (preset, ranks, threads).
STACKS = {
    "serial": ("serial", 1, 1),
    "nop": ("nop", 1, 1),
    "omp2": ("omp", 1, 2),
    "omp4": ("omp", 1, 4),
    "mpi2": ("mpi", 2, 1),
    "mpi4": ("mpi", 4, 1),
    "hybrid2x2": ("hybrid", 2, 2),
}


def platform_of(stack, **options):
    label, ranks, threads = STACKS[stack]
    return Platform.preset(label, ranks=ranks, threads=threads, **options)


class TestSGridConfigurations:
    @pytest.mark.parametrize("stack", list(STACKS))
    @pytest.mark.parametrize("mmat", [False, True])
    def test_matches_handwritten(self, references, stack, mmat):
        platform = platform_of(stack, mmat=mmat)
        run = platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))
        assert_matches_reference(run.result, references["sgrid"])


class TestUSGridConfigurations:
    @pytest.mark.parametrize("case,key", [("C", "usgrid_c"), ("R", "usgrid_r")])
    @pytest.mark.parametrize("stack", ["serial", "omp2", "mpi2", "hybrid2x2"])
    def test_matches_handwritten(self, references, case, key, stack):
        platform = platform_of(stack, mmat=True)
        run = platform.run(JacobiUSGrid, config=dict(USGRID_CONFIG, case=case))
        assert_matches_reference(run.result, references[key])


class TestInitPaths:
    """The same ``init`` formula taken per Block on arrays and per site
    through a wrapper gives bit-identical whole runs."""

    @pytest.mark.parametrize(
        "app_cls,config,key",
        [
            (JacobiSGrid, SGRID_CONFIG, "sgrid"),
            (JacobiUSGrid, dict(USGRID_CONFIG, case="R"), "usgrid_r"),
        ],
        ids=["sgrid", "usgrid_r"],
    )
    @pytest.mark.parametrize("backend,ranks", [("serial", 1), ("process", 2)])
    def test_array_and_per_point_init_agree_exactly(
        self, references, app_cls, config, key, backend, ranks
    ):
        results = [
            np.asarray(
                Platform.preset("mpi", ranks=ranks, backend=backend, mmat=True)
                .run(app_cls, config=dict(config, init=init))
                .result
            )
            for init in (_init, _init_per_point)
        ]
        assert np.array_equal(results[0], results[1], equal_nan=True)
        assert_matches_reference(results[0], references[key])


class TestParticleConfigurations:
    @pytest.mark.parametrize("stack", ["serial", "nop", "omp2", "mpi2"])
    def test_matches_handwritten(self, references, stack):
        platform = platform_of(stack, mmat=True)
        run = platform.run(ParticleSimulation, config=dict(PARTICLE_CONFIG))
        result = run.result
        reference = references["particle"]
        # Particle runs report only locally-owned particles; match them by id.
        assert result.shape[1] == 7
        ref_by_id = {row[0]: row for row in reference}
        assert len(result) > 0
        for row in result:
            np.testing.assert_allclose(row, ref_by_id[row[0]], atol=1e-10)


class TestCommunicationBehaviour:
    def test_mpi_run_moves_pages(self, references):
        platform = Platform.preset("mpi", ranks=4, mmat=True)
        run = platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))
        assert run.network["bulk_pages"] > 0
        assert run.network["bytes_moved"] > 0
        assert sum(c.pages_fetched for c in run.counters.values()) > 0

    def test_omp_run_moves_no_pages(self, references):
        platform = Platform.preset("omp", threads=4, mmat=True)
        run = platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))
        assert run.network == {}
        assert sum(c.pages_fetched for c in run.counters.values()) == 0

    def test_dry_run_avoids_recomputation_after_first_step(self, references):
        platform = Platform.preset("mpi", ranks=2, mmat=True)
        run = platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))
        # With the Dry-run prefetch, at most the first step per rank fails;
        # later steps must succeed on their first attempt.
        for counters in run.counters.values():
            assert counters.recomputed_steps <= 1

    def test_every_task_contributes_updates(self):
        platform = Platform.preset("hybrid", ranks=2, threads=2, mmat=True)
        run = platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))
        assert len(run.counters) == 4
        assert all(c.updates > 0 for c in run.counters.values())

    def test_case_r_fetches_more_pages_than_case_c(self):
        config = dict(USGRID_CONFIG, loops=2)
        run_c = Platform.preset("mpi", ranks=2, mmat=True).run(
            JacobiUSGrid, config=dict(config, case="C")
        )
        run_r = Platform.preset("mpi", ranks=2, mmat=True).run(
            JacobiUSGrid, config=dict(config, case="R")
        )
        pages_c = sum(c.pages_fetched for c in run_c.counters.values())
        pages_r = sum(c.pages_fetched for c in run_r.counters.values())
        assert pages_r > pages_c


class TestMmatBehaviour:
    def test_mmat_eliminates_searches_after_warmup(self):
        run_without = Platform(mmat=False).run(JacobiUSGrid, config=dict(USGRID_CONFIG))
        run_with = Platform(mmat=True).run(JacobiUSGrid, config=dict(USGRID_CONFIG))
        assert run_with.env_stats.searches < run_without.env_stats.searches
        assert run_with.env_stats.mmat_hits > 0

    def test_mmat_does_not_change_results(self, references):
        run_with = Platform(mmat=True).run(JacobiUSGrid, config=dict(USGRID_CONFIG))
        assert_matches_reference(run_with.result, references["usgrid_c"])

"""Property tests: fused kernels ≡ vectorized kernels ≡ scalar kernels.

The plan-fusion layer (:mod:`repro.kernels`) promises *bit-identical*
results to the vectorized access-plan path: the generated kernel applies
the same elementwise ``fn`` to the same IEEE values in the same
per-element order, only gathered through a padded scratch field instead
of the ``(n_offsets, n_elem)`` tensor.  These tests check that promise
for every DSL app, every execution backend and every temporal-blocking
depth, including plan invalidation mid-run (``MMAT.reset()``) and an
unknown codegen name falling back to the default.

Apps whose sweeps cannot be fused (address plans — USGrid; multi-
component buckets — Particle) must degrade transparently to the
vectorized path and still match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.aspects import mpi_aspects


def _init(x, y):
    return 0.03 * x - 0.05 * y + 2.0


SGRID_CONFIG = dict(region=16, block_size=4, page_elements=8, loops=3, init=_init)
USGRID_CONFIG = dict(region=16, block_cells=32, page_elements=8, loops=3, init=_init)
PARTICLE_CONFIG = dict(particles=128, block_buckets=4, page_elements=4, loops=2)

APPS = [
    ("sgrid", JacobiSGrid, SGRID_CONFIG, True),
    ("sgrid-neumann", JacobiSGrid, dict(SGRID_CONFIG, boundary="neumann"), True),
    ("usgrid-c", JacobiUSGrid, USGRID_CONFIG, False),
    ("usgrid-r", JacobiUSGrid, dict(USGRID_CONFIG, case="R"), False),
    ("particle", ParticleSimulation, PARTICLE_CONFIG, False),
]

BACKENDS = [("serial", 1), ("threads", 2), ("process", 2)]
TEMPORAL = [1, 2, 4]


def run_app(app_cls, config, *, backend="serial", ranks=1, temporal=1, **platform_kw):
    aspects = mpi_aspects(ranks, backend=backend)
    platform = Platform(aspects=aspects, mmat=True, temporal_block=temporal,
                        **platform_kw)
    return platform.run(app_cls, config=dict(config))


def fused_calls(run) -> int:
    return sum(c.kernel_fused_calls for c in run.counters.values())


def assert_bit_identical(run_a, run_b):
    a = np.asarray(run_a.result, dtype=np.float64)
    b = np.asarray(run_b.result, dtype=np.float64)
    assert a.shape == b.shape
    # Ranks other than 0 leave NaN holes in the assembled field.
    assert np.array_equal(a, b, equal_nan=True)


class TestFusedEquivalence:
    @pytest.mark.parametrize("temporal", TEMPORAL)
    @pytest.mark.parametrize("backend,ranks", BACKENDS)
    @pytest.mark.parametrize("name,app_cls,config,fusable", APPS)
    def test_fused_bit_identical_to_vectorized(
        self, name, app_cls, config, fusable, backend, ranks, temporal
    ):
        vec = run_app(app_cls, dict(config, fuse=False, kernel="vectorized"),
                      backend=backend, ranks=ranks)
        fused = run_app(app_cls, dict(config, kernel="vectorized"),
                        backend=backend, ranks=ranks, temporal=temporal)
        assert_bit_identical(vec, fused)
        if fusable:
            assert fused_calls(fused) > 0
        else:
            # Unfusable sweeps degrade to the vectorized path transparently.
            assert fused_calls(fused) == 0
        assert fused_calls(vec) == 0

    @pytest.mark.parametrize("backend,ranks", BACKENDS)
    @pytest.mark.parametrize(
        "name,app_cls,config",
        [(n, a, c) for (n, a, c, _f) in APPS],
    )
    def test_fused_matches_scalar(self, name, app_cls, config, backend, ranks):
        scalar = run_app(app_cls, dict(config, kernel="scalar"),
                         backend=backend, ranks=ranks)
        fused = run_app(app_cls, dict(config, kernel="vectorized"),
                        backend=backend, ranks=ranks)
        a = np.asarray(scalar.result, dtype=np.float64)
        b = np.asarray(fused.result, dtype=np.float64)
        assert a.shape == b.shape
        np.testing.assert_allclose(
            np.nan_to_num(a, nan=-1.0), np.nan_to_num(b, nan=-1.0), atol=1e-10
        )


class MidRunResetJacobi(JacobiSGrid):
    """Fused Jacobi that drops every plan and fused kernel mid-run."""

    def processing(self) -> None:
        self.warm_up(self.kernel)
        half = max(self.loops // 2, 1)
        for _ in range(half):
            self.run(self.kernel)
        self.env.mmat.reset()   # drop plans AND fused kernels mid-run
        for _ in range(self.loops - half):
            self.run(self.kernel)  # transparently recompiles + refuses


class TestMidRunReset:
    @pytest.mark.parametrize("temporal", TEMPORAL)
    @pytest.mark.parametrize("backend,ranks", BACKENDS)
    def test_reset_recompiles_and_stays_identical(self, backend, ranks, temporal):
        config = dict(SGRID_CONFIG, loops=4, kernel="vectorized")
        vec = run_app(JacobiSGrid, dict(config, fuse=False),
                      backend=backend, ranks=ranks)
        fused = run_app(MidRunResetJacobi, config,
                        backend=backend, ranks=ranks, temporal=temporal)
        assert_bit_identical(vec, fused)
        counters = fused.counters.values()
        assert sum(c.kernel_fused_calls for c in counters) > 0
        # The mid-run reset forces a second fusion pass per kernel.
        n_blocks = (SGRID_CONFIG["region"] // SGRID_CONFIG["block_size"]) ** 2
        assert sum(c.kernel_fuse for c in counters) >= 2 * n_blocks / max(ranks, 1)


class TestCodegenFallback:
    def test_unknown_codegen_falls_back(self):
        config = dict(SGRID_CONFIG, kernel="vectorized", codegen="no-such-codegen")
        vec = run_app(JacobiSGrid, dict(SGRID_CONFIG, fuse=False, kernel="vectorized"))
        fused = run_app(JacobiSGrid, config)
        assert_bit_identical(vec, fused)
        assert fused_calls(fused) > 0

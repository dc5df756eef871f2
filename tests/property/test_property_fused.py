"""Property tests: fused kernels ≡ the scalar serial reference, bit for bit.

The plan-fusion layer (:mod:`repro.kernels`) applies the user's
elementwise ``fn`` to the same IEEE values in the same per-element order
as the paper's per-element Listing 1 kernel, only read through a padded
scratch field.  So a fused SGrid run — Dirichlet or Neumann boundary, on
every execution backend and Block geometry, with or without a mid-run
``MMAT.reset()`` — must equal the scalar kernel run serially, with
``np.array_equal``; and it must equal the same run with MMAT off, where
every sweep takes the ``gather``·``fn``·``scatter`` route.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid
from repro.aspects import mpi_aspects


def _init(x, y):
    return 0.03 * x - 0.05 * y + 2.0


SGRID_CONFIG = dict(region=16, block_size=4, page_elements=8, loops=4, init=_init)
BOUNDARIES = ["dirichlet", "neumann"]
BACKENDS = [("serial", 1), ("threads", 2), ("process", 2), ("threads", 4), ("process", 4)]
#: Block side × page size: two pages a Block, one, and four.
GEOMETRIES = [
    pytest.param(4, 8, id="b4-p8"),
    pytest.param(2, 4, id="b2-p4"),
    pytest.param(8, 16, id="b8-p16"),
]


def sgrid_config(boundary, block_size=4, page_elements=8):
    return dict(SGRID_CONFIG, boundary=boundary, block_size=block_size,
                page_elements=page_elements)


def n_blocks(config) -> int:
    return (config["region"] // config["block_size"]) ** 2


def run_app(app_cls, config, *, backend="serial", ranks=1, mmat=True):
    aspects = mpi_aspects(ranks, backend=backend)
    return Platform(aspects=aspects, mmat=mmat).run(app_cls, config=dict(config))


def counter(run, name) -> int:
    return sum(getattr(c, name) for c in run.counters.values())


@pytest.fixture(scope="module")
def scalar_reference():
    """The scalar kernel's serial field for a config, computed once each."""
    fields = {}

    def reference(config):
        key = (config["boundary"], config["block_size"], config["page_elements"])
        if key not in fields:
            run = run_app(JacobiSGrid, dict(config, kernel="scalar"))
            fields[key] = np.asarray(run.result, dtype=np.float64)
        return fields[key]

    return reference


def assert_equals_reference(run, reference):
    field = np.asarray(run.result, dtype=np.float64)
    assert field.shape == reference.shape
    # Ranks other than 0 leave NaN holes in the assembled field.
    mine = ~np.isnan(field)
    assert mine.any()
    assert np.array_equal(field[mine], reference[mine])


def assert_every_sweep_fused(run, config, ranks):
    # Every sweep, warm-up included, ran fused: a sweep on the gather
    # route would count its updates without a fused call.
    calls = counter(run, "kernel_fused_calls")
    assert calls >= n_blocks(config) // ranks * (config["loops"] + 1)
    assert counter(run, "updates") == calls * config["block_size"] ** 2


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


class TestFusedEqualsScalar:
    @pytest.mark.parametrize("block_size,page_elements", GEOMETRIES)
    @pytest.mark.parametrize("backend,ranks", BACKENDS)
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_fused_bit_identical_to_scalar_serial(
        self, scalar_reference, boundary, backend, ranks, block_size, page_elements
    ):
        config = sgrid_config(boundary, block_size, page_elements)
        fused = run_app(JacobiSGrid, config, backend=backend, ranks=ranks)
        assert_equals_reference(fused, scalar_reference(config))
        assert_every_sweep_fused(fused, config, ranks)

    @pytest.mark.parametrize("block_size,page_elements", GEOMETRIES)
    @pytest.mark.parametrize("backend,ranks", BACKENDS)
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_mid_run_reset_recompiles_and_stays_identical(
        self, scalar_reference, boundary, backend, ranks, block_size, page_elements
    ):
        config = sgrid_config(boundary, block_size, page_elements)
        fused = run_app(MidRunResetJacobi, config, backend=backend, ranks=ranks)
        assert_equals_reference(fused, scalar_reference(config))
        # The mid-run reset forces a second fusion pass per kernel.
        assert counter(fused, "kernel_fuse") >= 2 * n_blocks(config) // ranks


class TestFusedEqualsGatherRoute:
    @pytest.mark.parametrize("backend,ranks", BACKENDS)
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_fused_route_bit_identical_to_gather_route(self, boundary, backend, ranks):
        """MMAT off sends every sweep through ``scatter(fn(*gather(...)))``;
        the same run with MMAT on must store the same bits, fused."""
        config = sgrid_config(boundary)
        gathered = run_app(JacobiSGrid, config, backend=backend, ranks=ranks, mmat=False)
        fused = run_app(JacobiSGrid, config, backend=backend, ranks=ranks)
        a = np.asarray(gathered.result, dtype=np.float64)
        b = np.asarray(fused.result, dtype=np.float64)
        assert a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)
        assert counter(gathered, "kernel_fused_calls") == 0
        assert_every_sweep_fused(fused, config, ranks)

"""Property tests: the fused sweep's flat compute ≡ gather·``fn``·scatter.

A fused sweep hands ``fn`` one contiguous 1-D slice of the padded
field's flat buffer per stencil offset, shifted by the offset's flat
distance; the lanes that fall on pad columns are computed and dropped.
These tests pin what that must not change:

* on stencils the flat shift finds awkward — diagonals, a one-sided
  stencil (no low pad on one axis), a radius-2 cross — on a float32
  Block and for a constant ``fn``, serial and on two process ranks
  (Blocks that read the halo), the fused run stores exactly what MMAT
  off stores;
* ``fn`` sees 1-D C-contiguous operands on the fused route and
  Block-shaped ones with MMAT off;
* a dropped lane never computes on a cell no fill of this sweep wrote:
  ``1/x`` of a strictly positive field raises no floating-point error,
  also after a kernel of another stencil used the shared padded field;
* nor does a two-rank warm-up, fused or with MMAT off, on thread or
  process ranks: a halo page not valid yet reads a field value.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid
from repro.apps.jacobi_sgrid import STENCIL
from repro.memory import ArithmeticBlock, ReferenceBlock
from repro.memory.address import GlobalAddress

NINE_POINT = tuple((dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1))
ONE_SIDED = ((0, 0), (0, 1), (0, 2))
CROSS_R2 = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1), (-2, 0), (2, 0), (0, -2), (0, 2))


def weighted(*values):
    """A stencil update that weighs every offset differently."""
    return sum((0.5 / (i + 1)) * v for i, v in enumerate(values))


def reciprocal(e, *nb):
    return 1.0 / e + sum(1.0 / v for v in nb)


def constant(*_values):
    return np.float64(0.5)


def positive_init(x, y):
    return 1.0 + 0.03 * x + 0.05 * y


class StencilSGrid(JacobiSGrid):
    """An SGrid sweep of any ``stencil`` and ``fn``, on a Block ``dtype``,
    inside a two-cell ring: ``ring="const"`` a positive Arithmetic ring
    (compile-time constants), ``ring="mirror"`` a Neumann mirror."""

    def build_env(self):
        env = self.make_env(name=f"stencil{self.region}")
        blocks = self.materialize_blocks(
            env, self.block_specs(), components=1,
            page_elements=self.page_elements, dtype=self.config.get("dtype", np.float64),
        )
        self._attach_boundary(env)
        self._initialise_field(blocks)
        return env

    def _attach_boundary(self, env) -> None:
        n = self.region
        if self.config["ring"] == "const":
            ring = ArithmeticBlock((-2, -2), (n + 4, n + 4),
                                   lambda a: 1.5 + 0.01 * a[0] - 0.02 * a[1], name="ring")
        else:
            def mirror(a):
                return GlobalAddress((min(max(a[0], 0), n - 1), min(max(a[1], 0), n - 1)))
            ring = ReferenceBlock((-2, -2), (n + 4, n + 4), mirror, name="ring")
        env.add_boundary_block(ring)

    def kernel_vectorized(self, warmup: bool) -> bool:
        sweeps = self.config["sweeps"]
        for _block, k in self.block_kernels(warmup):
            for fn, stencil in sweeps:
                k.sweep(fn, stencil)  # the last sweep's store wins
        return self.refresh(warmup)


CONFIG = dict(region=16, block_size=4, page_elements=8, loops=3, init=positive_init)

CASES = {
    "9-point": dict(sweeps=[(weighted, NINE_POINT)]),
    "one-sided": dict(sweeps=[(weighted, ONE_SIDED)]),
    "cross-r2": dict(sweeps=[(weighted, CROSS_R2)]),
    "float32": dict(sweeps=[(weighted, STENCIL)], dtype=np.float32),
    "constant": dict(sweeps=[(constant, NINE_POINT)]),
}
BACKENDS = [pytest.param("serial", 1, id="serial"), pytest.param("process", 2, id="process2")]


def run_stencil(case, ring, *, backend="serial", ranks=1, mmat=True, tracing=False):
    platform = Platform.preset("mpi", ranks=ranks, backend=backend, mmat=mmat,
                               tracing=tracing)
    return platform.run(StencilSGrid, config=dict(CONFIG, ring=ring, **case))


def fused_calls(run) -> int:
    return sum(c.kernel_fused_calls for c in run.counters.values())


def assert_same_field(gathered, fused):
    a = np.asarray(gathered.result, dtype=np.float64)
    b = np.asarray(fused.result, dtype=np.float64)
    assert (~np.isnan(b)).any()
    assert np.array_equal(a, b, equal_nan=True)


class TestFlatComputeEqualsGatherRoute:
    @pytest.mark.parametrize("backend,ranks", BACKENDS)
    @pytest.mark.parametrize("ring", ["const", "mirror"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bit_identical_to_mmat_off(self, case, ring, backend, ranks):
        gathered = run_stencil(CASES[case], ring, backend=backend, ranks=ranks, mmat=False)
        fused = run_stencil(CASES[case], ring, backend=backend, ranks=ranks, tracing=ranks > 1)
        assert_same_field(gathered, fused)
        assert fused_calls(gathered) == 0
        blocks = (CONFIG["region"] // CONFIG["block_size"]) ** 2
        assert fused_calls(fused) == blocks * (CONFIG["loops"] + 1)
        if ranks > 1:  # one span per sweep, halo-reading Blocks included
            sweeps = [e for e in fused.timeline() if e["name"] == "sweep"]
            assert len(sweeps) == fused_calls(fused)


class TestOperandShapes:
    @pytest.mark.parametrize("backend,ranks", [("serial", 1), ("threads", 2)])
    @pytest.mark.parametrize("mmat", [True, False])
    def test_fused_operands_are_flat_and_contiguous(self, mmat, backend, ranks):
        seen = []

        def recording(*values):
            seen.extend((v.ndim, v.shape, v.flags.c_contiguous) for v in values)
            return weighted(*values)

        case = dict(sweeps=[(recording, NINE_POINT)])
        run_stencil(case, "mirror", backend=backend, ranks=ranks, mmat=mmat)
        assert seen
        if mmat:
            assert {(ndim, contiguous) for ndim, _, contiguous in seen} == {(1, True)}
        else:
            shape = (CONFIG["block_size"],) * 2
            assert {s for _, s, _ in seen} == {shape}


#: ``(first, then)``: two stencils of one padded shape, so the second
#: kernel computes in the field the first one just used.
SHARED_FIELD = [
    pytest.param(NINE_POINT, STENCIL, id="9-point-then-5-point"),
    pytest.param(STENCIL, NINE_POINT, id="5-point-then-9-point"),
    pytest.param(((0, 0), (0, 2)), ONE_SIDED, id="one-sided"),
]


class TestDroppedLanes:
    @pytest.mark.parametrize("first,stencil", SHARED_FIELD)
    def test_reciprocal_never_sees_an_unfilled_cell(self, first, stencil):
        """A sweep of another stencil first leaves the shared padded field,
        then ``1/x`` sweeps it under ``errstate(all="raise")``."""
        case = dict(sweeps=[(weighted, first), (reciprocal, stencil)])
        with np.errstate(all="raise"):
            fused = run_stencil(case, "mirror")
        gathered = run_stencil(case, "mirror", mmat=False)
        assert_same_field(gathered, fused)
        blocks = (CONFIG["region"] // CONFIG["block_size"]) ** 2
        assert fused_calls(fused) == 2 * blocks * (CONFIG["loops"] + 1)


class TestWarmupHalo:
    @pytest.mark.parametrize("backend", ["threads", "process"])
    def test_two_rank_reciprocal_never_sees_a_placeholder(self, backend):
        """The warm-up reads halo pages before any is valid; ``1/x`` over
        them warns unless they read field values.  ``np.errstate`` is
        per thread, so thread ranks need the warnings filter (a forked
        rank inherits it)."""
        case = dict(sweeps=[(reciprocal, STENCIL)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gathered = run_stencil(case, "const", backend=backend, ranks=2, mmat=False)
            fused = run_stencil(case, "const", backend=backend, ranks=2)
        assert_same_field(gathered, fused)
        assert fused_calls(gathered) == 0 < fused_calls(fused)

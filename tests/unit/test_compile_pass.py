"""One compile pass per task and stencil; cold set-up without ``numpy.ma``.

* The first sweep of a stencil by any one-Block kernel of a task compiles
  the offsets plans of all of them in one ``compile_offsets_plan`` call;
  each Block's plan enters the MMAT when that Block first sweeps, so the
  plan set and ``plan_compiles`` count as per-Block compiles did.
* A Block that never sweeps gets no plan, and so no pushed rows and no
  prefetched pages.
* No run of the stock apps imports ``numpy.ma`` (plain ``np.unique``
  does, on first use): the platform's "distinct" is ``sorted_unique``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro.dsl.base as dsl_base
from repro import Platform
from repro.apps import JacobiSGrid
from repro.apps.jacobi_sgrid import STENCIL
from repro.memory.mmat import compile_offsets_plan, sorted_unique

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))


@pytest.fixture
def pass_calls(monkeypatch):
    """Every ``compile_offsets_plan`` call the DSL makes, as ``(Block,
    sibling count)``."""
    calls = []

    def counted(env, block, offsets, *, siblings=()):
        calls.append((block, len(siblings)))
        return compile_offsets_plan(env, block, offsets, siblings=siblings)

    monkeypatch.setattr(dsl_base, "compile_offsets_plan", counted)
    return calls


def test_a_64_block_warm_up_compiles_in_one_pass(pass_calls):
    config = dict(region=64, block_size=8, page_elements=16, loops=2,
                  init=lambda x, y: 0.03 * x - 0.05 * y)
    run = Platform(mmat=True).run(JacobiSGrid, config=config)
    plain = Platform().run(JacobiSGrid, config=config)
    assert pass_calls == [(run.app.env.data_blocks()[0], 63)]
    assert run.mmat_stats["plans"] == run.mmat_stats["plan_compiles"] == 64
    assert sum(c.plan_compiles for c in run.counters.values()) == 64
    assert np.array_equal(run.result, plain.result)


class SkipOne(JacobiSGrid):
    """Jacobi whose rank 0 never sweeps the Block at ``(0, 4)``, the one
    Block of rank 0 that reads the cells ``(0..3, 8)`` of rank 1."""

    def kernel_vectorized(self, warmup: bool) -> bool:
        alpha, beta = self.alpha, self.beta
        for block, k in self.block_kernels(warmup):
            if block.origin != (0, 4):
                k.sweep(lambda e, n, w, e_, s: alpha * e + beta * (e_ + w + s + n), STENCIL)
        return self.refresh(warmup)


def test_a_block_that_never_sweeps_gets_no_plan_rows_or_pages(pass_calls):
    config = dict(region=16, block_size=4, page_elements=4, loops=3,
                  init=lambda x, y: 1.0 + 0.03 * x - 0.05 * y)
    run = Platform.builder().mpi(2, backend="threads").mmat().run(SkipOne, config=config)
    env = run.app.env  # rank 0's
    skipped = next(b for b in env.data_blocks() if b.origin == (0, 4))
    swept = [b for b in env.data_blocks() if b is not skipped]
    # One pass per rank, the skipped Block's plan compiled in it, staged.
    assert len(pass_calls) == 2 and all(n == 7 for _, n in pass_calls)
    assert {key[0] for key in env.mmat.plans} == {b.block_id for b in swept}
    assert run.mmat_stats["plan_compiles"] == len(swept)
    # What only the skipped Block would read is neither pushed nor prefetched.
    alone = compile_offsets_plan(env, skipped, STENCIL)
    others = [compile_offsets_plan(env, b, STENCIL) for b in swept]
    only_rows = set(alone.segments[-1].ghost_halo.tolist()) - {
        row for plan in others for seg in plan.halo_segments for row in seg.ghost_halo.tolist()
    }
    only_pages = set(alone.remote_pages()) - {p for plan in others for p in plan.remote_pages()}
    assert only_rows and only_pages
    assert not only_rows & {row for _, rows in env.plan_halo_rows() for row in rows.tolist()}
    assert not only_pages & env.plan_page_requirements()
    assert run.network["halo_pushes"] > 0


def test_no_run_imports_numpy_ma():
    """A fresh interpreter: serial SGrid, serial USGrid CaseR and SGrid on
    two thread ranks, then ``numpy.ma`` is still not imported."""
    script = """
import sys
from repro import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid
init = lambda x, y: 0.03 * x - 0.05 * y
sgrid = dict(region=32, block_size=8, page_elements=16, loops=3, init=init)
usgrid = dict(region=24, block_cells=64, page_elements=16, loops=3, case="R", init=init)
Platform.builder().mmat().run(JacobiSGrid, config=sgrid)
Platform.builder().mmat().run(JacobiUSGrid, config=usgrid)
Platform.builder().mpi(2, backend="threads").mmat().run(JacobiSGrid, config=sgrid)
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("shape", [(0,), (1,), (50,), (40, 2), (40, 3)])
def test_sorted_unique_is_np_unique(shape):
    values = np.random.default_rng(3).integers(-4, 5, size=shape)
    rows = values.ndim == 2
    expected = np.unique(values, axis=0 if rows else None, return_inverse=True)
    distinct, inv = sorted_unique(values, inverse=True)
    assert np.array_equal(distinct, expected[0])
    assert np.array_equal(inv, expected[1].reshape(-1))
    assert np.array_equal(sorted_unique(values), expected[0])

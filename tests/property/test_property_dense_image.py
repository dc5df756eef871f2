"""Property tests: the dense read image never shows a plan stale data.

Compiled plans read one rank-wide copy of the read buffers
(:class:`repro.memory.env.DenseImage`) instead of the pages, and
full-block stores are mirrored into it so steady-state steps never
re-assemble a Block.  That is only sound while every writer that goes
*around* the mirror drops the rows it touched.  Each app below runs with
all of those writers injected mid-run:

* ``MMAT.reset()`` (every plan and fused kernel recompiled);
* a halo page withheld, so a refresh fails and the step is recomputed;
* a whole-block ``scatter`` followed by scalar ``set`` calls in the same
  step (the mirrored store must be discarded, not promoted);
* a ``page_install`` on a Block whose rows are fresh;
* a Block added to the Env after the plans were compiled (the image is
  re-allocated, compiled row indices must stay valid).

``Env.check_dense_image()`` must hold after every refresh, and the
result must equal, bit for bit, an undisturbed serial reference.

A count-based guard pins what the image is for: an undisturbed
steady-state step copies no owned Block out of its pages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.aspects import mpi_aspects
from repro.memory import BufferOnlyBlock, PageKey
from repro.runtime.tracing import global_trace

from page_protocol import kept_open

LOOPS = 6


def _init(x, y):
    return 0.03 * x - 0.05 * y + 2.0


def disturbed(app_cls):
    """``app_cls`` with every dense-image hazard injected into its run."""

    class Disturbed(app_cls):
        scatter_then_set = False

        def processing(self) -> None:
            self.warm_up(self.kernel)
            for step in range(self.loops):
                if step == 1:
                    self.env.mmat.reset()
                elif step == 2:
                    self.withhold_a_halo_page()
                    continue
                elif step == 3:
                    self.scatter_then_set = True
                elif step == 4:
                    self.install_on_a_fresh_block()
                    self.grow_the_env()
                self.run(self.kernel)

        def refresh(self, warmup: bool = False) -> bool:
            if self.scatter_then_set and not warmup:
                self.scatter_then_set = False
                self.overwrite_through_both_paths()
            done = super().refresh(warmup)
            self.env.check_dense_image()
            return done

        # -- the hazards ----------------------------------------------
        def withhold_a_halo_page(self) -> None:
            """Run one step with a prefetched halo page marked not arrived."""
            env = self.env
            env.complete_pending_halo(drained=True)
            needed = sorted(env.plan_page_requirements())
            trace = global_trace().for_task()
            recomputed = trace.recomputed_steps
            if needed:
                key = needed[0]
                env.block(key.block_id).buffer.read_buffer.pages[key.page_index].valid = False
            self.run(self.kernel)
            # Every rank re-executes a step that failed anywhere; a world
            # of one rank has no halo to withhold.
            if self.task.mpi_size > 1:
                assert trace.recomputed_steps == recomputed + 1

        def overwrite_through_both_paths(self) -> None:
            """Scatter garbage over a swept Block, then ``set`` it back."""
            block = self.env.get_blocks(False)[0]
            k = self.kernel_for(block)
            swept = block.buffer.write_buffer.dense().copy()
            k.scatter(np.full((block.element_count, block.components), -7.0))
            for index, local in enumerate(np.ndindex(*block.shape)):
                k.set(local, swept[index] if block.components > 1 else swept[index, 0])

        def install_on_a_fresh_block(self) -> None:
            env = self.env
            block = env.get_blocks(False)[0]
            key = PageKey(block.block_id, 0)
            page = env.page_snapshot(key)
            env.dense_read(block)  # fresh from here on
            assembled = env.stats.dense_assemblies
            env.page_install(key, np.full_like(page, -3.0))
            assert np.all(env.dense_read(block)[: block.page_elements] == -3.0)
            env.page_install(key, page)
            assert np.array_equal(env.dense_read(block)[: block.page_elements], page)
            assert env.stats.dense_assemblies == assembled + 2
            env.check_dense_image()

        def grow_the_env(self) -> None:
            env = self.env
            like = env.get_blocks(False)[0]
            late = BufferOnlyBlock(
                tuple(10**6 for _ in like.shape),
                like.shape,
                components=like.components,
                page_elements=like.page_elements,
                allocator=env.allocator,
                name="late-arrival",
            )
            late.load_dense(np.full((late.element_count, late.components), 9.0))
            env.add_data_block(late)
            assert np.all(env.dense_read(late) == 9.0)

    Disturbed.__name__ = f"Disturbed{app_cls.__name__}"
    return Disturbed


APPS = {
    "sgrid": (JacobiSGrid, dict(region=16, block_size=4, page_elements=8, init=_init)),
    "sgrid-neumann": (
        JacobiSGrid,
        dict(region=16, block_size=4, page_elements=8, init=_init, boundary="neumann"),
    ),
    "usgrid-c": (JacobiUSGrid, dict(region=16, block_cells=32, page_elements=8, init=_init)),
    "usgrid-r": (
        JacobiUSGrid,
        dict(region=16, block_cells=32, page_elements=8, init=_init, case="R"),
    ),
    "particle": (ParticleSimulation, dict(particles=128, block_buckets=2, page_elements=2)),
}
DISTURBED = {name: disturbed(app_cls) for name, (app_cls, _) in APPS.items()}
WORLDS = [("serial", 1), ("threads", 1), ("threads", 2), ("threads", 4),
          ("process", 1), ("process", 2), ("process", 4)]

_references: dict = {}


def reference(name: str) -> np.ndarray:
    """The undisturbed serial result: the scalar kernel's for the grids;
    the particle app's scalar kernel sums pair forces in another order
    than its vectorized one, so there the vectorized serial run."""
    if name not in _references:
        app_cls, config = APPS[name]
        scalar = app_cls is not ParticleSimulation
        run = Platform(mmat=not scalar).run(
            app_cls, config=dict(config, loops=LOOPS, kernel="scalar" if scalar else "vectorized")
        )
        _references[name] = np.asarray(run.result, dtype=np.float64)
    return _references[name]


def owned_part(name: str, result: np.ndarray, expected: np.ndarray):
    """``(result, expected)`` restricted to what rank 0 owns."""
    if APPS[name][0] is ParticleSimulation:  # rows of (id, position, velocity)
        return result, expected[np.isin(expected[:, 0], result[:, 0])]
    mine = ~np.isnan(result)  # other ranks' cells are NaN holes
    return result[mine], expected[mine]


@pytest.mark.parametrize("backend,ranks", WORLDS)
@pytest.mark.parametrize("name", sorted(APPS))
def test_image_holds_through_every_hazard(name, backend, ranks):
    aspects = None if backend == "serial" else mpi_aspects(ranks, backend=backend)
    run = Platform(aspects=aspects, mmat=True).run(
        DISTURBED[name], config=dict(APPS[name][1], loops=LOOPS)
    )
    result, expected = owned_part(name, np.asarray(run.result, dtype=np.float64), reference(name))
    assert result.size and result.shape == expected.shape
    assert np.array_equal(result, expected)
    assert run.env_stats.failed_refreshes == (1 if ranks > 1 else 0)
    assert sum(c.plan_fallback_sites for c in run.counters.values()) == 0


def counting(app_cls):
    """``app_cls`` recording ``EnvStats.dense_assemblies`` after every step."""

    class Counting(app_cls):
        def processing(self) -> None:
            self.warm_up(self.kernel)
            self.assembled = []
            for _ in range(self.loops):
                self.run(self.kernel)
                self.assembled.append(self.env.stats.dense_assemblies)

    Counting.__name__ = f"Counting{app_cls.__name__}"
    return Counting


COUNTING = {name: counting(app_cls) for name, (app_cls, _) in APPS.items()}


@pytest.mark.parametrize("name", sorted(APPS))
def test_steady_state_step_assembles_no_owned_block(name):
    run = Platform(mmat=True).run(COUNTING[name], config=dict(APPS[name][1], loops=LOOPS))
    per_step = np.diff(run.app.assembled)
    # The first step reads what the warm-up left (nothing is promoted
    # from a warm-up); from then on every Block was fully stored.
    assert not per_step.any(), per_step
    assert f" asm={run.app.assembled[-1]}" in run.summary()


@pytest.mark.parametrize("name", sorted(APPS))
def test_two_rank_step_assembles_only_installed_halo_blocks(name):
    config = dict(APPS[name][1], loops=LOOPS)
    # A published halo is stored straight into the image rows: no
    # steady-state step copies any Block, owned or Buffer-only.
    pushed = Platform(aspects=mpi_aspects(2, backend="threads"), mmat=True).run(
        COUNTING[name], config=config
    )
    assert pushed.network["halo_pushes"] and not np.diff(pushed.app.assembled).any()
    # On the page protocol a step re-assembles exactly the Buffer-only
    # Blocks it installed pages into.
    run = Platform(aspects=mpi_aspects(2, backend="threads"), mmat=True).run(
        counting(kept_open(APPS[name][0])), config=config
    )
    env = run.app.env
    installed = {key.block_id for key in env.plan_page_requirements()}
    assert installed and all(
        isinstance(env.block(block_id), BufferOnlyBlock) for block_id in installed
    )
    per_step = np.diff(run.app.assembled)
    assert per_step.any() and per_step.max() <= len(installed)

"""Property tests: the dense image is the page memory, through every hazard.

Compiled plans read one rank-wide array per image class
(:class:`repro.memory.env.DenseImage`).  For the Blocks a rank owns that
array is not a copy of the read buffers but the pool memory their pages
are views of, so no writer can go *around* it; for Buffer-only Blocks it
is a mirror that every install must invalidate.  Each app below runs
with everything that ever made the old mirror stale injected mid-run:

* ``MMAT.reset()`` (every plan and fused kernel recompiled);
* a halo page withheld, so a refresh fails and the step is recomputed;
* a whole-block ``scatter`` followed by scalar ``set`` calls in the same
  step;
* a ``page_install`` on an owned Block (written straight into its rows);
* a Buffer-only Block and an *owned* Block added to the Env after the
  plans were compiled (the owned one is re-homed into the slabs, which
  are re-allocated: data and compiled row indices must survive).

The apps include classes whose Blocks end in a short page
(``element_count % page_elements != 0``).  ``Env.check_dense_image()`` —
aliasing by address, one read generation per class, disjoint slabs,
halo rows equal to their pages — must hold after every refresh with
``REPRO_CHECK`` on, and the result must equal, bit for bit, an
undisturbed serial reference.

Count guards pin what the layout is for: no owned Block is ever
assembled, slabs move only when a Block arrives late, and a thread has
one padded field per kernel signature.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.memory import BufferOnlyBlock, DataBlock, PageKey
from repro.runtime import shm
from repro.runtime.tracing import global_trace

from page_protocol import kept_open

LOOPS = 6


@pytest.fixture
def checks():
    """``REPRO_CHECK`` on (set before a process world forks its ranks)."""
    previous = shm.set_protocol_checks(True)
    yield
    shm.set_protocol_checks(previous)


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
                    self.install_on_an_owned_block()
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

        def install_on_an_owned_block(self) -> None:
            env = self.env
            block = env.get_blocks(False)[0]
            key = PageKey(block.block_id, 0)
            page = env.page_snapshot(key)
            env.page_install(key, np.full_like(page, -3.0))
            assert np.all(env.dense_read(block)[: block.page_elements] == -3.0)
            env.page_install(key, page)
            assert np.array_equal(env.dense_read(block)[: block.page_elements], page)
            assert np.shares_memory(env.dense_read(block), env.page_export(key)[0])
            env.check_dense_image()

        def grow_the_env(self) -> None:
            env = self.env
            like = env.get_blocks(False)[0]
            image = env.image_slot(like)[0]
            sizes = dict(components=like.components, page_elements=like.page_elements,
                         allocator=env.allocator)
            late = BufferOnlyBlock(
                tuple(10**6 for _ in like.shape), like.shape, name="late-arrival", **sizes
            )
            late.load_dense(np.full((late.element_count, late.components), 9.0))
            env.add_data_block(late)
            # Its rows outgrow the ghost tail the DSL reserved: the slabs
            # are re-allocated (a class re-home), the owned rows kept.
            assert env.stats.rehomes_class_grew == 1 and image.tail >= image.halo_rows
            assert np.all(env.dense_read(late) == 9.0)
            # An owned Block with pages of its own, off the data joint so
            # that no task sweeps it: the slabs are re-allocated one Block
            # larger and every owned page re-pointed.
            held = image.local_rows
            before = (env.allocator.used_bytes, image.read[:held].copy(), image.next[:held].copy())
            mine = DataBlock(
                tuple(2 * 10**6 for _ in like.shape), like.shape, name="late-owned", **sizes
            )
            mine.load_dense(np.full((mine.element_count, mine.components), 6.0))
            mine.load_dense(np.full((mine.element_count, mine.components), 5.0), into_write=True)
            env.add_data_block(mine, parent=env.root)
            self.late_owned = mine
            rows = mine.element_count
            assert env.stats.rehomes_late_block == 1
            assert image.ghost_base == image.local_rows == held + rows
            assert np.array_equal(image.read[:held], before[1])
            assert np.array_equal(image.next[:held], before[2])
            mine_rows = slice(held, held + rows)
            assert np.all(image.read[mine_rows] == 6.0) and np.all(image.next[mine_rows] == 5.0)
            # Its own pages went back to the pool: the class grew by exactly
            # its rows, the Buffer-only Block's pages stay where they are.
            assert env.allocator.used_bytes == before[0] + mine.buffer.nbytes
            env.check_dense_image()

        def finalize(self) -> None:
            # The late Block swapped with its class ever since.
            env, mine = self.env, self.late_owned
            env.check_dense_image()
            value = 6.0 if (self.loops - 4) % 2 == 0 else 5.0
            assert np.all(env.dense_read(mine) == value)
            super().finalize()

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
    # Blocks that end in a short page: 16 cells in pages of 6, 32 in pages of 5.
    "sgrid-ragged": (JacobiSGrid, dict(region=16, block_size=4, page_elements=6, init=_init)),
    "usgrid-r-ragged": (
        JacobiUSGrid,
        dict(region=16, block_cells=32, page_elements=5, init=_init, case="R"),
    ),
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
def test_image_holds_through_every_hazard(name, backend, ranks, checks):
    if backend == "serial":
        platform = Platform(mmat=True)
    else:
        platform = Platform.preset("mpi", ranks=ranks, backend=backend, mmat=True)
    run = platform.run(
        DISTURBED[name], config=dict(APPS[name][1], loops=LOOPS)
    )
    result, expected = owned_part(name, np.asarray(run.result, dtype=np.float64), reference(name))
    assert result.size and result.shape == expected.shape
    assert np.array_equal(result, expected)
    assert run.env_stats.failed_refreshes == (1 if ranks > 1 else 0)
    assert sum(c.plan_fallback_sites for c in run.counters.values()) == 0
    assert " img=pool rehomes=2(late block 1, class grew 1) asm=" in run.summary()
    if ranks == 1:
        # Nothing but the late Buffer-only Block was ever assembled.
        assert run.env_stats.dense_assemblies == 1


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
def test_no_owned_block_is_ever_assembled_and_none_moves(name):
    run = Platform(mmat=True).run(COUNTING[name], config=dict(APPS[name][1], loops=LOOPS))
    env = run.app.env
    assert run.app.assembled == [0] * LOOPS
    assert env.stats.image_rehomes == 0  # born in slabs sized once for all of them
    env.check_dense_image()
    assert run.memory["image_error"] is None
    assert " img=pool asm=0" in run.summary()
    for block in env.data_blocks():
        image, lo, hi, _ = env.image_slot(block)
        assert np.shares_memory(block.buffer.read_buffer.pages[-1].array, image.read[lo:hi])
        assert np.shares_memory(block.buffer.write_buffer.pages[0].array, image.next[lo:hi])
    # The pool holds the slabs and nothing else: what the pages took before.
    assert env.allocator.used_bytes == sum(b.buffer.nbytes for b in env.data_blocks())
    if APPS[name][0] is JacobiUSGrid:
        # Short last pages do not break the run of rows a tile needs.
        assert run.mmat_stats["tiles"] < run.mmat_stats["tile_blocks"]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_thread_has_one_padded_field_per_signature(threads, checks):
    name = "sgrid"
    config = dict(APPS[name][1], loops=LOOPS)
    platform = Platform.preset("omp", threads=threads, mmat=True) if threads > 1 else Platform(mmat=True)
    run = platform.run(APPS[name][0], config=config)
    assert np.array_equal(np.asarray(run.result, dtype=np.float64), reference(name))
    mmat = run.app.env.mmat
    padded = [key for key in mmat._scratch if key[1] == "padded"]
    signatures = {key[2:] for key in padded}
    assert len(signatures) == 1  # 16 fused kernels of congruent Blocks
    assert 1 <= len(padded) <= threads * len(signatures)
    assert run.mmat_stats["fused_kernels"] == 16
    assert run.mmat_stats["scratch_bytes"] >= sum(mmat._scratch[key].nbytes for key in padded)


@pytest.mark.parametrize("name", sorted(APPS))
def test_two_rank_step_assembles_only_installed_halo_blocks(name):
    config = dict(APPS[name][1], loops=LOOPS)
    # A published halo is stored straight into the image rows: no
    # steady-state step copies any Block, owned or Buffer-only.
    pushed = Platform.preset("mpi", ranks=2, backend="threads", mmat=True).run(
        COUNTING[name], config=config
    )
    assert pushed.network["halo_pushes"] and not np.diff(pushed.app.assembled).any()
    # On the page protocol a step re-assembles exactly the Buffer-only
    # Blocks it installed pages into.
    run = Platform.preset("mpi", ranks=2, backend="threads", mmat=True).run(
        counting(kept_open(APPS[name][0])), config=config
    )
    env = run.app.env
    installed = {key.block_id for key in env.plan_page_requirements()}
    assert installed and all(
        isinstance(env.block(block_id), BufferOnlyBlock) for block_id in installed
    )
    per_step = np.diff(run.app.assembled)
    assert per_step.any() and per_step.max() <= len(installed)

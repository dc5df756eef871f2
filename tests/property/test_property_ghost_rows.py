"""Property test: the ghost tail's numbering, not just the result.

A closed step copies each owner's slot into one run of the consumer's
ghost tail, and the compiled tables were aimed at those runs when the
plans were negotiated: owner-major, in the order the slots were laid
out.  When a consumer reads from several owners whose rows interleave in
halo-row order, that order differs from sorted order, so a tail filled
in any other order than the tables were aimed at reads the wrong rows.

The lattice: USGrid CaseR on 3–4 ranks of the threads and process
worlds, its Blocks dealt round-robin (every consumer reads interleaved
owners), with a mid-run ``MMAT.reset()`` (the renegotiation renumbers
the tail) and a late float32 Block (a second image class).  Every case
runs under ``REPRO_CHECK`` and must end bit-identical to the scalar
serial reference, having read interleaved owners through pushes.

Which tail rows are written, too: on two SGrid ranks the warm-up and the
first closed step fill only the ghost rows their plans read (rows of
other pages keep what they held), and a CaseR run on two ranks, whose
plans read nearly every remote row, stays bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.annotation import Platform
from repro.apps import JacobiSGrid
from repro.memory import BufferOnlyBlock
from repro.runtime import get_backend
from repro.runtime.shm import set_protocol_checks

from test_property_tiles import LOOPS, REGION, Disturbed, _init, expected_late, reference

WORLDS = [("threads", 3), ("threads", 4), ("process", 3), ("process", 4)]
BACKENDS = ["threads", "process"]
if not get_backend("process").available():
    WORLDS = [w for w in WORLDS if w[0] != "process"]
    BACKENDS = ["threads"]


@pytest.fixture(autouse=True)
def protocol_checks_on():
    previous = set_protocol_checks(True)
    yield
    set_protocol_checks(previous)


class Numbered(Disturbed):
    """Records, at every refresh, how rank 0's tail is numbered."""

    def refresh(self, warmup: bool = False) -> bool:
        done = super().refresh(warmup)
        for image in self.env._images.values():
            if image.pushed:
                # Where the pushed halo rows sit, in sorted halo-row order.
                places = image.ghost_index(np.arange(image.halo_rows)) - image.ghost_base
                ghosts = places[places < image.pushed]
                self.interleaved = getattr(self, "interleaved", 0) + bool(
                    np.any(np.diff(ghosts) < 0)
                )
                self.layouts = getattr(self, "layouts", set()) | {image.layout}
        return done


@settings(max_examples=6, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    world=st.sampled_from(WORLDS),
    block_cells=st.sampled_from([8, 16]),
    reset_at=st.sampled_from([1, 3]),
    grow_at=st.sampled_from([None, 2]),
)
@example(world=WORLDS[0], block_cells=8, reset_at=1, grow_at=2)
@example(world=WORLDS[-1], block_cells=16, reset_at=3, grow_at=2)
def test_the_tail_is_read_in_the_numbering_it_was_filled_in(world, block_cells, reset_at, grow_at):
    backend, ranks = world
    config = dict(region=REGION, block_cells=block_cells, page_elements=8, init=_init,
                  case="R", loops=LOOPS, reset_at=reset_at, grow_at=grow_at, interleave=True)
    run = (Platform.builder().mpi(ranks, backend=backend).mmat().comm_timeout(30.0)
           .run(Numbered, config=config))
    result, expected = np.asarray(run.result), reference("R")
    mine = ~np.isnan(result)
    assert mine.any() and np.array_equal(result[mine], expected[mine])
    if grow_at is not None:
        (late,) = run.app.late
        assert late.dtype == np.float32
        assert np.array_equal(late, expected_late(LOOPS - grow_at))
    # Rank 0 read interleaved owners through their pushes, under two
    # negotiations (the reset renumbered the tail).
    assert run.network["halo_pushes"] > 0
    assert run.app.interleaved > 0 and len(run.app.layouts) >= 2


SENTINEL = -12345.0


class Sentinelled(JacobiSGrid):
    """Puts the sentinel in every ghost row of both slabs before warm-up."""

    def processing(self) -> None:
        for image in self.env._images.values():
            for slab in image.slabs:
                slab[image.ghost_base :] = SENTINEL
        super().processing()


def read_page_rows(env, image) -> np.ndarray:
    """Tail rows (from the tail's start) of the pages the plans read, in
    halo-row order: the rows their installs and fills may write."""
    rows = [np.arange(0)]
    for key in env.plan_page_requirements():
        block = env.block(key.block_id)
        page = block.buffer.read_buffer.pages[key.page_index]
        first = env.image_slot(block)[1] + key.page_index * block.page_elements
        rows.append(np.arange(first, first + page.elements))
    return np.concatenate(rows)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sgrid_fills_only_the_ghost_rows_its_plans_read(backend):
    """Warm-up and the first closed step write the rows of the pages the
    plans read and the pushed run, no other tail row; step 2 reads pushes."""
    config = dict(region=32, block_size=8, page_elements=2, loops=2,
                  init=lambda x, y: 0.03 * x - 0.05 * y + 1.0)
    run = (Platform.builder().mpi(2, backend=backend).mmat().comm_timeout(30.0)
           .run(Sentinelled, config=config))
    plain = Platform.builder().mpi(2, backend=backend).run(JacobiSGrid, config=config)
    result = np.asarray(run.result)
    mine = ~np.isnan(result)
    assert mine.any() and np.array_equal(result[mine], np.asarray(plain.result)[mine])
    assert run.network["halo_pushes"] > 0
    env = run.app.env
    (image,) = env._images.values()
    written = np.zeros(image.tail, dtype=bool)
    written[read_page_rows(env, image)] = True
    written[: image.pushed] = True
    # The Buffer-only Blocks the plans read hold rows no plan reads.
    read_blocks = {key.block_id for key in env.plan_page_requirements()}
    spans = [env.image_slot(b)[1:3] for b in image.remote if b.block_id in read_blocks]
    unread = sum(int(np.count_nonzero(~written[lo:hi])) for lo, hi in spans)
    assert all(isinstance(b, BufferOnlyBlock) for b in image.remote) and unread > 0
    for slab in image.slabs:
        kept = np.all(slab[image.ghost_base :] == SENTINEL, axis=1)
        assert kept[~written].all()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_two_rank_caser_run_stays_bit_identical(backend):
    config = dict(region=REGION, block_cells=16, page_elements=8, init=_init, case="R",
                  loops=LOOPS, reset_at=None, grow_at=None, interleave=False)
    run = (Platform.builder().mpi(2, backend=backend).mmat().comm_timeout(30.0)
           .run(Disturbed, config=config))
    result = np.asarray(run.result)
    mine = ~np.isnan(result)
    assert mine.any() and np.array_equal(result[mine], reference("R")[mine])
    assert run.network["halo_pushes"] > 0

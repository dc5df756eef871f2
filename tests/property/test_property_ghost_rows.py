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
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.annotation import Platform
from repro.runtime import get_backend
from repro.runtime.shm import set_protocol_checks

from test_property_tiles import LOOPS, REGION, Disturbed, _init, expected_late, reference

WORLDS = [("threads", 3), ("threads", 4), ("process", 3), ("process", 4)]
if not get_backend("process").available():
    WORLDS = [w for w in WORLDS if w[0] != "process"]


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

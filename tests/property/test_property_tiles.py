"""Property tests: a tile computes what its Blocks did, and a Block what
the scalar kernel did — over the configuration lattice.

``JacobiUSGrid`` sweeps *tiles* (runs of consecutive Blocks: one access
plan per table, one user expression, one store).  One hypothesis
strategy draws the layout (CaseC / CaseR), the Block size, the world
(ranks x backend, with or without a shared-memory team), MMAT on or off,
the data plane a process world picks (shm here, pipe where shared
memory is missing — ``page_protocol.plane``), and what disturbs
the run: a mid-run ``MMAT.reset()``, a Block of another image class
added after the tiles were built, Blocks dealt round-robin so that a
task's image rows do not follow each other, a byte budget small enough
to cut every rank's run of Blocks into several tiles.

Every case runs with ``REPRO_CHECK`` on (the refresh advice asserts the
push invariants and ``Env.check_dense_image()`` at every step) and must
end bit-identical to the scalar serial reference.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.annotation import Platform
from repro.apps import JacobiUSGrid
from repro.dsl import base
from repro.memory import DataBlock
from repro.runtime import get_backend
from repro.runtime.shm import set_protocol_checks
from repro.runtime.task import current_task

from page_protocol import plane

LOOPS = 5
REGION = 16
LATE_ORIGIN = 10**6


def _init(x, y):
    return 0.03 * x - 0.05 * y + 2.0


@pytest.fixture(autouse=True)
def protocol_checks_on():
    previous = set_protocol_checks(True)
    yield
    set_protocol_checks(previous)


_references: dict = {}


def reference(case: str) -> np.ndarray:
    """The scalar serial result (independent of how cells are blocked)."""
    if case not in _references:
        config = dict(region=REGION, block_cells=32, page_elements=8, init=_init,
                      case=case, loops=LOOPS, kernel="scalar")
        _references[case] = np.asarray(Platform().run(JacobiUSGrid, config=config).result)
    return _references[case]


class Disturbed(JacobiUSGrid):
    """JacobiUSGrid with the lattice's disturbances scripted into its run."""

    def assign_tasks(self, specs):
        pairs = super().assign_tasks(specs)
        if self.config["interleave"]:
            total = current_task().mpi_size * self.omp_threads()
            pairs = [(spec, k % total) for k, (spec, _) in enumerate(pairs)]
        return pairs

    def processing(self) -> None:
        self.warm_up(self.kernel)
        for step in range(self.loops):
            if step == self.config["reset_at"]:
                self.forget_accesses()  # MMAT.reset(), once per team
            if step == self.config["grow_at"]:
                self.add_a_late_block()
            self.run(self.kernel)

    def refresh(self, warmup: bool = False) -> bool:
        done = super().refresh(warmup)
        if self.omp_threads() == 1:  # a team's other members are sweeping
            self.env.check_dense_image()
        return done

    def add_a_late_block(self) -> None:
        """A float32 Block of this task, closed under its neighbour table:
        the Block list changes and the tile ends at an image-class change."""
        env = self.env
        like = env.get_blocks(False)[0]
        late = DataBlock((LATE_ORIGIN,), (8,), components=1, page_elements=4,
                         allocator=env.allocator, dtype=np.float32, name="late")
        late.dm_tid, late.ch_tid = like.dm_tid, like.ch_tid
        late.static_fields["neighbors"] = LATE_ORIGIN + (
            np.arange(8)[:, None] + np.array([1, 2, 3, 5])
        ) % 8
        for buf in late.buffer.buffers:
            buf.load_dense(np.arange(8.0))
        env.add_data_block(late)

    def local_field(self) -> np.ndarray:
        cells = [b for b in self.env.data_blocks() if b.name != "late"]
        self.late = [b.dense().reshape(-1) for b in self.env.data_blocks() if b.name == "late"]
        with mock.patch.object(self.env, "data_blocks", lambda **kw: cells):
            return super().local_field()


def expected_late(steps: int) -> np.ndarray:
    values = np.arange(8.0, dtype=np.float32)
    table = (np.arange(8)[:, None] + np.array([1, 2, 3, 5])) % 8
    for _ in range(steps):
        n = values[table]
        values = 0.2 * values + 0.2 * (n[:, 1] + n[:, 0] + n[:, 3] + n[:, 2])
    return values


WORLDS = [("serial", 1, 1), ("threads", 2, 1), ("threads", 3, 1), ("threads", 2, 2),
          ("threads", 1, 2), ("process", 2, 1), ("process", 3, 1)]
if not get_backend("process").available():
    WORLDS = [w for w in WORLDS if w[0] != "process"]


@st.composite
def lattice(draw):
    backend, ranks, omp = draw(st.sampled_from(WORLDS))
    return dict(
        case=draw(st.sampled_from("CR")),
        block_cells=draw(st.sampled_from([8, 16, 32])),
        backend=backend, ranks=ranks, omp=omp,
        mmat=draw(st.booleans()),
        transport=draw(st.sampled_from(["shm", "pipe"])),
        reset_at=draw(st.sampled_from([None, 1, 3])),
        # Growing an Env its team is sweeping is not something apps may do.
        grow_at=draw(st.sampled_from([None, 2])) if omp == 1 else None,
        interleave=draw(st.booleans()),
        # Gathered bytes a tile may hold: the constant, or two Blocks' table.
        budget=draw(st.sampled_from([None, 2])),
    )


def run_point(point: dict):
    config = dict(region=REGION, block_cells=point["block_cells"], page_elements=8,
                  init=_init, case=point["case"], loops=LOOPS,
                  reset_at=point["reset_at"], grow_at=point["grow_at"],
                  interleave=point["interleave"])
    builder = Platform.builder().mpi(point["ranks"], backend=point["backend"])
    builder.mmat(point["mmat"]).comm_timeout(30.0)
    if point["omp"] > 1:
        builder.omp(point["omp"])
    budget = base.TILE_BYTES
    if point["budget"] is not None:
        budget = point["budget"] * point["block_cells"] * 4 * 8
    with mock.patch.object(base, "TILE_BYTES", budget), plane(point["transport"]):
        return builder.run(Disturbed, config=config)


@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
@given(point=lattice())
def test_tile_equals_block_equals_scalar(point):
    run = run_point(point)
    result, expected = np.asarray(run.result), reference(point["case"])
    mine = ~np.isnan(result)  # other ranks' cells are NaN holes
    assert mine.any() and np.array_equal(result[mine], expected[mine])
    if point["grow_at"] is not None:
        (late,) = run.app.late
        assert late.dtype == np.float32
        assert np.array_equal(late, expected_late(LOOPS - point["grow_at"]))
    stats = run.mmat_stats
    blocks = REGION * REGION // point["block_cells"]
    tasks = point["ranks"] * point["omp"]
    swept = -(-blocks // tasks) if tasks > 1 else blocks  # rank 0 thread 0 gets a full share
    assert stats["tile_blocks"] >= swept
    assert stats["tiles"] <= stats["tile_blocks"]
    if not point["mmat"]:
        assert stats["fallback_sites"] > 0 and stats["plans"] == 0
    else:
        assert stats["fallback_sites"] == 0
        # One owned + at most one halo table per tile and table read.
        assert stats["plans"] <= 2 * stats["tiles"]


@pytest.mark.parametrize("ranks,omp", [(1, 1), (2, 1), (2, 2)])
def test_why_a_tile_ends(ranks, omp):
    """The run reports its tiles and each boundary's reason."""
    point = dict(case="R", block_cells=16, backend="threads" if ranks > 1 else "serial",
                 ranks=ranks, omp=omp, mmat=True, transport="shm",
                 reset_at=None, grow_at=None, interleave=False, budget=None)
    whole = run_point(point)
    mine = 16 // (ranks * omp)
    assert whole.mmat_stats["tiles"] == omp and whole.mmat_stats["tile_blocks"] == mine * omp
    assert whole.mmat_stats["tile_splits"] == {}
    assert f"tiles={omp}×{mine}" in whole.summary()

    cut = run_point(dict(point, budget=2))
    assert cut.mmat_stats["tiles"] == mine * omp // 2
    assert cut.mmat_stats["tile_splits"] == {"budget": (mine // 2 - 1) * omp}
    assert "(budget)" in cut.summary()

    if omp > 1:  # round-robin: a thread's rows never follow each other
        dealt = run_point(dict(point, interleave=True))
        assert dealt.mmat_stats["tiles"] == dealt.mmat_stats["tile_blocks"] == mine * omp
        assert set(dealt.mmat_stats["tile_splits"]) == {"ownership"}
    else:
        grown = run_point(dict(point, grow_at=2))
        assert grown.mmat_stats["tile_splits"] == {"image class": 1}

    off = run_point(dict(point, mmat=False))
    assert off.mmat_stats["tile_splits"] == {"mmat off": mine * omp - omp}

"""The Dry-run repair moves one bulk exchange per owner.

A step that read a halo page which had not arrived fails on every rank
(§III-B9): nobody swaps, the ranks that missed pages fetch them — one
request/reply pair per owning rank, issued and completed before the
step barrier — and add them to their Dry-run record, and every rank
re-executes the step.  Here rank 0 marks, before step 0, every halo
page it reads from two of its owners as not arrived, on a threads world
and a process world.  The repair must cost two messages per owner, not
two per page, and the recomputed run must equal scalar serial bit for bit.  A reply dropped
on the way must fail the repair with a ``PageFetchError`` naming the
pages it was waiting for.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid
from repro.aspects import DistributedMemoryAspect
from repro.memory.page import PageKey
from repro.resilience import FaultPlan
from repro.runtime import PageFetchError, create_world
from repro.runtime.tracing import TaskCounters, global_trace

CONFIG = dict(
    region=16, block_size=4, page_elements=8, loops=3, init=lambda x, y: 0.03 * x - 0.05 * y
)
WORLDS = ["threads", "process"]


class WithheldSGrid(JacobiSGrid):
    """Jacobi whose rank 0 withholds the halo pages of two owners before
    step 0 and logs, per failed refresh, the pages it installed."""

    def processing(self) -> None:
        self.warm_up(self.kernel)
        self.repairs = []
        if self.task.mpi_rank == 0:
            self.owners, self.pages = self.withhold(owners=2)
        for _ in range(self.loops):
            self.run(self.kernel)

    def withhold(self, owners: int):
        env = self.env  # the warm-up's prefetch is in: its refresh waited for it
        directory = self.platform.context["mpi_world"].directory
        by_owner = {}
        for key in sorted(env.plan_page_requirements()):
            owner = directory.owner_of(env.block(key.block_id).logical_key)
            by_owner.setdefault(owner, []).append(key)
        chosen = sorted(by_owner)[:owners]
        pages = [key for owner in chosen for key in by_owner[owner]]
        for key in pages:
            env.block(key.block_id).buffer.read_buffer.pages[key.page_index].valid = False
        return chosen, pages

    def refresh(self, warmup: bool = False) -> bool:
        trace = global_trace().for_task()
        before = trace.pages_fetched
        done = super().refresh(warmup)
        if not done and not warmup:
            self.repairs.append(trace.pages_fetched - before)
        return done


def scalar_serial(loops: int) -> np.ndarray:
    run = Platform().run(JacobiSGrid, config=dict(CONFIG, loops=loops, kernel="scalar"))
    return np.asarray(run.result, dtype=np.float64)


@pytest.mark.parametrize("backend", WORLDS)
def test_repair_moves_one_pair_per_owner(backend):
    platform = Platform.builder().mpi(4, backend=backend).mmat().comm_timeout(30.0).build()
    run = platform.run(WithheldSGrid, config=dict(CONFIG))
    app = run.app
    assert len(app.owners) == 2 and len(app.pages) > len(app.owners)
    # One failed refresh on rank 0, which installs every page ...
    assert app.repairs == [len(app.pages)]
    # ... moved by one request/reply pair per owner: beyond a run that
    # withheld nothing, the world moved one message each way on exactly
    # rank 0's links to those owners.
    plain = platform.run(JacobiSGrid, config=dict(CONFIG)).network
    assert run.network["bulk_fetches"] - plain["bulk_fetches"] == len(app.owners)
    assert run.network["bulk_pages"] - plain["bulk_pages"] == len(app.pages)
    extra = {
        link: entry["messages"] - plain["per_neighbor"].get(link, {"messages": 0})["messages"]
        for link, entry in run.network["per_neighbor"].items()
    }
    assert {link: n for link, n in extra.items() if n} == {
        link: 1 for owner in app.owners for link in (f"0->{owner}", f"{owner}->0")
    }
    assert run.counters[(0, 0)].recomputed_steps == 1
    result = np.asarray(run.result, dtype=np.float64)
    mine = ~np.isnan(result)
    assert mine.any() and np.array_equal(result[mine], scalar_serial(CONFIG["loops"])[mine])


class _Endpoint:
    def page_snapshot(self, key):
        return np.full(4, float(key.page_index))


class _Block:
    name = "halo-of-rank-1"
    logical_key = ("blk", 1)


class _Env:
    def block(self, block_id):
        return _Block()

    def page_install_many(self, items):
        raise AssertionError("a dropped repair installed pages")


@pytest.mark.parametrize("backend", WORLDS)
def test_a_dropped_repair_reply_names_the_outstanding_pages(backend):
    timeout = 1.0
    world = create_world(backend, 2, timeout=timeout)
    world.install_fault_plan(FaultPlan().drop_reply(1, peer=0))
    aspect = DistributedMemoryAspect(processes=2)
    aspect.world = world
    missing = {PageKey(5, 0), PageKey(5, 1)}

    def body(ctx):
        rank = ctx.mpi_rank
        world.register_env(rank, _Endpoint())
        world.register_block(("blk", rank), rank, 7 + rank, owner=True)
        world.commit_registration()
        if rank == 1:
            # Outlast rank 0's wait for the dropped reply before the
            # end-of-program drain starts timing this rank out.
            time.sleep(timeout)
            return None
        try:
            aspect._repair(_Env(), 0, missing, TaskCounters())
        except PageFetchError as exc:
            return str(exc)
        return None

    try:
        results = world.run_spmd(body)
    finally:
        world.finalize()
    message = results[0].value
    assert message is not None
    assert "PageKey(block=5, page=0), PageKey(block=5, page=1)" in message

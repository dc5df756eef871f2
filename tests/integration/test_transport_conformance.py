"""Transport-conformance suite: the shm data plane's bulk-fetch contract.

A multi-rank process world moves every remote page as a shared-memory
descriptor: the owner publishes the page into a seqlock-stamped slot of
its arena and the reply names the slot.  This suite pins the contract
of that one plane — the pages are the owner's, every remote page counts
as one descriptor fetch, zero-byte pages travel as header-only slots,
an object-dtype page is refused by name and a full ``/dev/shm`` names
the bytes it could not get — checks the rule that every multi-rank
process world maps shared memory (``TestDataPlaneRule``; without it
``create_world`` refuses) and pins the segment-hygiene guarantees
(clean finalize, dead-rank sweep; the mid-run kill regression for
leaked ``/dev/shm`` entries lives in ``TestSegmentHygiene``).
"""

from __future__ import annotations

import glob
import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest

from repro import Platform
from repro.apps import JacobiSGrid
from repro.resilience import FaultPlan, ResiliencePolicy
from repro.runtime import BackendError, NetworkError, create_world, get_backend, shm
from repro.runtime.backends import process
from repro.runtime.shm import shm_available

from page_protocol import no_space, slotless

pytestmark = pytest.mark.skipif(
    not get_backend("process").available() or not shm_available(),
    reason="process backend with shared memory unavailable",
)

TIMEOUT = 15.0
SIZES = [2, 3]


def make_world(size: int):
    return create_world("process", size, timeout=TIMEOUT)


def page_values(rank: int, block_id: int, page_index: int) -> list:
    """What :class:`PageEndpoint` serves for one page."""
    return (np.arange(4, dtype=np.float64) + 1000.0 * rank + 10.0 * block_id + page_index).tolist()


class PageEndpoint:
    """Float pages, deterministic per (rank, block, page)."""

    def __init__(self, rank: int) -> None:
        self.rank = rank

    def page_snapshot(self, key):
        return np.asarray(page_values(self.rank, key.block_id, key.page_index))


class EmptyPageEndpoint(PageEndpoint):
    """Odd pages are zero-length: they publish header-only slots."""

    def page_snapshot(self, key):
        return np.array([]) if key.page_index % 2 else super().page_snapshot(key)


class ObjectPageEndpoint(PageEndpoint):
    """Odd pages hold Python objects: no bytes another process could map."""

    def page_snapshot(self, key):
        return np.array([object()] * 4) if key.page_index % 2 else super().page_snapshot(key)


def register(world, rank: int, endpoint_cls=PageEndpoint) -> None:
    """Serve ``endpoint_cls(rank)``'s pages as Block ``("blk", rank)`` (id 7 + rank)."""
    world.register_env(rank, endpoint_cls(rank))
    world.register_block(("blk", rank), rank, 7 + rank, owner=True)
    world.commit_registration()


def fetch(world, rank: int, requests):
    """``(result, None)`` of one bulk fetch, or ``(None, error message)``."""
    try:
        return world.fetch_pages_bulk_async(rank, requests).wait(), None
    except NetworkError as exc:
        return None, str(exc)


def spmd(world, body) -> list:
    """Every rank's value of ``body``; the world is finalized after."""
    try:
        return [r.value for r in world.run_spmd(body)]
    finally:
        world.finalize()


def run_fetch(size, *, endpoint_cls=PageEndpoint, page_indices=(0, 2)):
    """One bulk fetch per rank from every peer; returns (world, rank dicts)."""
    world = make_world(size)

    def body(ctx):
        rank = ctx.mpi_rank
        register(world, rank, endpoint_cls)
        owners = [owner for owner in range(size) if owner != rank]
        result, error = fetch(world, rank, [(("blk", o), i) for o in owners for i in page_indices])
        world.barrier()
        pages = {(key, page): data.tolist() for key, page, data in result.pages} if result else {}
        return {"rank": rank, "pages": pages, "exchanges": result and result.exchanges,
                "error": error}

    return world, spmd(world, body)


def leftover_segments(pattern: str = "repro_shm_*") -> list:
    return glob.glob(f"/dev/shm/{pattern}")


# ----------------------------------------------------------------------
# contract cases, by world size
# ----------------------------------------------------------------------


class TestBulkFetchContract:
    @pytest.mark.parametrize("size", SIZES)
    def test_empty_request_set(self, size):
        world = make_world(size)

        def body(ctx):
            register(world, ctx.mpi_rank)
            result = world.fetch_pages_bulk_async(ctx.mpi_rank, []).wait()
            world.barrier()
            return (len(result.pages), result.exchanges, result.nbytes)

        assert spmd(world, body) == [(0, 0, 0)] * size
        assert world.traffic_summary()["shm_fetches"] == 0

    @pytest.mark.parametrize("size", SIZES)
    def test_a_self_rank_request_is_refused_at_issue(self, size):
        """A rank reads its own pages in place: asking itself is an error,
        raised before anything is sent, so no segment is read."""
        world = make_world(size)

        def body(ctx):
            rank = ctx.mpi_rank
            register(world, rank)
            result, error = fetch(world, rank, [(("blk", rank), 0), (("blk", rank), 2)])
            world.barrier()
            return result, error

        for rank, (result, error) in enumerate(spmd(world, body)):
            assert result is None
            assert f"rank {rank} asked rank {rank} for pages" in error
        stats = world.traffic_summary()
        assert stats["shm_fetches"] == stats["bulk_fetches"] == 0

    @pytest.mark.parametrize("size", SIZES)
    def test_mixed_owner_pages_are_the_owners_pages(self, size):
        _, results = run_fetch(size)
        for result in results:
            owners = [owner for owner in range(size) if owner != result["rank"]]
            assert result["error"] is None and result["exchanges"] == len(owners)
            assert result["pages"] == {
                (("blk", owner), index): page_values(owner, 7 + owner, index)
                for owner in owners
                for index in (0, 2)
            }

    @pytest.mark.parametrize("size", SIZES)
    def test_every_remote_page_arrives_as_a_descriptor(self, size):
        world, _ = run_fetch(size)
        stats = world.traffic_summary()
        remote_pages = 2 * size * (size - 1)
        assert stats["bulk_pages"] == stats["shm_fetches"] == remote_pages
        assert stats["bulk_fetches"] == size * (size - 1)
        assert stats["shm_bytes"] == remote_pages * 32 and stats["shm_fallbacks"] == 0
        # Each directed link carries one request (32 + 16 bytes per page)
        # and one reply (the two pages' bytes).
        assert stats["per_neighbor"] == {
            f"{a}->{b}": {"messages": 2, "bytes": 64 + 64}
            for a in range(size)
            for b in range(size)
            if a != b
        }

    @pytest.mark.parametrize("size", SIZES)
    def test_zero_byte_pages_publish_header_only_slots(self, size):
        world, results = run_fetch(size, endpoint_cls=EmptyPageEndpoint, page_indices=(0, 1))
        assert [result["error"] for result in results] == [None] * size
        assert all(result["pages"][key] == [] for result in results for key in result["pages"]
                   if key[1] == 1)
        stats = world.traffic_summary()
        per_page = size * (size - 1)  # of page 0 (four floats) and of page 1 (empty)
        assert stats["shm_fetches"] == 2 * per_page and stats["shm_bytes"] == 32 * per_page

    @pytest.mark.parametrize("size", SIZES)
    def test_an_object_dtype_page_is_refused_by_name(self, size):
        """The owner answers with a ``perr`` naming the page and the dtype;
        numpy's "cannot create an OBJECT array" never reaches the requester."""
        _, results = run_fetch(size, endpoint_cls=ObjectPageEndpoint, page_indices=(0, 1))
        for result in results:
            owner = min(o for o in range(size) if o != result["rank"])
            assert "could not serve page batch" in result["error"]
            assert f"page PageKey(block={7 + owner}, page=1) has dtype object" in result["error"]
            assert "OBJECT array" not in result["error"]


# ----------------------------------------------------------------------
# the data-plane rule: a multi-rank process world maps shared memory
# ----------------------------------------------------------------------


SGRID = dict(region=16, block_size=4, page_elements=8, loops=4, init=lambda x, y: x - 0.5 * y)


def probe(world, owner_of):
    """Every rank fetches page 0 of ``owner_of(rank)``'s block; each returns
    whether it saw control words, its fetch error (or None) and the
    world's segments that exist mid-run."""

    def body(ctx):
        register(world, ctx.mpi_rank)
        _, error = fetch(world, ctx.mpi_rank, [(("blk", owner_of(ctx.mpi_rank)), 0)])
        segments = leftover_segments(f"repro_shm_{world.shm_uid}*")
        world.barrier()
        return world.control is not None, error, segments

    return spmd(world, body)


class TestDataPlaneRule:
    @pytest.mark.parametrize(
        "size,fault",
        [(1, None), (2, None), (4, None), (2, "corrupt_reply"), (3, "corrupt_reply"),
         (2, "drop_reply"), (2, "delay_reply"), (2, "kill")],
    )
    def test_rule(self, size, fault):
        """Control words exactly when there are several ranks, whatever
        the fault plan."""
        world = make_world(size)
        if fault is not None:
            world.install_fault_plan(getattr(FaultPlan(), fault)(1))
        assert spmd(world, lambda ctx: world.control is not None) == [size > 1] * size

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_without_shm_a_multi_rank_world_is_refused(self, size):
        children = len(multiprocessing.active_children())
        with mock.patch.object(process, "shm_available", lambda: False):
            with pytest.raises(BackendError, match=f"of {size} ranks .*shared_memory cannot"):
                make_world(size)
            one = make_world(1)  # one rank needs no shared memory
        assert spmd(one, lambda ctx: one.control) == [None]
        assert len(multiprocessing.active_children()) == children  # nothing forked

    def test_two_rank_world_shares_memory(self):
        world = make_world(2)
        values = probe(world, lambda rank: 1 - rank)
        assert [(control, error) for control, error, _ in values] == [(True, None)] * 2
        assert values[0][2]  # the control words and the arenas are named segments
        assert world.traffic_summary()["shm_fetches"] == 2  # replies were descriptors

    def test_a_slotless_world_stays_bit_identical_and_says_why(self):
        serial = np.asarray(Platform().run(JacobiSGrid, config=dict(SGRID)).result)
        run = Platform.builder().mpi(2, backend=slotless()).mmat().run(
            JacobiSGrid, config=dict(SGRID)
        )
        result = np.asarray(run.result)
        mine = ~np.isnan(result)
        assert mine.any() and np.array_equal(result[mine], serial[mine])
        assert run.network["halo_pushes"] == 0 and run.network["bulk_fetches"] > 0
        assert "open: no slots" in run.summary()

    def test_a_corrupt_reply_fails_the_seqlock_check(self):
        world = make_world(2)
        world.install_fault_plan(FaultPlan().corrupt_reply(1, peer=0))
        (control, error, segments), served_back = probe(world, lambda rank: 1 - rank)
        assert control and segments  # the reply came over shared memory …
        assert "bulk page reply 1 from rank 1 failed its integrity check: slot " in error
        assert "descriptor promised" in error  # … and named a version its slot lacks
        assert served_back[:2] == (True, None)  # the 0 -> 1 reply was not corrupted
        assert leftover_segments(f"repro_shm_{world.shm_uid}*") == []

    def test_one_rank_world_creates_no_segment(self):
        """A process world of one is the serial world: it reads its pages in
        place, so it names, maps and leaves no segment."""
        mine = f"repro_shm_{os.getpid()}x*"
        before = set(leftover_segments(mine))
        world = make_world(1)
        assert not hasattr(world, "shm_uid")

        def body(ctx):
            register(world, 0)
            _, error = fetch(world, 0, [(("blk", 0), 0)])
            return world.control, error, set(leftover_segments(mine))

        assert spmd(world, body) == [(None, None, before)]
        assert set(leftover_segments(mine)) == before


# ----------------------------------------------------------------------
# a full /dev/shm
# ----------------------------------------------------------------------


class TestExhaustedShm:
    def test_a_page_serve_names_the_bytes(self):
        """Rank 1 cannot create its arena: rank 0's fetch fails with an
        error naming the segment, its bytes and /dev/shm."""
        world = make_world(2)

        def body(ctx):
            if ctx.mpi_rank == 1:
                with mock.patch.object(shm, "SharedMemory", no_space):
                    register(world, 1)
                    world.barrier()
                return None
            register(world, 0)
            _, error = fetch(world, 0, [(("blk", 1), 0)])
            world.barrier()
            return error

        error = spmd(world, body)[0]
        assert "rank 1 could not serve page batch" in error and "No space left" in error
        assert f"'repro_shm_{world.shm_uid}_1_0' of {1 << 22} bytes in /dev/shm" in error

    def test_a_halo_slot_names_the_bytes(self):
        world = make_world(2)

        def body(ctx):
            if ctx.mpi_rank == 0:
                with mock.patch.object(shm, "SharedMemory", no_space), pytest.raises(
                    NetworkError, match=f"'repro_shm_{world.shm_uid}_0_0' of {1 << 22} bytes "
                    "in /dev/shm"
                ):
                    world.open_halo_link(1, 0, nbytes=4096)
            world.barrier()

        spmd(world, body)
        assert leftover_segments(f"repro_shm_{world.shm_uid}*") == []


# ----------------------------------------------------------------------
# segment hygiene
# ----------------------------------------------------------------------


class TestSegmentHygiene:
    def test_finalize_leaves_no_segments(self):
        world, _ = run_fetch(3)
        assert leftover_segments(f"repro_shm_{world.shm_uid}*") == []

    def test_killed_rank_leaves_no_segments(self):
        """Regression: a rank killed mid-refresh must not leak its arena.

        The dead child never runs its transport close, so its named
        segments survive it — until the parent's ``finalize()`` probe
        sweep unlinks them.  A leak here would leave stale ``/dev/shm``
        entries accumulating across recoveries.  Only this process's
        worlds are compared (segment names carry the creating pid), so
        a process world running concurrently elsewhere cannot fail it.
        """
        mine = f"repro_shm_{os.getpid()}x*"
        before = set(leftover_segments(mine))
        plan = FaultPlan().kill(1, phase="refresh", epoch=2)
        policy = ResiliencePolicy(fault_plan=plan)
        platform = (
            Platform.builder()
            .mpi(4, backend="process")
            .mmat()
            .resilience(policy)
            .comm_timeout(20.0)
            .build()
        )
        run = platform.run(
            JacobiSGrid,
            config=dict(
                region=16,
                block_size=4,
                page_elements=8,
                loops=4,
                init=lambda x, y: 0.05 * x - 0.04 * y + 1.25,
            ),
        )
        assert np.isfinite(np.asarray(run.result)[~np.isnan(np.asarray(run.result))]).all()
        # The shm plane actually carried pages before/after the kill.
        assert run.network["shm_fetches"] > 0
        assert set(leftover_segments(mine)) == before

"""Transport-conformance suite: the shm data plane honours the pipe contract.

The process backend's shared-memory page transport promises to be an
invisible substitution for the packed-pipe path: identical page data,
identical *logical* traffic accounting (messages, bytes moved,
per-neighbor links) and identical error behaviour — only the physical
route of the page bytes changes, recorded separately in the ``shm_*``
counters.  A world picks its plane itself (``ProcessWorld.uses_shm``);
this suite reaches the pipe plane the way a host without shm does
(``page_protocol.pipe_plane``), runs the bulk-fetch contract cases on
both planes side by side, checks every branch of the rule
(``TestDataPlaneRule``), the fallback path for pages shared memory
cannot carry, and pins the segment-hygiene guarantees (clean finalize,
dead-rank sweep; the mid-run kill regression for leaked ``/dev/shm``
entries lives in ``TestSegmentHygiene``).
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.resilience import FaultPlan, ResiliencePolicy
from repro.runtime import NetworkError, get_backend
from repro.runtime.shm import shm_available

from page_protocol import pipe_plane, plane

pytestmark = pytest.mark.skipif(
    not get_backend("process").available() or not shm_available(),
    reason="process backend with shared memory unavailable",
)

TIMEOUT = 15.0
TRANSPORTS = ["pipe", "shm"]
SIZES = [2, 3]
CASES = [
    pytest.param(transport, size, id=f"{transport}-{size}")
    for transport in TRANSPORTS
    for size in SIZES
]

#: traffic_summary keys that must be *identical* between transports.
LOGICAL_KEYS = (
    "messages",
    "bytes_moved",
    "page_fetches",
    "bulk_fetches",
    "bulk_pages",
    "per_neighbor",
)


def make_world(size: int):
    return get_backend("process").create_world(size, timeout=TIMEOUT)


class PageEndpoint:
    """Float pages, deterministic per (rank, block, page)."""

    def __init__(self, rank: int) -> None:
        self.rank = rank

    def page_snapshot(self, key):
        base = 1000.0 * self.rank + 10.0 * key.block_id + key.page_index
        return np.arange(4, dtype=np.float64) + base


class EmptyPageEndpoint(PageEndpoint):
    """Odd pages are zero-length — ineligible for shared memory.

    (Object-dtype pages are the other ineligible class, but those are
    unservable by the packed path too — ``tobytes`` of pointers does not
    survive a process hop — so the conformance case uses the ineligible
    shape both transports can actually carry.)
    """

    def page_snapshot(self, key):
        if key.page_index % 2:
            return np.array([], dtype=np.float64)
        return super().page_snapshot(key)


def run_fetch(size, transport, *, endpoint_cls=PageEndpoint, page_indices=(0, 2)):
    """One bulk fetch per rank from every peer; returns (world, rank dicts)."""
    world = make_world(size)

    def body(ctx):
        rank = ctx.mpi_rank
        world.register_env(rank, endpoint_cls(rank))
        world.register_block(("blk", rank), rank, 7 + rank, owner=True)
        world.commit_registration()
        requests = [
            (("blk", owner), index)
            for owner in range(size)
            if owner != rank
            for index in page_indices
        ]
        result = world.fetch_pages_bulk_async(rank, requests).wait()
        world.barrier()
        return {
            "rank": rank,
            "pages": {key: np.asarray(data).tolist() for key, _, data in result.pages},
            "exchanges": result.exchanges,
        }

    try:
        with plane(transport):
            results = world.run_spmd(body)
        return world, [r.value for r in results]
    finally:
        world.finalize()


def leftover_segments(pattern: str = "repro_shm_*") -> list:
    return glob.glob(f"/dev/shm/{pattern}")


# ----------------------------------------------------------------------
# contract cases, transport x size
# ----------------------------------------------------------------------


class TestBulkFetchContract:
    @pytest.mark.parametrize("transport,size", CASES)
    def test_empty_request_set(self, transport, size):
        world = make_world(size)

        def body(ctx):
            rank = ctx.mpi_rank
            world.register_env(rank, PageEndpoint(rank))
            world.register_block(("blk", rank), rank, 7 + rank, owner=True)
            world.commit_registration()
            result = world.fetch_pages_bulk_async(rank, []).wait()
            world.barrier()
            return (len(result.pages), result.exchanges, result.nbytes)

        try:
            with plane(transport):
                results = world.run_spmd(body)
        finally:
            world.finalize()
        assert [r.value for r in results] == [(0, 0, 0)] * size
        assert world.traffic_summary()["shm_fetches"] == 0

    @pytest.mark.parametrize("transport,size", CASES)
    def test_self_rank_request_never_uses_segments(self, transport, size):
        world = make_world(size)

        def body(ctx):
            rank = ctx.mpi_rank
            world.register_env(rank, PageEndpoint(rank))
            world.register_block(("blk", rank), rank, 7 + rank, owner=True)
            world.commit_registration()
            handle = world.fetch_pages_bulk_async(rank, [(("blk", rank), 0), (("blk", rank), 2)])
            result = handle.wait()
            world.barrier()
            return [np.asarray(data).tolist() for _, _, data in result.pages]

        try:
            with plane(transport):
                results = world.run_spmd(body)
        finally:
            world.finalize()
        for rank, result in enumerate(results):
            base = 1000.0 * rank + 10.0 * (7 + rank)
            np.testing.assert_allclose(result.value[0], np.arange(4) + base + 0)
            np.testing.assert_allclose(result.value[1], np.arange(4) + base + 2)
        # Local pages never travel, so neither transport touches segments.
        assert world.traffic_summary()["shm_fetches"] == 0

    @pytest.mark.parametrize("size", SIZES)
    def test_mixed_owner_pages_are_identical_across_transports(self, size):
        _, pipe_results = run_fetch(size, "pipe")
        _, shm_results = run_fetch(size, "shm")
        for pipe_rank, shm_rank in zip(pipe_results, shm_results):
            assert pipe_rank["pages"] == shm_rank["pages"]
            assert pipe_rank["exchanges"] == shm_rank["exchanges"]

    @pytest.mark.parametrize("size", SIZES)
    def test_logical_accounting_is_transport_invariant(self, size):
        pipe_world, _ = run_fetch(size, "pipe")
        shm_world, _ = run_fetch(size, "shm")
        pipe_stats = pipe_world.traffic_summary()
        shm_stats = shm_world.traffic_summary()
        for key in LOGICAL_KEYS:
            assert pipe_stats[key] == shm_stats[key], key
        # The physical split is recorded on top: every remote page came
        # through a descriptor in shm mode, none in pipe mode.
        remote_pages = 2 * size * (size - 1)
        assert pipe_stats["shm_fetches"] == 0
        assert pipe_stats["shm_bytes"] == 0
        assert shm_stats["shm_fetches"] == remote_pages
        assert shm_stats["shm_bytes"] == remote_pages * 32
        assert shm_stats["shm_fallbacks"] == 0

    @pytest.mark.parametrize("size", SIZES)
    def test_ineligible_pages_fall_back_to_the_pipe(self, size):
        _, pipe_results = run_fetch(
            size, "pipe", endpoint_cls=EmptyPageEndpoint, page_indices=(0, 1)
        )
        shm_world, shm_results = run_fetch(
            size, "shm", endpoint_cls=EmptyPageEndpoint, page_indices=(0, 1)
        )
        for pipe_rank, shm_rank in zip(pipe_results, shm_results):
            assert pipe_rank["pages"] == shm_rank["pages"]
        stats = shm_world.traffic_summary()
        # Page 0 of each pair is eligible, page 1 (zero-length) is not.
        per_transport = size * (size - 1)
        assert stats["shm_fetches"] == per_transport
        assert stats["shm_fallbacks"] == per_transport


# ----------------------------------------------------------------------
# the data-plane rule: each world picks its plane from what it observes
# ----------------------------------------------------------------------


def _init(x, y):
    return 0.05 * x - 0.04 * y + 1.25


APPS = {
    "sgrid": (JacobiSGrid, dict(region=16, block_size=4, page_elements=8, loops=4, init=_init)),
    "usgrid": (JacobiUSGrid, dict(region=16, block_cells=32, page_elements=8, loops=3, init=_init)),
    "particle": (ParticleSimulation, dict(particles=128, block_buckets=4, page_elements=4, loops=2)),
}


def run_app(name, ranks):
    app_cls, config = APPS[name]
    platform = Platform.builder().mpi(ranks, backend="process").mmat().build()
    return platform.run(app_cls, config=dict(config))


def probe(world, owner_of):
    """Every rank fetches page 0 of ``owner_of(rank)``'s block; each returns
    whether it saw control words, its fetch error (or None) and the
    world's segments that exist mid-run."""

    def body(ctx):
        rank = ctx.mpi_rank
        world.register_env(rank, PageEndpoint(rank))
        world.register_block(("blk", rank), rank, 7 + rank, owner=True)
        world.commit_registration()
        try:
            world.fetch_pages_bulk_async(rank, [(("blk", owner_of(rank)), 0)]).wait()
            error = None
        except NetworkError as exc:
            error = str(exc)
        segments = leftover_segments(f"repro_shm_{world.shm_uid}*")
        world.barrier()
        return world.control is not None, error, segments

    try:
        return [r.value for r in world.run_spmd(body)]
    finally:
        world.finalize()


class TestDataPlaneRule:
    @pytest.mark.parametrize(
        "size,fault,shm_here,expected",
        [
            (1, None, True, False),
            (2, None, True, True),
            (4, None, True, True),
            (2, None, False, False),
            (2, "corrupt_reply", True, False),
            (2, "drop_reply", True, True),
            (2, "delay_reply", True, True),
            (2, "kill", True, True),
        ],
    )
    def test_rule(self, size, fault, shm_here, expected):
        """shm exactly when there are several ranks, shm works here and the
        fault plan wants no reply checksums (only corruption does)."""
        with plane("shm" if shm_here else "pipe"):
            world = make_world(size)
            if fault is not None:
                world.install_fault_plan(getattr(FaultPlan(), fault)(1))
            assert world.uses_shm() is expected

    def test_two_rank_world_shares_memory(self):
        world = make_world(2)
        assert world.uses_shm()
        values = probe(world, lambda rank: 1 - rank)
        assert [(control, error) for control, error, _ in values] == [(True, None)] * 2
        assert values[0][2]  # the control words and the arenas are named segments
        assert world.traffic_summary()["shm_fetches"] == 2  # replies were descriptors

    def test_without_shm_the_world_packs_its_replies(self):
        with pipe_plane():
            world = make_world(2)
            assert not world.uses_shm()
            values = probe(world, lambda rank: 1 - rank)
        assert values == [(False, None, [])] * 2
        stats = world.traffic_summary()
        assert stats["shm_fetches"] == 0
        assert stats["bulk_fetches"] == 2

    def test_without_shm_a_run_stays_bit_identical_and_says_why(self):
        with pipe_plane():
            pipe = run_app("sgrid", 2)
        shm = run_app("sgrid", 2)
        np.testing.assert_array_equal(np.asarray(pipe.result), np.asarray(shm.result))
        assert pipe.network["halo_pushes"] == 0 and pipe.network["shm_fetches"] == 0
        assert pipe.network["bulk_fetches"] > 0
        assert shm.network["halo_pushes"] > 0
        assert "open: no shm" in pipe.summary()
        assert "open:" not in shm.summary()

    def test_checksum_faults_send_the_world_to_the_pipe(self):
        world = make_world(2)
        world.install_fault_plan(FaultPlan().corrupt_reply(1, peer=0))
        assert not world.uses_shm()
        values = probe(world, lambda rank: 1)
        assert values[0][0] is False and values[0][2] == []
        assert "integrity check" in values[0][1]  # rank 0's reply from rank 1
        assert values[1] == (False, None, [])  # rank 1 served itself

    def test_one_rank_world_creates_no_segment(self):
        world = make_world(1)
        assert not world.uses_shm()
        assert probe(world, lambda rank: rank) == [(False, None, [])]
        assert leftover_segments(f"repro_shm_{world.shm_uid}*") == []

    @pytest.mark.parametrize("ranks", [2, 4])
    @pytest.mark.parametrize("name", list(APPS))
    def test_pipe_plane_matches_shm_plane(self, name, ranks):
        with pipe_plane():
            pipe = run_app(name, ranks)
        shm = run_app(name, ranks)
        np.testing.assert_array_equal(np.asarray(pipe.result), np.asarray(shm.result))
        assert pipe.network["shm_fetches"] == pipe.network["halo_pushes"] == 0


# ----------------------------------------------------------------------
# segment hygiene
# ----------------------------------------------------------------------


class TestSegmentHygiene:
    def test_finalize_leaves_no_segments(self):
        world, _ = run_fetch(3, "shm")
        assert leftover_segments(f"repro_shm_{world.shm_uid}*") == []

    def test_killed_rank_leaves_no_segments(self):
        """Regression: a rank killed mid-refresh must not leak its arena.

        The dead child never runs its transport close, so its named
        segments survive it — until the parent's ``finalize()`` probe
        sweep unlinks them.  A leak here would surface as
        ``resource_tracker`` warnings at interpreter shutdown and stale
        ``/dev/shm`` entries accumulating across recoveries.
        """
        before = set(leftover_segments())
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
        assert sum(c.shm_fetches for c in run.counters.values()) > 0
        assert set(leftover_segments()) == before

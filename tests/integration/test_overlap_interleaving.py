"""Seeded interleaving stress for the process backend's overlapped exchange.

The pipe-mesh transport promises that reply *ordering* never matters:
every ``brep`` is matched to its request id, every blocking
wait only consumes buffered messages (the receiver thread does all the
pumping), and an overlapped exchange completed late must still observe
the owner's data from the step it was issued in — never a later step's.

These tests install the :class:`ProcessTransport` reply shim — a
deterministic, seed-driven delay applied to every outgoing page reply
before it reaches the sender thread — and drive many shuffled reply
schedules through one world, proving (a) no deadlock and (b) no stale
or cross-matched page read, plus a full application run under the shim.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid
from repro.runtime import create_world
from repro.runtime.backends.process import ProcessTransport

RANKS = 3
ROUNDS = 50
SEED = 0x5EED


def _delay_for(seed: int, rank: int, peer: int, req_id: int) -> float:
    """Deterministic pseudo-random delay in [0, 4) ms."""
    digest = hashlib.sha256(f"{seed}:{rank}:{peer}:{req_id}".encode()).digest()
    return (digest[0] / 255.0) * 0.004


def _shim(rank: int, peer: int, reply: tuple) -> float:
    # reply = ("brep"|"perr", req_id, ...): delay keyed by req id,
    # so consecutive requests from one peer complete out of order.
    return _delay_for(SEED, rank, peer, reply[1])


@pytest.fixture
def reply_shim():
    """Install the deterministic reply shim; always restore afterwards."""
    assert ProcessTransport.reply_shim is None
    ProcessTransport.reply_shim = staticmethod(_shim)
    try:
        yield
    finally:
        ProcessTransport.reply_shim = None


class VersionedEndpoint:
    """Env stand-in whose page values encode (rank, key, current round).

    A reply served in round ``r`` must carry round ``r``'s values; if a
    delayed reply were matched to the wrong request — or an overlapped
    fetch read a page after the owner advanced — the round stamp in the
    payload would betray it.
    """

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.version = -1

    def page_snapshot(self, key):
        base = 1000.0 * self.rank + 10.0 * key.page_index
        return np.arange(4, dtype=np.float64) + base + 100_000.0 * self.version


def expected_page(owner: int, page: int, version: int) -> np.ndarray:
    return np.arange(4, dtype=np.float64) + 1000.0 * owner + 10.0 * page + 100_000.0 * version


class TestShuffledReplySchedules:
    def test_fifty_shuffled_schedules_no_deadlock_no_stale_read(self, reply_shim):
        """50 rounds of overlapped mixed-owner fetches under scrambled replies.

        Each round bumps every owner's version between two barriers, so
        any reply served outside its round — or matched to another
        round's request — produces values with the wrong round stamp.
        """
        world = create_world("process", RANKS, timeout=30.0)

        def body(ctx):
            rank = ctx.mpi_rank
            endpoint = VersionedEndpoint(rank)
            world.register_env(rank, endpoint)
            world.register_block(("blk", rank), rank, 40 + rank, owner=True)
            world.commit_registration()
            bad = []
            for round_no in range(ROUNDS):
                endpoint.version = round_no
                world.barrier()  # every owner is at this round's version
                # Two overlapping in-flight exchanges per round, waited in
                # reverse issue order (the second's replies often arrive
                # first thanks to the shim's per-request delays).
                first = world.fetch_pages_bulk_async(
                    rank, [(("blk", owner), rank) for owner in range(RANKS) if owner != rank]
                )
                second = world.fetch_pages_bulk_async(
                    rank, [(("blk", (rank + 1) % RANKS), 7)]
                )
                for result in (second.wait(), first.wait(), first.wait()):
                    for (key, owner_rank), page, data in (
                        ((k, k[1]), p, d) for k, p, d in result.pages
                    ):
                        want = expected_page(owner_rank, page, round_no)
                        if not np.array_equal(np.asarray(data), want):
                            bad.append((round_no, key, page))
                world.barrier()  # all waits done before versions advance
            return bad

        results = world.run_spmd(body)
        for result in results:
            assert result.value == []
        stats = world.traffic_summary()
        # Every round moved RANKS pages per rank (one from every peer, one
        # more from the next rank) through bulk exchanges.
        assert stats["bulk_pages"] == RANKS * ROUNDS * RANKS

    def test_jacobi_under_scrambled_replies_matches_reference(self, reply_shim):
        """A real app run with delayed/reordered replies stays bit-identical."""
        config = dict(
            region=16, block_size=4, page_elements=8, loops=3,
            init=lambda x, y: 0.04 * x - 0.03 * y + 1.5,
        )
        shimmed = Platform.preset("mpi", ranks=2, backend="process", mmat=True).run(JacobiSGrid, config=dict(config))
        ProcessTransport.reply_shim = None  # reference run: no shim
        reference = Platform.preset("mpi", ranks=2, backend="process", mmat=True).run(JacobiSGrid, config=dict(config))
        a = np.asarray(shimmed.result, dtype=np.float64)
        b = np.asarray(reference.result, dtype=np.float64)
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        mask = ~np.isnan(a)
        np.testing.assert_array_equal(a[mask], b[mask])

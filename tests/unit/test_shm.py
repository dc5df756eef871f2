"""Unit tests for the shared-memory page-transport primitives.

Covers the pieces :mod:`repro.runtime.shm` promises independently of
the process backend: descriptor round-trips through an arena, seqlock
version checking on the reader side, generation memoization, bump
allocation across segments, eligibility gating, segment hygiene
(close/unlink/idempotency) and the orphan probe-sweep.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.runtime import shm as shm_mod
from repro.runtime.errors import NetworkError
from repro.runtime.shm import (
    SegmentCache,
    SharedPageArena,
    ShmVersionError,
    cleanup_rank_segments,
    new_shm_uid,
    segment_name,
    shm_available,
    shm_eligible,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


def leftover_segments(uid: str) -> list:
    return glob.glob(f"/dev/shm/repro_shm_{uid}*")


@pytest.fixture
def uid():
    value = new_shm_uid()
    yield value
    # Safety net: never leak segments out of a test, even on failure.
    for rank in range(8):
        cleanup_rank_segments(value, rank)


class TestEligibility:
    def test_contiguous_float_array_is_eligible(self):
        assert shm_eligible(np.arange(6, dtype=np.float64))

    def test_non_contiguous_view_is_still_eligible(self):
        # publish() compacts; strided views must not force the pipe path.
        assert shm_eligible(np.arange(10, dtype=np.float64)[::2])

    def test_object_dtype_is_not_eligible(self):
        assert not shm_eligible(np.array([object(), object()]))

    def test_empty_array_is_not_eligible(self):
        assert not shm_eligible(np.array([], dtype=np.float64))

    def test_non_array_is_not_eligible(self):
        assert not shm_eligible([1.0, 2.0])


class TestArenaRoundTrip:
    def test_publish_then_read_round_trips(self, uid):
        arena = SharedPageArena(uid, 0)
        cache = SegmentCache()
        try:
            data = np.linspace(0.0, 1.0, 16).reshape(4, 4)
            name, offset, nbytes, version = arena.publish(("blk", 0), data)
            assert name == segment_name(uid, 0, 0)
            assert nbytes == data.nbytes
            out = cache.read(name, offset, nbytes, version, (4, 4), data.dtype.str)
            np.testing.assert_array_equal(out, data)
            # The read is a copy, not a view of the shared segment.
            assert out.base is None
        finally:
            cache.close_all()
            arena.close(unlink=True)
        assert leftover_segments(uid) == []

    def test_non_contiguous_pages_are_compacted(self, uid):
        arena = SharedPageArena(uid, 0)
        cache = SegmentCache()
        try:
            strided = np.arange(12, dtype=np.float64)[::3]
            name, offset, nbytes, version = arena.publish(("blk", 1), strided)
            out = cache.read(name, offset, nbytes, version, (4,), "<f8")
            np.testing.assert_array_equal(out, [0.0, 3.0, 6.0, 9.0])
        finally:
            cache.close_all()
            arena.close(unlink=True)

    def test_same_generation_memoises_descriptor(self, uid):
        arena = SharedPageArena(uid, 0)
        try:
            data = np.arange(8, dtype=np.float64)
            first = arena.publish(("blk", 0), data, generation=5)
            second = arena.publish(("blk", 0), data, generation=5)
            assert first == second
        finally:
            arena.close(unlink=True)

    def test_new_generation_bumps_version_in_place(self, uid):
        arena = SharedPageArena(uid, 0)
        cache = SegmentCache()
        try:
            data = np.arange(8, dtype=np.float64)
            name1, off1, nb1, v1 = arena.publish(("blk", 0), data, generation=1)
            name2, off2, nb2, v2 = arena.publish(("blk", 0), data + 1, generation=2)
            assert (name2, off2, nb2) == (name1, off1, nb1)  # same slot
            assert v2 == v1 + 2  # seqlock: one complete rewrite
            out = cache.read(name2, off2, nb2, v2, (8,), "<f8")
            np.testing.assert_array_equal(out, data + 1)
        finally:
            cache.close_all()
            arena.close(unlink=True)

    def test_no_generation_takes_a_fresh_slot_each_publish(self, uid):
        # A peer may still hold the previous descriptor of the same page,
        # so stamp-less publishes must never rewrite in place.
        arena = SharedPageArena(uid, 0)
        cache = SegmentCache()
        try:
            data = np.arange(8, dtype=np.float64)
            d1 = arena.publish(("blk", 0), data)
            d2 = arena.publish(("blk", 0), data + 1)
            assert (d1[0], d1[1]) != (d2[0], d2[1])  # different slot
            # Both descriptors stay readable at their own version.
            np.testing.assert_array_equal(
                cache.read(d1[0], d1[1], d1[2], d1[3], (8,), "<f8"), data
            )
            np.testing.assert_array_equal(
                cache.read(d2[0], d2[1], d2[2], d2[3], (8,), "<f8"), data + 1
            )
        finally:
            cache.close_all()
            arena.close(unlink=True)

    def test_size_change_allocates_fresh_slot(self, uid):
        arena = SharedPageArena(uid, 0)
        try:
            small = arena.publish(("blk", 0), np.arange(4, dtype=np.float64), generation=1)
            large = arena.publish(("blk", 0), np.arange(9, dtype=np.float64), generation=2)
            assert (small[0], small[1]) != (large[0], large[1])
            assert large[2] == 72
        finally:
            arena.close(unlink=True)

    def test_oversized_page_gets_exact_segment(self, uid):
        arena = SharedPageArena(uid, 0, segment_bytes=1024)
        try:
            big = np.zeros(1024, dtype=np.float64)  # 8 KiB > segment_bytes
            name, _offset, nbytes, _v = arena.publish(("blk", 0), big)
            assert nbytes == big.nbytes
            assert arena.segment_count == 1
        finally:
            arena.close(unlink=True)

    def test_bump_allocation_spills_to_new_segment(self, uid):
        arena = SharedPageArena(uid, 0, segment_bytes=256)
        try:
            for index in range(8):  # 8 * (8 + 64) bytes > 2 * 256
                arena.publish(("blk", index), np.arange(8, dtype=np.float64))
            assert arena.segment_count >= 2
        finally:
            arena.close(unlink=True)
        assert leftover_segments(uid) == []


class TestSeqlockChecks:
    def test_stale_descriptor_version_raises(self, uid):
        arena = SharedPageArena(uid, 0)
        cache = SegmentCache()
        try:
            data = np.arange(8, dtype=np.float64)
            name, offset, nbytes, version = arena.publish(("blk", 0), data, generation=1)
            arena.publish(("blk", 0), data + 1, generation=2)  # in-place rewrite
            with pytest.raises(ShmVersionError):
                cache.read(name, offset, nbytes, version, (8,), "<f8")
        finally:
            cache.close_all()
            arena.close(unlink=True)

    def test_version_error_does_not_block_close(self, uid):
        # The raised traceback must not retain buffer views: closing the
        # cache (and the arena) right after a failed read has to succeed.
        arena = SharedPageArena(uid, 0)
        cache = SegmentCache()
        data = np.arange(8, dtype=np.float64)
        name, offset, nbytes, version = arena.publish(("blk", 0), data, generation=1)
        arena.publish(("blk", 0), data, generation=2)
        with pytest.raises(ShmVersionError):
            cache.read(name, offset, nbytes, version, (8,), "<f8")
        cache.close_all()
        arena.close(unlink=True)
        assert leftover_segments(uid) == []

    def test_missing_segment_raises_network_error(self, uid):
        cache = SegmentCache()
        with pytest.raises(NetworkError):
            cache.read(segment_name(uid, 3, 0), 0, 64, 2, (8,), "<f8")


class TestHygiene:
    def test_close_is_idempotent(self, uid):
        arena = SharedPageArena(uid, 0)
        arena.publish(("blk", 0), np.arange(4, dtype=np.float64))
        arena.close(unlink=True)
        arena.close(unlink=True)
        assert leftover_segments(uid) == []

    def test_publish_after_close_raises(self, uid):
        arena = SharedPageArena(uid, 0)
        arena.close(unlink=True)
        with pytest.raises(NetworkError):
            arena.publish(("blk", 0), np.arange(4, dtype=np.float64))

    def test_cleanup_sweeps_orphaned_segments(self, uid):
        # Simulate a rank that died before unlinking: close without unlink.
        arena = SharedPageArena(uid, 2, segment_bytes=256)
        for index in range(8):
            arena.publish(("blk", index), np.arange(8, dtype=np.float64))
        orphaned = arena.segment_count
        assert orphaned >= 2
        arena.close(unlink=False)
        assert len(leftover_segments(uid)) == orphaned
        assert cleanup_rank_segments(uid, 2) == orphaned
        assert leftover_segments(uid) == []

    def test_cleanup_of_clean_rank_is_a_noop(self, uid):
        assert cleanup_rank_segments(uid, 0) == 0

    def test_segment_names_are_deterministic(self):
        assert segment_name("abc123", 3, 7) == "repro_shm_abc123_3_7"

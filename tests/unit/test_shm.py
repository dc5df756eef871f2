"""Unit tests for the shared-memory page-transport primitives.

Covers the pieces :mod:`repro.runtime.shm` promises independently of
the process backend: descriptor round-trips through an arena, seqlock
version checking on the reader side, generation memoization, bump
allocation across segments, eligibility gating, the error a full
``/dev/shm`` raises, segment hygiene (close/unlink/idempotency) and the
orphan probe-sweep.
"""

from __future__ import annotations

import glob
from unittest import mock

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

from page_protocol import no_space

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


@pytest.mark.parametrize(
    "data,eligible",
    [(np.arange(6.0), True), (np.arange(10.0)[::2], True), (np.array([]), True),
     (np.array([object(), object()]), False)],
    ids=["contiguous", "strided", "empty", "object"],
)
def test_only_object_arrays_are_ineligible(data, eligible):
    assert shm_eligible(data) is eligible


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

    def test_zero_byte_page_is_a_header_only_slot(self, uid):
        arena, cache = SharedPageArena(uid, 0), SegmentCache()
        name, offset, nbytes, version = arena.publish(("blk", 0), np.zeros((0, 3), "f4"), 1)
        assert (nbytes, version) == (0, 2)
        assert arena.publish(("blk", 1), np.arange(2.0), 1)[1] == offset + 8  # header only
        out = cache.read(name, offset, nbytes, version, (0, 3), "<f4")
        assert out.shape == (0, 3) and out.dtype == np.float32
        cache.close_all()
        arena.close(unlink=True)

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

    def test_repro_check_refuses_a_slot_version_that_goes_back(self, uid):
        arena = SharedPageArena(uid, 0)
        cache = SegmentCache()
        previous = shm_mod.set_protocol_checks(True)
        try:
            data = np.arange(8, dtype=np.float64)
            name, offset, nbytes, first = arena.publish(("blk", 0), data, generation=1)
            cache.read(name, offset, nbytes, first, (8,), "<f8")
            newer = arena.publish(("blk", 0), data + 1, generation=2)[3]
            cache.read(name, offset, nbytes, newer, (8,), "<f8")
            # A writer that reset the slot's seqlock word to an old version.
            header = np.frombuffer(arena._segments[0].shm.buf, np.uint64, 1, offset)
            header[0] = first
            del header
            with pytest.raises(ShmVersionError, match="went back"):
                cache.read(name, offset, nbytes, first, (8,), "<f8")
        finally:
            shm_mod.set_protocol_checks(previous)
            cache.close_all()
            arena.close(unlink=True)

    def test_repro_check_refuses_an_install_older_than_the_slot_holds(self, uid):
        arena = SharedPageArena(uid, 0)
        previous = shm_mod.set_protocol_checks(True)
        try:
            data = np.arange(8, dtype=np.float64)
            arena.publish(("blk", 0), data, generation=3)
            with pytest.raises(ShmVersionError, match="generation 2 would overwrite"):
                arena.publish(("blk", 0), data - 1, generation=2)
        finally:
            shm_mod.set_protocol_checks(previous)
            arena.close(unlink=True)

    def test_missing_segment_raises_network_error(self, uid):
        cache = SegmentCache()
        with pytest.raises(NetworkError):
            cache.read(segment_name(uid, 3, 0), 0, 64, 2, (8,), "<f8")


@pytest.mark.parametrize(
    "allocate,nbytes",
    [(lambda arena: arena.publish(("blk", 0), np.zeros(1024)), 8200),
     (lambda arena: arena.reserve(100), 4096)],
    ids=["publish", "reserve"],
)
def test_a_full_dev_shm_names_the_segment_and_the_bytes(uid, allocate, nbytes):
    arena = SharedPageArena(uid, 3, segment_bytes=4096)
    with mock.patch.object(shm_mod, "SharedMemory", no_space), pytest.raises(NetworkError) as info:
        allocate(arena)
    assert f"{segment_name(uid, 3, 0)!r} of {nbytes} bytes in /dev/shm" in str(info.value)
    assert arena.segment_count == 0
    arena.close(unlink=True)


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

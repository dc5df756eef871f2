"""Unit tests for the resilience subsystem.

Covers the seeded :class:`FaultPlan` schedule, both checkpoint stores
(including the epoch-completeness semantics recovery resumes from),
the cost-model-driven ownership rebalance, dead-rank diagnosis over
wrapped error chains, and the transport-level satellites: pending
request manifests in timeout messages, dead-peer send accounting, the
leaked-thread warning on close, and ``comm_timeout`` plumbing from the
Platform down to the world.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.annotation.driver import Platform
from repro.aspects.mpi_aspect import DistributedMemoryAspect
from repro.resilience import (
    CheckpointAspect,
    DiskCheckpointStore,
    FaultPlan,
    MemoryCheckpointStore,
    RecoveryManager,
    ResiliencePolicy,
    diagnose_dead_ranks,
    plan_recovery_ownership,
)
from repro.resilience.recovery import _dead_rank_of, _zorder_sorted
from repro.runtime import DeadRankError, InjectedFault, PageFetchError, SpmdFailure
from repro.runtime.backends.base import RankResult
from repro.runtime.backends import process
from repro.runtime.backends.process import ProcessTransport, ProcessWorld, channel_pair
from repro.runtime.errors import CollectiveError


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_kill_fires_once_at_scheduled_point(self):
        plan = FaultPlan().kill(2, phase="refresh", epoch=3)
        assert plan.take_kill(2, "refresh", 2) is None
        assert plan.take_kill(1, "refresh", 3) is None
        assert plan.take_kill(2, "epoch", 3) is None
        fault = plan.take_kill(2, "refresh", 3)
        assert fault is not None and fault.rank == 2
        # at-most-once
        assert plan.take_kill(2, "refresh", 3) is None

    def test_kill_without_epoch_fires_at_first_opportunity(self):
        plan = FaultPlan().kill(0, phase="register")
        assert plan.take_kill(0, "register", None) is not None
        assert plan.take_kill(0, "register", None) is None

    def test_reply_faults_consume_count_times(self):
        plan = FaultPlan().drop_reply(1, peer=0, count=2)
        assert plan.take_reply(1, 0) is not None
        assert plan.take_reply(1, 2) is None  # wrong requester
        assert plan.take_reply(1, 0) is not None
        assert plan.take_reply(1, 0) is None  # budget exhausted

    def test_retire_rank_disarms_pending_kills(self):
        plan = FaultPlan().kill(1, epoch=2).kill(2, epoch=3)
        plan.retire_rank(1)
        assert [f.rank for f in plan.pending_kills()] == [2]
        assert plan.take_kill(1, "refresh", 2) is None

    def test_seeded_is_deterministic_and_spares_rank0(self):
        a = FaultPlan.seeded(42, ranks=4, epochs=5, spare_rank0=True)
        b = FaultPlan.seeded(42, ranks=4, epochs=5, spare_rank0=True)
        assert repr(a) == repr(b)
        assert all(f.rank != 0 for f in a.faults)
        assert all(1 <= f.epoch < 5 for f in a.faults)
        c = FaultPlan.seeded(43, ranks=16, epochs=5, kills=3)
        assert len(c.pending_kills()) == 3

    def test_unknown_kind_and_phase_rejected(self):
        from repro.resilience.faults import Fault

        with pytest.raises(ValueError):
            Fault("explode", 0)
        with pytest.raises(ValueError):
            Fault("kill", 0, phase="lunch")


# ---------------------------------------------------------------------------
# Checkpoint stores
# ---------------------------------------------------------------------------
def _pages(seed: float):
    return {("k", 0): {0: np.full(4, seed), 1: np.full(4, seed + 0.5)}}


class TestCheckpointStores:
    @pytest.fixture(params=["memory", "disk"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            yield MemoryCheckpointStore()
        else:
            store = DiskCheckpointStore(str(tmp_path))
            yield store
            store.close()

    def test_roundtrip_preserves_page_data(self, store):
        store.save(1, 0, _pages(1.0))
        loaded = store.load_rank(1, 0)
        np.testing.assert_array_equal(loaded[("k", 0)][0], np.full(4, 1.0))
        np.testing.assert_array_equal(loaded[("k", 0)][1], np.full(4, 1.5))

    def test_latest_complete_epoch_requires_every_rank(self, store):
        assert store.latest_complete_epoch(2) is None
        store.save(1, 0, _pages(1.0))
        store.save(1, 1, _pages(2.0))
        store.save(2, 0, _pages(3.0))  # epoch 2 incomplete: rank 1 missing
        assert store.latest_complete_epoch(2) == 1
        store.save(2, 1, _pages(4.0))
        assert store.latest_complete_epoch(2) == 2

    def test_load_epoch_merges_all_ranks(self, store):
        store.save(1, 0, {("a", 0): {0: np.zeros(2)}})
        store.save(1, 1, {("b", 0): {0: np.ones(2)}})
        merged = store.load_epoch(1, 2)
        assert set(merged) == {("a", 0), ("b", 0)}

    def test_snapshot_is_isolated_from_caller_mutation(self, store):
        pages = _pages(1.0)
        store.save(1, 0, pages)
        pages[("k", 0)][0][:] = -99.0
        np.testing.assert_array_equal(store.load_rank(1, 0)[("k", 0)][0], np.full(4, 1.0))


# ---------------------------------------------------------------------------
# Rebalance
# ---------------------------------------------------------------------------
class TestRebalance:
    KEYS = [("sgrid", x, y) for x in range(4) for y in range(4)]

    def test_every_key_assigned_and_every_rank_used(self):
        ownership = plan_recovery_ownership(list(self.KEYS), 3)
        assert set(ownership) == set(self.KEYS)
        assert set(ownership.values()) == {0, 1, 2}

    def test_single_survivor_takes_everything(self):
        ownership = plan_recovery_ownership(list(self.KEYS), 1)
        assert set(ownership.values()) == {0}

    def test_fewer_keys_than_ranks_still_assigns_each_key(self):
        keys = self.KEYS[:2]
        ownership = plan_recovery_ownership(list(keys), 8)
        assert set(ownership) == set(keys)
        assert len(set(ownership.values())) == len(keys)

    def test_assignment_is_contiguous_in_sort_order(self):
        ownership = plan_recovery_ownership(list(self.KEYS), 3)
        ranks = [ownership[k] for k in _zorder_sorted(list(self.KEYS))]
        # A contiguous boundary walk never revisits an earlier rank.
        assert ranks == sorted(ranks)


# ---------------------------------------------------------------------------
# Diagnosis
# ---------------------------------------------------------------------------
class TestDiagnosis:
    def _failure(self, *errors):
        results = [RankResult(rank=i, value=None, error=e) for i, e in enumerate(errors)]
        return SpmdFailure("boom", results)

    def test_direct_injected_fault(self):
        assert _dead_rank_of(InjectedFault(2, "kill")) == 2

    def test_dead_rank_error_wrapped_in_fetch_error(self):
        inner = DeadRankError(3, "closed its connection")
        outer = PageFetchError("page fetch failed")
        outer.__cause__ = inner
        assert _dead_rank_of(outer) == 3

    def test_diagnose_collects_all_dead_ranks(self):
        failure = self._failure(
            None,
            DeadRankError(1, "died"),
            CollectiveError("timed out"),  # not attributable to a rank
        )
        assert diagnose_dead_ranks(failure) == {1}

    def test_diagnose_empty_when_no_rank_death(self):
        failure = self._failure(CollectiveError("timeout"), ValueError("app bug"))
        assert diagnose_dead_ranks(failure) == set()


# ---------------------------------------------------------------------------
# RecoveryManager bookkeeping
# ---------------------------------------------------------------------------
class TestRecoveryManager:
    def test_epoch_counting_and_checkpoint_interval(self):
        manager = RecoveryManager(ResiliencePolicy(checkpoint_interval=2))
        assert manager.epoch_of(0) == 0
        assert manager.note_epoch(0) == 1
        assert manager.note_epoch(0) == 2
        assert not manager.should_checkpoint(1)
        assert manager.should_checkpoint(2)

    def test_platform_requires_transcompile_for_resilience(self):
        with pytest.raises(ValueError, match="transcompile"):
            Platform(resilience=True)

    def test_resilience_weaves_checkpoint_aspect(self):
        platform = Platform.builder().mpi(2).resilience().build()
        assert platform.resilience is not None
        assert any(isinstance(a, CheckpointAspect) for a in platform.aspects)

    def test_policy_off_by_default(self):
        platform = Platform.builder().mpi(2).build()
        assert platform.resilience is None
        assert not any(isinstance(a, CheckpointAspect) for a in platform.aspects)


# ---------------------------------------------------------------------------
# Transport satellites (in-process transport pairs over real pipes)
# ---------------------------------------------------------------------------
@pytest.fixture
def transport_pair():
    a, b = channel_pair()
    world = ProcessWorld(2, timeout=0.3)
    t0 = ProcessTransport(world, 0, {1: a})
    t1 = ProcessTransport(world, 1, {0: b})
    yield t0, t1
    for t in (t0, t1):
        t.close()


class TestTransportSatellites:
    def test_corrupt_reply_perturbs_the_first_descriptors_version(self):
        first = (7, 0, "repro_shm_x_1_0", 0, 32, (4,), "<f8", 2)
        second = (7, 1, "repro_shm_x_1_0", 40, 32, (4,), "<f8", 2)
        corrupted = ProcessTransport._corrupt_reply(("brep", 3, [first, second]))
        assert corrupted == ("brep", 3, [first[:7] + (3,), second])
        assert ProcessTransport._corrupt_reply(("brep", 4, [])) == ("brep", 4, [])

    def test_timeout_message_lists_outstanding_requests(self, transport_pair):
        t0, _t1 = transport_pair
        t0._outstanding[(1, 7)] = "page 3 of block 9 from rank 1"
        with pytest.raises(CollectiveError, match=r"outstanding requests: page 3 of block 9"):
            t0._await(1, lambda msg: False, "a reply that never comes")

    def test_dead_peer_error_includes_manifest(self, transport_pair):
        t0, _t1 = transport_pair
        t0._outstanding[(1, 7)] = "page 0 of block 2 from rank 1"
        with t0._inbox_cond:
            t0._dead.add(1)
        with pytest.raises(DeadRankError, match=r"page 0 of block 2"):
            t0._await(1, lambda msg: False, "anything")

    def test_send_to_dead_peer_records_first_error_and_marks_it_dead(self, transport_pair):
        t0, t1 = transport_pair
        # Close the far end so the next send fails inside the sender thread.
        t1.conns[0].close()
        t0.conns[1].close()
        t0._send(1, ("coll", "probe", 0, None))
        deadline = threading.Event()
        for _ in range(100):
            if t0.first_send_error is not None:
                break
            deadline.wait(0.02)
        assert t0.first_send_error is not None
        assert "rank 0 could not send 'coll' to rank 1" in t0.first_send_error
        assert 1 in t0._dead

    def test_close_warns_on_leaked_transport_thread(self, transport_pair, monkeypatch):
        t0, _t1 = transport_pair
        release = threading.Event()
        stuck = threading.Thread(target=release.wait, name="stuck-sender", daemon=True)
        stuck.start()
        real_sender = t0._sender
        monkeypatch.setattr(t0, "_sender", stuck)
        monkeypatch.setattr(process, "_CLOSE_TIMEOUT", 0.2)  # the stuck thread outlives it
        try:
            with pytest.warns(RuntimeWarning, match="leaked thread"):
                t0.close()
        finally:
            release.set()
            real_sender.join(timeout=5.0)


# ---------------------------------------------------------------------------
# comm_timeout plumbing
# ---------------------------------------------------------------------------
class TestCommTimeoutPlumbing:
    def _mpi_aspect(self, platform):
        aspect = next(a for a in platform.aspects if isinstance(a, DistributedMemoryAspect))
        aspect.platform = platform  # bound at run() time normally
        return aspect

    def test_builder_method_reaches_aspect(self):
        platform = Platform.builder().mpi(2).comm_timeout(3.25).build()
        assert platform.comm_timeout == 3.25
        assert self._mpi_aspect(platform).comm_timeout() == 3.25

    def test_default_without_any_setting(self):
        platform = Platform.builder().mpi(2).build()
        assert self._mpi_aspect(platform).comm_timeout() == 60.0

    def test_timeout_reaches_created_world(self):
        from repro.runtime.backends import create_world

        world = create_world("threads", 2, timeout=4.5)
        try:
            assert world.timeout == 4.5
        finally:
            world.finalize()

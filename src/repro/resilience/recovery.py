"""Rank recovery: the elastic run loop, advice of one woven aspect.

:class:`RecoveryAspect` is the resilience aspect module: the checkpoint
advice it extends plus three advices, so no other module knows that a
run can recover.  Around ``platform.entry``, outside the
distributed-memory aspect (which creates, runs and finalizes every
world), it runs the program; on an
:class:`~repro.runtime.backends.base.SpmdFailure` it diagnoses which
ranks actually *died* (injected faults, dead pipes / nonzero exit
codes, not peers' collateral timeouts), shrinks the distributed layer,
plans the dead ranks' Blocks onto the survivors
(:mod:`repro.resilience.rebalance`), loads the newest checkpoint epoch
that covers every Block and proceeds again.  Around
``platform.assign_blocks`` the survivors deal their planned Blocks;
before ``platform.initialize`` each rank installs the fault plan.  A
failure with no diagnosable dead rank (e.g. a detected corrupt reply)
is re-raised unchanged.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ..aop.advice import around, before
from ..memory.zorder import morton_encode
from ..runtime.backends import DEFAULT_BACKEND
from ..runtime.backends.base import SpmdFailure
from ..runtime.errors import DeadRankError, InjectedFault
from ..runtime.network import NetworkStats
from ..runtime.tracing import global_trace
from .checkpoint import CheckpointAspect, DiskCheckpointStore, MemoryCheckpointStore, RankPages
from .rebalance import plan_recovery_ownership

__all__ = [
    "RecoveryAspect",
    "RecoveryEvent",
    "RecoveryManager",
    "ResiliencePolicy",
    "diagnose_dead_ranks",
]


@dataclass
class ResiliencePolicy:
    """Configuration of the elastic fault-tolerant run loop.

    ``store`` selects the checkpoint store: ``"auto"`` picks
    :class:`DiskCheckpointStore` for the process backend (forked children
    die with their memory; spool files survive) and
    :class:`MemoryCheckpointStore` otherwise; ``"memory"`` / ``"disk"``
    force one; a store instance is used as-is (and not closed by the
    manager).  ``max_restarts`` bounds how many times the world may be
    rebuilt; ``checkpoint_interval`` saves every Nth epoch.
    """

    checkpoint_interval: int = 1
    max_restarts: int = 2
    store: Any = "auto"
    fault_plan: Any = None
    rebalance: bool = True


@dataclass
class RecoveryEvent:
    """One diagnosed failure and the recovery decision taken for it."""

    attempt: int
    dead_ranks: Tuple[int, ...]
    old_size: int
    new_size: int
    resume_epoch: int
    rebalanced: bool
    #: Wall-clock of the failed attempt, launch to SpmdFailure — an upper
    #: bound on the detection latency (must stay far below comm_timeout).
    elapsed: float
    description: str = ""

    def summary(self) -> str:
        dead = ",".join(str(r) for r in self.dead_ranks)
        return (
            f"attempt {self.attempt}: rank(s) {dead} died after {self.elapsed:.3f}s; "
            f"world {self.old_size}->{self.new_size}, resume from epoch "
            f"{self.resume_epoch}"
            + (" (rebalanced)" if self.rebalanced else "")
        )


def _dead_rank_of(error: Optional[BaseException]) -> Optional[int]:
    """The rank an error chain proves dead, or None (walks __cause__/__context__)."""
    seen: Set[int] = set()
    while error is not None and id(error) not in seen:
        seen.add(id(error))
        if isinstance(error, (InjectedFault, DeadRankError)):
            return error.rank
        error = error.__cause__ or error.__context__
    return None


def diagnose_dead_ranks(failure: SpmdFailure) -> Set[int]:
    """Ranks the per-rank results prove dead (not merely collaterally failed).

    A killed rank reports :class:`InjectedFault` (in-stack kills) or is
    reported dead by the collector / its peers via :class:`DeadRankError`
    (real child death: dead pipes, nonzero exit codes).  Peers' secondary
    ``CollectiveError`` timeouts name nobody and are ignored.
    """
    dead: Set[int] = set()
    for result in failure.results:
        rank = _dead_rank_of(result.error)
        if rank is not None:
            dead.add(rank)
    return dead


def _zorder_sorted(keys: List[Any]) -> List[Any]:
    """Sort logical keys along the DSL's Z-order curve (repr fallback)."""

    def z(key: Any):
        coords = key if isinstance(key, (tuple, list)) else (key,)
        try:
            return (0, morton_encode(tuple(max(int(c), 0) for c in coords)))
        except (TypeError, ValueError):
            return (1, repr(key))

    return sorted(keys, key=z)


class RecoveryManager:
    """Checkpoint store, epochs, replay and the recovery plan of a run.

    One manager is attached to a Platform (``Platform(resilience=...)``)
    and shared by the advice of its :class:`RecoveryAspect`: the
    checkpoint advice calls the epoch/replay bookkeeping from rank
    context, the elastic loop the run bookkeeping around each attempt.
    """

    def __init__(self, policy: Optional[ResiliencePolicy] = None) -> None:
        self.policy = policy or ResiliencePolicy()
        self.store: Any = None
        self.size: int = 0
        self.attempt: int = 0
        #: Epoch every restarted rank fast-forwards to (0 = fresh start).
        self.resume_epoch: int = 0
        #: Merged checkpoint pages of ``resume_epoch`` (logical key → pages).
        self.restore_pages: RankPages = {}
        #: Post-rebalance ownership override (logical key → surviving rank).
        self.ownership: Optional[Dict[Any, int]] = None
        #: One :class:`RecoveryEvent` per diagnosed failure, in order.
        self.events: List[RecoveryEvent] = []
        #: Traffic of the worlds given up: ``run.network`` adds it to the
        #: last world's, as ``run.counters`` add every attempt's work.
        self.lost_traffic = NetworkStats()
        self._epochs: Dict[int, int] = {}
        self._replay: Dict[int, int] = {}
        self._lock = threading.Lock()
        self._owns_store = False

    # ------------------------------------------------------------------
    # aspect interface (called from rank context by CheckpointAspect)
    # ------------------------------------------------------------------
    def epoch_of(self, rank: int) -> int:
        with self._lock:
            return self._epochs.get(rank, 0)

    def note_epoch(self, rank: int) -> int:
        with self._lock:
            epoch = self._epochs.get(rank, 0) + 1
            self._epochs[rank] = epoch
            return epoch

    def replay_remaining(self, rank: int) -> int:
        with self._lock:
            return self._replay.get(rank, 0)

    def consume_replay(self, rank: int) -> None:
        with self._lock:
            if self._replay.get(rank, 0) > 0:
                self._replay[rank] -= 1

    def should_checkpoint(self, epoch: int) -> bool:
        interval = max(int(self.policy.checkpoint_interval), 1)
        return epoch % interval == 0

    # ------------------------------------------------------------------
    # run bookkeeping (called by the elastic loop around each attempt)
    # ------------------------------------------------------------------
    def start(self, size: int, backend: str) -> None:
        """Forget the previous run; open the store for a run of ``size`` ranks."""
        self.size, self.attempt, self.resume_epoch = size, 0, 0
        self.restore_pages, self.ownership, self.events = {}, None, []
        self.lost_traffic = NetworkStats()
        store = self.policy.store
        if store == "auto":
            store = "disk" if backend == "process" else "memory"
        # A store instance the policy names is used as-is, never closed.
        self._owns_store = store in ("memory", "disk")
        if self._owns_store:
            store = MemoryCheckpointStore() if store == "memory" else DiskCheckpointStore()
        self.store = store

    def close(self) -> None:
        """Close the run's store, unless the policy passed it in."""
        if self._owns_store:
            self.store.close()

    def begin_attempt(self) -> None:
        """Count the next attempt; its ranks fast-forward to ``resume_epoch``."""
        self.attempt += 1
        with self._lock:
            self._epochs = {}
            self._replay = {rank: self.resume_epoch for rank in range(self.size)}

    def plan_recovery(self, failure: SpmdFailure, world: Any, *, elapsed: float,
                       omp_threads: int) -> None:
        """Diagnose ``failure``; set up the next attempt or re-raise."""
        policy = self.policy
        dead = diagnose_dead_ranks(failure)
        if not dead:
            raise failure  # nothing died — not a failure recovery can repair
        new_size = self.size - len(dead)
        if new_size < 1:
            raise SpmdFailure(
                f"every rank died ({sorted(dead)}); nothing left to recover onto",
                failure.results,
            ) from failure
        if self.attempt > policy.max_restarts:
            raise SpmdFailure(
                f"rank(s) {sorted(dead)} died and the restart budget "
                f"({policy.max_restarts}) is exhausted",
                failure.results,
            ) from failure

        # The same fault must not fire again on the restarted world: on
        # in-stack backends the shared plan already retired it, but a
        # forked child mutated only its own copy.
        if policy.fault_plan is not None:
            for rank in sorted(dead):
                policy.fault_plan.retire_rank(rank)

        old_owner = world.directory.owners()

        # Resume from the newest epoch whose restored pages cover every
        # known block.  Rank-count completeness alone is not enough: a
        # mixed-attempt epoch (some ranks saved under the old layout,
        # some under the new) can look complete yet miss keys, and a
        # missing key would silently restart that block from epoch 0.
        all_keys = set(old_owner)
        resume = self.store.latest_complete_epoch(self.size) or 0
        restore_pages: Dict[Any, Any] = {}
        while resume > 0:
            candidate = self.store.load_epoch(resume, self.size)
            if not all_keys or all_keys <= set(candidate):
                restore_pages = candidate
                break
            resume -= 1
        self.resume_epoch = int(resume)
        self.restore_pages = restore_pages if self.resume_epoch else {}
        keys = _zorder_sorted(list(old_owner))
        rebalanced = False
        if keys:
            self.ownership = plan_recovery_ownership(
                keys,
                new_size,
                old_owner=old_owner if policy.rebalance else None,
                counters=global_trace().all_counters() if policy.rebalance else None,
                omp_threads=omp_threads,
            )
            rebalanced = policy.rebalance
        event = RecoveryEvent(
            attempt=self.attempt,
            dead_ranks=tuple(sorted(dead)),
            old_size=self.size,
            new_size=new_size,
            resume_epoch=self.resume_epoch,
            rebalanced=rebalanced,
            elapsed=elapsed,
            description=str(failure),
        )
        self.events.append(event)
        self.lost_traffic.merge(NetworkStats(**world.traffic_summary()))
        self.size = new_size


class RecoveryAspect(CheckpointAspect):
    """The resilience aspect module: checkpoint advice and the elastic loop.

    Ordered *outside* the distributed-memory aspect (15 < 20): its entry
    advice wraps the one code path that creates, runs and finalizes a
    world, and proceeds into it again after a recovered failure.
    """

    name = "resilience"

    # ------------------------------------------------------------------
    @around("tagged('platform.entry')", order=0)
    def elastic_run(self, jp):
        """Run the program; after a diagnosed rank death, again on the survivors."""
        platform = self.platform
        layer = next((a for a in platform.aspects if getattr(a, "layer", None) == "mpi"), None)
        if layer is None:
            return jp.proceed()  # no distributed world: no rank can die
        manager = self.manager
        configured = layer.parallelism
        manager.start(configured, platform.backend or DEFAULT_BACKEND)
        try:
            while True:
                # The distributed-memory aspect sizes its world by its
                # parallelism; the run record reports the configured one.
                layer.parallelism = manager.size
                manager.begin_attempt()
                started = time.perf_counter()
                try:
                    return jp.proceed()
                except SpmdFailure as failure:
                    manager.plan_recovery(
                        failure,
                        platform.context["mpi_world"],
                        elapsed=time.perf_counter() - started,
                        omp_threads=platform.parallelism_of("omp"),
                    )
        finally:
            layer.parallelism = configured
            manager.close()

    # ------------------------------------------------------------------
    @before("tagged('platform.initialize')", order=0)
    def install_fault_plan(self, jp):
        """Give the rank's world the fault plan before its ``register``
        fault point; registration commits in a collective, so every plan
        is in place before any owner posts a page reply."""
        plan = self.manager.policy.fault_plan
        world = self.world()
        if plan is not None and world is not None:
            world.install_fault_plan(plan)

    # ------------------------------------------------------------------
    @around("tagged('platform.assign_blocks')", order=0)
    def deal_survivors(self, jp):
        """Re-deal the Blocks by the recovery plan: each surviving rank's
        Blocks round-robin over its omp threads, in the DSL's order."""
        assignment = jp.proceed()
        ownership = self.manager.ownership
        if ownership is None:
            return assignment
        omp = self.platform.parallelism_of("omp")
        dealt: Dict[int, int] = {}
        redealt = []
        for spec, task_id in assignment:
            rank = ownership.get(spec.logical_key)
            if rank is not None:
                nth = dealt.get(rank, 0)
                dealt[rank] = nth + 1
                task_id = rank * omp + nth % omp
            redealt.append((spec, task_id))
        return redealt
